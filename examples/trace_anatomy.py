#!/usr/bin/env python3
"""Anatomy of one HYBCOMB operation: a traced timeline.

Records a machine's event log while a few threads hammer a HYBCOMB
counter, then renders an ASCII Gantt chart of a short window, one row
per core.  You can literally see the protocol: a client's FAA round
trip (A), its request send (s) and response wait (v) -- and on the
core that became combiner, the dense receive/respond pipeline (v/s)
with no stalls.

Run:  python examples/trace_anatomy.py
"""

from repro.analysis.render import render_timeline
from repro.core import HybComb, OpTable
from repro.machine import Machine, tile_gx
from repro.objects import LockedCounter


def main() -> None:
    machine = Machine(tile_gx())
    obs = machine.enable_observability(trace=True)  # record the event log
    table = OpTable()
    prim = HybComb(machine, table, max_ops=200)
    counter = LockedCounter(prim)
    prim.start()

    num_threads = 18

    def client(ctx):
        for _ in range(60):
            yield from counter.increment(ctx)
            yield from ctx.work(40)

    for t in range(num_threads):
        ctx = machine.thread(t)
        machine.spawn(ctx, client(ctx), name=f"client-{t}")
    machine.run()

    # pick a 3000-cycle window in the steady state
    t0 = 6000
    print(render_timeline(obs.trace, start=t0, end=t0 + 3000, width=110))
    print(f"total: {counter.value()} increments in {machine.now} cycles "
          f"({counter.value() * 1200 / machine.now:.1f} Mops/s)")
    sessions = [ops for _t, ops in prim.combining_sessions]
    if sessions:
        print(f"combining sessions: {len(sessions)}, "
              f"mean {sum(sessions)/len(sessions):.1f} ops")


if __name__ == "__main__":
    main()
