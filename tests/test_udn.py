"""Tests for the hardware message-passing fabric (repro.udn)."""

import pytest

from repro.machine import Machine, tile_gx, x86_like


def make_machine(**over):
    return Machine(tile_gx(**over))


def test_send_receive_one_word():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [42])

    def receiver(ctx):
        words = yield from ctx.receive(1)
        return words

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    assert p.result == [42]


def test_multiword_message_order_preserved():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [1, 2, 3])

    def receiver(ctx):
        words = yield from ctx.receive(3)
        return words

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    assert p.result == [1, 2, 3]


def test_messages_from_one_sender_arrive_in_order():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        for i in range(10):
            yield from ctx.send(1, [i])

    def receiver(ctx):
        got = []
        for _ in range(10):
            w = yield from ctx.receive(1)
            got.extend(w)
        return got

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    assert p.result == list(range(10))


def test_receive_blocks_until_arrival():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield 500
        yield from ctx.send(1, [7])

    def receiver(ctx):
        w = yield from ctx.receive(1)
        return w[0], m.now

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    v, t = p.result
    assert v == 7
    assert t > 500


def test_receive_k_blocks_until_k_words():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [1])
        yield 400
        yield from ctx.send(1, [2])

    def receiver(ctx):
        w = yield from ctx.receive(2)
        return w, m.now

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    w, t = p.result
    assert w == [1, 2]
    assert t > 400


def test_send_is_asynchronous():
    """The sender must proceed long before the message is delivered."""
    m = make_machine()
    t0 = m.thread(0)
    t35 = m.thread(35)

    def sender(ctx):
        yield from ctx.send(35, [1])
        return m.now

    def receiver(ctx):
        yield from ctx.receive(1)
        return m.now

    ps = m.spawn(t0, sender(t0))
    pr = m.spawn(t35, receiver(t35))
    m.run()
    assert ps.result < pr.result  # sender finished before delivery


def test_receive_from_nonempty_queue_causes_no_stall():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [5, 6, 7])

    def receiver(ctx):
        yield 1000  # message is already queued by now
        s0 = ctx.core.stall_total
        w0 = ctx.core.wait
        yield from ctx.receive(3)
        return ctx.core.stall_total - s0, ctx.core.wait - w0

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    stall, wait = p.result
    assert stall == 0
    assert wait == 0


def test_is_queue_empty():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield 100
        yield from ctx.send(1, [1])

    def receiver(ctx):
        empty_before = yield from ctx.is_queue_empty()
        yield 1000
        empty_after = yield from ctx.is_queue_empty()
        yield from ctx.receive(1)
        empty_drained = yield from ctx.is_queue_empty()
        return empty_before, empty_after, empty_drained

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    assert p.result == (True, False, True)


def test_backpressure_blocks_sender_until_receiver_drains():
    m = make_machine(udn_buffer_words=4)
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        for _ in range(4):
            yield from ctx.send(1, [1, 1])  # 8 words > 4-word buffer
        return m.now

    def receiver(ctx):
        yield 2000
        got = 0
        while got < 8:
            w = yield from ctx.receive(2)
            got += len(w)

    ps = m.spawn(t0, sender(t0))
    m.spawn(t1, receiver(t1))
    m.run()
    assert ps.result > 2000               # sender had to wait for drains
    assert m.udn.backpressure_cycles > 0


def test_oversized_message_rejected():
    m = make_machine(udn_buffer_words=4)
    t0 = m.thread(0)
    m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [0] * 5)

    m.spawn(t0, sender(t0))
    with pytest.raises(ValueError, match="never fit"):
        m.run()


def test_empty_message_rejected():
    m = make_machine()
    t0 = m.thread(0)
    m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [])

    m.spawn(t0, sender(t0))
    with pytest.raises(ValueError, match="empty"):
        m.run()


def test_send_to_unregistered_thread_raises():
    m = make_machine()
    t0 = m.thread(0)

    def sender(ctx):
        yield from ctx.send(99, [1])

    m.spawn(t0, sender(t0))
    with pytest.raises(KeyError, match="not registered"):
        m.run()


def test_oversubscription_demux_queues_are_independent():
    """Four threads on one core, each with its own hardware queue (§6)."""
    m = make_machine()
    receivers = [m.thread(tid, core_id=5, demux=d) for d, tid in enumerate((10, 11, 12, 13))]
    sender = m.thread(0)

    def send_all(ctx):
        for tid in (13, 12, 11, 10):
            yield from ctx.send(tid, [tid * 2])

    def recv(ctx):
        w = yield from ctx.receive(1)
        return w[0]

    procs = [m.spawn(ctx, recv(ctx)) for ctx in receivers]
    m.spawn(sender, send_all(sender))
    m.run()
    assert [p.result for p in procs] == [20, 22, 24, 26]


def test_demux_queue_collision_rejected():
    m = make_machine()
    m.thread(3, core_id=3, demux=0)
    with pytest.raises(ValueError, match="already registered"):
        m.thread(4, core_id=3, demux=0)


def test_1024_registrations_on_a_32x32_mesh():
    from repro.machine import mesh_profile

    m = Machine(mesh_profile(32, 32))
    for tid in range(1024):
        m.thread(tid)
    assert m.udn.endpoint(1023) == (1023, 0)
    with pytest.raises(ValueError,
                       match=r"^queue \(517,0\) already registered to thread 517$"):
        m.udn.register(5000, 517)
    m.udn.register(5000, 517, demux=3)
    assert m.udn.endpoint(5000) == (517, 3)


def test_32x32_machine_holds_one_queue_per_registered_thread():
    """Queues are built at registration: 256 threads on a 1024-core
    mesh hold 256 queues, not the 4,096 the demux hardware provides."""
    from repro.machine import mesh_profile

    m = Machine(mesh_profile(32, 32, contended_noc=True))
    for tid in range(256):
        m.thread(tid, core_id=4 * tid)
    udn = m.udn
    assert len(udn._queues) == 256
    assert sorted(udn._queues) == [(4 * t, 0) for t in range(256)]
    # a move builds the new queue and keeps the drained old one for reuse
    udn.register(0, 1, 2)
    assert len(udn._queues) == 257
    udn.register(0, 0, 0)
    assert len(udn._queues) == 257


def test_blocked_sender_event_names_its_core_buffer():
    """A core buffer keeps its core id; the label of the event a blocked
    sender waits on is formatted only then, with the same text."""
    m = make_machine(udn_buffer_words=4)
    t0, rcv = m.thread(0), m.thread(1)
    buf = m.udn._buffers[rcv.core.cid]
    labels = []

    def sender(ctx):
        yield from ctx.send(1, [0] * 4)
        yield from ctx.send(1, [1, 1])  # blocks: the buffer is full

    def receiver(ctx):
        yield 1000
        labels.extend(entry[0].label for entry in buf._waiters)
        yield from ctx.receive(4)
        yield from ctx.receive(2)

    m.spawn(t0, sender(t0))
    m.spawn(rcv, receiver(rcv))
    m.run()
    assert labels == ["udn buffer space of core 1"]
    assert buf.core == 1 and not hasattr(buf, "label")


def test_blocked_sender_and_link_acquirer_keep_fifo_after_first_block():
    """The waiter queues start as an empty stand-in and become a deque
    at the first block; grants stay in arrival order from there on."""
    from repro.sim import Simulator
    from repro.sim.resources import NO_WAITERS, Resource

    m = make_machine(udn_buffer_words=4)
    rcv = m.thread(1)
    buf = m.udn._buffers[rcv.core.cid]
    assert buf._waiters is NO_WAITERS
    senders = [m.thread(tid) for tid in (2, 3, 4, 5)]
    order = []

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def blocked_sender(ctx, delay, tag):
        yield delay
        yield from ctx.send(1, [tag, tag])
        order.append(tag)

    def receiver(ctx):
        yield 5000
        yield from ctx.receive(4)
        got = []
        for _ in range(3):
            w = yield from ctx.receive(2)
            got.append(w[0])
        return got

    m.spawn(senders[0], filler(senders[0]))
    for ctx, delay, tag in zip(senders[1:], (100, 200, 300), (11, 22, 33)):
        m.spawn(ctx, blocked_sender(ctx, delay, tag))
    p = m.spawn(rcv, receiver(rcv))
    m.run()
    assert order == [11, 22, 33]
    assert p.result == [11, 22, 33]
    assert not buf._waiters and buf._waiters is not NO_WAITERS

    sim = Simulator()
    link = Resource(sim)
    assert link._waiters is NO_WAITERS and link.queue_length == 0
    granted = []

    def acquirer(tag, delay):
        yield delay
        yield from link.acquire()
        granted.append((tag, sim.now))
        yield 10
        link.release()

    for tag, delay in ((1, 0), (2, 1), (3, 2), (4, 3)):
        sim.spawn(acquirer(tag, delay))
    sim.run()
    assert granted == [(1, 0), (2, 10), (3, 20), (4, 30)]
    assert link.in_use == 0 and link.total_acquisitions == 4
    assert link.total_wait_cycles == 9 + 18 + 27


def test_reregistered_thread_moves_queues_and_frees_the_old_one():
    m = make_machine()
    udn = m.udn
    udn.register(7, 2, 0)
    udn.register(7, 2, 0)  # same queue again: allowed
    udn.register(7, 4, 1)  # moves
    assert udn.endpoint(7) == (4, 1)
    udn.register(8, 2, 0)  # the old queue is free
    with pytest.raises(ValueError, match=r"queue \(4,1\) already registered to thread 7"):
        udn.register(9, 4, 1)
    udn.unregister(7)
    udn.register(9, 4, 1)  # unregistering frees the queue too
    assert udn.endpoint(9) == (4, 1)
    with pytest.raises(KeyError, match="thread 7 is not registered"):
        udn.endpoint(7)


def test_reregistering_with_words_pending_is_refused():
    """A move would strand the queued words and the buffer space they
    hold (later senders to that core could block forever), so it is
    refused exactly like unregistering."""
    m = make_machine()
    t0 = m.thread(0)
    m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [1, 2])

    m.spawn(t0, sender(t0))
    m.run()
    udn = m.udn
    with pytest.raises(RuntimeError, match="^thread 1 moving with 2 words pending$"):
        udn.register(1, 5, 0)
    assert udn.endpoint(1) == (1, 0)  # nothing moved
    with pytest.raises(ValueError, match="already registered to thread 1"):
        udn.register(2, 1, 0)
    udn.register(1, 1, 0)  # same queue again: still allowed
    assert udn.queue_depth(1) == 2


def test_message_calls_follow_a_moved_endpoint():
    m = make_machine()
    cap = m.cfg.udn_buffer_words
    t0 = m.thread(0)
    t7 = m.thread(7, core_id=2)
    udn = m.udn
    udn.register(7, 4, 1)  # moves the receive endpoint to core 4, queue 1

    def sender(ctx):
        yield from ctx.send(7, [5, 6])

    m.spawn(t0, sender(t0))
    m.run()
    assert udn.queue_depth(7) == 2
    assert udn._buffers[4].free_words == cap - 2
    assert udn._buffers[2].free_words == cap
    assert not udn._queues[(2, 0)].words

    def receiver(ctx):
        empty = yield from ctx.is_queue_empty()
        words = yield from ctx.receive(2)
        return empty, words

    p = m.spawn(t7, receiver(t7))
    m.run()
    assert p.result == (False, [5, 6])
    assert udn._buffers[4].free_words == cap


@pytest.mark.parametrize("call", [
    lambda c: c.send(3, [1]), lambda c: c.receive(1), lambda c: c.is_queue_empty()])
def test_message_calls_on_an_unregistered_tid_raise_keyerror(call):
    m = make_machine()
    ctx = m.thread(3)
    m.udn.unregister(3)

    def prog():
        yield from call(ctx)

    m.spawn(ctx, prog())
    with pytest.raises(KeyError) as info:
        m.run()
    assert info.value.args == ("thread 3 is not registered with the UDN",)


@pytest.mark.parametrize("call", [
    lambda c: c.send(1, [1]), lambda c: c.receive(1), lambda c: c.is_queue_empty()])
def test_no_udn_profile_message_calls_name_the_profile(call):
    m = Machine(x86_like())
    ctx = m.thread(0)

    def prog():
        yield from call(ctx)

    m.spawn(ctx, prog())
    with pytest.raises(RuntimeError,
                       match=f"profile {m.cfg.name!r} has no hardware message passing"):
        m.run()


def test_x86_profile_has_no_udn():
    m = Machine(x86_like())
    ctx = m.thread(0)
    m.thread(1)

    def sender(c):
        yield from c.send(1, [1])

    m.spawn(ctx, sender(ctx))
    with pytest.raises(RuntimeError, match="no hardware message passing"):
        m.run()


def test_udn_send_charges_only_injection_cost():
    m = make_machine()
    t0 = m.thread(0)
    m.thread(35)

    def sender(ctx):
        t_start = m.now
        yield from ctx.send(35, [1, 2, 3])
        return m.now - t_start

    p = m.spawn(t0, sender(t0))
    m.run()
    assert p.result == m.cfg.udn_send_base + 3 * m.cfg.udn_send_per_word


# ---------------------------------------------------------------------------
# backpressure fairness and timed operations (robustness extensions)
# ---------------------------------------------------------------------------

def test_backpressure_grants_space_in_fifo_order():
    """Regression: notify_all wakeups let a late sender race past an
    earlier blocked one.  Space must be granted in arrival order."""
    m = make_machine(udn_buffer_words=4)
    rcv = m.thread(1)
    senders = [m.thread(tid) for tid in (2, 3, 4)]
    order = []

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)  # fills the buffer exactly

    def blocked_sender(ctx, delay, tag):
        yield delay  # stagger arrival at the full buffer
        yield from ctx.send(1, [tag, tag])
        order.append(tag)

    def receiver(ctx):
        yield 5000  # everyone is queued on the full buffer by now
        got = []
        yield from ctx.receive(4)  # frees 4 words at once
        for _ in range(2):
            w = yield from ctx.receive(2)
            got.append(w[0])
        return got

    m.spawn(senders[0], filler(senders[0]))
    m.spawn(senders[1], blocked_sender(senders[1], 100, 11))
    m.spawn(senders[2], blocked_sender(senders[2], 200, 22))
    p = m.spawn(rcv, receiver(rcv))
    m.run()
    # sender that blocked first completes first AND its words arrive first
    assert order == [11, 22]
    assert p.result == [11, 22]


def test_small_request_cannot_barge_past_larger_blocked_one():
    m = make_machine(udn_buffer_words=4)
    rcv = m.thread(1)
    t2, t3, t4 = (m.thread(t) for t in (2, 3, 4))
    granted = {}

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def big(ctx):
        yield 100
        yield from ctx.send(1, [7] * 3)  # needs 3 words, queues first
        granted["big"] = m.now

    def small(ctx):
        yield 200
        yield from ctx.send(1, [8])  # 1 word would fit sooner, must wait
        granted["small"] = m.now

    def receiver(ctx):
        yield 5000
        yield from ctx.receive(2)  # frees 2 words: enough for small only
        checkpoint = m.now
        yield 500                  # strict FIFO: small must still be queued
        yield from ctx.receive(2)  # 4 words free in total: both proceed
        yield 500
        w = []
        while len(w) < 4:
            w.extend((yield from ctx.receive(1)))
        return checkpoint, w

    m.spawn(t2, filler(t2))
    m.spawn(t3, big(t3))
    m.spawn(t4, small(t4))
    p = m.spawn(rcv, receiver(rcv))
    m.run()
    checkpoint, words = p.result
    # small's single word would have fit after the first drain, but the
    # bigger request queued first -- small may only be granted space once
    # big was (i.e. after the second drain)
    assert granted["small"] > checkpoint + 500
    assert sorted(words) == [7, 7, 7, 8]


def test_receive_timeout_raises_and_consumes_nothing():
    from repro.udn import ReceiveTimeout

    m = make_machine()
    t0 = m.thread(0)
    m.thread(1)

    def receiver(ctx):
        try:
            yield from ctx.receive(1, timeout=300)
        except ReceiveTimeout as exc:
            return ("timeout", m.now, exc.waited)

    p = m.spawn(t0, receiver(t0))
    m.run()
    assert p.result == ("timeout", 300, 300)


def test_receive_timeout_leaves_partial_words_queued():
    from repro.udn import ReceiveTimeout

    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)

    def sender(ctx):
        yield from ctx.send(1, [5])  # one word; receiver wants two

    def receiver(ctx):
        try:
            yield from ctx.receive(2, timeout=500)
        except ReceiveTimeout:
            pass
        w = yield from ctx.receive(1)  # the queued word is still there
        return w

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    assert p.result == [5]


def test_arrival_in_timeout_cycle_beats_the_timeout():
    """A message arriving in the very cycle the timeout expires must win
    (deterministically), so retries never drop a served response."""
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)
    transit = (m.cfg.udn_send_base + m.cfg.udn_send_per_word
               + m.mesh.latency(m.cores[0].node, m.cores[1].node, 1))

    def sender(ctx, fire_at):
        yield fire_at
        yield from ctx.send(1, [9])

    def receiver(ctx, deadline):
        w = yield from ctx.receive(1, timeout=deadline)
        return w

    # arrange delivery exactly at the deadline cycle
    deadline = 400
    p = m.spawn(t1, receiver(t1, deadline))
    m.spawn(t0, sender(t0, deadline - transit))
    m.run()
    assert p.result == [9]


def test_send_timeout_reserves_nothing():
    from repro.udn import SendTimeout

    m = make_machine(udn_buffer_words=4)
    t0 = m.thread(0)
    t1 = m.thread(1)
    t2 = m.thread(2)

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def impatient(ctx):
        yield 100
        try:
            yield from ctx.send(1, [1, 1], timeout=200)
        except SendTimeout:
            return ("timeout", m.now)

    def receiver(ctx):
        yield 5000
        w = yield from ctx.receive(4)
        # queue must hold only the filler's words: the timed-out sender
        # neither delivered nor left a reservation behind
        empty = yield from ctx.is_queue_empty()
        return w, empty

    m.spawn(t0, filler(t0))
    pi = m.spawn(t2, impatient(t2))
    pr = m.spawn(t1, receiver(t1))
    m.run()
    assert pi.result == ("timeout", 300)
    w, empty = pr.result
    assert w == [0, 0, 0, 0] and empty


def test_timed_operations_reject_nonpositive_timeout():
    m = make_machine()
    t0 = m.thread(0)
    m.thread(1)

    def bad_recv(ctx):
        yield from ctx.receive(1, timeout=0)

    m.spawn(t0, bad_recv(t0))
    with pytest.raises(ValueError, match="timeout"):
        m.run()


def test_backpressure_accounted_per_sender_core():
    """Satellite of the overload work: blame attribution needs to know
    *which* sender core congestion stalled, not just the aggregate."""
    m = make_machine(udn_buffer_words=4)
    rcv = m.thread(1)
    t2, t3 = m.thread(2), m.thread(3)
    t5 = m.thread(5)  # never blocked: its core must stay at zero

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def blocked(ctx, delay):
        yield delay
        yield from ctx.send(1, [1, 1])

    def free_rider(ctx):
        yield 10_000  # after the drains: plenty of space, no blocking
        yield from ctx.send(1, [9])

    def receiver(ctx):
        yield 5_000
        got = 0
        while got < 9:
            got += len((yield from ctx.receive(1)))

    m.spawn(t2, filler(t2))
    m.spawn(t2, blocked(t2, 100))
    m.spawn(t3, blocked(t3, 200))
    m.spawn(t5, free_rider(t5))
    m.spawn(rcv, receiver(rcv))
    m.run()
    bp = m.udn.backpressure_by_core
    assert bp[t2.core.cid] > 0
    assert bp[t3.core.cid] > 0
    assert bp[t5.core.cid] == 0
    # the first blocked sender waited longer than the one behind... no:
    # FIFO grants mean the *earlier* sender unblocks first; both waited
    # from their arrival until their grant, so earlier arrival => longer
    assert bp[t2.core.cid] > bp[t3.core.cid] - 200
    assert m.udn.backpressure_cycles == sum(bp)


def _grant_race_machine():
    """Full buffer whose space frees at an exactly known cycle.

    The receiver drains 4 queued words after an idle wait of D cycles;
    `receive` charges its fixed cost before releasing buffer space, so
    the grant lands at exactly D + recv_cost.
    """
    m = make_machine(udn_buffer_words=4)
    D = 2_000
    grant_at = D + m.cfg.udn_recv_base + m.cfg.udn_recv_per_word * 4
    return m, D, grant_at


def test_space_grant_in_send_timeout_cycle_beats_the_timeout():
    """The send-side twin of the arrival-beats-timeout rule: buffer space
    granted in the very cycle the send deadline expires must win."""
    m, D, grant_at = _grant_race_machine()
    t0, t1, t2 = m.thread(0), m.thread(1), m.thread(2)

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def impatient(ctx):
        yield 100
        # deadline == grant cycle, to the cycle
        yield from ctx.send(1, [9, 9], timeout=grant_at - 100)
        return "sent"

    def receiver(ctx):
        yield D
        first = yield from ctx.receive(4)
        rest = []
        while len(rest) < 2:
            rest.extend((yield from ctx.receive(1)))
        return first, rest

    m.spawn(t0, filler(t0))
    pi = m.spawn(t2, impatient(t2))
    pr = m.spawn(t1, receiver(t1))
    m.run()
    assert pi.result == "sent"
    first, rest = pr.result
    assert first == [0, 0, 0, 0] and rest == [9, 9]


def test_send_timeout_one_cycle_before_grant_still_expires():
    """Boundary partner of the grant-wins test: a deadline one cycle
    before the grant must time out (nothing sent, nothing reserved)."""
    from repro.udn import SendTimeout

    m, D, grant_at = _grant_race_machine()
    t0, t1, t2 = m.thread(0), m.thread(1), m.thread(2)

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def impatient(ctx):
        yield 100
        try:
            yield from ctx.send(1, [9, 9], timeout=grant_at - 100 - 1)
        except SendTimeout:
            return ("timeout", m.now)

    def receiver(ctx):
        yield D
        w = yield from ctx.receive(4)
        yield 2_000
        empty = yield from ctx.is_queue_empty()
        return w, empty

    m.spawn(t0, filler(t0))
    pi = m.spawn(t2, impatient(t2))
    pr = m.spawn(t1, receiver(t1))
    m.run()
    assert pi.result == ("timeout", grant_at - 1)
    w, empty = pr.result
    assert w == [0, 0, 0, 0] and empty


def test_send_timeout_withdrawal_keeps_fifo_for_later_sender():
    """A timed-out sender withdrawing from the middle of the reservation
    queue must not disturb the grant order of the senders behind it."""
    from repro.udn import SendTimeout

    m = make_machine(udn_buffer_words=4)
    rcv = m.thread(1)
    t2, t3, t4 = m.thread(2), m.thread(3), m.thread(4)

    def filler(ctx):
        yield from ctx.send(1, [0] * 4)

    def impatient(ctx):
        yield 100
        try:
            yield from ctx.send(1, [7, 7], timeout=300)
        except SendTimeout:
            return "timeout"

    def patient(ctx):
        yield 200  # queues *behind* the timed sender
        yield from ctx.send(1, [8, 8])
        return m.now

    def receiver(ctx):
        yield 5_000
        yield from ctx.receive(4)
        rest = []
        while len(rest) < 2:
            rest.extend((yield from ctx.receive(1)))
        yield 2_000
        empty = yield from ctx.is_queue_empty()
        return rest, empty

    m.spawn(t2, filler(t2))
    pi = m.spawn(t3, impatient(t3))
    pp = m.spawn(t4, patient(t4))
    pr = m.spawn(rcv, receiver(rcv))
    m.run()
    assert pi.result == "timeout"
    assert pp.result > 5_000        # unblocked by the drain, not the withdraw
    rest, empty = pr.result
    # only the patient sender's words ever arrive; the withdrawn ones don't
    assert rest == [8, 8] and empty


def test_policy_delayed_arrival_on_deadline_cycle_still_wins():
    """The explore seam stretches transit; an arrival the policy lands
    exactly on the receive deadline must still beat the timeout."""
    from repro.explore.policy import SchedulePolicy

    class FixedDelay(SchedulePolicy):
        def __init__(self, extra):
            super().__init__()
            self.extra = extra

        def _udn_choice(self, src_node, dst_core, demux, n_words, now):
            return self.extra

    m = make_machine()
    t0, t1 = m.thread(0), m.thread(1)
    inject = m.cfg.udn_send_base + m.cfg.udn_send_per_word
    transit = m.mesh.latency(m.cores[0].node, m.cores[1].node, 1)
    deadline = 900
    # sender fires at t=0: undelayed arrival would be inject + transit;
    # the policy stretches it to land exactly on the deadline cycle
    m.sim.policy = FixedDelay(deadline - inject - transit)

    def sender(ctx):
        yield from ctx.send(1, [3])

    def receiver(ctx):
        w = yield from ctx.receive(1, timeout=deadline)
        return w, m.now

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    w, t = p.result
    assert w == [3] and t >= deadline


def test_transit_jitter_hook_delays_delivery():
    m = make_machine()
    t0 = m.thread(0)
    t1 = m.thread(1)
    m.udn.transit_jitter = lambda s, d, n: 123

    def sender(ctx):
        yield from ctx.send(1, [1])

    def receiver(ctx):
        yield from ctx.receive(1)
        return m.now

    m.spawn(t0, sender(t0))
    p = m.spawn(t1, receiver(t1))
    m.run()
    base = (m.cfg.udn_send_base + m.cfg.udn_send_per_word
            + m.mesh.latency(m.cores[0].node, m.cores[1].node, 1))
    assert p.result >= base + 123
