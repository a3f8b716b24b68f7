"""Differential test: the directory's miss transitions vs ``Mesh.hops``.

``CoherentMemory._miss`` picks a ``TRANSITIONS`` row for each miss and
computes each requester -> home, home -> owner and owner -> requester
distance once from coordinate arrays.  The reference below spells the
protocol out as separate load and store rules, each returning the
transition label and the latency, with one ``Mesh.hops`` call per leg
and a brute-force farthest sharer, for four directory states: a remote
owner, sharers only (the requester among them or not) and memory.  A
last test runs each row's read or ownership transaction and checks the
directory state it leaves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, mesh_profile, tile_gx
from repro.mem.cache import (OWN, OWNED, READ, SHARED, SOLE, TRANSITIONS,
                             UNCACHED, _Line)


def _ref_load(m, entry, line_no, cid):
    """(label, latency) of a read miss; the requester holds no copy."""
    cfg, hops = m.cfg, m.mesh.hops
    node = m.cores[cid].node
    home = line_no % m.mesh.num_nodes
    if entry.owner is not None:        # forwarded by the owner
        o = m.cores[entry.owner].node
        return "M->S", cfg.c_remote_base + cfg.noc_per_hop * (
            hops(node, home) + hops(home, o) + hops(o, node))
    if entry.sharers:                  # clean copy at home
        return "S->S", cfg.c_remote_base + cfg.noc_per_hop * 2 * hops(node, home)
    return "mem->S", cfg.c_mem_base + cfg.noc_per_hop * 2 * hops(node, home)


def _ref_store(m, entry, line_no, cid):
    """(label, latency) of an ownership miss; the requester is no owner."""
    cfg, hops = m.cfg, m.mesh.hops
    node = m.cores[cid].node
    home = line_no % m.mesh.num_nodes
    if entry.owner is not None:        # ownership moves from the owner
        o = m.cores[entry.owner].node
        return "M->M", cfg.c_remote_base + cfg.noc_per_hop * (
            hops(node, home) + hops(home, o) + hops(o, node))
    to_home = 2 * hops(node, home)
    others = [s for s in entry.sharers if s != cid]
    if others:                         # invalidate: home round trip + farthest ack
        far = max(hops(home, m.cores[s].node) for s in others)
        return "inv", cfg.c_remote_base + cfg.noc_per_hop * (to_home + far)
    if cid in entry.sharers:           # S -> M upgrade
        return "upgrade", cfg.c_remote_base + cfg.noc_per_hop * to_home
    return "mem->M", cfg.c_mem_base + cfg.noc_per_hop * to_home


def _observed(m):
    """The machine with a recorder of each ``cache.miss`` label."""
    labels = []
    m.enable_observability().bus.subscribe_kinds(
        ("cache.miss",), lambda cycle, kind, args: labels.append(args[3]))
    return m, labels


def _entries(m, line_no, cid, other):
    """Owned by ``other``, shared by {other, cid}, shared by {other}, empty."""
    owned, shared, shared_other, empty = (
        _Line(m.sim, line_no, m.mem._geo) for _ in range(4))
    owned.owner = other
    shared.sharers.add(other)
    shared.sharers.add(cid)
    shared_other.sharers.add(other)
    return owned, shared, shared_other, empty


def _check(m, labels, entry, line_no, cid, seen):
    for store, ref in ((False, _ref_load), (True, _ref_store)):
        if entry.owner == cid or (not store and cid in entry.sharers):
            continue                   # a hit: no directory miss
        label, latency = ref(m, entry, line_no, cid)
        assert m.mem._miss(entry, line_no, cid, "probe", store) == latency
        assert labels.pop() == label
        seen.add(label)


def test_miss_latency_every_triple_tile_gx():
    """Every (requester, home, owner) triple on the paper's 6x6 chip
    reaches every row of the transition table."""
    m, labels = _observed(Machine(tile_gx()))
    n = m.mesh.num_nodes
    seen = set()
    for home in range(n):
        line_no = home + 3 * n          # any line homed at ``home``
        for cid in range(n):
            for owner in range(n):
                for entry in _entries(m, line_no, cid, owner):
                    _check(m, labels, entry, line_no, cid, seen)
    assert seen == set(TRANSITIONS.values())


@pytest.fixture(scope="module")
def machine_1024():
    return _observed(Machine(mesh_profile(32, 32)))


@settings(max_examples=300, deadline=None)
@given(cid=st.integers(0, 1023), line_no=st.integers(0, 1 << 20),
       owner=st.integers(0, 1023),
       extra=st.lists(st.integers(0, 1023), max_size=12))
def test_miss_latency_matches_hops_on_32x32(machine_1024, cid, line_no, owner, extra):
    m, labels = machine_1024
    seen = set()
    for entry in _entries(m, line_no, cid, owner):
        _check(m, labels, entry, line_no, cid, seen)
    # wider sharer sets, including the bitmap mode past FEW_MAX
    entry = _Line(m.sim, line_no, m.mem._geo)
    for s in [cid, owner] + extra:
        entry.sharers.add(s)
    _check(m, labels, entry, line_no, cid, seen)


#: one directory state per row, found by requester core 0: (owner, sharers)
_ROW_STATES = {
    (READ, OWNED): (5, ()),
    (READ, SHARED): (None, (5, 30)),
    (READ, UNCACHED): (None, ()),
    (OWN, OWNED): (5, ()),
    (OWN, SHARED): (None, (0, 5, 30)),
    (OWN, SOLE): (None, (0,)),
    (OWN, UNCACHED): (None, ()),
}


@pytest.mark.parametrize("row", list(TRANSITIONS), ids=TRANSITIONS.get)
def test_each_row_transaction_leaves_its_state(row):
    """A read demotes an owner to a sharer and joins the sharers; an
    ownership step leaves the requester sole owner with no sharers.
    Either takes exactly the row's latency."""
    store, _found = row
    owner, sharers = _ROW_STATES[row]
    m, labels = _observed(Machine(tile_gx()))
    mem, line_no = m.mem, 7
    entry = mem._line(line_no)
    entry.owner = owner
    for s in sharers:
        entry.sharers.add(s)
    label, latency = (_ref_store if store else _ref_load)(m, entry, line_no, 0)

    def txn():
        if not store:
            yield from mem._read(entry, line_no, 0, "load")
            return
        yield from entry.res.acquire()
        try:
            yield from mem._own(entry, line_no, 0, "store")
        finally:
            entry.res.release()

    m.sim.spawn(txn())
    m.sim.run()
    assert labels == [label] == [TRANSITIONS[row]]
    assert m.now == latency
    if store:
        assert entry.owner == 0 and not entry.sharers
    else:
        expected = set(sharers) | {0} | ({owner} if owner is not None else set())
        assert entry.owner is None and set(entry.sharers) == expected
