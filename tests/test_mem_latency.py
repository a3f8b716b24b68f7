"""Differential test: the directory's miss latencies vs ``Mesh.hops``.

``CoherentMemory._miss_latency`` computes each requester -> home, home
-> owner and owner -> requester distance once from coordinate arrays,
for loads and stores alike.  The reference below spells the cost model
out as separate load and store rules, with one ``Mesh.hops`` call per
leg and a brute-force farthest sharer, for three directory states: a
remote owner, sharers only (the requester among them and excluded from
the farthest-ack leg), and memory.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, mesh_profile, tile_gx
from repro.mem.cache import _Line


def _ref_latency(m, entry, line_no, cid, store):
    cfg, hops = m.cfg, m.mesh.hops
    node = m.cores[cid].node
    home = line_no % m.mesh.num_nodes
    if entry.owner is not None and entry.owner != cid:
        o = m.cores[entry.owner].node
        return cfg.c_remote_base + cfg.noc_per_hop * (
            hops(node, home) + hops(home, o) + hops(o, node))
    to_home = 2 * hops(node, home)
    if store:
        others = [s for s in entry.sharers if s != cid]
        if others:       # invalidate: home round trip + farthest ack
            far = max(hops(home, m.cores[s].node) for s in others)
            return cfg.c_remote_base + cfg.noc_per_hop * (to_home + far)
        if cid in entry.sharers:       # S -> M upgrade
            return cfg.c_remote_base + cfg.noc_per_hop * to_home
    elif entry.sharers:                # clean copy at home
        return cfg.c_remote_base + cfg.noc_per_hop * to_home
    return cfg.c_mem_base + cfg.noc_per_hop * to_home


def _entries(m, line_no, cid, other):
    """Owned by ``other``, shared by {other, cid}, shared by {other}, empty."""
    owned, shared, shared_other, empty = (
        _Line(m.sim, line_no, m.mem._geo) for _ in range(4))
    owned.owner = other
    shared.sharers.add(other)
    shared.sharers.add(cid)
    shared_other.sharers.add(other)
    return owned, shared, shared_other, empty


def _check(m, entry, line_no, cid):
    for store in (False, True):
        assert m.mem._miss_latency(entry, line_no, cid, store) == \
            _ref_latency(m, entry, line_no, cid, store)


def test_miss_latency_every_triple_tile_gx():
    """Every (requester, home, owner) triple on the paper's 6x6 chip;
    ``owner == requester`` exercises the owner-is-self fallthrough."""
    m = Machine(tile_gx())
    n = m.mesh.num_nodes
    for home in range(n):
        line_no = home + 3 * n          # any line homed at ``home``
        for cid in range(n):
            for owner in range(n):
                for entry in _entries(m, line_no, cid, owner):
                    _check(m, entry, line_no, cid)


@pytest.fixture(scope="module")
def machine_1024():
    return Machine(mesh_profile(32, 32))


@settings(max_examples=300, deadline=None)
@given(cid=st.integers(0, 1023), line_no=st.integers(0, 1 << 20),
       owner=st.integers(0, 1023),
       extra=st.lists(st.integers(0, 1023), max_size=12))
def test_miss_latency_matches_hops_on_32x32(machine_1024, cid, line_no, owner, extra):
    m = machine_1024
    for entry in _entries(m, line_no, cid, owner):
        _check(m, entry, line_no, cid)
    # wider sharer sets, including the bitmap mode past FEW_MAX
    entry = _Line(m.sim, line_no, m.mem._geo)
    for s in [cid, owner] + extra:
        entry.sharers.add(s)
    _check(m, entry, line_no, cid)
