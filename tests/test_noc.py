"""Unit + property tests for the mesh NoC (repro.noc)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc import ContendedMesh, Mesh
from repro.sim import Simulator


# -- Mesh topology ---------------------------------------------------------

def test_coords_row_major():
    m = Mesh(6, 6)
    assert m.coords(0) == (0, 0)
    assert m.coords(5) == (5, 0)
    assert m.coords(6) == (0, 1)
    assert m.coords(35) == (5, 5)


def test_node_at_inverts_coords():
    m = Mesh(6, 6)
    for n in range(m.num_nodes):
        assert m.node_at(*m.coords(n)) == n


def test_hops_manhattan():
    m = Mesh(6, 6)
    assert m.hops(0, 0) == 0
    assert m.hops(0, 5) == 5
    assert m.hops(0, 35) == 10
    assert m.hops(7, 14) == 2  # (1,1) -> (2,2)


def test_latency_formula():
    m = Mesh(6, 6, base=4, per_hop=1, per_word=1)
    assert m.latency(0, 0, words=1) == 4
    assert m.latency(0, 1, words=1) == 5
    assert m.latency(0, 1, words=3) == 7


def test_latency_zero_words_rejected():
    m = Mesh(2, 2)
    with pytest.raises(ValueError):
        m.latency(0, 1, words=0)


def test_route_is_xy():
    m = Mesh(4, 4)
    # from (0,0) to (2,1): x first then y
    assert m.route(0, 6) == [0, 1, 2, 6]


def test_route_length_matches_hops():
    m = Mesh(5, 3)
    for src in range(m.num_nodes):
        for dst in range(m.num_nodes):
            assert len(m.route(src, dst)) == m.hops(src, dst) + 1


def test_invalid_node_raises():
    m = Mesh(2, 2)
    with pytest.raises(ValueError):
        m.coords(4)
    with pytest.raises(ValueError):
        m.coords(-1)


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        Mesh(0, 4)


node_pairs = st.tuples(st.integers(0, 35), st.integers(0, 35))


@given(node_pairs)
def test_hops_symmetric(pair):
    m = Mesh(6, 6)
    a, b = pair
    assert m.hops(a, b) == m.hops(b, a)


@given(node_pairs, st.integers(0, 35))
def test_hops_triangle_inequality(pair, c):
    m = Mesh(6, 6)
    a, b = pair
    assert m.hops(a, b) <= m.hops(a, c) + m.hops(c, b)


@given(node_pairs)
def test_route_steps_are_adjacent(pair):
    m = Mesh(6, 6)
    a, b = pair
    path = m.route(a, b)
    assert path[0] == a and path[-1] == b
    for u, v in zip(path, path[1:]):
        assert m.hops(u, v) == 1


# -- ContendedMesh ----------------------------------------------------------

def test_contended_transit_uncontended_close_to_analytic():
    sim = Simulator()
    m = Mesh(6, 6, base=4, per_hop=1)
    cm = ContendedMesh(sim, m)

    def proc():
        t = yield from cm.transit(0, 3, words=1)
        return t

    p = sim.spawn(proc())
    sim.run()
    # hop latencies plus router base; identical to analytic when idle
    assert p.result == m.latency(0, 3, words=1)
    assert cm.packets_delivered == 1


def test_contended_transit_serializes_on_shared_link():
    sim = Simulator()
    m = Mesh(6, 1, base=0, per_hop=2)
    cm = ContendedMesh(sim, m, link_occupancy=2)
    done = []

    def proc(name):
        yield from cm.transit(0, 5, words=4)
        done.append((name, sim.now))

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    # second packet must finish strictly later than the first
    assert done[0][0] == "a"
    assert done[1][1] > done[0][1]
    assert cm.total_link_wait > 0


def test_contended_same_node_transit():
    sim = Simulator()
    m = Mesh(2, 2, base=3)
    cm = ContendedMesh(sim, m)

    def proc():
        t = yield from cm.transit(1, 1, words=1)
        return t

    p = sim.spawn(proc())
    sim.run()
    assert p.result == 3  # just the router base


# -- arithmetic XY route: differential against a node-by-node walk ----------


def _walk_route(m, src, dst):
    """Reference XY route, one checked node at a time through coords/node_at."""
    (x, y), (dx, dy) = m.coords(src), m.coords(dst)
    path = [m.node_at(x, y)]
    while x != dx:
        x += 1 if dx > x else -1
        path.append(m.node_at(x, y))
    while y != dy:
        y += 1 if dy > y else -1
        path.append(m.node_at(x, y))
    return path


@pytest.mark.parametrize("w,h", [(6, 6), (3, 5), (5, 3), (1, 4), (4, 1)])
def test_route_and_links_equal_node_walk_on_every_pair(w, h):
    m = Mesh(w, h)
    for src in range(w * h):
        for dst in range(w * h):
            ref = _walk_route(m, src, dst)
            assert m.route(src, dst) == ref
            assert list(m.links(src, dst)) == list(zip(ref, ref[1:]))


@given(st.integers(0, 1023), st.integers(0, 1023))
def test_route_equals_node_walk_on_32x32(src, dst):
    m = Mesh(32, 32)
    assert m.route(src, dst) == _walk_route(m, src, dst)


@pytest.mark.parametrize("src,dst", [(-1, 0), (0, -1), (15, 0), (0, 15), (99, 99)])
def test_route_rejects_nodes_off_the_mesh(src, dst):
    m = Mesh(3, 5)
    with pytest.raises(ValueError, match="outside mesh of 15 nodes"):
        m.route(src, dst)
    with pytest.raises(ValueError):
        m.links(src, dst)


def test_contended_mesh_counts_pinned():
    """Many-to-two UDN traffic over the contended 6x6 mesh.  Messages of
    1-3 words queue at shared links and release them late (occupancy >
    per-hop), so this pins the link-wait, flit and per-link register sums
    the hop loop maintains."""
    from repro.machine import Machine, tile_gx

    sinks = (0, 21)
    m = Machine(tile_gx(contended_noc=True))
    ctxs = [m.thread(t) for t in range(36)]
    expect = dict.fromkeys(sinks, 0)

    def sender(ctx):
        for i in range(6):
            yield from ctx.send(sinks[i % 2], list(range(1 + (ctx.tid + i) % 3)))

    def sink(ctx, words):
        for _ in range(words):
            yield from ctx.receive(1)

    for ctx in ctxs:
        if ctx.tid not in sinks:
            for i in range(6):
                expect[sinks[i % 2]] += 1 + (ctx.tid + i) % 3
            m.spawn(ctx, sender(ctx))
    for s in sinks:
        m.spawn(ctxs[s], sink(ctxs[s], expect[s]))
    m.run()
    cm = m.contended_mesh
    links = cm._links.values()
    assert (cm.packets_delivered, cm.total_link_wait, cm.total_flit_cycles) == (204, 4240, 1656)
    assert sum(r.total_acquisitions for r in links) == 828
    assert sum(r.total_wait_cycles for r in links) == 4240
    assert (m.sim.now, m.sim.events_processed) == (421, 2885)
