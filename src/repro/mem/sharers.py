"""Sparse sharer sets with O(1) farthest-sharer geometry.

The directory in :mod:`repro.mem.cache` keeps, per cache line, the set
of cores holding the line Shared.  A plain ``Set[int]`` is fine on a
6x6 TILE-Gx but becomes the dominant per-event cost on big meshes: the
store-miss path needs ``max(hops(home, sharer))`` over the whole set
(O(sharers) per store), ``sharers - {cid}`` allocates a copy per store,
and widely-shared lines (lock flags, combiner nodes) hold one int per
core.

:class:`SparseSharerSet` replaces it with a representation whose hot
operations (``add``, ``clear``, membership, :meth:`others`,
:meth:`farthest_hop`) are all O(1):

* **few-members mode** -- up to :data:`FEW_MAX` core ids in a sorted
  list; covers the overwhelming majority of lines (a line is usually
  shared by a requester and a server, not the whole chip).  It keeps no
  geometry: :meth:`farthest_hop` scans the at most ``FEW_MAX`` members;
* **bitmap mode** -- an arbitrary-precision int used as a bitmask once
  the line is widely shared; O(1) add/membership, one bit per sharing
  core rather than a hash-table slot;
* **corner aggregates** (bitmap mode only) -- the Manhattan distance on
  a mesh decomposes as ``|hx-sx| + |hy-sy| = max(u_h-u_s, u_s-u_h,
  v_h-v_s, v_s-v_h)`` with ``u = x+y`` and ``v = x-y``, so the farthest
  sharer from any home node needs only the four extremes ``min/max u``
  and ``min/max v`` over the sharers.  Each extreme tracks its best
  *two* (value, cid) entries, so excluding the requesting core from the
  max (the ``s != cid`` filter in the store-invalidation latency) stays
  O(1) too.

The aggregates are lazy: converting to bitmap mode, or a ``discard``
that removes a tracked extreme, drops them, and the next geometry query
rebuilds them in one O(sharers) pass; ``add`` keeps built aggregates up
to date and ``clear`` (back to few mode) drops them without allocating.

Iteration yields core ids in ascending order in both modes, making
runs on the sparse directory deterministic without depending on hash
ordering.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["ENTRY_BASE_BYTES", "FEW_MAX", "MeshGeometry", "SparseSharerSet"]

#: few-members capacity: sized so two-party sharing patterns plus a few
#: stragglers never pay the bitmap conversion
FEW_MAX = 8

#: nominal bookkeeping cost model (bytes), used by the footprint
#: benchmarks: deliberately version-independent (``sys.getsizeof``
#: varies across CPython releases) and counting only what the
#: representation fundamentally needs
ENTRY_BASE_BYTES = 64          # owner + res/cond slots + dict slot
_FEW_MEMBER_BYTES = 8           # one 64-bit id per few-mode member
# 4 corner aggregates x top-2 (val, cid); charged in both modes, since
# the model prices the O(1) query's state, built lazily or not
_AGG_BYTES = 64


class MeshGeometry:
    """Precomputed rotated coordinates (u = x+y, v = x-y) per node/core.

    Shared by every :class:`SparseSharerSet` of a machine; built once
    from the mesh shape and the core->node placement.
    """

    __slots__ = ("node_u", "node_v", "core_u", "core_v")

    def __init__(self, width: int, core_nodes: Sequence[int], num_nodes: int):
        self.node_u: List[int] = []
        self.node_v: List[int] = []
        for n in range(num_nodes):
            x, y = n % width, n // width
            self.node_u.append(x + y)
            self.node_v.append(x - y)
        self.core_u = [self.node_u[n] for n in core_nodes]
        self.core_v = [self.node_v[n] for n in core_nodes]


class _Top2:
    """Best two (value, cid) entries under a fixed direction (+1/-1).

    ``sign=+1`` tracks the maximum, ``sign=-1`` the minimum; the second
    entry is the extreme of the set minus the best's cid, which is
    exactly what excluding one core from the query needs.
    """

    __slots__ = ("sign", "best_val", "best_cid", "second_val", "second_cid")

    def __init__(self, sign: int):
        self.sign = sign
        self.best_cid = -1
        self.second_cid = -1
        self.best_val = 0
        self.second_val = 0

    def add(self, val: int, cid: int) -> None:
        s = self.sign
        if self.best_cid < 0 or s * val > s * self.best_val:
            self.second_val, self.second_cid = self.best_val, self.best_cid
            self.best_val, self.best_cid = val, cid
        elif self.second_cid < 0 or s * val > s * self.second_val:
            self.second_val, self.second_cid = val, cid

    def involves(self, cid: int) -> bool:
        return cid == self.best_cid or cid == self.second_cid

    def value_excluding(self, cid: int) -> Optional[int]:
        if self.best_cid != cid:
            return self.best_val if self.best_cid >= 0 else None
        return self.second_val if self.second_cid >= 0 else None


class SparseSharerSet:
    """The sharer set of one directory entry (see module docstring)."""

    __slots__ = ("_geo", "_few", "_bits", "_n", "_aggs")

    def __init__(self, geo: MeshGeometry):
        self._geo = geo
        self._few: Optional[List[int]] = []   # None once in bitmap mode
        self._bits = 0
        self._n = 0
        # bitmap mode's (max u, min u, max v, min v); None = not built
        self._aggs: Optional[Tuple[_Top2, _Top2, _Top2, _Top2]] = None

    # -- set protocol ------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __contains__(self, cid: int) -> bool:
        few = self._few
        if few is not None:
            return cid in few
        return (self._bits >> cid) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        few = self._few
        if few is not None:
            return iter(few)
        return self._iter_bits()

    def _iter_bits(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            lsb = bits & -bits
            yield lsb.bit_length() - 1
            bits ^= lsb

    def __repr__(self) -> str:
        return f"SparseSharerSet({{{', '.join(map(str, self))}}})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        if isinstance(other, SparseSharerSet):
            return set(self) == set(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable container

    # -- mutation ----------------------------------------------------------
    def add(self, cid: int) -> None:
        few = self._few
        if few is not None:
            if cid in few:
                return
            if len(few) < FEW_MAX:
                # insertion sort step: few is tiny and stays sorted
                i = len(few)
                while i > 0 and few[i - 1] > cid:
                    i -= 1
                few.insert(i, cid)
            else:
                # to bitmap mode; the aggregates are built on first query
                bits = 0
                for m in few:
                    bits |= 1 << m
                self._bits = bits | (1 << cid)
                self._few = None
            self._n += 1
            return
        bit = 1 << cid
        if self._bits & bit:
            return
        self._bits |= bit
        self._n += 1
        aggs = self._aggs
        if aggs is not None:
            geo = self._geo
            u, v = geo.core_u[cid], geo.core_v[cid]
            aggs[0].add(u, cid)
            aggs[1].add(u, cid)
            aggs[2].add(v, cid)
            aggs[3].add(v, cid)

    def discard(self, cid: int) -> None:
        few = self._few
        if few is not None:
            if cid in few:
                few.remove(cid)
                self._n -= 1
            return
        bit = 1 << cid
        if not self._bits & bit:
            return
        self._bits ^= bit
        self._n -= 1
        aggs = self._aggs
        if aggs is not None and any(agg.involves(cid) for agg in aggs):
            self._aggs = None

    def clear(self) -> None:
        if self._few is None:
            self._few = []
            self._bits = 0
            self._aggs = None
        else:
            self._few.clear()
        self._n = 0

    def _aggregates(self) -> Tuple[_Top2, _Top2, _Top2, _Top2]:
        """Bitmap mode's corner aggregates, rebuilt in one pass if dropped."""
        aggs = self._aggs
        if aggs is None:
            max_u, min_u, max_v, min_v = aggs = self._aggs = (
                _Top2(+1), _Top2(-1), _Top2(+1), _Top2(-1))
            geo = self._geo
            for cid in self._iter_bits():
                u, v = geo.core_u[cid], geo.core_v[cid]
                max_u.add(u, cid)
                min_u.add(u, cid)
                max_v.add(v, cid)
                min_v.add(v, cid)
        return aggs

    # -- O(1) queries used by the coherence hot path -----------------------
    def others(self, cid: int) -> bool:
        """True iff some member differs from ``cid`` (``sharers - {cid}``)."""
        n = self._n
        if n == 0:
            return False
        if n >= 2:
            return True
        few = self._few
        sole = few[0] if few is not None else self._bits.bit_length() - 1
        return sole != cid

    def farthest_hop(self, home_node: int, exclude: int = -1) -> int:
        """Max Manhattan hops from ``home_node`` to any member != exclude.

        The caller guarantees a qualifying member exists (checked via
        :meth:`others`).
        """
        geo = self._geo
        hu = geo.node_u[home_node]
        hv = geo.node_v[home_node]
        best = -1
        few = self._few
        if few is not None:
            core_u, core_v = geo.core_u, geo.core_v
            for cid in few:
                if cid != exclude:
                    d = abs(core_u[cid] - hu)
                    dv = abs(core_v[cid] - hv)
                    if dv > d:
                        d = dv
                    if d > best:
                        best = d
        else:
            max_u, min_u, max_v, min_v = self._aggregates()
            for agg, h, sign in ((max_u, hu, 1), (min_u, hu, -1),
                                 (max_v, hv, 1), (min_v, hv, -1)):
                val = agg.value_excluding(exclude)
                if val is not None and sign * (val - h) > best:
                    best = sign * (val - h)
        if best < 0:
            raise ValueError("farthest_hop on an empty (post-exclusion) set")
        return best

    # -- footprint accounting ----------------------------------------------
    def nominal_bytes(self) -> int:
        """Model-level bookkeeping bytes of this set (see module doc)."""
        if self._few is not None:
            members = _FEW_MEMBER_BYTES * len(self._few)
        else:
            # bitmap: one bit per id up to the highest member
            members = (self._bits.bit_length() + 7) // 8
        return members + _AGG_BYTES
