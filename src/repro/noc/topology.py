"""2D mesh topology with dimension-ordered (XY) routing.

Nodes are numbered row-major: node ``n`` sits at ``(x, y) = (n % width,
n // width)``.  XY routing first moves along X to the destination column,
then along Y -- deadlock-free on a mesh and what Tilera's iMesh uses.

The default latency model is *analytic*: a message of ``words`` 64-bit
words from ``src`` to ``dst`` takes::

    base + per_hop * hops(src, dst) + per_word * max(0, words - 1)

cycles of in-flight time.  This ignores link contention (see
:mod:`repro.noc.router` for the contended variant) which is accurate for
the traffic patterns in this paper's workloads: the mesh is provisioned
far above what synchronization traffic generates, and the paper never
attributes effects to NoC congestion.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

__all__ = ["Mesh"]


class Mesh:
    """A ``width x height`` mesh of nodes with XY routing."""

    __slots__ = ("width", "height", "base", "per_hop", "per_word", "xs", "ys")

    def __init__(self, width: int, height: int, *, base: int = 4, per_hop: int = 1, per_word: int = 1):
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        self.base = base
        self.per_hop = per_hop
        self.per_word = per_word
        # hops() sits on the hot path of every atomic/message latency
        # computation (the coherence model reads these arrays directly),
        # but a precomputed N x N distance table is O(n^2) memory -- 1 M
        # entries at 1024 nodes.  Per-node coordinate arrays keep the
        # lookup allocation-free and O(n) total.
        n = width * height
        self.xs = [a % width for a in range(n)]
        self.ys = [a // width for a in range(n)]

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def coords(self, node: int) -> Tuple[int, int]:
        """Return ``(x, y)`` of ``node`` (row-major numbering)."""
        self._check(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes (analytic XY)."""
        if src < 0 or dst < 0:
            raise ValueError(f"node ids must be non-negative: {src}, {dst}")
        try:
            x, y = self.xs, self.ys
            return abs(x[src] - x[dst]) + abs(y[src] - y[dst])
        except IndexError:
            self._check(src)
            self._check(dst)
            raise

    def latency(self, src: int, dst: int, words: int = 1) -> int:
        """Analytic in-flight latency (cycles) for a ``words``-word packet."""
        if words < 1:
            raise ValueError("packet must carry at least one word")
        return self.base + self.per_hop * self.hops(src, dst) + self.per_word * (words - 1)

    def route(self, src: int, dst: int) -> List[int]:
        """XY route as the list of nodes visited, inclusive of endpoints:
        consecutive ids to the corner ``(dst_x, src_y)``, then stride ``width``."""
        w = self.width
        n = w * self.height
        if not (0 <= src < n and 0 <= dst < n):
            self._check(src)
            self._check(dst)
        corner = src + dst % w - src % w
        path = list(range(src, corner, 1 if corner > src else -1))
        step = w if dst >= corner else -w
        path.extend(range(corner, dst + step, step))
        return path

    def links(self, src: int, dst: int) -> Iterator[Tuple[int, int]]:
        """Directed links traversed by the XY route from ``src`` to ``dst``."""
        path = self.route(src, dst)
        return zip(path, path[1:])

    def _check(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside mesh of {self.num_nodes} nodes")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mesh({self.width}x{self.height}, base={self.base}, per_hop={self.per_hop})"
