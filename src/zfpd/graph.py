"""Immutable bitset-backed simple undirected graphs.

Vertices are dense integers ``0..n-1``.  A vertex set is a plain ``int``
bitmask, which keeps closures, dominating sets and witnesses cheap to copy,
hash and compare.  Graphs never change after construction, so they can be
shared freely across threads and used as dictionary keys.  Connectivity,
distances and eccentricities come from one breadth-first search,
``Graph._layers``; the diameter grows every vertex's ball at once instead.
The hot loops walk a mask by its lowest set bit inline; ``bits`` is for
the rest.

``Graph.from_rows`` checks rows that come from outside.  ``Graph._of``
stores rows unchecked, and only code that derives them from a graph that is
already valid may call it: the transforms below, the products and the
built-in universe orders of ``families``.

``MAX_ORDER`` (4096) caps the order that input from outside the program may
ask for: an edge-list label, a size given to ``families.generate`` and the
result of a product.  ``check_order`` refuses a larger one with
``ValueError`` before any row is built; writing a graph of order 4096 as
graph6 already takes about a second, and the cost grows with the square of
the order.  graph6 input needs no check, because its length grows with the
square of the order it declares.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "bits",
    "mask_of",
    "k_subsets",
    "is_path",
    "is_tree",
    "induces_connected",
    "MAX_ORDER",
    "check_order",
]

MAX_ORDER = 4096


def check_order(order: int, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` if ``order`` exceeds ``MAX_ORDER``."""
    if order > MAX_ORDER:
        raise ValueError(f"{what} asks for order {order}, above the cap of {MAX_ORDER}")


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def k_subsets(n: int, k: int) -> Iterator[int]:
    """Yield every k-subset of ``{0..n-1}`` as a mask, in increasing numeric order.

    Uses Gosper's hack.  No solver calls it; the tests use it as the
    reference order, in which the first hit is the smallest bitmask.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


class Graph:
    """Simple undirected graph with one adjacency bitmask per vertex."""

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """Build a graph from adjacency bitmasks, validating the invariants."""
        rows = tuple(rows)
        n = len(rows)
        full = (1 << n) - 1
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u} is not allowed")
        for u, row in enumerate(rows):
            while row:
                v = (row & -row).bit_length() - 1
                if not rows[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                row &= row - 1
        return cls._of(rows)

    @classmethod
    def _of(cls, rows: tuple[int, ...] | list[int]) -> "Graph":
        """A graph with adjacency ``rows``, unchecked: for rows derived from a valid graph."""
        g = object.__new__(cls)
        g.n = len(rows)
        g.adj = tuple(rows)
        return g

    # -- basic queries ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for order {self.n}")

    def neighbors(self, v: int) -> int:
        """Open neighborhood of ``v`` as a mask."""
        self._check_vertex(v)
        return self.adj[v]

    def closed_neighbors(self, v: int) -> int:
        """Closed neighborhood of ``v`` as a mask."""
        self._check_vertex(v)
        return self.adj[v] | 1 << v

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degree_stats(self) -> tuple[int, int]:
        """Return ``(min degree, max degree)``; errors on the empty graph."""
        if self.n == 0:
            raise ValueError("degree statistics need at least one vertex")
        degs = [row.bit_count() for row in self.adj]
        return min(degs), max(degs)

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield the edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> u + 1):
                yield u, u + 1 + v

    def open_neighborhood(self, mask: int) -> int:
        """Union of open neighborhoods over the vertices of ``mask``."""
        adj = self.adj
        out = 0
        while mask:
            out |= adj[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        return out

    def closed_neighborhood(self, mask: int) -> int:
        """Union of closed neighborhoods over the vertices of ``mask``."""
        return self.open_neighborhood(mask) | mask

    # -- connectivity and distances --------------------------------------

    def _layers(self, start: int, within: int) -> Iterator[int]:
        """Yield the breadth-first layers grown from the mask ``start`` inside ``within``.

        Layer ``d`` holds the vertices at distance ``d`` from ``start`` in the
        subgraph induced by ``within``.  The layers are disjoint, so their sum
        is the set of vertices reached.
        """
        adj = self.adj
        seen = frontier = start
        while frontier:
            yield frontier
            reach = 0
            while frontier:
                reach |= adj[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & within & ~seen
            seen |= frontier

    def is_connected(self) -> bool:
        if self.n == 0:
            raise ValueError("connectivity is undefined for the empty graph")
        return induces_connected(self, self.full_mask)

    def distance(self, u: int, v: int) -> int | float:
        """BFS distance between ``u`` and ``v``; ``math.inf`` when separated."""
        self._check_vertex(u)
        self._check_vertex(v)
        for d, layer in enumerate(self._layers(1 << u, self.full_mask)):
            if layer >> v & 1:
                return d
        return math.inf

    def eccentricity(self, v: int) -> int:
        """Largest BFS depth from ``v``; requires a connected graph."""
        self._check_vertex(v)
        layers = list(self._layers(1 << v, self.full_mask))
        if sum(layers) != self.full_mask:
            raise ValueError("eccentricity requires a connected graph")
        return len(layers) - 1

    def diameter(self) -> int:
        """Largest distance between two vertices; requires a connected graph.

        Every ball grows at once.  Ball ``v`` starts as the closed row of
        ``v``, radius 1, and each round takes in its neighbours' balls, one
        step wider.  The diameter is the radius at which every ball is every
        vertex; a round in which no ball grows means the graph is disconnected.
        """
        n = self.n
        if n < 2:
            if n == 0:
                raise ValueError("diameter is undefined for the empty graph")
            return 0
        adj = self.adj
        full = self.full_mask
        balls = [row | 1 << v for v, row in enumerate(adj)]
        radius = 1
        while balls.count(full) < n:
            grown = []
            for ball, row in zip(balls, adj):
                if ball != full:
                    while row:
                        ball |= balls[(row & -row).bit_length() - 1]
                        row &= row - 1
                grown.append(ball)
            if grown == balls:
                raise ValueError("diameter requires a connected graph")
            balls = grown
            radius += 1
        return radius

    # -- structural transforms --------------------------------------------

    def are_twins(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` share open or closed neighborhoods."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("twin test needs two distinct vertices")
        if self.adj[u] == self.adj[v]:
            return True
        return self.adj[u] | 1 << u == self.adj[v] | 1 << v

    def complement(self) -> "Graph":
        full = self.full_mask
        rows = [full & ~self.adj[u] & ~(1 << u) for u in range(self.n)]
        return Graph._of(rows)

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) is absent")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._of(rows)

    def induced_subgraph(self, mask: int) -> "Graph":
        """Subgraph induced by ``mask``, relabeled to ``0..k-1`` in sorted order."""
        if mask & ~self.full_mask:
            raise ValueError("mask contains vertices outside the graph")
        verts = list(bits(mask))
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for v in verts:
            for w in bits(self.adj[v] & mask):
                rows[index[v]] |= 1 << index[w]
        return Graph._of(rows)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    # Pickled as the rows alone, half the default's size: pool jobs carry universes.
    def __getstate__(self) -> tuple[int, ...]:
        return self.adj

    def __setstate__(self, adj: tuple[int, ...]) -> None:
        self.n = len(adj)
        self.adj = adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def is_path(g: Graph) -> bool:
    """True iff ``g`` is a simple path (a single vertex counts)."""
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    if not g.is_connected() or g.m != g.n - 1:
        return False
    return g.degree_stats()[1] <= 2


def is_tree(g: Graph) -> bool:
    """True iff ``g`` is connected and acyclic."""
    return g.n >= 1 and g.is_connected() and g.m == g.n - 1


def induces_connected(g: Graph, mask: int) -> bool:
    """True iff ``mask`` is nonempty and induces a connected subgraph."""
    if mask == 0:
        return False
    return sum(g._layers(mask & -mask, mask)) == mask
