"""Minor containment for small patterns, planarity and outerplanarity.

A pattern is a minor exactly when some sequence of edge contractions of the
host contains the pattern as a subgraph.  One depth-first search walks the
contractions, carrying the original vertices each merged vertex stands for,
so the first host that embeds the pattern hands back the branch sets.  Hosts
that hold no model are remembered by isomorphism class: contractions of
different hosts coincide a lot.

Planarity excludes complete-5 and complete-bipartite-3-3 minors behind the
edge-count prefilter.  Outerplanarity needs no minor search: it peels
vertices of degree at most 2, as in Mitchell's linear-time reduction
(IPL 9, 1979), on adjacency bitmasks, with a mask per vertex for the edges
whose one side, and for those whose both sides, peeled vertices fill.

The host cap bounds only the contraction search, so the answers that need
none come before it: the edge bound of planarity, and a host with fewer
edges than the pattern.  ``theorems`` imports the cap as T8's own, so
``verify`` refuses T8 above it before any work.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, induces_connected
from .families import _iso_key, canonical_key, complete, complete_multipartite

__all__ = ["MinorWitness", "has_minor", "is_outerplanar", "is_planar"]

_MAX_PATTERN = 6
_HOST_CAP = 12

# (host isomorphism key, pattern key) pairs known to have no model.
_REJECTED: set[tuple] = set()
# (pattern, key) pairs of the forbidden minors of planarity, built once.
_K5, _K33 = ((p, canonical_key(p)) for p in (complete(5), complete_multipartite((3, 3))))


class MinorWitness(NamedTuple):
    """Branch sets proving a minor: entry ``i`` is the host mask standing for
    pattern vertex ``i``."""

    branch_sets: tuple[int, ...]

    def validate(self, host: Graph, pattern: Graph) -> None:
        """Re-check the model; raises ``ValueError`` if anything is off."""
        if len(self.branch_sets) != pattern.n:
            raise ValueError("one branch set per pattern vertex is required")
        used = 0
        for i, b in enumerate(self.branch_sets):
            if b == 0:
                raise ValueError(f"branch set {i} is empty")
            if b & ~host.full_mask:
                raise ValueError(f"branch set {i} leaves the host")
            if b & used:
                raise ValueError(f"branch set {i} overlaps another")
            used |= b
            if not induces_connected(host, b):
                raise ValueError(f"branch set {i} is not connected")
        for u, v in pattern.edges():
            if not host.open_neighborhood(self.branch_sets[u]) & self.branch_sets[v]:
                raise ValueError(f"pattern edge ({u},{v}) has no host edge")


def _subgraph_order(pattern: Graph) -> list[int]:
    # Most-constrained-first: high degree, then attachment to already placed.
    order: list[int] = []
    left = set(range(pattern.n))
    while left:
        pick = max(
            left,
            key=lambda v: (
                sum(1 for u in order if pattern.adj[v] >> u & 1),
                pattern.adj[v].bit_count(),
                -v,
            ),
        )
        order.append(pick)
        left.remove(pick)
    return order


def _embed(host: Graph, pattern: Graph) -> list[int] | None:
    """Host vertex of each pattern vertex under an injective edge-preserving
    map, or ``None`` if there is no such map."""
    order = _subgraph_order(pattern)
    earlier = [
        [order[j] for j in range(i) if pattern.adj[order[i]] >> order[j] & 1]
        for i in range(pattern.n)
    ]
    degs = [pattern.adj[v].bit_count() for v in order]
    at = [0] * pattern.n

    def place(i: int, used: int) -> bool:
        if i == pattern.n:
            return True
        cand = host.full_mask & ~used
        for p in earlier[i]:
            cand &= host.adj[at[p]]
        for hv in bits(cand):
            if host.adj[hv].bit_count() < degs[i]:
                continue
            at[order[i]] = hv
            if place(i + 1, used | 1 << hv):
                return True
        return False

    return at if place(0, 0) else None


def _contract(g: Graph, u: int, v: int) -> Graph:
    """Contract the edge ``uv``: ``v`` merges into ``u`` and higher labels shift down."""

    def lab(w: int) -> int:
        if w == v:
            w = u
        return w - (w > v)

    edges = []
    for a, b in g.edges():
        a2, b2 = lab(a), lab(b)
        if a2 != b2:
            edges.append((a2, b2))
    return Graph(g.n - 1, edges)


def _minor(g: Graph, pattern: Graph, pat_key: tuple, branch: list[int]) -> tuple[int, ...] | None:
    """Branch sets of a ``pattern`` model in ``g``, or ``None`` if there is
    none; ``branch[w]`` holds the original vertices current vertex ``w`` stands for."""
    if g.n < pattern.n or g.m < pattern.m:
        return None
    key = (_iso_key(g.adj), pat_key)
    if key in _REJECTED:
        return None
    if (at := _embed(g, pattern)) is not None:
        return tuple(branch[at[p]] for p in range(pattern.n))
    for u, v in g.edges():
        merged = branch.copy()
        merged[u] |= merged.pop(v)  # u < v, as in _contract
        if (found := _minor(_contract(g, u, v), pattern, pat_key, merged)) is not None:
            return found
    _REJECTED.add(key)
    return None


def has_minor(g: Graph, pattern: Graph) -> MinorWitness | None:
    """Branch-set witness if ``pattern`` is a minor of ``g``, else ``None``.

    Patterns are capped at order 6 (embedding one backtracks over the host
    vertices once per pattern vertex) and hosts at 12 vertices (the
    contraction search branches on every edge); a host with fewer edges
    than the pattern is answered first, at any order.
    """
    if pattern.n > _MAX_PATTERN:
        raise ValueError(f"minor patterns are capped at order {_MAX_PATTERN}")
    if g.m < pattern.m:
        return None
    if g.n > _HOST_CAP:
        raise ValueError(f"minor test is capped at {_HOST_CAP} host vertices")
    found = _minor(g, pattern, canonical_key(pattern), [1 << v for v in range(g.n)])
    return None if found is None else MinorWitness(found)


def is_outerplanar(g: Graph) -> bool:
    """Mitchell's reduction: peel the lowest vertex of degree at most 2, and
    join its neighbours if it has two.  ``rows`` is the graph left so far;
    ``one[a]`` and ``two[a]`` hold the neighbours ``b`` of ``a`` such that
    peeled vertices fill one side, or both sides, of edge ``ab``.  An edge
    joined across a full edge is full itself, and a full edge asked to take
    one more side leaves some vertex off the outer face.  No degree grows,
    so ``ready``, the vertices left of degree at most 2, only gains the
    neighbours of a peeled vertex."""
    n = g.n
    if n >= 2 and g.m > 2 * n - 3:
        return False
    rows = list(g.adj)
    one = [0] * n
    two = [0] * n
    ready = sum(1 << v for v, row in enumerate(rows) if row.bit_count() <= 2)
    for _ in range(n):
        if not ready:
            return False
        low = ready & -ready
        ready ^= low
        v = low.bit_length() - 1
        row = rows[v]
        if row.bit_count() == 2:
            a_bit = row & -row
            b_bit = row ^ a_bit
            a, b = a_bit.bit_length() - 1, b_bit.bit_length() - 1
            if rows[a] & b_bit:
                if two[a] & b_bit or two[v]:
                    return False
                side = two if one[a] & b_bit else one
                one[a] &= ~b_bit
                one[b] &= ~a_bit
            else:
                rows[a] |= b_bit
                rows[b] |= a_bit
                side = two if two[v] else one
            side[a] |= b_bit
            side[b] |= a_bit
        while row:
            bit = row & -row
            row ^= bit
            w = bit.bit_length() - 1
            rows[w] ^= low
            one[w] &= ~low
            two[w] &= ~low
            if rows[w].bit_count() <= 2:
                ready |= 1 << w
    return True


def is_planar(g: Graph) -> bool:
    """Forbidden-minor test: no complete-5 and no complete-bipartite-3-3 minor.

    Desk-scale only: a graph the edge bound rules out is answered at any
    order, and the minor search refuses any other host above 12 vertices.
    """
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    if g.n > _HOST_CAP:
        raise ValueError(f"planarity test is capped at {_HOST_CAP} vertices")
    branch = [1 << v for v in range(g.n)]
    return all(_minor(g, p, key, branch) is None for p, key in (_K5, _K33))
