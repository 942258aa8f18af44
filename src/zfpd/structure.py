"""Minor containment for small patterns and the derived planarity predicates.

A pattern is a minor exactly when some sequence of edge contractions of the
host contains the pattern as a subgraph, so the boolean engine walks the
contraction closure, memoized on canonical forms (contractions of different
hosts coincide a lot, which is what makes sweeping hundreds of graphs cheap).
Witnesses come from a separate branch-set search that only runs once the
boolean engine says the minor exists.

Both planarity predicates ride on the same engine: outerplanarity excludes
complete-4 and complete-bipartite-2-3 minors, planarity excludes complete-5
and complete-bipartite-3-3 minors, each behind the classical edge-count
prefilter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import Graph, bits, induces_connected
from .families import _iso_key, canonical_key, complete, complete_multipartite

__all__ = ["MinorWitness", "has_minor", "is_outerplanar", "is_planar"]

_MAX_PATTERN = 6
_PLANARITY_CAP = 12

_MINOR_MEMO: dict[tuple, bool] = {}
# Contracting different edges of one host often yields the same labelled
# graph, so the memo's host key is cached on the adjacency rows.
_host_key = lru_cache(maxsize=65536)(_iso_key)


@dataclass(frozen=True)
class MinorWitness:
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


def _contains_subgraph(host: Graph, pattern: Graph) -> bool:
    """True iff ``pattern`` maps injectively into ``host`` preserving edges."""
    if pattern.n > host.n or pattern.m > host.m:
        return False
    if pattern.n == 0:
        return True
    order = _subgraph_order(pattern)
    earlier = [
        [j for j in range(i) if pattern.adj[order[i]] >> order[j] & 1]
        for i in range(pattern.n)
    ]
    degs = [pattern.adj[v].bit_count() for v in order]
    assign = [0] * pattern.n

    def place(i: int, used: int) -> bool:
        if i == pattern.n:
            return True
        cand = host.full_mask & ~used
        for j in earlier[i]:
            cand &= host.adj[assign[j]]
        for hv in bits(cand):
            if host.adj[hv].bit_count() < degs[i]:
                continue
            assign[i] = hv
            if place(i + 1, used | 1 << hv):
                return True
        return False

    return place(0, 0)


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


def _has_minor_bool(g: Graph, pattern: Graph, pat_key: tuple) -> bool:
    if pattern.n == 0:
        return True
    if g.n < pattern.n or g.m < pattern.m:
        return False
    key = (_host_key(g.adj), pat_key)
    got = _MINOR_MEMO.get(key)
    if got is not None:
        return got
    if _contains_subgraph(g, pattern):
        _MINOR_MEMO[key] = True
        return True
    found = False
    if g.n > pattern.n:
        for u, v in g.edges():
            if _has_minor_bool(_contract(g, u, v), pattern, pat_key):
                found = True
                break
    _MINOR_MEMO[key] = found
    return found


def _find_witness(g: Graph, pattern: Graph) -> MinorWitness | None:
    if pattern.n == 0:
        return MinorWitness(())
    connected_masks = sorted(
        (m for m in range(1, 1 << g.n) if induces_connected(g, m)),
        key=lambda m: (m.bit_count(), m),
    )
    order = _subgraph_order(pattern)
    earlier = [
        [j for j in range(i) if pattern.adj[order[i]] >> order[j] & 1]
        for i in range(pattern.n)
    ]
    chosen: list[int] = [0] * pattern.n
    reach: list[int] = [0] * pattern.n  # host neighborhood of each chosen set

    def place(i: int, used: int) -> bool:
        if i == pattern.n:
            return True
        budget = g.n - used.bit_count() - (pattern.n - i - 1)
        for b in connected_masks:
            if b.bit_count() > budget:
                break
            if b & used:
                continue
            if any(not reach[j] & b for j in earlier[i]):
                continue
            chosen[i] = b
            reach[i] = g.open_neighborhood(b)
            if place(i + 1, used | b):
                return True
        return False

    if not place(0, 0):
        return None
    by_vertex = [0] * pattern.n
    for pos, pv in enumerate(order):
        by_vertex[pv] = chosen[pos]
    return MinorWitness(tuple(by_vertex))


def has_minor(g: Graph, pattern: Graph) -> MinorWitness | None:
    """Branch-set witness if ``pattern`` is a minor of ``g``, else ``None``.

    Patterns are capped at order 6; the witness search is exponential in the
    pattern size.
    """
    if pattern.n > _MAX_PATTERN:
        raise ValueError(f"minor patterns are capped at order {_MAX_PATTERN}")
    if not _has_minor_bool(g, pattern, canonical_key(pattern)):
        return None
    witness = _find_witness(g, pattern)
    if witness is None:
        raise AssertionError("boolean engine and witness search disagree")
    return witness


def _k4() -> Graph:
    return complete(4)


def _k23() -> Graph:
    return complete_multipartite((2, 3))


def _k5() -> Graph:
    return complete(5)


def _k33() -> Graph:
    return complete_multipartite((3, 3))


def is_outerplanar(g: Graph) -> bool:
    """Forbidden-minor test: no complete-4 and no complete-bipartite-2-3 minor."""
    if g.n <= 3:
        return True
    if g.m > 2 * g.n - 3:
        return False
    if _has_minor_bool(g, _k4(), canonical_key(_k4())):
        return False
    return not _has_minor_bool(g, _k23(), canonical_key(_k23()))


def is_planar(g: Graph) -> bool:
    """Forbidden-minor test: no complete-5 and no complete-bipartite-3-3 minor.

    Desk-scale only; refuses hosts above 12 vertices.
    """
    if g.n > _PLANARITY_CAP:
        raise ValueError(f"planarity test is capped at {_PLANARITY_CAP} vertices")
    if g.n <= 4:
        return True
    if g.m > 3 * g.n - 6:
        return False
    if _has_minor_bool(g, _k5(), canonical_key(_k5())):
        return False
    return not _has_minor_bool(g, _k33(), canonical_key(_k33()))
