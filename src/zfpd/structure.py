"""Minor containment for small patterns and the derived planarity predicates.

A pattern is a minor exactly when some sequence of edge contractions of the
host contains the pattern as a subgraph, so the engine walks the contraction
closure, memoized on isomorphism classes (contractions of different hosts
coincide a lot, which is what makes sweeping hundreds of graphs cheap).
Witnesses come from the same engine: once it accepts a host, following its
accepted contractions down to a host that embeds the pattern, while tracking
which original vertices each merged vertex stands for, yields branch sets.

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
# (pattern, memo key) pairs of the forbidden minors, built once.
_K4, _K23, _K5, _K33 = (
    (p, canonical_key(p))
    for p in (complete(4), complete_multipartite((2, 3)), complete(5), complete_multipartite((3, 3)))
)


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


def _embed(host: Graph, pattern: Graph) -> list[int] | None:
    """Host vertex of each pattern vertex under an injective edge-preserving
    map, or ``None`` if there is no such map."""
    if pattern.n > host.n or pattern.m > host.m:
        return None
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


def _has_minor_bool(g: Graph, pattern: Graph, pat_key: tuple) -> bool:
    if pattern.n == 0:
        return True
    if g.n < pattern.n or g.m < pattern.m:
        return False
    key = (_host_key(g.adj), pat_key)
    got = _MINOR_MEMO.get(key)
    if got is not None:
        return got
    if _embed(g, pattern) is not None:
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


def _find_witness(g: Graph, pattern: Graph, pat_key: tuple) -> MinorWitness:
    """Branch sets for a host the engine accepts: contract accepted edges
    until the pattern embeds; ``branch[w]`` holds the original vertices that
    current vertex ``w`` stands for."""
    branch = [1 << v for v in range(g.n)]
    while (at := _embed(g, pattern)) is None:
        # The memo is keyed on isomorphism classes, so an accepted host that
        # does not embed the pattern has an accepted contraction.
        for u, v in g.edges():
            h = _contract(g, u, v)
            if _has_minor_bool(h, pattern, pat_key):
                g = h
                branch[u] |= branch.pop(v)  # u < v, as in _contract
                break
        else:
            raise AssertionError("minor engine accepted a host with no accepted contraction")
    return MinorWitness(tuple(branch[at[p]] for p in range(pattern.n)))


def has_minor(g: Graph, pattern: Graph) -> MinorWitness | None:
    """Branch-set witness if ``pattern`` is a minor of ``g``, else ``None``.

    Patterns are capped at order 6: embedding the pattern backtracks over the
    host vertices once per pattern vertex.
    """
    if pattern.n > _MAX_PATTERN:
        raise ValueError(f"minor patterns are capped at order {_MAX_PATTERN}")
    pat_key = canonical_key(pattern)
    if not _has_minor_bool(g, pattern, pat_key):
        return None
    return _find_witness(g, pattern, pat_key)


def is_outerplanar(g: Graph) -> bool:
    """Forbidden-minor test: no complete-4 and no complete-bipartite-2-3 minor."""
    if g.n <= 3:
        return True
    if g.m > 2 * g.n - 3:
        return False
    if _has_minor_bool(g, *_K4):
        return False
    return not _has_minor_bool(g, *_K23)


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
    if _has_minor_bool(g, *_K5):
        return False
    return not _has_minor_bool(g, *_K33)
