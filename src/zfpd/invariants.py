"""Exact solvers for the forcing and domination parameters, with witnesses.

Every solver searches cardinalities in ascending order and, within one
cardinality, masks in ascending numeric order, so the returned witness is
always the smallest-bitmask minimum set.  The four set-valued solvers share
one ascending size loop, ``_minimum``.  The domination searches and power
domination share one ``k``-subset search, ``_first_subset``, which carries
the union of the chosen vertices' rows down its recursion; power
domination calls ``_spread`` once per complete subset, because its sweeps
usually hit early.  Zero forcing, whose sweeps mostly refute, has its own
search in the same order, which carries the closure of the chosen vertices
and uses that a closed set other than every vertex leaves a fort white
(Brimkov, Fast and Hicks, EJOR 2019): a level with two or more vertices
left skips every top vertex ``t`` while the closure of the chosen vertices
and ``0..t`` is not every vertex, and at the last vertex a failed closure
drops every candidate inside it.  The shortcuts never change the answer,
since each skips only subsets that fail: no set smaller than the minimum
degree forces, a partial choice that already forces makes every
completion force, a total dominating set never has fewer than two
vertices, and the domination searches skip a branch whose union cannot
cover every vertex even with all the rows still available to it.  The
tests compare every solver with unpruned reference sweeps for every set
size.

The two partition-valued solvers answer 1 for a graph that is itself one
part, a path or a spider, before listing any part.  Otherwise they list
their candidate parts, the induced paths of a graph or the spiders of a
tree, by growing each one a vertex at a time from a single vertex, and
``_fewest_parts`` runs budgets ``k = 1, 2, ...`` through ``_minimum``.
Budget ``k`` asks whether the vertices split into at most ``k`` parts, by a
depth-first search over the parts that hold the lowest uncovered vertex,
largest first; a memo keeps, for each vertex set it refutes, the largest
budget refuted, from one ``k`` to the next.  At ``k = 2`` the search is a
set lookup of each part's complement.  The witness takes, at each step, the
smallest part whose remainder fits in one part fewer, which is the witness
of a subset dynamic program that keeps the smallest part mask among the
optimal ones; the tests compare the two.

The solvers alone decide which graphs they accept.  Each one needs a
nonempty connected graph, the total domination number at least two vertices
and the spider number a tree.  A cap bounds only a search, so an answer that
needs none comes first: zero forcing's minimum-degree shortcut, a path, a
spider.  The ``k``-subset searches share one guard, ``_sweepable``, which
refuses a size ``k`` above 256 or with more than 1,000,000 subsets of ``n``
vertices; the partition searches refuse a graph above the path cover or
spider cap.  ``theorems`` imports those two order caps, and the largest
order at which no size is refused, so ``verify`` refuses a run above one
before any work.  A refusal is a ``ValueError``
whose message ``zfpd compute`` reports, unchanged, under ``skipped``.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, Union

from .graph import Graph, bits, is_path, is_tree
# closure is unused here but stays a module attribute: perfbench/tracer.py
# wraps invariants.closure.
from .propagation import ForceLog, _spread, closure, closure_with_log  # noqa: F401

__all__ = [
    "ParamResult",
    "zero_forcing_number",
    "power_domination_number",
    "domination_number",
    "total_domination_number",
    "path_cover_number",
    "spider_number",
    "is_spider",
    "find_zero_forcing_set",
    "find_power_dominating_set",
]

_PATH_COVER_CAP = 24
_SPIDER_CAP = 20
_SUBSET_CAP = 1_000_000
# The k-subset searches recurse once per chosen vertex; this keeps them well
# inside Python's recursion limit, and Z(K_257) = 256 takes about 3 s.
_SET_CAP = 256
# The largest order at which ``_sweepable`` refuses no size, C(n, n // 2)
# being the largest C(n, k): 22.  A full minimum over k-subsets (power
# domination, domination, total domination) never fails up to it.
_FULL_SWEEP_CAP = max(n for n in range(_SET_CAP + 1) if comb(n, n // 2) <= _SUBSET_CAP)

Witness = Union[int, tuple[tuple[int, ...], ...]]
W = TypeVar("W")


class ParamResult(NamedTuple):
    """A parameter value plus the witness that attains it.

    ``witness`` is a vertex mask for the set-valued parameters and a tuple
    of vertex sequences for the partition-valued ones.  ``certificate``
    carries the force log that proves a forcing-style witness works.
    """

    value: int
    witness: Witness
    certificate: Optional[ForceLog] = None


def _require_connected(g: Graph) -> None:
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("disconnected graph")


def _sweepable(n: int, k: int, what: str) -> bool:
    """Whether ``n`` vertices have ``k``-subsets; refuses a size too large to sweep."""
    if k < 0 or k > n:
        return False
    if k > _SET_CAP:
        raise ValueError(f"{what} search is capped at sets of {_SET_CAP} vertices")
    if comb(n, k) > _SUBSET_CAP:
        raise ValueError(f"{what} search is capped at {_SUBSET_CAP} subsets of one size")
    return True


def _first_subset(g: Graph, rows: Sequence[int], k: int, forcing: bool, what: str) -> Optional[int]:
    """Smallest ``k``-subset mask whose union of ``rows`` covers ``g``, if any.

    The top vertex ``t`` runs upward and the rest are chosen below ``t`` the
    same way, which is ascending numeric order, so the first hit is the
    smallest such mask.  Each level ORs in one row.  Without ``forcing`` the
    union must be every vertex, and a branch whose union cannot reach every
    vertex even with all rows below ``t`` is skipped; no subset in it
    covers, so the hit is the same.  With ``forcing`` the closure of the
    union must be every vertex, spread once per complete subset by
    ``_spread`` directly, with no bounds check: the union is of the graph's
    own rows.
    """
    n = g.n
    if not _sweepable(n, k, what):
        return None
    full = g.full_mask
    adj = g.adj
    below = [0] * n
    if not forcing:
        for t in range(1, n):
            below[t] = below[t - 1] | rows[t - 1]

    def search(j: int, hi: int, union: int, chosen: int) -> Optional[int]:
        # Choose the ``j`` remaining vertices from ``range(hi)``.
        if j == 1:
            for t in range(hi):
                u = union | rows[t]
                if forcing:
                    u = _spread(adj, u, u)
                if u == full:
                    return chosen | 1 << t
            return None
        for t in range(j - 1, hi):
            u = union | rows[t]
            if not forcing and u | below[t] != full:
                continue
            hit = search(j - 1, t, u, chosen | 1 << t)
            if hit is not None:
                return hit
        return None

    if k == 0:
        return 0 if full == 0 else None
    return search(k, n, 0, 0)


def find_zero_forcing_set(g: Graph, k: int) -> Optional[int]:
    """Smallest-bitmask zero forcing set of size exactly ``k``, if one exists.

    Below the minimum degree there is none, and no search runs: each chosen
    vertex keeps at least two unchosen neighbors, so nothing can force.

    The search runs in the order of ``_first_subset``, but each level
    carries the closure of the vertices chosen so far, ``union``, and spreads
    it from one more vertex, since closure(closure(S) | R) = closure(S | R)
    and only the new vertex and its neighbors can start a force.  Closure is
    monotone, so these shortcuts keep the first hit:

    - a level whose closure is every vertex returns its smallest
      completion, the lowest vertices, since every completion forces;
    - with ``j >= 2`` vertices left, every completion under top vertex ``t``
      lies in the chosen vertices and ``0..t``, so the level grows the
      closure of ``union | 0..t`` one vertex at a time and starts its top
      vertex at the first ``t`` where that is every vertex, if any: below
      it no completion forces;
    - at the last vertex, a candidate whose closure ``u`` is not every
      vertex drops every vertex of ``u`` from the candidates: ``u`` is
      closed, so for ``t`` in ``u`` the closure of ``union | t`` stays in
      ``u``.
    """
    n = g.n
    if n and k < g.degree_stats()[0] or not _sweepable(n, k, "zero forcing"):
        return None
    full = g.full_mask
    adj = g.adj

    def search(j: int, hi: int, union: int, chosen: int) -> Optional[int]:
        # Choose the ``j`` remaining vertices from ``range(hi)``; ``union`` is
        # the closure of ``chosen`` and not every vertex.
        if j == 1:
            left = (1 << hi) - 1 & ~union
            while left:
                low = left & -left
                u = _spread(adj, union | low, low | adj[low.bit_length() - 1])
                if u == full:
                    return chosen | low
                left &= ~u
            return None
        x = union
        for first in range(hi):
            if not x >> first & 1:
                x = _spread(adj, x | 1 << first, 1 << first | adj[first])
                if x == full:
                    break
        else:
            return None
        for t in range(max(j - 1, first), hi):
            u = union | 1 << t
            if u != union:
                u = _spread(adj, u, 1 << t | adj[t])
            if u == full:
                return chosen | 1 << t | (1 << (j - 1)) - 1
            hit = search(j - 1, t, u, chosen | 1 << t)
            if hit is not None:
                return hit
        return None

    if k == 0:
        return 0 if full == 0 else None
    return search(k, n, 0, 0)


def _closed_rows(g: Graph) -> list[int]:
    return [row | 1 << v for v, row in enumerate(g.adj)]


def find_power_dominating_set(g: Graph, k: int) -> Optional[int]:
    """Smallest-bitmask power dominating set of size exactly ``k``, if one exists."""
    return _first_subset(g, _closed_rows(g), k, True, "power domination")


def _minimum(g: Graph, find: Callable[[Graph, int], Optional[W]], lo: int) -> tuple[int, W]:
    """Smallest ``k >= lo`` for which ``find(g, k)`` finds a witness, and that witness.

    Refuses an empty or disconnected ``g``.  On a connected graph some
    ``k <= n`` always qualifies: the whole vertex set for every set-valued
    parameter solved here, the ``n`` single vertices for the partitions.
    """
    _require_connected(g)
    for k in range(lo, g.n + 1):
        m = find(g, k)
        if m is not None:
            return k, m
    raise AssertionError("unreachable: some k <= n always qualifies")


def zero_forcing_number(g: Graph) -> ParamResult:
    """Minimum size of a zero forcing set, with witness and force log."""
    k, m = _minimum(g, find_zero_forcing_set, 1)
    return ParamResult(k, m, closure_with_log(g, m)[1])


def power_domination_number(g: Graph) -> ParamResult:
    """Minimum size of a power dominating set, with witness and force log."""
    k, m = _minimum(g, find_power_dominating_set, 1)
    return ParamResult(k, m, closure_with_log(g, g.closed_neighborhood(m))[1])


def domination_number(g: Graph) -> ParamResult:
    """Minimum size of a dominating set."""
    rows = _closed_rows(g)
    k, m = _minimum(g, lambda g, k: _first_subset(g, rows, k, False, "domination"), 1)
    return ParamResult(k, m)


def total_domination_number(g: Graph) -> ParamResult:
    """Minimum size of a total dominating set (every vertex has a neighbor in it)."""
    if g.n == 1:
        raise ValueError("total domination needs at least two vertices")
    # No vertex neighbors itself, so a single vertex never totally dominates.
    k, m = _minimum(g, lambda g, k: _first_subset(g, g.adj, k, False, "total domination"), 2)
    return ParamResult(k, m)


# ---------------------------------------------------------------------------
# partition-valued parameters, both solved by the same budgeted search


def _induced_path_masks(g: Graph) -> list[int]:
    """Masks of all vertex sets inducing a path, single vertices included.

    Each path grows from one end: a neighbour of the tail extends it only if
    it sees the tail alone, which keeps the path induced.
    """
    adj = g.adj
    found = {1 << v for v in range(g.n)}
    stack = [(1 << v, v) for v in range(g.n)]
    while stack:
        mask, tail = stack.pop()
        step = adj[tail] & ~mask
        while step:
            low = step & -step
            step ^= low
            w = low.bit_length() - 1
            if adj[w] & mask == 1 << tail:
                grown = mask | low
                found.add(grown)
                stack.append((grown, w))
    return sorted(found)


def _spider_masks(t: Graph) -> list[int]:
    """Masks of the vertex sets inducing a spider in the tree ``t``.

    Each spider grows from one vertex, one neighbour ``w`` at a time, since a
    spider that loses a leaf is still one.  In a tree ``w`` sees exactly one
    vertex ``u`` of the set, and only ``u`` gains in-set degree, so a second
    branch vertex can appear only when ``u`` has just reached degree 3.
    """
    adj = t.adj
    found = {1 << v for v in range(t.n)}
    stack = [(1 << v, adj[v]) for v in range(t.n)]
    while stack:
        mask, reach = stack.pop()
        step = reach & ~mask
        while step:
            low = step & -step
            step ^= low
            m = mask | low
            if m in found:
                continue
            w = low.bit_length() - 1
            u = (adj[w] & mask).bit_length() - 1
            if (adj[u] & m).bit_count() == 3 and any(
                (adj[v] & m).bit_count() > 2 for v in bits(m ^ 1 << u)
            ):
                continue
            found.add(m)
            stack.append((m, reach | adj[w]))
    return sorted(found)


def _fewest_parts(g: Graph, parts: list[int]) -> list[int]:
    """Fewest of the ascending ``parts`` partitioning all vertices of ``g``."""
    by_low: dict[int, list[int]] = {}
    for q in parts:
        by_low.setdefault(q & -q, []).append(q)
    is_part = set(parts)
    fail: dict[int, int] = {}

    def fits(s: int, j: int) -> bool:
        # Whether ``s`` splits into at most ``j`` parts.  ``fail[s]`` is the
        # largest budget refuted for ``s`` so far.
        if not s:
            return True
        if j < 2:
            return j == 1 and s in is_part
        if fail.get(s, 0) >= j:
            return False
        for q in reversed(by_low[s & -s]):
            if q & s == q and fits(s ^ q, j - 1):
                return True
        fail[s] = j
        return False

    def find(g: Graph, k: int) -> Optional[list[int]]:
        # Each step takes the smallest part whose remainder fits in one part fewer.
        s = g.full_mask
        if not fits(s, k):
            return None
        witness = []
        while s:
            k -= 1
            q = next(q for q in by_low[s & -s] if q & s == q and fits(s ^ q, k))
            witness.append(q)
            s ^= q
        return witness

    return _minimum(g, find, 1)[1]


def _path_order(g: Graph, mask: int) -> tuple[int, ...]:
    """Vertex sequence of the path induced by ``mask``, from its smaller endpoint."""
    verts = list(bits(mask))
    if len(verts) == 1:
        return (verts[0],)
    ends = [v for v in verts if (g.adj[v] & mask).bit_count() == 1]
    at = min(ends)
    seq = [at]
    seen = 1 << at
    while len(seq) < len(verts):
        nxt = g.adj[at] & mask & ~seen
        at = nxt.bit_length() - 1
        seq.append(at)
        seen |= nxt
    return tuple(seq)


def path_cover_number(g: Graph) -> ParamResult:
    """Fewest vertex-disjoint induced paths covering every vertex.

    Exact, by ``_fewest_parts``.  A path is answered without a search; any
    other graph above 24 vertices is refused rather than searched.
    """
    _require_connected(g)
    if g.n > _PATH_COVER_CAP and not is_path(g):
        raise ValueError(f"path cover search is capped at {_PATH_COVER_CAP} vertices")
    masks = [g.full_mask] if is_path(g) else _fewest_parts(g, _induced_path_masks(g))
    return ParamResult(len(masks), tuple(_path_order(g, q) for q in masks))


def is_spider(t: Graph) -> bool:
    """True iff ``t`` is a tree with at most one vertex of degree above two.

    Paths and single vertices count as degenerate spiders.
    """
    if not is_tree(t):
        return False
    return sum(1 for row in t.adj if row.bit_count() > 2) <= 1


def spider_number(t: Graph) -> ParamResult:
    """Fewest parts of a vertex partition of a tree into spider-inducing sets.

    A spider is answered without a search; any other tree above 20 vertices
    is refused: at that order, a vertex with 16 leaves next to one with 2
    leaves already has 2^18 + 39 candidate parts, and listing them takes
    most of a second.
    """
    _require_connected(t)
    if t.m != t.n - 1:
        raise ValueError("spider number needs a tree")
    if t.n > _SPIDER_CAP and not is_spider(t):
        raise ValueError(f"spider search is capped at {_SPIDER_CAP} vertices")
    masks = [t.full_mask] if is_spider(t) else _fewest_parts(t, _spider_masks(t))
    return ParamResult(len(masks), tuple(tuple(bits(q)) for q in masks))
