"""Exact solvers for the forcing and domination parameters, with witnesses.

Every solver searches cardinalities in ascending order and, within one
cardinality, masks in ascending numeric order, so the returned witness is
always the smallest-bitmask minimum set.  The four set-valued solvers share
one ascending size loop, ``_minimum``.  Zero forcing, domination and total
domination take a keyword ``at_least``, a lower bound the caller has
already proved (``zfpd compute`` passes P <= Z, gamma_P <= Z, gamma_P <=
gamma and gamma <= gamma_t), and start there on graphs of at most 22
vertices, where no size is refused; the answer and witness are the same.
The domination searches and power domination share one ``k``-subset
search, ``_first_subset``, which carries the union of the chosen vertices'
rows down its recursion; power domination calls ``_spread`` once per
complete subset, because its sweeps usually hit early, but skips a last
vertex whose row falls inside the last closure that failed.  Zero
forcing, whose sweeps mostly refute, has its own search in the same order,
which carries the closure of the chosen vertices and uses that a closed
set other than every vertex leaves a fort white (Brimkov, Fast and Hicks,
EJOR 2019): a level with two or more vertices left skips every top vertex
``t`` while the closure of the chosen vertices and ``0..t`` is not every
vertex, and at the last vertex a failed closure drops every candidate
inside it.  The shortcuts never change the answer,
since each skips only subsets that fail: no set smaller than the minimum
degree forces, no zero forcing set has fewer than half as many vertices as
the graph has leaves (its forcing chains are induced paths, and a leaf can
only end one), no ``k`` vertices force a graph of more than
``kn - k(k+1)/2`` edges (only ``k`` black vertices at a time have not
forced, and one that has has no white neighbour, so a vertex being forced
sees at most ``k`` black ones), a partial choice that already forces
makes every completion force, a total dominating set never has fewer than
two vertices, and the domination searches skip a branch whose union
cannot cover every vertex even with all the rows still available to it.
The tests compare every solver with unpruned reference sweeps for every
set size.

The two partition-valued solvers answer 1 for a graph that is itself one
part, a path or a spider, before listing any part.  Otherwise they list
their candidate parts.  The induced paths of a graph grow a vertex at a
time from one end, and each is kept from its lower end.  The spiders of a
tree are listed once each, from one vertex ``c``: one walk of each
neighbour's side of the tree gives the legs at that neighbour, the paths
starting there; a path is ``c`` plus at most one leg, listed from its
lower end, and any other spider is its branch vertex ``c`` plus legs
toward three or more neighbours, one product of the legs per neighbour.
``_fewest_parts`` runs budgets ``k = 1, 2, ...`` through ``_minimum``.
Budget ``k`` asks whether the vertices split into at most ``k`` parts, by
a depth-first search over the parts that hold the lowest uncovered
vertex, largest first; a memo keeps, for each vertex set it refutes, the
largest budget refuted, from one ``k`` to the next.  At ``k = 2`` the
search is a set lookup of each part's complement.  The witness takes, at
each step, the smallest part whose remainder fits in one part fewer,
which is the witness of a subset dynamic program that keeps the smallest
part mask among the optimal ones; the tests compare the two.
``_path_cover_at_most`` runs the same budget test at one ``k`` alone, for
a caller that only compares the path cover number with ``k``.

The solvers alone decide which graphs they accept.  Each one needs a
nonempty connected graph, the total domination number at least two vertices
and the spider number a tree.  Each public solver tests connectivity once;
``_minimum`` does not, so a caller whose graphs are connected by origin,
such as ``theorems``' value-only minima, runs no search for it.  A cap
bounds only a search, so an answer that needs none comes first: zero
forcing's minimum-degree, leaf and edge shortcuts, a path, a spider.  The ``k``-subset searches share one guard,
``_sweepable``, which refuses a size ``k`` above 256 or with more than
1,000,000 subsets of ``n`` vertices; the partition searches refuse a
graph above the path cover or spider cap.  ``theorems`` imports those two
order caps, and the largest order at which no size is refused, so
``verify`` refuses a run above one before any work.  A refusal is a
``ValueError`` whose message ``zfpd compute`` reports, unchanged, under
``skipped``.
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
    own rows.  At the last vertex a candidate is skipped when the union
    with its row lies inside the closure that last failed: that closure is
    closed and holds the union, so the candidate's closure stays inside it.
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
            failed = 0
            for t in range(hi):
                u = union | rows[t]
                if forcing:
                    if not u & ~failed:
                        continue  # inside the last failed closure, which is closed
                    u = failed = _spread(adj, u, u)
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
    vertex keeps at least two unchosen neighbors, so nothing can force.  Nor
    is there one below half the number of leaves: the forcing chains of
    ``k`` vertices split the graph into ``k`` induced paths, since when a
    vertex forces the rest of its chain is still white, and a leaf can only
    end a chain.  Nor is there one on more than ``kn - k(k+1)/2`` edges:
    at any moment exactly ``k`` black vertices have not yet forced, and a
    vertex that has forced has no white neighbour, so a vertex being forced
    has at most ``k`` black neighbours, and the ``k`` chosen vertices span
    at most ``k(k-1)/2`` edges.

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
    degrees = [row.bit_count() for row in g.adj]
    if n and (
        k < min(degrees) or 2 * k < degrees.count(1) or sum(degrees) > k * (2 * n - k - 1)
    ) or not _sweepable(n, k, "zero forcing"):
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


def _minimum(g: Graph, find: Callable[[Graph, int], Optional[W]], lo: int, at_least: int = 0) -> tuple[int, W]:
    """Smallest ``k >= lo`` for which ``find(g, k)`` finds a witness, and that witness.

    ``at_least`` is a proven lower bound on the answer, and the search
    starts there instead when ``g`` has at most ``_FULL_SWEEP_CAP`` vertices:
    at those orders ``_sweepable`` refuses no size, so skipping sizes below
    the bound cannot turn a refusal into an answer.  On a connected graph
    some ``k <= n`` always qualifies: the whole vertex set for every
    set-valued parameter solved here, the ``n`` single vertices for the
    partitions.  The callers check connectivity.
    """
    if g.n <= _FULL_SWEEP_CAP:
        lo = max(lo, at_least)
    for k in range(lo, g.n + 1):
        m = find(g, k)
        if m is not None:
            return k, m
    raise AssertionError("unreachable: some k <= n always qualifies")


def zero_forcing_number(g: Graph, *, at_least: int = 1) -> ParamResult:
    """Minimum size of a zero forcing set, with witness and force log.

    ``at_least`` is a proven lower bound, such as the path cover number or
    the power domination number of ``g``; on at most ``_FULL_SWEEP_CAP``
    vertices no smaller size is searched.  The answer is the same.
    """
    _require_connected(g)
    k, m = _minimum(g, find_zero_forcing_set, 1, at_least)
    return ParamResult(k, m, closure_with_log(g, m)[1])


def power_domination_number(g: Graph) -> ParamResult:
    """Minimum size of a power dominating set, with witness and force log."""
    _require_connected(g)
    k, m = _minimum(g, find_power_dominating_set, 1)
    return ParamResult(k, m, closure_with_log(g, g.closed_neighborhood(m))[1])


def domination_number(g: Graph, *, at_least: int = 1) -> ParamResult:
    """Minimum size of a dominating set.

    ``at_least`` is a proven lower bound, such as the power domination
    number of ``g``, used as in ``zero_forcing_number``.
    """
    _require_connected(g)
    rows = _closed_rows(g)
    k, m = _minimum(g, lambda g, k: _first_subset(g, rows, k, False, "domination"), 1, at_least)
    return ParamResult(k, m)


def total_domination_number(g: Graph, *, at_least: int = 2) -> ParamResult:
    """Minimum size of a total dominating set (every vertex has a neighbor in it).

    ``at_least`` is a proven lower bound, such as the domination number of
    ``g``, used as in ``zero_forcing_number``.
    """
    _require_connected(g)
    if g.n == 1:
        raise ValueError("total domination needs at least two vertices")
    # No vertex neighbors itself, so a single vertex never totally dominates.
    k, m = _minimum(g, lambda g, k: _first_subset(g, g.adj, k, False, "total domination"), 2, at_least)
    return ParamResult(k, m)


# ---------------------------------------------------------------------------
# partition-valued parameters, both solved by the same budgeted search


def _induced_path_masks(g: Graph) -> list[int]:
    """Masks of all vertex sets inducing a path, single vertices included, ascending.

    Each path grows from one end, ``start``.  ``blocked`` holds the path
    and the neighbours of every vertex on it but the tail, so a neighbour
    of the tail outside it sees the tail alone and extends the path as an
    induced one.  A path is grown from both of its ends and kept from its
    lower one.
    """
    adj = g.adj
    found = [1 << v for v in range(g.n)]
    stack = [(1 << v, v, v, 1 << v) for v in range(g.n)]
    while stack:
        mask, start, tail, blocked = stack.pop()
        step = adj[tail] & ~blocked
        blocked |= adj[tail]
        while step:
            low = step & -step
            step ^= low
            w = low.bit_length() - 1
            if w > start:
                found.append(mask | low)
            stack.append((mask | low, start, w, blocked))
    found.sort()
    return found


def _spider_masks(t: Graph) -> list[int]:
    """Masks of the vertex sets inducing a spider in the tree ``t``, ascending.

    Each spider is listed once, from one vertex ``c``.  A leg at a
    neighbour ``w`` of ``c`` is the path from ``w`` to a vertex on ``w``'s
    side of the tree.  A path is listed from its lower end: ``c`` alone and
    ``c`` plus each leg whose far end is above ``c``.  Any other spider has
    exactly one branch vertex ``c``, and is ``c`` plus one leg toward each
    of three or more of its neighbours.
    """
    adj = t.adj
    found = []
    for c in range(t.n):
        found.append(1 << c)
        # legs (a mask per leg) at each neighbour, by one walk of its side
        legs_at = []
        step = adj[c]
        while step:
            low = step & -step
            step ^= low
            legs = []
            stack = [(low, low)]
            while stack:
                leg, tip = stack.pop()
                legs.append(leg)
                far = tip.bit_length() - 1
                if far > c:
                    found.append(1 << c | leg)
                out = adj[far] & ~(leg | 1 << c)
                while out:
                    nxt = out & -out
                    out ^= nxt
                    stack.append((leg | nxt, nxt))
            legs_at.append(legs)
        if len(legs_at) < 3:
            continue
        # by_legs[i]: c plus one leg toward each of i neighbours, i = 3 for three or more
        by_legs: list[list[int]] = [[1 << c], [], [], []]
        for legs in legs_at:
            for i in (3, 2, 1, 0):
                by_legs[min(i + 1, 3)] += [m | leg for m in by_legs[i] for leg in legs]
        found += by_legs[3]
    found.sort()
    return found


def _budgets(parts: list[int]) -> tuple[Callable[[int, int], bool], dict[int, list[int]]]:
    """The budget test over the ascending ``parts``, and the parts by lowest vertex.

    ``fits(s, j)`` is whether the vertex set ``s`` splits into at most ``j``
    parts.
    """
    by_low: dict[int, list[int]] = {}
    for q in parts:
        by_low.setdefault(q & -q, []).append(q)
    # 0 counts as a part: it is the remainder of a part that is all of ``s``.
    is_part = {0, *parts}
    fail: dict[int, int] = {}

    def fits(s: int, j: int) -> bool:
        # ``fail[s]`` is the largest budget refuted for ``s`` so far.
        if not s:
            return True
        if j < 2:
            return j == 1 and s in is_part
        if fail.get(s, 0) >= j:
            return False
        if j == 2:
            for q in reversed(by_low[s & -s]):
                if q & s == q and s ^ q in is_part:
                    return True
        else:
            for q in reversed(by_low[s & -s]):
                if q & s == q and fits(s ^ q, j - 1):
                    return True
        fail[s] = j
        return False

    return fits, by_low


def _fewest_parts(g: Graph, parts: list[int]) -> list[int]:
    """Fewest of the ascending ``parts`` partitioning all vertices of ``g``."""
    fits, by_low = _budgets(parts)

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


def _path_parts(g: Graph) -> Optional[list[int]]:
    """The induced paths of ``g``, or ``None`` if ``g`` is a path itself.

    Refuses an empty or disconnected graph, and any graph other than a path
    above 24 vertices.
    """
    _require_connected(g)
    if is_path(g):
        return None
    if g.n > _PATH_COVER_CAP:
        raise ValueError(f"path cover search is capped at {_PATH_COVER_CAP} vertices")
    return _induced_path_masks(g)


def path_cover_number(g: Graph) -> ParamResult:
    """Fewest vertex-disjoint induced paths covering every vertex.

    Exact, by ``_fewest_parts``.  A path is answered without a search; any
    other graph above 24 vertices is refused rather than searched.
    """
    parts = _path_parts(g)
    masks = [g.full_mask] if parts is None else _fewest_parts(g, parts)
    return ParamResult(len(masks), tuple(_path_order(g, q) for q in masks))


def _path_cover_at_most(g: Graph, k: int) -> bool:
    """Whether ``path_cover_number(g).value <= k``: one budget test at ``k``."""
    parts = _path_parts(g)
    return k >= 1 if parts is None else _budgets(parts)[0](g.full_mask, k)


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
    leaves already has 2^18 + 39 candidate parts: listing them takes about
    0.07 s and the whole search about 0.15 s.
    """
    _require_connected(t)
    if t.m != t.n - 1:
        raise ValueError("spider number needs a tree")
    # t is a tree, so it is a spider iff at most one vertex branches: no is_spider search
    spider = sum(1 for row in t.adj if row.bit_count() > 2) <= 1
    if t.n > _SPIDER_CAP and not spider:
        raise ValueError(f"spider search is capped at {_SPIDER_CAP} vertices")
    masks = [t.full_mask] if spider else _fewest_parts(t, _spider_masks(t))
    return ParamResult(len(masks), tuple(tuple(bits(q)) for q in masks))
