"""Verification harness: one verifier per claim, each sweeping a universe of
small graphs exhaustively and reporting counterexamples.

A verifier never patches a claim it finds false: failures land in the report
together with enough context to replay them standalone.  Bounded existence
searches (T9, T16) report either a re-checked witness or an explicit
"no witness up to the cap" note; both outcomes are valid.

``verify(tid, universe=u)`` draws the graphs it sweeps from ``u``: the
connected graphs for T1-T4, T8-T10, T12, T13, T15 and T16, the trees for
T7.  T5, T6, T11 and T14 build their own family members and never read
``u``; each registry entry names the universe its verifier sweeps.  Pass
one ``Universe`` to every verifier of a run: its files are parsed once,
when it is built, so a report's ``elapsed_s`` excludes file parsing.  A
built-in order is enumerated once per process, on first use, and kept by
``families.build_classes`` alone, so ``elapsed_s`` includes enumeration.
``prepare`` enumerates the orders a set of verifiers sweeps before any of
them starts, sharded over a process pool, and hands each verifier a part of
the universe that holds every order it reads; their ``elapsed_s`` then
excludes enumeration too.  A ``Universe`` pickles, so pool workers can be
sent their parts, and they build nothing.  ``universe=None`` means the
built-in enumeration alone.

Each rule of a run lives in one place.  ``_cap`` alone refuses an unknown
id, a bad ``max_n``, an order above a verifier's own cap and an order above
the built-in enumeration that no file covers, and it needs nothing built,
so the CLI calls it for every id before any work.  An own cap is the
verifier's limit or the order cap of a solver it calls, and no file lifts
it: T4's claim is about order <= 7, T13 pairs every factor with every
factor, T5, T6, T11 and T14 read no universe, T2, T7 and T8 call the
path cover, spider and planarity searches, whose caps they import, T3,
T9 and T12 take full k-subset minima (T9 only when it reports a failure or
a witness), so they stop at the largest order at which the subset searches
refuse no size, and T16 takes them on products with an edge, of twice the
order, so it stops at half that order.  Every other verifier is limited
only by its universe, whose built-in orders stop at the cap that
``families._KINDS`` gives the kind it sweeps.  A file covers an order only
for the kinds of graph it holds there, which ``Universe`` records once, when
it reads the files, by each kind's test in ``families._KINDS``.

A graph's type decides how a report prints it, and no universe is asked.
A built-in order holds ``families.BuiltClass`` graphs, in the labels their
enumeration found (``families.build_classes``), which no report shows.
``graph6`` is the one place that writes a graph, and ``fail``, every note
and every product tag go through it: a ``BuiltClass`` in its canonical
labels (``shown``), the graph6 string reports have always printed, and any
other graph (a file graph, a family member, a product) as it is, even where
its adjacency equals a built-in class's.  Only the graphs a report writes
pay for the canonical labelling.  The product verifiers (T13, T15, T16)
pair the factors in the labels they are shown in, so a product is written
as it always was.  A search that reports one witness (T9, T10, T16) takes
it from the smallest order with any hit: at a built-in order, the hit with
the least canonical key, whatever order the graphs are swept in; at a file
order, the first hit in file order, and the search stops there.

A verifier solves for values, only what it checks and nothing it already
holds: T2 and T12 take a path cover number or diameter only to fail.  A
claim about a threshold asks that threshold, one subset search, and takes a
minimum only to print a failure: T3 asks whether some gamma_P vertices
dominate (gamma >= gamma_P), T12 whether two vertices totally dominate
(gamma_t >= 2), and T8 tests diameter and outerplanarity only where one
vertex does not power dominate, since gamma_P = 1 meets both conclusions.
``_gp``, ``_z``, ``_gamma`` and ``_gamma_t`` run the subset searches through
``invariants._minimum``, build no force log and run no connectivity search:
every graph they are given is connected by origin (a universe graph, a
family member, a product of connected graphs, an edge deletion checked to
keep it connected).  Only ``_recheck_power_domination``, which certifies
T16's witness, asks for a certificate.  G box H and H box G are isomorphic
through (a, b) -> (b, a), so T15 and T16's characterisation solve one
product of each mirrored pair and reuse its answer for the other.  T13, T15
and T16's characterisation solve each factor once for each number they read
of it.  Each ordered pair still counts in ``checked`` and fails with its own
tag, but a product is built only to be solved or printed.  T16's edge bound
runs no search: both copies of a power dominating vertex of G power dominate
G box K2, and a pair that does not is a failure.  What a verifier holds
lives in its own call: no memo outlives it.
"""

from __future__ import annotations

import copy
import os
import time
from functools import cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .graph import Graph, bits, is_path, is_tree
# enumerate_connected and enumerate_trees are unused here but stay module
# attributes: perfbench/tracer.py wraps theorems.enumerate_connected and
# theorems.enumerate_trees.
from .families import (  # noqa: F401
    _KINDS,
    BuiltClass,
    build_classes,
    canonical_graph,
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    enumerate_trees,
    h_graph,
    path,
    read_graph6_lines,
    star,
    wagner_graph,
    wheel,
    write_graph6,
)
# zero_forcing_number, domination_number and total_domination_number are
# unused here but stay module attributes: perfbench/tracer.py wraps them as
# theorems.zero_forcing_number, and so on.
from .invariants import (  # noqa: F401
    _FULL_SWEEP_CAP,
    _PATH_COVER_CAP,
    _SPIDER_CAP,
    _induced_path_masks,
    _minimum,
    _path_cover_at_most,
    domination_number,
    find_dominating_set,
    find_power_dominating_set,
    find_total_dominating_set,
    find_zero_forcing_set,
    is_spider,
    path_cover_number,
    power_domination_number,
    spider_number,
    total_domination_number,
    zero_forcing_number,
)
from .products import cartesian_product, lexicographic_product
from .propagation import is_power_dominating_set
from .structure import _HOST_CAP, is_outerplanar, is_planar

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = ["Failure", "VerifyReport", "Universe", "verify", "prepare", "theorem_ids", "claim_of"]


class Failure(NamedTuple):
    graph6: str
    expected: str
    observed: str


class VerifyReport:
    """One verifier's outcome; the verifier fills it in as it sweeps.

    A verifier adds to ``checked`` and ``notes`` directly and records a
    counterexample through ``fail``, which stores the graph as ``graph6``
    writes it.
    """

    def __init__(self, theorem: str, claim: str) -> None:
        self.theorem = theorem
        self.claim = claim
        self.universe = ""
        self.checked = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []
        self.elapsed_s = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, g: Graph, expected: str, observed: str) -> None:
        self.failures.append(Failure(graph6(g), expected, observed))

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "failures": [f._asdict() for f in self.failures],
            "notes": list(self.notes),
            "elapsed_s": round(self.elapsed_s, 3),
            "passed": self.passed,
        }


class Universe:
    """Graph supply for the verifiers: built-in enumeration plus optional files.

    A graph6 file (one encoding per line, ``#`` comments allowed) supplies
    the graphs of each kind it holds: each connected graph is filed under
    every kind of ``families._KINDS`` whose test accepts it, so its connected
    graphs replace the built-in connected graphs of their order, and its
    trees replace the built-in trees of theirs, which is how orders beyond
    the built-in cap reach the harness.  An order a file holds no graph of
    that kind for, such as order 13 for the trees when the file holds only
    the 13-cycle, still comes from the built-in enumeration: ``families.build_classes``'s
    tuple of ``BuiltClass`` graphs.  A universe only supplies graphs: how a
    report writes one follows from its type (``graph6``).  Files are parsed
    and filtered here, once: graphs that are not connected, the order-0
    graph among them, are dropped, and so is a repeat of a graph already
    read, from the same file or another; isomorphic relabelings are kept.
    A file that does not parse is refused with its path and line.  A
    universe holds only its file orders; ``connected`` and ``trees`` share
    one lookup, ``_order``, which asks ``build_classes`` for any other
    order, so it is built on first use and kept there, and both return the
    same tuple on every call.  Only a ``part``, which a pool job is sent,
    also holds built orders.
    ``between(lo, hi)`` yields the connected graphs of orders ``lo`` to
    ``hi``, asking ``connected`` for one order at a time.
    """

    def __init__(self, files: Iterable[str] = ()) -> None:
        held: dict[str, dict[int, dict[Graph, None]]] = {kind: {} for kind in _KINDS}
        # kind -> the orders files supply for it -> their file names; read by
        # source and has_file_for, and fixed once the files are read
        self._names: dict[str, dict[int, dict[str, None]]] = {kind: {} for kind in _KINDS}
        for fname in files:
            # latin-1 decodes every byte, so a stray one is reported with its file and line.
            with open(fname, encoding="latin-1") as fh:
                try:
                    graphs = read_graph6_lines(fh)
                except ValueError as exc:
                    raise ValueError(f"{fname}: {exc}") from None
            base = os.path.basename(fname)
            for g in graphs:
                if g.n and g.is_connected():  # is_connected refuses the order-0 graph
                    for kind, (_, holds, _) in _KINDS.items():
                        if holds(g):
                            held[kind].setdefault(g.n, {})[g] = None  # a repeated graph is kept once
                            self._names[kind].setdefault(g.n, {})[base] = None  # insertion-ordered set
        # kind -> order -> its graphs: the file orders, and in a part also the built ones it ships
        self._orders = {kind: {n: tuple(gs) for n, gs in orders.items()} for kind, orders in held.items()}

    def part(self, kind: str | None, top: int) -> Universe:
        """A copy holding only what a verifier of ``kind`` reads up to ``top``.

        It holds that kind's orders ``1..top``, built ones included, so a
        pool job needs no build up to ``top``, and every file order of the
        kind, even one above ``top``: a verifier may read past its cap (T4
        reads orders 1..6 whatever its cap), and an order a file covers must
        come from the file there too.  The other kinds' orders are left out.
        """
        view = copy.copy(self)
        view._orders = {name: {} for name in self._orders}
        if kind is not None:
            view._orders[kind] = {n: self._order(kind, n) for n in range(1, top + 1)} | self._orders[kind]
        return view

    def _order(self, kind: str, n: int) -> tuple[Graph, ...]:
        return self._orders[kind].get(n) or build_classes(kind, n)  # a held order is never empty

    def connected(self, n: int) -> tuple[Graph, ...]:
        return self._order("connected", n)

    def between(self, lo: int, hi: int) -> Iterator[Graph]:
        for n in range(lo, hi + 1):
            yield from self.connected(n)

    def trees(self, n: int) -> tuple[Graph, ...]:
        return self._order("trees", n)

    def source(self, n: int) -> str:
        """The files that supply the connected graphs of order ``n``, or ``built-in``."""
        return ", ".join(self._names["connected"].get(n, ["built-in"]))

    def has_file_for(self, kind: str, n: int) -> bool:
        """True iff a file supplies graphs of ``kind`` (a key of ``families._KINDS``) at order ``n``."""
        return n in self._names[kind]


def shown(g: Graph) -> Graph:
    """``g`` in the labels a report shows it in: canonical for a built-in class, else as it is."""
    return canonical_graph(g) if isinstance(g, BuiltClass) else g


def graph6(g: Graph) -> str:
    """How a report writes ``g``: the graph6 string of ``shown(g)``."""
    return write_graph6(shown(g))


# ---------------------------------------------------------------------------
# solver shorthands


# The minima return values only: unlike the public solvers they build no
# force log and do not test connectivity.  They and the thresholds look their
# searches up here, at call time, so a rebound ``theorems.find_*`` sees every
# call.  A threshold ("at most k") is one subset search, not a minimum.
def _gp(g: Graph) -> int:
    return _minimum(g, find_power_dominating_set, 1)[0]


def _z(g: Graph) -> int:
    return _minimum(g, find_zero_forcing_set, 1)[0]


def _gamma(g: Graph) -> int:
    return _minimum(g, find_dominating_set, 1)[0]


def _gamma_t(g: Graph) -> int:
    # No vertex neighbours itself, so no single vertex totally dominates.
    return _minimum(g, find_total_dominating_set, 2)[0]


def _pd_at_most(g: Graph, k: int) -> bool:
    # Closure is monotone, so a superset of a power dominating set is one too.
    return find_power_dominating_set(g, min(k, g.n)) is not None


def _zf_exists(g: Graph, k: int) -> bool:
    return find_zero_forcing_set(g, k) is not None


# A superset of a dominating or totally dominating set is one too, so for
# k <= n the sets of size exactly k answer "at most k".
def _dom_at_most(g: Graph, k: int) -> bool:
    return find_dominating_set(g, k) is not None


def _tdom_at_most(g: Graph, k: int) -> bool:
    return find_total_dominating_set(g, k) is not None


def _twin_free(g: Graph) -> bool:
    return not any(
        g.are_twins(u, v) for u in range(g.n) for v in range(u + 1, g.n)
    )


# ---------------------------------------------------------------------------
# registry

# tid -> (claim, default cap, own cap, the universe the verifier reads: a
# kind of ``families._KINDS`` or None, the verifier).  The own cap is the
# verifier's limit or the order cap of a solver it calls, imported from that
# solver's module (T9 and T16 take full power domination minima, T16 on
# products of twice the order), and no file lifts it; None leaves only the
# universe.
_REGISTRY: dict[str, tuple[str, int, int | None, str | None, Callable[[VerifyReport, Universe, int], str]]] = {}


def _verifier(tid: str, claim: str, default_cap: int, own_cap: int | None, sweeps: str | None):
    def wrap(fn: Callable[[VerifyReport, Universe, int], str]):
        _REGISTRY[tid] = (claim, default_cap, own_cap, sweeps, fn)
        return fn

    return wrap


def theorem_ids() -> list[str]:
    return sorted(_REGISTRY, key=lambda t: int(t[1:]))


def claim_of(tid: str) -> str:
    return _REGISTRY[tid][0]


def _cap(tid: str, max_n: int | None, universe: Universe) -> int:
    """The order ``tid`` sweeps up to, or the ``ValueError`` that refuses the run.

    Two limits apply.  A verifier's own cap, if it has one, is never lifted:
    it is the verifier's limit or the order cap of a solver it calls, so a
    run the solver would refuse partway through is refused here instead.
    A verifier that reads the universe also stops at the built-in
    enumeration limit of the kind it sweeps (its cap in ``families._KINDS``,
    which ``build_classes`` enforces), unless files hold graphs of that kind at
    every order above the limit.  It reads only the registry and the file
    orders, so a caller can refuse a run with it before anything is built.
    """
    if tid not in _REGISTRY:
        known = ", ".join(theorem_ids())
        raise ValueError(f"unknown theorem id {tid!r} (known: {known})")
    _, default_cap, own_cap, sweeps, _ = _REGISTRY[tid]
    cap = default_cap if max_n is None else max_n
    if cap < 1:
        raise ValueError(f"max_n must be at least 1, got {cap}")
    if own_cap is not None and cap > own_cap:
        raise ValueError(f"{tid} is capped at max_n={own_cap}; no universe file lifts it")
    limit = _KINDS[sweeps][2] if sweeps else cap
    if not all(universe.has_file_for(sweeps, n) for n in range(limit + 1, cap + 1)):
        raise ValueError(f"{tid} is capped at max_n={limit} without a universe file")
    return cap


def verify(tid: str, *, max_n: int | None = None, universe: Universe | None = None) -> VerifyReport:
    """Run one verifier and return its report.

    ``max_n`` overrides the verifier's default size cap.  It must be at
    least 1, at most the verifier's own cap if it has one, and above the
    built-in enumeration limit of the kind it sweeps only when a universe
    file covers every order up to it (see ``_cap``); ``universe`` supplies
    the graphs, and ``None`` means the built-in enumeration.
    """
    if universe is None:
        universe = Universe()
    cap = _cap(tid, max_n, universe)
    claim, _, _, _, fn = _REGISTRY[tid]
    report = VerifyReport(tid, claim)
    start = time.perf_counter()
    report.universe = fn(report, universe, cap)
    report.elapsed_s = time.perf_counter() - start
    report.failures.sort(key=lambda f: (f.graph6, f.expected))
    return report


def prepare(universe: Universe, ids: list[str], max_n: int | None, pool: Executor | None, shards: int) -> list:
    """Build the built-in orders that the verifiers ``ids`` sweep; return the part each reads.

    Every order up to a verifier's cap that no file covers is enumerated by
    ``families.build_classes`` before any verifier starts, in ``pool`` split
    ``shards`` ways, and each part holds the orders its verifier reads.  A run that ``verify`` would refuse is
    refused here, with the same message, before anything is built, so no
    order above a verifier's own cap is ever built for it.
    """
    caps = [_cap(tid, max_n, universe) for tid in ids]
    kinds = [_REGISTRY[tid][3] for tid in ids]
    for kind in _KINDS:
        reads = max((cap for sweeps, cap in zip(kinds, caps) if sweeps == kind), default=0)
        top = max((n for n in range(1, reads + 1) if not universe.has_file_for(kind, n)), default=0)
        if top:
            build_classes(kind, top, pool, shards)
    return [universe.part(kind, cap) for kind, cap in zip(kinds, caps)]


def _searching(hits: list[Graph], g: Graph) -> bool:
    """Whether a witness search with ``hits`` so far still tests ``g``.

    It tests every graph up to the order of its first hit, and the rest of
    that order too if ``g`` is a built-in class, so that the hit it reports,
    the least by canonical key (``min(hits, key=graph6)``: for one order,
    graph6 strings of canonical forms sort as their keys), does not depend on
    the order of the sweep.  At a file order, whose graphs are no
    ``BuiltClass``, it stops at the first hit.
    """
    return not hits or (g.n == hits[0].n and isinstance(g, BuiltClass))


# ---------------------------------------------------------------------------
# verifiers


@_verifier("T1", "zero forcing number 1 exactly for paths", 7, None, "connected")
def _t1(run: VerifyReport, u: Universe, cap: int) -> str:
    for g in u.between(1, cap):
        run.checked += 1
        z1 = _zf_exists(g, 1)
        pathlike = is_path(g)
        if z1 != pathlike:
            run.fail(
                g,
                f"Z=1 iff path; is_path={pathlike}",
                f"a single vertex forces everything: {z1}",
            )
    return f"connected graphs 1<=n<={cap}"


# the failure branch takes a full zero forcing minimum as well as the path cover
@_verifier("T2", "zero forcing number 2 iff outerplanar with path cover number 2 (n>=5)", 7, min(_PATH_COVER_CAP, _FULL_SWEEP_CAP), "connected")
def _t2(run: VerifyReport, u: Universe, cap: int) -> str:
    for n in range(5, cap + 1):
        graphs = u.connected(n)
        run.notes.append(f"n={n}: {len(graphs)} graphs ({u.source(n)})")
        for g in graphs:
            run.checked += 1
            z_is_2 = not _zf_exists(g, 1) and _zf_exists(g, 2)
            outer = is_outerplanar(g)
            rhs = outer and not is_path(g) and _path_cover_at_most(g, 2)
            if z_is_2 != rhs:
                z = _z(g)
                pc = path_cover_number(g).value
                run.fail(
                    g,
                    "Z=2 iff (outerplanar and path cover 2)",
                    f"Z={z}, outerplanar={outer}, path_cover={pc}",
                )
    return f"connected graphs 5<=n<={cap}"


@_verifier("T3", "maximum degree n-1 iff domination and power domination numbers are both 1", 7, _FULL_SWEEP_CAP, "connected")
def _t3(run: VerifyReport, u: Universe, cap: int) -> str:
    weaker_bad: list[Graph] = []
    for g in u.between(1, cap):
        run.checked += 1
        gp = _gp(g)
        # gamma >= gamma_P, so gamma = gamma_P iff some gamma_P vertices
        # dominate, and gamma = 1 iff that holds with gamma_P = 1.
        same = _dom_at_most(g, gp)
        dom1, pd1 = same and gp == 1, gp == 1
        lhs = g.degree_stats()[1] == g.n - 1
        if lhs != (dom1 and pd1):
            run.fail(
                g,
                "max degree n-1 iff (domination=1 and power domination=1)",
                f"max_degree_hit={lhs}, domination1={dom1}, power_domination1={pd1}",
            )
        # Weaker reading: "power domination equals domination" instead of both 1.
        if same != lhs:
            weaker_bad.append(g)
    if weaker_bad:
        # graph6 strings sort by order first, so the three least lie in the
        # lowest orders that hold three graphs: only those are labelled.
        weaker_bad.sort(key=lambda g: g.n)
        top = weaker_bad[min(2, len(weaker_bad) - 1)].n
        least = sorted(graph6(g) for g in weaker_bad if g.n <= top)[:3]
        run.notes.append(
            f"weaker reading (power domination = domination iff max degree n-1) fails on "
            f"{len(weaker_bad)} graphs, e.g. {', '.join(least)}"
        )
    else:
        run.notes.append("weaker reading (power domination = domination) also held")
    return f"connected graphs 1<=n<={cap}, both directions"


@_verifier("T4", "smallest graphs that need two power dominators", 7, 7, "connected")
def _t4(run: VerifyReport, u: Universe, cap: int) -> str:
    two_at_six = []
    # Orders 1..6 are swept whatever the cap; the twin-free check stops at cap.
    for g in u.between(1, max(6, cap)):
        twin_free = g.n <= cap and _twin_free(g)
        if g.n > 6 and not twin_free:
            continue
        if g.n <= 6:
            run.checked += 1
        if twin_free:
            run.checked += 1
        if _pd_at_most(g, 1):
            continue
        if g.n <= 5:
            run.fail(g, "power domination number 1 (order <= 5)", "needs >= 2")
        elif g.n == 6:
            two_at_six.append(graph6(g))
        if twin_free:
            run.fail(
                g,
                "twin-free graphs of order <= 7 have power domination number 1",
                "needs >= 2",
            )
    run.notes.append(
        f"order-6 graphs needing 2 power dominators: {len(two_at_six)} "
        f"({', '.join(sorted(two_at_six))})"
    )
    hg = h_graph()
    run.checked += 1
    gp_h = _gp(hg)
    if gp_h != 2:
        run.fail(hg, "H-graph power domination number 2", str(gp_h))
    wg = wagner_graph()
    run.checked += 1
    if not _twin_free(wg):
        run.fail(wg, "Wagner graph twin-free", "has twins")
    gp_w = _gp(wg)
    if gp_w != 2:
        run.fail(wg, "Wagner graph power domination number 2", str(gp_w))
    return f"connected graphs n<=5; order 6; Wagner graph; twin-free n<={cap}"


@_verifier("T5", "parameter table for the basic families", 10, 12, None)
def _t5(run: VerifyReport, u: Universe, cap: int) -> str:
    for n in range(3, cap + 1):
        rows: list[tuple[str, Graph, int, int, int]] = [
            (f"path P{n}", path(n), 1, (n + 2) // 3, 1),
            (f"cycle C{n}", cycle(n), 1, (n + 2) // 3, 2),
            (f"complete K{n}", complete(n), 1, 1, n - 1),
            (f"star K(1,{n - 1})", star(n), 1, 1, n - 2),
        ]
        if n >= 4:
            rows.append(
                (f"K(2,{n - 2})", complete_multipartite((2, n - 2)), 1, 2, n - 2)
            )
        for h in range(3, n // 2 + 1):
            rows.append(
                (f"K({h},{n - h})", complete_multipartite((h, n - h)), 2, 2, n - 2)
            )
        if n >= 4:
            rows.append((f"wheel W{n}", wheel(n), 1, 1, 3))
        for label, g, exp_gp, exp_gamma, exp_z in rows:
            run.checked += 1
            gp = _gp(g)
            gamma = _gamma(g)
            z = _z(g)
            if (gp, gamma, z) != (exp_gp, exp_gamma, exp_z):
                run.fail(
                    g,
                    f"{label}: power_domination={exp_gp}, domination={exp_gamma}, zero_forcing={exp_z}",
                    f"power_domination={gp}, domination={gamma}, zero_forcing={z}",
                )
    run.notes.append(
        "columns read as order-n families: K(1,n-1); K(2,n-2) from n>=4; K(h,n-h) for 3<=h<=n/2"
    )
    return f"family members of order 3..{cap}"


def _partitions_nondecreasing(total: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
    for first in range(least, total + 1):
        for rest in _partitions_nondecreasing(total - first, first):
            yield (first,) + rest


@_verifier("T6", "complete multipartite graphs and single-edge deletions", 10, 12, None)
def _t6(run: VerifyReport, u: Universe, cap: int) -> str:
    skipped_disconnected = 0
    literal_conflicts: list[str] = []
    for total in range(2, cap + 1):
        for parts in _partitions_nondecreasing(total):
            if len(parts) < 2:
                continue
            g = complete_multipartite(parts)
            r1 = parts[0]
            run.checked += 1
            exp = 1 if r1 <= 2 else 2
            gp = _gp(g)
            if gp != exp:
                run.fail(
                    g,
                    f"K{parts}: power domination number {exp}",
                    str(gp),
                )
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    # sum(parts[:i]) is the first vertex of part i.
                    ge = g.delete_edge(sum(parts[:i]), sum(parts[:j]))
                    if not ge.is_connected():
                        skipped_disconnected += 1
                        continue
                    run.checked += 1
                    if r1 <= 2:
                        exp_e = 1
                    elif r1 == 3:
                        # The deleted edge must meet a minimum-size part; with
                        # tied minimum parts the fixed-first-part reading is
                        # not label-invariant, see the note below.
                        exp_e = 1 if parts[i] == 3 or parts[j] == 3 else 2
                    else:
                        exp_e = 2
                    gpe = _gp(ge)
                    if gpe != exp_e:
                        run.fail(
                            ge,
                            f"K{parts} minus an edge between parts {i} and {j}: "
                            f"power domination number {exp_e}",
                            str(gpe),
                        )
                    if r1 == 3:
                        literal = 1 if i == 0 else 2
                        if literal != gpe:
                            literal_conflicts.append(
                                f"K{parts} edge between parts {i},{j}: fixed-first-part "
                                f"reading predicts {literal}, solver finds {gpe}"
                            )
    if skipped_disconnected:
        run.notes.append(
            f"skipped {skipped_disconnected} edge deletions that disconnect the graph "
            "(two-part graphs with a singleton part)"
        )
    if literal_conflicts:
        run.notes.append(
            "first-part reading of the size-3 case is not label-invariant; "
            + "; ".join(literal_conflicts[:4])
            + (f"; plus {len(literal_conflicts) - 4} more" if len(literal_conflicts) > 4 else "")
        )
    return f"complete multipartite part profiles of total order <= {cap}, one edge per part pair"


@_verifier("T7", "tree power domination equals the spider partition number", 9, _SPIDER_CAP, "trees")
def _t7(run: VerifyReport, u: Universe, cap: int) -> str:
    for n in range(1, cap + 1):
        for t in u.trees(n):
            run.checked += 1
            gp = _gp(t)
            sp = spider_number(t).value
            if gp != sp:
                run.fail(t, f"power domination {gp} equals spider number", str(sp))
            if (gp == 1) != is_spider(t):
                run.fail(
                    t,
                    "power domination number 1 iff the tree is a spider",
                    f"power_domination={gp}, is_spider={is_spider(t)}",
                )
    return f"all trees 1<=n<={cap}"


@_verifier("T8", "planar/outerplanar small-diameter power domination bounds", 7, _HOST_CAP, "connected")
def _t8(run: VerifyReport, u: Universe, cap: int) -> str:
    variant_bad = 0
    for g in u.between(1, cap):
        run.checked += 1
        if _pd_at_most(g, 1):
            continue  # power domination number 1 meets both branches' conclusions
        within2 = not g.diameter_exceeds(2)
        if within2 and not _pd_at_most(g, 2) and is_planar(g):
            run.fail(
                g,
                "planar with diameter <= 2: power domination number <= 2",
                str(_gp(g)),
            )
        if (within2 or not g.diameter_exceeds(3)) and is_outerplanar(g):
            run.fail(
                g,
                "outerplanar with diameter <= 3: power domination number 1",
                str(_gp(g)),
            )
            if within2:
                variant_bad += 1
    if variant_bad:
        run.notes.append(f"diameter<=2 variant of the outerplanar branch fails on {variant_bad} graphs")
    else:
        run.notes.append("diameter<=2 variant of the outerplanar branch held on every graph checked")
    return f"connected graphs 1<=n<={cap}"


@_verifier("T9", "large maximum degree keeps the power domination number small", 8, _FULL_SWEEP_CAP, "connected")
def _t9(run: VerifyReport, u: Universe, cap: int) -> str:
    hits: list[Graph] = []
    for g in u.between(1, cap):
        run.checked += 1
        delta = g.degree_stats()[1]
        if delta >= g.n - 2:
            if not _pd_at_most(g, 1):
                run.fail(
                    g,
                    "max degree >= n-2: power domination number 1",
                    str(_gp(g)),
                )
        elif delta >= g.n - 4:
            if not _pd_at_most(g, 2):
                run.fail(
                    g,
                    "max degree in {n-4, n-3}: power domination number <= 2",
                    str(_gp(g)),
                )
        if delta == g.n - 5 and _searching(hits, g) and not _pd_at_most(g, 2):
            hits.append(g)
    if hits:
        witness = min(hits, key=graph6)
        run.notes.append(
            f"witness: {graph6(witness)} has max degree n-5 and power domination "
            f"number {_gp(witness)} (re-checked standalone)"
        )
    else:
        run.notes.append(f"no witness with max degree n-5 and power domination >= 3 up to n={cap}")
    return f"connected graphs 1<=n<={cap}; witness search for max degree n-5"


def _outside_pairs(g: Graph) -> Iterator[tuple[int, int, int, bool, bool]]:
    """``(v, w1, w2, v power dominates, w1 and w2 are not twins)`` for each vertex ``v`` of degree n-3."""
    adj = g.adj
    for v, row in enumerate(adj):
        if row.bit_count() == g.n - 3:
            w1, w2 = bits(g.full_mask & ~row & ~(1 << v))
            # twins share their open or their closed neighbourhoods
            twins = adj[w1] == adj[w2] or adj[w1] | 1 << w1 == adj[w2] | 1 << w2
            yield v, w1, w2, is_power_dominating_set(g, 1 << v), not twins


@_verifier("T10", "a degree n-3 vertex power dominates iff the outside pair are not twins", 7, None, "connected")
def _t10(run: VerifyReport, u: Universe, cap: int) -> str:
    hits: list[Graph] = []
    for g in u.between(4, cap):
        pairs = list(_outside_pairs(g))
        if not pairs:
            continue
        run.checked += 1
        if any(lhs != rhs for *_, lhs, rhs in pairs):
            # The vertex labels must be those of the graph6 string the failure prints.
            for v, w1, w2, lhs, rhs in _outside_pairs(shown(g)):
                if lhs != rhs:
                    run.fail(
                        g,
                        f"vertex {v} (degree n-3) power dominates iff {w1},{w2} are not twins",
                        f"power_dominates={lhs}, twins={not rhs}",
                    )
        if not any(rhs for *_, rhs in pairs) and _searching(hits, g) and _pd_at_most(g, 1):
            hits.append(g)
    if hits:
        run.notes.append(
            f"converse-failure witness: {min(map(graph6, hits))} has power domination "
            "number 1 although every degree n-3 vertex has a twin outside pair"
        )
    else:
        run.notes.append(f"no converse-failure witness up to n={cap}")
    return f"connected graphs 4<=n<={cap} having a vertex of degree n-3"


@_verifier("T11", "(n-3)-regular power domination criterion", 10, 12, None)
def _t11(run: VerifyReport, u: Universe, cap: int) -> str:
    skipped = 0
    for n in range(5, cap + 1):
        for parts in _partitions_nondecreasing(n):
            if any(p < 3 for p in parts):
                continue
            # Disjoint cycles, then complement: exactly the (n-3)-regular graphs.
            edges = []
            at = 0
            for p in parts:
                edges.extend((at + i, at + (i + 1) % p) for i in range(p))
                at += p
            g = Graph(n, edges).complement()
            if not g.is_connected():
                skipped += 1
                continue
            run.checked += 1
            lhs = _pd_at_most(g, 1)
            rhs = False
            for a, b in g.edges():
                na = g.closed_neighbors(a)
                nb = g.closed_neighbors(b)
                if (nb & ~na).bit_count() == 1 or (na & ~nb).bit_count() == 1:
                    rhs = True
                    break
            if lhs != rhs:
                run.fail(
                    g,
                    "power domination 1 iff some edge uv has |N[v] minus N[u]| = 1",
                    f"power_domination_1={lhs}, edge_found={rhs}",
                )
    if skipped:
        run.notes.append(f"skipped {skipped} disconnected complements")
    return f"(n-3)-regular connected graphs 5<=n<={cap} (cycle-union complements)"


@_verifier("T12", "total domination number 2 iff the complement diameter exceeds 2", 7, _FULL_SWEEP_CAP, "connected")
def _t12(run: VerifyReport, u: Universe, cap: int) -> str:
    for g in u.between(3, cap):
        run.checked += 1
        # gamma_t >= 2, so gamma_t = 2 iff some two vertices totally dominate.
        two = _tdom_at_most(g, 2)
        c = g.complement()
        if two != c.diameter_exceeds(2):
            diam_c: float = c.diameter() if c.is_connected() else float("inf")
            run.fail(
                g,
                "total domination 2 iff complement diameter > 2",
                f"total_domination={_gamma_t(g)}, complement_diameter={diam_c}",
            )
    return f"connected graphs 3<=n<={cap} (disconnected complements count as infinite diameter)"


@_verifier("T13", "lexicographic product power domination formula", 4, 5, "connected")
def _t13(run: VerifyReport, u: Universe, cap: int) -> str:
    factors = [shown(g) for g in u.between(2, cap)]
    pairs = [(g, h) for g in factors for h in factors]
    extras = [
        (path(2), h_graph()),
        (path(2), complete_multipartite((3, 3))),
        (path(2), wagner_graph()),
    ]
    # Each factor is solved once; the caches die with this call.
    gp, gamma, gamma_t = cache(_gp), cache(_gamma), cache(_gamma_t)
    for g, h in pairs + extras:
        run.checked += 1
        prod = lexicographic_product(g, h)
        gp_h = gp(h)
        exp = gamma(g) if gp_h == 1 else gamma_t(g)
        got = _gp(prod)
        if got != exp:
            run.fail(
                prod,
                f"power domination {exp} for {graph6(g)} o {graph6(h)} "
                f"(right factor power domination {gp_h})",
                str(got),
            )
    return (
        f"ordered pairs of connected factors 2<=n<={cap}, plus K2 against the "
        "H-graph, K(3,3) and the Wagner graph"
    )


@_verifier("T14", "grid power domination formula", 8, 10, None)
def _t14(run: VerifyReport, u: Universe, cap: int) -> str:
    for m in range(1, min(5, cap) + 1):
        for n in range(m, cap + 1):
            run.checked += 1
            grid = cartesian_product(path(m), path(n))
            exp = (m + 4) // 4 if m % 8 == 4 else (m + 3) // 4  # ceil((m+1)/4), ceil(m/4)
            got = _gp(grid)
            if got != exp:
                run.fail(grid, f"grid {m}x{n}: power domination number {exp}", str(got))
    return f"grids P_m box P_n with 1<=m<=min(5,{cap}), m<=n<={cap}"


@_verifier("T15", "Cartesian product power domination bounds", 5, None, "connected")
def _t15(run: VerifyReport, u: Universe, cap: int) -> str:
    factors = [shown(g) for g in u.between(2, cap)]
    small = [shown(g) for g in u.between(2, 3)]
    pairs = [(g, h) for g in factors for h in factors if g.n * h.n <= 20]
    pairs += [(g, h_graph()) for g in small] + [(h_graph(), g) for g in small]
    # Each factor is solved once, and each product once for it and its
    # mirror (h, g); the caches die with this call.
    gp, gamma, z = cache(_gp), cache(_gamma), cache(_z)
    mirrored: dict[tuple[Graph, Graph], int] = {}
    for g, h in pairs:
        run.checked += 1
        gp_prod = mirrored.get((h, g))
        if gp_prod is None:
            gp_prod = mirrored[g, h] = _gp(cartesian_product(g, h))
        gp_g = gp(g)
        gp_h = gp(h)
        # (the bound, what was found); the product is built only to print them
        broken = []
        if max(gp_g, gp_h) > gp_prod:
            broken.append(
                ("max(factor power dominations) <= product power domination", f"max({gp_g},{gp_h}) > {gp_prod}")
            )
        if is_tree(h) and gp_g * gp_h > gp_prod:
            broken.append(("tree factor product lower bound", f"{gp_g}*{gp_h} > {gp_prod}"))
        if is_path(h) and gp_prod > gamma(g):
            broken.append(("path factor bound by left domination number", f"{gp_prod} > {gamma(g)}"))
        if _dom_at_most(h, 1) and gp_prod > z(g):
            broken.append(("dominating-vertex factor bound by left zero forcing", f"{gp_prod} > {z(g)}"))
        if broken:
            prod = cartesian_product(g, h)
            for bound, found in broken:
                run.fail(prod, f"{graph6(g)} box {graph6(h)}: {bound}", found)
    return (
        f"ordered pairs of connected factors 2<=n<={cap} with product order <= 20, "
        "plus H-graph pairs"
    )


def _recheck_power_domination(g: Graph, value: int) -> None:
    """Solve ``g`` afresh and raise unless its certificate proves power domination number ``value``.

    The force log must be valid, start from the closed neighbourhood of a
    ``value``-vertex witness and reach every vertex.
    """
    result = power_domination_number(g)
    log = result.certificate
    log.validate(g)
    reached = sum(1 << v for chain in log.chains for v in chain)
    if not (
        result.value == result.witness.bit_count() == value
        and log.initial == g.closed_neighborhood(result.witness)
        and reached == g.full_mask
    ):
        raise RuntimeError(
            f"{write_graph6(g)} fails its re-check: power domination number {result.value}, not {value}"
        )


def _pendant_path_dominatable(h: Graph) -> bool:
    """True iff ``h`` is a graph with a dominating vertex plus a pendant path.

    Formally: some (possibly empty) vertex set R induces a path, exactly one
    edge leaves R, from an endpoint of that path, and deleting R leaves a
    graph with a dominating vertex.
    """
    if _dom_at_most(h, 1):
        return True
    full = h.full_mask
    for r in _induced_path_masks(h):
        rest = full & ~r
        if rest == 0:
            continue
        crossing = [(v, w) for v in bits(r) for w in bits(h.adj[v] & rest)]
        if len(crossing) != 1:
            continue
        anchor = crossing[0][0]
        if (h.adj[anchor] & r).bit_count() > 1:
            continue  # the single outside edge must leave a path endpoint
        if any(h.closed_neighbors(v) & rest == rest for v in bits(rest)):
            return True
    return False


def _product_pd1_characterization(a: Graph, b: Graph, b_pendant: bool) -> bool:
    """The structural side of T16; ``b_pendant`` is ``_pendant_path_dominatable(b)``."""
    if a.n >= 4 and b.n >= 4 and _dom_at_most(a, 1) and is_path(b):
        return True
    if is_path(a) and a.n in (2, 3) and b_pendant:
        return True
    if a.n == 3 and a.m == 3 and is_path(b):
        return True
    return False


@_verifier("T16", "Cartesian products with one edge: power domination behavior", 7, _FULL_SWEEP_CAP // 2, "connected")
def _t16(run: VerifyReport, u: Universe, cap: int) -> str:
    p2 = path(2)
    hits: list[Graph] = []
    # One sweep serves the edge-product bound (power domination 1) and the
    # jump search (power domination 2), which stops after the order of its
    # first witness (see ``_searching``).
    for g in u.between(1, cap):
        one = find_power_dominating_set(g, 1)
        if one is not None:
            run.checked += 1
            prod = cartesian_product(g, p2)
            # Vertex v of g is 2v and 2v + 1 in the product, whose two layers
            # force in step, so both copies of a power dominating v power
            # dominate it: that pair is the witness for the bound.
            v = one.bit_length() - 1
            if not is_power_dominating_set(prod, 3 << 2 * v):
                run.fail(
                    g,
                    "power domination 1 implies the product with an edge needs <= 2",
                    str(_gp(prod)),
                )
        elif _searching(hits, g) and _pd_at_most(g, 2):
            run.checked += 1
            if _gp(cartesian_product(g, p2)) == 3:
                hits.append(g)
    factors = [shown(g) for g in u.between(2, 5)]
    gamma, pendant = cache(_gamma), cache(_pendant_path_dominatable)
    mirrored: dict[tuple[Graph, Graph], bool] = {}  # g box h is isomorphic to h box g
    for g in factors:
        for h in factors:
            if g.n * h.n > 20:
                continue
            run.checked += 1
            actual = mirrored.get((h, g))
            if actual is None:
                actual = mirrored[g, h] = _pd_at_most(cartesian_product(g, h), 1)
            pred = any(
                _product_pd1_characterization(a, b, pendant(b)) for a, b in ((g, h), (h, g)) if gamma(a) <= gamma(b)
            )
            if actual != pred:
                run.fail(
                    cartesian_product(g, h),
                    f"{graph6(g)} box {graph6(h)}: product power domination 1 "
                    f"iff the structural characterization holds ({pred})",
                    f"power_domination_1={actual}",
                )
    if hits:
        witness = min(hits, key=graph6)
        _recheck_power_domination(cartesian_product(witness, p2), 3)
        run.notes.append(
            f"witness: {graph6(witness)} has power domination number 2 and its "
            "product with an edge needs 3 (re-checked standalone)"
        )
    else:
        run.notes.append(
            f"no witness with power domination 2 jumping to 3 in the product "
            f"with an edge up to n={cap}"
        )
    return (
        f"connected graphs n<={cap} for the edge-product bound and the jump search; "
        "factor pairs with product order <= 20 for the characterization"
    )
