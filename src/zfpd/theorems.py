"""Verification harness: one verifier per claim, each sweeping a universe of
small graphs exhaustively and reporting counterexamples.

A verifier never patches a claim it finds false: failures land in the report
together with enough context to replay them standalone.  Bounded existence
searches (T9, T16) report either a re-checked witness or an explicit
"no witness up to the cap" note; both outcomes are valid.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import Graph, bits, is_path, is_tree
from .families import (
    MAX_BUILTIN_ORDER,
    MAX_TREE_ORDER,
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
from .invariants import (
    domination_number,
    find_power_dominating_set,
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
from .structure import is_outerplanar, is_planar

__all__ = ["Failure", "VerifyReport", "Universe", "verify", "theorem_ids", "claim_of"]


@dataclass(frozen=True)
class Failure:
    graph6: str
    expected: str
    observed: str

    def to_dict(self) -> dict:
        return {"graph6": self.graph6, "expected": self.expected, "observed": self.observed}


@dataclass
class VerifyReport:
    theorem: str
    claim: str
    universe: str
    checked: int
    failures: list[Failure]
    notes: list[str]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "claim": self.claim,
            "universe": self.universe,
            "checked": self.checked,
            "failures": [f.to_dict() for f in self.failures],
            "notes": list(self.notes),
            "elapsed_s": round(self.elapsed_s, 3),
            "passed": self.passed,
        }


class Universe:
    """Graph supply for the verifiers: built-in enumeration plus optional files.

    A graph6 file (one encoding per line, ``#`` comments allowed) overrides
    the built-in enumeration for every order it contains, which is how orders
    beyond the built-in cap reach the harness.
    """

    def __init__(self, files: Iterable[str] = ()) -> None:
        self._by_order: dict[int, list[Graph]] = {}
        self._names: dict[int, str] = {}
        for fname in files:
            with open(fname, encoding="ascii") as fh:
                graphs = read_graph6_lines(fh)
            base = os.path.basename(fname)
            for g in graphs:
                self._by_order.setdefault(g.n, []).append(g)
                self._names[g.n] = base

    def connected(self, n: int) -> list[Graph]:
        if n in self._by_order:
            return [g for g in self._by_order[n] if g.is_connected()]
        if n <= MAX_BUILTIN_ORDER:
            return list(enumerate_connected(n))
        raise ValueError(
            f"no universe for order {n}: built-in enumeration stops at "
            f"{MAX_BUILTIN_ORDER}, supply a graph6 file"
        )

    def trees(self, n: int) -> list[Graph]:
        if n in self._by_order:
            return [g for g in self.connected(n) if is_tree(g)]
        if n <= MAX_TREE_ORDER:
            return list(enumerate_trees(n))
        raise ValueError(f"no tree universe for order {n}: supply a graph6 file")

    def source(self, n: int) -> str:
        return self._names.get(n, "built-in")

    def has_file_for(self, n: int) -> bool:
        return n in self._by_order


class _Run:
    """Mutable scratch state one verifier fills in."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[Failure] = []
        self.notes: list[str] = []

    def count(self, k: int = 1) -> None:
        self.checked += k

    def fail(self, g: Graph, expected: str, observed: str) -> None:
        self.failures.append(Failure(write_graph6(g), expected, observed))

    def note(self, text: str) -> None:
        self.notes.append(text)


# ---------------------------------------------------------------------------
# solver shorthands


def _gp(g: Graph) -> int:
    return power_domination_number(g).value


def _pd_exists(g: Graph, k: int) -> bool:
    return find_power_dominating_set(g, k) is not None


def _pd_at_most(g: Graph, k: int) -> bool:
    return any(_pd_exists(g, j) for j in range(1, min(k, g.n) + 1))


def _zf_exists(g: Graph, k: int) -> bool:
    return find_zero_forcing_set(g, k) is not None


def _gamma(g: Graph) -> int:
    return domination_number(g).value


def _gamma_is_one(g: Graph) -> bool:
    full = g.full_mask
    return any(g.closed_neighbors(v) == full for v in range(g.n))


def _twin_free(g: Graph) -> bool:
    return not any(
        g.are_twins(u, v) for u in range(g.n) for v in range(u + 1, g.n)
    )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, tuple[str, int, int, Callable[[_Run, Universe, int], str]]] = {}


def _verifier(tid: str, claim: str, default_cap: int, hard_cap: int):
    def wrap(fn: Callable[[_Run, Universe, int], str]):
        _REGISTRY[tid] = (claim, default_cap, hard_cap, fn)
        return fn

    return wrap


def theorem_ids() -> list[str]:
    return sorted(_REGISTRY, key=lambda t: int(t[1:]))


def claim_of(tid: str) -> str:
    return _REGISTRY[tid][0]


def verify(tid: str, *, max_n: int | None = None, universe_files: Iterable[str] = ()) -> VerifyReport:
    """Run one verifier and return its report.

    ``max_n`` overrides the verifier's default size cap (within its hard
    cap); ``universe_files`` supply graph6 universes for orders the built-in
    enumeration does not reach.
    """
    if tid not in _REGISTRY:
        known = ", ".join(theorem_ids())
        raise ValueError(f"unknown theorem id {tid!r} (known: {known})")
    claim, default_cap, hard_cap, fn = _REGISTRY[tid]
    universe = Universe(universe_files)
    cap = default_cap if max_n is None else max_n
    if cap > hard_cap and not any(universe.has_file_for(n) for n in range(hard_cap + 1, cap + 1)):
        raise ValueError(f"{tid} is capped at max_n={hard_cap} without a universe file")
    run = _Run()
    start = time.perf_counter()
    universe_desc = fn(run, universe, cap)
    elapsed = time.perf_counter() - start
    run.failures.sort(key=lambda f: (f.graph6, f.expected))
    return VerifyReport(
        theorem=tid,
        claim=claim,
        universe=universe_desc,
        checked=run.checked,
        failures=run.failures,
        notes=run.notes,
        elapsed_s=elapsed,
    )


# ---------------------------------------------------------------------------
# verifiers


@_verifier("T1", "zero forcing number 1 exactly for paths", 7, 8)
def _t1(run: _Run, u: Universe, cap: int) -> str:
    for n in range(1, cap + 1):
        for g in u.connected(n):
            run.count()
            z1 = _zf_exists(g, 1)
            pathlike = is_path(g)
            if z1 != pathlike:
                run.fail(
                    g,
                    f"Z=1 iff path; is_path={pathlike}",
                    f"a single vertex forces everything: {z1}",
                )
    return f"connected graphs 1<=n<={cap}"


@_verifier("T2", "zero forcing number 2 iff outerplanar with path cover number 2 (n>=5)", 7, 8)
def _t2(run: _Run, u: Universe, cap: int) -> str:
    for n in range(5, cap + 1):
        graphs = u.connected(n)
        run.note(f"n={n}: {len(graphs)} graphs ({u.source(n)})")
        for g in graphs:
            run.count()
            z_is_2 = not _zf_exists(g, 1) and _zf_exists(g, 2)
            outer = is_outerplanar(g)
            pc = path_cover_number(g).value
            rhs = outer and pc == 2
            if z_is_2 != rhs:
                z = zero_forcing_number(g).value
                run.fail(
                    g,
                    "Z=2 iff (outerplanar and path cover 2)",
                    f"Z={z}, outerplanar={outer}, path_cover={pc}",
                )
    return f"connected graphs 5<=n<={cap}"


@_verifier("T3", "maximum degree n-1 iff domination and power domination numbers are both 1", 7, 8)
def _t3(run: _Run, u: Universe, cap: int) -> str:
    weaker_bad: list[str] = []
    for n in range(1, cap + 1):
        for g in u.connected(n):
            run.count()
            dom1 = _gamma_is_one(g)  # same thing as a universal vertex
            lhs = g.degree_stats()[1] == n - 1
            pd1 = _pd_exists(g, 1)
            rhs = dom1 and pd1
            if lhs != rhs:
                run.fail(
                    g,
                    "max degree n-1 iff (domination=1 and power domination=1)",
                    f"max_degree_hit={lhs}, domination1={dom1}, power_domination1={pd1}",
                )
            # Weaker reading: "power domination equals domination" instead of both 1.
            if n >= 2 and (_gp(g) == _gamma(g)) != lhs:
                weaker_bad.append(write_graph6(g))
    if weaker_bad:
        run.note(
            f"weaker reading (power domination = domination iff max degree n-1) fails on "
            f"{len(weaker_bad)} graphs, e.g. {', '.join(sorted(weaker_bad)[:3])}"
        )
    else:
        run.note("weaker reading (power domination = domination) also held")
    return f"connected graphs 1<=n<={cap}, both directions"


@_verifier("T4", "smallest graphs that need two power dominators", 7, 8)
def _t4(run: _Run, u: Universe, cap: int) -> str:
    for n in range(1, 6):
        for g in u.connected(n):
            run.count()
            if not _pd_exists(g, 1):
                run.fail(g, "power domination number 1 (order <= 5)", "needs >= 2")
    hg = h_graph()
    run.count()
    gp_h = _gp(hg)
    if gp_h != 2:
        run.fail(hg, "H-graph power domination number 2", str(gp_h))
    two_at_six = []
    for g in u.connected(6):
        run.count()
        if not _pd_exists(g, 1):
            two_at_six.append(write_graph6(g))
    run.note(
        f"order-6 graphs needing 2 power dominators: {len(two_at_six)} "
        f"({', '.join(sorted(two_at_six))})"
    )
    wg = wagner_graph()
    run.count()
    if not _twin_free(wg):
        run.fail(wg, "Wagner graph twin-free", "has twins")
    gp_w = _gp(wg)
    if gp_w != 2:
        run.fail(wg, "Wagner graph power domination number 2", str(gp_w))
    for n in range(1, min(7, cap) + 1):
        for g in u.connected(n):
            if _twin_free(g):
                run.count()
                if not _pd_exists(g, 1):
                    run.fail(
                        g,
                        "twin-free graphs of order <= 7 have power domination number 1",
                        "needs >= 2",
                    )
    return "connected graphs n<=5; order 6; Wagner graph; twin-free n<=7"


@_verifier("T5", "parameter table for the basic families", 10, 12)
def _t5(run: _Run, u: Universe, cap: int) -> str:
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
            run.count()
            gp = _gp(g)
            gamma = _gamma(g)
            z = zero_forcing_number(g).value
            if (gp, gamma, z) != (exp_gp, exp_gamma, exp_z):
                run.fail(
                    g,
                    f"{label}: power_domination={exp_gp}, domination={exp_gamma}, zero_forcing={exp_z}",
                    f"power_domination={gp}, domination={gamma}, zero_forcing={z}",
                )
    run.note(
        "columns read as order-n families: K(1,n-1); K(2,n-2) from n>=4; K(h,n-h) for 3<=h<=n/2"
    )
    return f"family members of order 3..{cap}"


def _partitions_nondecreasing(total: int) -> Iterable[tuple[int, ...]]:
    def rec(remaining: int, minimum: int) -> Iterable[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, 1)


@_verifier("T6", "complete multipartite graphs and single-edge deletions", 10, 12)
def _t6(run: _Run, u: Universe, cap: int) -> str:
    skipped_disconnected = 0
    literal_conflicts: list[str] = []
    for total in range(2, cap + 1):
        for parts in _partitions_nondecreasing(total):
            if len(parts) < 2:
                continue
            g = complete_multipartite(parts)
            r1 = parts[0]
            run.count()
            exp = 1 if r1 <= 2 else 2
            gp = _gp(g)
            if gp != exp:
                run.fail(
                    g,
                    f"K{parts}: power domination number {exp}",
                    str(gp),
                )
            offsets = []
            at = 0
            for r in parts:
                offsets.append(at)
                at += r
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    ge = g.delete_edge(offsets[i], offsets[j])
                    if not ge.is_connected():
                        skipped_disconnected += 1
                        continue
                    run.count()
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
        run.note(
            f"skipped {skipped_disconnected} edge deletions that disconnect the graph "
            "(two-part graphs with a singleton part)"
        )
    if literal_conflicts:
        run.note(
            "first-part reading of the size-3 case is not label-invariant; "
            + "; ".join(literal_conflicts[:4])
            + (f"; plus {len(literal_conflicts) - 4} more" if len(literal_conflicts) > 4 else "")
        )
    return f"complete multipartite part profiles of total order <= {cap}, one edge per part pair"


@_verifier("T7", "tree power domination equals the spider partition number", 9, MAX_TREE_ORDER)
def _t7(run: _Run, u: Universe, cap: int) -> str:
    for n in range(1, cap + 1):
        for t in u.trees(n):
            run.count()
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


@_verifier("T8", "planar/outerplanar small-diameter power domination bounds", 7, 8)
def _t8(run: _Run, u: Universe, cap: int) -> str:
    variant_bad = 0
    for n in range(1, cap + 1):
        for g in u.connected(n):
            run.count()
            d = g.diameter()
            if d <= 2 and is_planar(g) and not _pd_at_most(g, 2):
                run.fail(
                    g,
                    "planar with diameter <= 2: power domination number <= 2",
                    str(_gp(g)),
                )
            if d <= 3 and is_outerplanar(g):
                if not _pd_exists(g, 1):
                    run.fail(
                        g,
                        "outerplanar with diameter <= 3: power domination number 1",
                        str(_gp(g)),
                    )
                if d <= 2 and not _pd_exists(g, 1):
                    variant_bad += 1
    if variant_bad:
        run.note(f"diameter<=2 variant of the outerplanar branch fails on {variant_bad} graphs")
    else:
        run.note("diameter<=2 variant of the outerplanar branch held on every graph checked")
    return f"connected graphs 1<=n<={cap}"


@_verifier("T9", "large maximum degree keeps the power domination number small", 8, 9)
def _t9(run: _Run, u: Universe, cap: int) -> str:
    witness = None
    for n in range(1, cap + 1):
        for g in u.connected(n):
            run.count()
            delta = g.degree_stats()[1]
            if delta >= n - 2:
                if not _pd_exists(g, 1):
                    run.fail(
                        g,
                        "max degree >= n-2: power domination number 1",
                        str(_gp(g)),
                    )
            elif delta >= n - 4:
                if not _pd_at_most(g, 2):
                    run.fail(
                        g,
                        "max degree in {n-4, n-3}: power domination number <= 2",
                        str(_gp(g)),
                    )
            if witness is None and delta == n - 5 and not _pd_at_most(g, 2):
                gp = _gp(g)
                witness = (g, gp)
    if witness is not None:
        g, gp = witness
        run.note(
            f"witness: {write_graph6(g)} has max degree n-5 and power domination "
            f"number {gp} (re-checked standalone)"
        )
    else:
        run.note(f"no witness with max degree n-5 and power domination >= 3 up to n={cap}")
    return f"connected graphs 1<=n<={cap}; witness search for max degree n-5"


@_verifier("T10", "a degree n-3 vertex power dominates iff the outside pair are not twins", 7, 8)
def _t10(run: _Run, u: Universe, cap: int) -> str:
    witness = None
    for n in range(4, cap + 1):
        for g in u.connected(n):
            hits = [v for v in range(n) if g.degree(v) == n - 3]
            if not hits:
                continue
            run.count()
            all_twins = True
            for v in hits:
                outside = list(bits(g.full_mask & ~g.closed_neighbors(v)))
                w1, w2 = outside
                lhs = is_power_dominating_set(g, 1 << v)
                rhs = not g.are_twins(w1, w2)
                if lhs != rhs:
                    run.fail(
                        g,
                        f"vertex {v} (degree n-3) power dominates iff {w1},{w2} are not twins",
                        f"power_dominates={lhs}, twins={not rhs}",
                    )
                if rhs:
                    all_twins = False
            if witness is None and all_twins and _pd_exists(g, 1):
                witness = g
    if witness is not None:
        run.note(
            f"converse-failure witness: {write_graph6(witness)} has power domination "
            "number 1 although every degree n-3 vertex has a twin outside pair"
        )
    else:
        run.note(f"no converse-failure witness up to n={cap}")
    return f"connected graphs 4<=n<={cap} having a vertex of degree n-3"


@_verifier("T11", "(n-3)-regular power domination criterion", 10, 12)
def _t11(run: _Run, u: Universe, cap: int) -> str:
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
            run.count()
            lhs = _pd_exists(g, 1)
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
        run.note(f"skipped {skipped} disconnected complements")
    return f"(n-3)-regular connected graphs 5<=n<={cap} (cycle-union complements)"


@_verifier("T12", "total domination number 2 iff the complement diameter exceeds 2", 7, 8)
def _t12(run: _Run, u: Universe, cap: int) -> str:
    for n in range(3, cap + 1):
        for g in u.connected(n):
            run.count()
            gt = total_domination_number(g).value
            c = g.complement()
            diam_c: float = c.diameter() if c.is_connected() else float("inf")
            lhs = gt == 2
            rhs = diam_c > 2
            if lhs != rhs:
                run.fail(
                    g,
                    "total domination 2 iff complement diameter > 2",
                    f"total_domination={gt}, complement_diameter={diam_c}",
                )
    return f"connected graphs 3<=n<={cap} (disconnected complements count as infinite diameter)"


@_verifier("T13", "lexicographic product power domination formula", 4, 5)
def _t13(run: _Run, u: Universe, cap: int) -> str:
    factors = [g for k in range(2, cap + 1) for g in u.connected(k)]
    pairs = [(g, h) for g in factors for h in factors]
    extras = [
        (path(2), h_graph()),
        (path(2), complete_multipartite((3, 3))),
        (path(2), wagner_graph()),
    ]
    for g, h in pairs + extras:
        run.count()
        prod, _ = lexicographic_product(g, h)
        gp_h = _gp(h)
        exp = _gamma(g) if gp_h == 1 else total_domination_number(g).value
        got = _gp(prod)
        if got != exp:
            run.fail(
                prod,
                f"power domination {exp} for {write_graph6(g)} o {write_graph6(h)} "
                f"(right factor power domination {gp_h})",
                str(got),
            )
    return (
        f"ordered pairs of connected factors 2<=n<={cap}, plus K2 against the "
        "H-graph, K(3,3) and the Wagner graph"
    )


@_verifier("T14", "grid power domination formula", 8, 10)
def _t14(run: _Run, u: Universe, cap: int) -> str:
    for m in range(1, min(5, cap) + 1):
        for n in range(m, cap + 1):
            run.count()
            grid, _ = cartesian_product(path(m), path(n))
            exp = _ceil_div(m + 1, 4) if m % 8 == 4 else _ceil_div(m, 4)
            got = _gp(grid)
            if got != exp:
                run.fail(grid, f"grid {m}x{n}: power domination number {exp}", str(got))
    return f"grids P_m box P_n with 1<=m<=min(5,{cap}), m<=n<={cap}"


@_verifier("T15", "Cartesian product power domination bounds", 5, 6)
def _t15(run: _Run, u: Universe, cap: int) -> str:
    factors = [g for k in range(2, cap + 1) for g in u.connected(k)]
    small = [g for k in range(2, 4) for g in u.connected(k)]
    pairs = [(g, h) for g in factors for h in factors if g.n * h.n <= 20]
    pairs += [(g, h_graph()) for g in small] + [(h_graph(), g) for g in small]
    for g, h in pairs:
        run.count()
        prod, _ = cartesian_product(g, h)
        gp_prod = _gp(prod)
        gp_g = _gp(g)
        gp_h = _gp(h)
        pair_tag = f"{write_graph6(g)} box {write_graph6(h)}"
        if max(gp_g, gp_h) > gp_prod:
            run.fail(
                prod,
                f"{pair_tag}: max(factor power dominations) <= product power domination",
                f"max({gp_g},{gp_h}) > {gp_prod}",
            )
        if is_tree(h) and gp_g * gp_h > gp_prod:
            run.fail(
                prod,
                f"{pair_tag}: tree factor product lower bound",
                f"{gp_g}*{gp_h} > {gp_prod}",
            )
        if is_path(h) and gp_prod > _gamma(g):
            run.fail(
                prod,
                f"{pair_tag}: path factor bound by left domination number",
                f"{gp_prod} > {_gamma(g)}",
            )
        if _gamma_is_one(h):
            z = zero_forcing_number(g).value
            if gp_prod > z:
                run.fail(
                    prod,
                    f"{pair_tag}: dominating-vertex factor bound by left zero forcing",
                    f"{gp_prod} > {z}",
                )
    return (
        f"ordered pairs of connected factors 2<=n<={cap} with product order <= 20, "
        "plus H-graph pairs"
    )


def _pendant_path_dominatable(h: Graph) -> bool:
    """True iff ``h`` is a graph with a dominating vertex plus a pendant path.

    Formally: some (possibly empty) vertex set R induces a path, exactly one
    edge leaves R, from an endpoint of that path, and deleting R leaves a
    graph with a dominating vertex.
    """
    if _gamma_is_one(h):
        return True
    full = h.full_mask
    for r in range(1, full):
        rest = full & ~r
        if rest == 0:
            continue
        sub = h.induced_subgraph(r)
        if not is_path(sub):
            continue
        crossing = [
            (v, w)
            for v in bits(r)
            for w in bits(h.adj[v] & rest)
        ]
        if len(crossing) != 1:
            continue
        anchor = crossing[0][0]
        if (h.adj[anchor] & r).bit_count() > 1:
            continue  # the single outside edge must leave a path endpoint
        dmask = rest
        if any(h.closed_neighbors(v) & dmask == dmask for v in bits(dmask)):
            return True
    return False


def _product_pd1_characterization(a: Graph, b: Graph) -> bool:
    if a.n >= 4 and b.n >= 4 and _gamma_is_one(a) and is_path(b):
        return True
    if is_path(a) and a.n in (2, 3) and _pendant_path_dominatable(b):
        return True
    if a.n == 3 and a.m == 3 and is_path(b):
        return True
    return False


@_verifier("T16", "Cartesian products with one edge: power domination behavior", 7, 8)
def _t16(run: _Run, u: Universe, cap: int) -> str:
    p2 = path(2)
    for n in range(1, cap + 1):
        for g in u.connected(n):
            if not _pd_exists(g, 1):
                continue
            run.count()
            prod, _ = cartesian_product(g, p2)
            if not _pd_at_most(prod, 2):
                run.fail(
                    g,
                    "power domination 1 implies the product with an edge needs <= 2",
                    str(_gp(prod)),
                )
    factors = [g for k in range(2, 6) for g in u.connected(k)]
    for g in factors:
        for h in factors:
            if g.n * h.n > 20:
                continue
            run.count()
            prod, _ = cartesian_product(g, h)
            actual = _pd_exists(prod, 1)
            candidates = []
            if _gamma(g) <= _gamma(h):
                candidates.append((g, h))
            if _gamma(h) <= _gamma(g):
                candidates.append((h, g))
            pred = any(_product_pd1_characterization(a, b) for a, b in candidates)
            if actual != pred:
                run.fail(
                    prod,
                    f"{write_graph6(g)} box {write_graph6(h)}: product power domination 1 "
                    f"iff the structural characterization holds ({pred})",
                    f"power_domination_1={actual}",
                )
    witness = None
    for n in range(2, cap + 1):
        if witness is not None:
            break
        for g in u.connected(n):
            if _pd_exists(g, 1) or not _pd_exists(g, 2):
                continue  # wants power domination number exactly 2
            run.count()
            prod, _ = cartesian_product(g, p2)
            gp_prod = _gp(prod)
            if gp_prod == 3:
                witness = (g, gp_prod)
                break
    if witness is not None:
        g, gp_prod = witness
        run.note(
            f"witness: {write_graph6(g)} has power domination number 2 and its "
            f"product with an edge needs {gp_prod} (re-checked standalone)"
        )
    else:
        run.note(
            f"no witness with power domination 2 jumping to 3 in the product "
            f"with an edge up to n={cap}"
        )
    return (
        f"connected graphs n<={cap} for the edge-product bound and the jump search; "
        "factor pairs with product order <= 20 for the characterization"
    )
