"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import re

from zfpd.graph import is_tree
from zfpd.families import (
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    parse_graph6,
    path,
    spider,
    star,
    wagner_graph,
    wheel,
    write_graph6,
)
from zfpd.invariants import (
    domination_number,
    path_cover_number,
    power_domination_number,
    spider_number,
    total_domination_number,
    zero_forcing_number,
)
from zfpd.products import cartesian_product
from zfpd.propagation import closure, closure_with_log
from zfpd.theorems import Universe, verify

from oracles import (
    closure_random_order,
    naive_domination,
    naive_path_cover,
    naive_power_domination,
    naive_spider_number,
    naive_total_domination,
    naive_zero_forcing,
    random_graph,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {verdict}{suffix}")


def test_criterion_1_table_reproduction():
    report = verify("T5", max_n=10)
    # spot-check the closed forms directly on top of the exhaustive sweep
    direct_ok = True
    for n in range(3, 11):
        direct_ok &= power_domination_number(path(n)).value == 1
        direct_ok &= zero_forcing_number(cycle(n)).value == 2
        direct_ok &= zero_forcing_number(complete(n)).value == n - 1
        direct_ok &= domination_number(cycle(n)).value == (n + 2) // 3
        direct_ok &= zero_forcing_number(star(n)).value == n - 2
        if n >= 6:
            direct_ok &= power_domination_number(complete_multipartite((3, n - 3))).value == 2
    ok = report.passed and direct_ok
    _report("criterion 1 (family table, 3<=n<=10)", ok, f"{report.checked} rows checked")
    assert ok


def test_criterion_2_zero_forcing_two_characterization(tmp_path):
    report = verify("T2", max_n=7)
    counts_emitted = any("853" in note for note in report.notes)
    # external-universe route for order 8, on the named order-8 family members
    fname = tmp_path / "order8.g6"
    members = [
        path(8), cycle(8), complete(8), star(8), wheel(8), wagner_graph(),
        spider([3, 2, 2]), complete_multipartite((4, 4)),
        complete_multipartite((2, 6)), complete_multipartite((1, 3, 4)),
    ]
    fname.write_text("".join(write_graph6(g) + "\n" for g in members), encoding="ascii")
    file_report = verify("T2", max_n=8, universe=Universe([str(fname)]))
    ok = report.passed and counts_emitted and file_report.passed
    _report(
        "criterion 2 (Z=2 iff outerplanar with path cover 2)",
        ok,
        f"built-in {report.checked} graphs; file route {file_report.checked}",
    )
    assert ok


def test_criterion_3_zero_forcing_one():
    report = verify("T1", max_n=7)
    ok = report.passed and report.checked == 996
    _report("criterion 3 (Z=1 exactly for paths, n<=7)", ok, f"{report.checked} graphs")
    assert ok


def test_criterion_4_smallest_graph_claims():
    report = verify("T4", max_n=7)
    ok = report.passed
    _report("criterion 4 (smallest graphs needing two power dominators)", ok,
            f"{report.checked} checks")
    assert ok


def test_criterion_5_multipartite():
    report = verify("T6", max_n=10)
    ok = report.passed
    _report("criterion 5 (complete multipartite, total order <= 10)", ok,
            f"{report.checked} checks")
    assert ok


def test_criterion_6_trees():
    report = verify("T7", max_n=9)
    ok = report.passed and report.checked == 95
    _report("criterion 6 (tree power domination = spider number, n<=9)", ok,
            f"{report.checked} trees")
    assert ok


def test_criterion_7_grids():
    report = verify("T14", max_n=8)
    ok = report.passed
    _report("criterion 7 (grid formula, m<=5, n<=8)", ok, f"{report.checked} grids")
    assert ok


def test_criterion_8_property_suites():
    rng = random.Random(2026)
    pairs = 10_000
    violations = 0
    for _ in range(pairs):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        u = rng.randrange(1 << g.n)
        cl, log = closure_with_log(g, u)
        try:
            log.validate(g)
        except ValueError:
            violations += 1
            continue
        if cl != closure(g, u):
            violations += 1
        if cl & u != u or closure(g, cl) != cl:
            violations += 1
        if closure(g, u | rng.randrange(1 << g.n)) & cl != cl:
            violations += 1
        if closure_random_order(g, u, rng) != cl:
            violations += 1
    bounds_bad = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            z = zero_forcing_number(g).value
            gp = power_domination_number(g).value
            gamma = domination_number(g).value
            pc = path_cover_number(g).value
            if pc > z or gp > min(gamma, z):
                bounds_bad.append(write_graph6(g))
    oracle_bad = []
    for n in range(1, 7):
        for g in enumerate_connected(n):
            if zero_forcing_number(g).value != naive_zero_forcing(g):
                oracle_bad.append(("zf", write_graph6(g)))
            if power_domination_number(g).value != naive_power_domination(g):
                oracle_bad.append(("pd", write_graph6(g)))
            if domination_number(g).value != naive_domination(g):
                oracle_bad.append(("dom", write_graph6(g)))
            if path_cover_number(g).value != naive_path_cover(g):
                oracle_bad.append(("pathcover", write_graph6(g)))
            if n >= 2 and total_domination_number(g).value != naive_total_domination(g):
                oracle_bad.append(("tdom", write_graph6(g)))
            if is_tree(g) and spider_number(g).value != naive_spider_number(g):
                oracle_bad.append(("spider", write_graph6(g)))
    ok = violations == 0 and not bounds_bad and not oracle_bad
    _report(
        "criterion 8 (closure properties, bounds, oracle equivalence)",
        ok,
        f"{pairs} random pairs, 996 bound checks, 143 oracle graphs",
    )
    assert violations == 0
    assert bounds_bad == []
    assert oracle_bad == []


def test_criterion_9_bounded_existence_searches():
    t9 = verify("T9")  # built-in cap: searches through order 8
    t16 = verify("T16")
    t9_note = next(n for n in t9.notes if "witness" in n)
    t16_note = next(n for n in t16.notes if "witness" in n)
    ok = True
    for note, kind in ((t9_note, "T9"), (t16_note, "T16")):
        if note.startswith("witness:"):
            g6 = re.search(r"witness: (\S+)", note).group(1)
            g = parse_graph6(g6)
            if kind == "T9":
                n = g.n
                ok &= g.degree_stats()[1] == n - 5
                ok &= power_domination_number(g).value >= 3
            else:
                prod = cartesian_product(g, path(2))
                ok &= power_domination_number(g).value == 2
                ok &= power_domination_number(prod).value == 3
        else:
            ok &= "no witness" in note
    ok &= t9.passed  # the degree claims themselves must hold
    _report(
        "criterion 9 (bounded existence searches)",
        ok,
        f"T9: {t9_note} | T16: {t16_note}",
    )
    assert ok
