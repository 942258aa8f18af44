import math
import pickle
import re
from collections import Counter

import pytest

from zfpd.families import MAX_BUILTIN_ORDER, MAX_TREE_ORDER, BuiltClass, build_classes, complete, cycle, enumerate_connected, h_graph, parse_graph6, path, wagner_graph, write_graph6, canonical_graph
from zfpd import invariants, structure, theorems
from zfpd.graph import Graph, bits, mask_of
from zfpd.invariants import path_cover_number, power_domination_number, zero_forcing_number
from zfpd.structure import is_outerplanar
from zfpd.products import cartesian_product, lexicographic_product
from zfpd.propagation import is_power_dominating_set
from zfpd.theorems import (
    _REGISTRY,
    Universe,
    VerifyReport,
    _cap,
    _gp,
    _pd_at_most,
    _recheck_power_domination,
    _z,
    claim_of,
    prepare,
    theorem_ids,
    verify,
)

H_GRAPH_G6 = write_graph6(canonical_graph(h_graph()))


def test_t12_right_side_equals_the_complement_diameter_form():
    for n in range(1, 8):
        for g in build_classes("connected", n):
            c = g.complement()
            diam = c.diameter() if c.is_connected() else math.inf
            assert c.diameter_exceeds(2) == (diam > 2), g


def test_theorem_ids_complete():
    assert theorem_ids() == [f"T{i}" for i in range(1, 17)]
    for tid in theorem_ids():
        assert claim_of(tid)


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify("T99")


def test_every_default_cap_is_within_the_own_cap_and_the_enumeration_limit():
    # A verifier that reads no universe needs an own cap to bound it; a universe
    # reader's default run must not ask build_classes past its kind's limit.
    built_in = {"connected": MAX_BUILTIN_ORDER, "trees": MAX_TREE_ORDER}
    for tid, (_, default_cap, own_cap, sweeps, _) in _REGISTRY.items():
        assert sweeps in (None, *built_in), tid
        if sweeps is None:
            assert own_cap is not None, tid
        else:
            assert default_cap <= built_in[sweeps], tid
        if own_cap is not None:
            assert default_cap <= own_cap, tid


def test_an_own_cap_is_the_order_cap_of_the_solver_a_verifier_calls():
    # T2 calls the path cover search and, on a failure, a full zero forcing
    # minimum; T7 the spider search and T8 the planarity test; T3 and T12 take
    # full k-subset minima on every graph.
    own = {tid: entry[2] for tid, entry in _REGISTRY.items()}
    assert own["T2"] == min(invariants._PATH_COVER_CAP, invariants._FULL_SWEEP_CAP) == 22
    assert (own["T7"], own["T8"]) == (invariants._SPIDER_CAP, structure._HOST_CAP)
    assert own["T3"] == own["T12"] == invariants._FULL_SWEEP_CAP


def test_the_full_sweep_cap_is_the_largest_order_whose_subset_sizes_are_all_sweepable():
    top = invariants._FULL_SWEEP_CAP
    assert all(invariants._sweepable(top, k, "test") for k in range(top + 1))
    with pytest.raises(ValueError, match="subsets of one size"):
        for k in range(top + 2):
            invariants._sweepable(top + 1, k, "test")


def test_cap_without_universe_file():
    with pytest.raises(ValueError, match="capped"):
        verify("T1", max_n=9)
    # T9's built-in universe stops at order 8, so order 9 is refused before any sweep.
    with pytest.raises(ValueError, match="T9 is capped at max_n=8 without a universe file"):
        verify("T9", max_n=9)


def test_only_the_enumeration_limit_bounds_a_verifier_without_an_own_cap():
    # T15's pairs stop at product order 20, so it has no own cap; T1 still
    # needs a file past the built-in enumeration.
    assert _cap("T15", 8, Universe()) == 8
    with pytest.raises(ValueError, match="^T1 is capped at max_n=8 without a universe file$"):
        _cap("T1", 9, Universe())


def test_hard_cap_lift_needs_every_order_above_it(tmp_path):
    # order 10 alone leaves order 9 uncovered, so the run is refused before any sweep
    only10 = tmp_path / "n10.g6"
    only10.write_text(write_graph6(path(10)) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="^T1 is capped at max_n=8 without a universe file$"):
        verify("T1", max_n=10, universe=Universe([str(only10)]))


def test_a_file_lifts_no_cap_of_a_verifier_that_reads_no_universe(tmp_path):
    above = tmp_path / "paths.g6"
    above.write_text("".join(write_graph6(path(n)) + "\n" for n in range(11, 14)), encoding="ascii")
    u = Universe([str(above)])
    for tid, hard_cap in (("T5", 12), ("T6", 12), ("T11", 12), ("T14", 10)):
        with pytest.raises(ValueError, match=f"^{tid} is capped at max_n={hard_cap}; no universe file lifts it$"):
            verify(tid, max_n=hard_cap + 1, universe=u)


def test_a_file_covers_an_order_only_for_the_kinds_of_graph_it_holds(tmp_path):
    def universe(name, *graphs):
        f = tmp_path / name
        f.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
        return Universe([str(f)])

    # the 13-cycle is connected but no tree: it lifts no tree order
    c13 = universe("c13.g6", cycle(13))
    assert c13.has_file_for("connected", 13) and not c13.has_file_for("trees", 13)
    with pytest.raises(ValueError, match="^T7 is capped at max_n=12 without a universe file$"):
        verify("T7", max_n=13, universe=c13)
    assert sorted(c13.part("connected", 7)._orders["connected"]) == list(range(1, 8)) + [13]
    assert sorted(c13.part("trees", 9)._orders["trees"]) == list(range(1, 10))  # the built trees, and no order 13
    # a disconnected graph covers nothing
    disc9 = universe("disc9.g6", Graph(9, [(0, 1)]))
    assert not disc9.has_file_for("connected", 9)
    with pytest.raises(ValueError, match="^T1 is capped at max_n=8 without a universe file$"):
        verify("T1", max_n=9, universe=disc9)
    # so an order it alone holds still comes from the built-in enumeration
    disc5 = universe("disc5.g6", Graph(5, [(0, 1)]))
    assert verify("T1", max_n=5, universe=disc5).checked == 1 + 1 + 2 + 6 + 21
    assert verify("T2", max_n=5, universe=disc5).notes == ["n=5: 21 graphs (built-in)"]
    # a tree supplies its order to both kinds, and lifts T7 with no tree built
    p13 = universe("p13.g6", path(13))
    assert p13.has_file_for("trees", 13) and p13.has_file_for("connected", 13)
    assert _cap("T7", 13, p13) == 13


def test_prepare_refuses_before_building_anything():
    from concurrent.futures import Executor

    class NoJobsPool(Executor):  # its ``map`` submits each job
        def submit(self, fn, *args):
            raise AssertionError("nothing may be built")

    with pytest.raises(ValueError, match="^T1 is capped at max_n=8 without a universe file$"):
        prepare(Universe(), ["T7", "T1"], 9, NoJobsPool(), 2)


def test_prepare_hands_each_verifier_only_what_it_reads(tmp_path):
    six = tmp_path / "six.g6"
    six.write_text(write_graph6(path(6)) + "\n", encoding="ascii")
    u = Universe([str(six)])
    parts = prepare(u, ["T13", "T7", "T5"], None, None, 1)  # no pool: built in this process
    t13, t7, t5 = (part._orders for part in parts)
    assert sorted(t13["connected"]) == [1, 2, 3, 4, 6] and t13["trees"] == {}  # order 6 comes from the file
    assert t7["connected"] == {} and sorted(t7["trees"]) == list(range(1, 10))
    assert t5 == {"connected": {}, "trees": {}}
    assert t13["connected"][6] is u.connected(6) and len(u.connected(6)) == 1


def test_max_n_below_one_is_refused():
    for max_n in (0, -3):
        with pytest.raises(ValueError, match=f"^max_n must be at least 1, got {max_n}$"):
            verify("T1", max_n=max_n)


def test_t1_small():
    report = verify("T1", max_n=6)
    assert report.passed
    assert report.checked == 1 + 1 + 2 + 6 + 21 + 112


def test_t3_passes_and_notes_weaker_reading():
    report = verify("T3", max_n=6)
    assert report.passed
    assert any("weaker reading" in note for note in report.notes)
    # the H-graph refutes the weaker reading, so it cannot have held
    assert any("fails" in note for note in report.notes)


def test_t4_reports_all_order6_graphs_needing_two():
    report = verify("T4", max_n=6)
    assert report.passed
    note = next(n for n in report.notes if "order-6" in n)
    assert H_GRAPH_G6 in note
    listed = note.split("(")[1].rstrip(")").split(", ")
    assert len(listed) == 4
    for g6 in listed:
        g = parse_graph6(g6)
        assert power_domination_number(g).value == 2


def test_t4_names_the_twin_free_orders_it_swept():
    assert verify("T4", max_n=5).universe.endswith("; twin-free n<=5")
    assert verify("T4").universe == "connected graphs n<=5; order 6; Wagner graph; twin-free n<=7"


def test_t5_small():
    assert verify("T5", max_n=7).passed


def test_t6_passes_with_interpretation_note():
    report = verify("T6", max_n=9)
    assert report.passed
    assert any("disconnect" in n for n in report.notes)
    # the all-parts-size-3 profile shows the fixed-first-part reading is not invariant
    assert any("not label-invariant" in n for n in report.notes)


def test_t7_small():
    report = verify("T7", max_n=7)
    assert report.passed
    assert report.checked == 1 + 1 + 1 + 2 + 3 + 6 + 11


def test_t8_refutes_outerplanar_diameter3_branch():
    report = verify("T8", max_n=6)
    assert not report.passed
    bad = {f.graph6 for f in report.failures}
    assert H_GRAPH_G6 in bad
    assert all("outerplanar" in f.expected for f in report.failures)
    # the diameter-2 variant of that branch survives, pointing at a transcription slip
    assert any("held" in n for n in report.notes)


def test_t8_failures_replay_standalone():
    report = verify("T8", max_n=6)
    for failure in report.failures:
        g = parse_graph6(failure.graph6)
        assert is_outerplanar(g)
        assert g.diameter() <= 3
        assert power_domination_number(g).value > 1


def test_t9_small_pass_and_search_note():
    report = verify("T9", max_n=7)
    assert report.passed
    assert any("witness" in n for n in report.notes)


def test_t10_small():
    report = verify("T10", max_n=6)
    assert report.passed
    assert any("witness" in n for n in report.notes)


def test_t11_small():
    report = verify("T11", max_n=9)
    assert report.passed
    assert report.checked == 1 + 2 + 2 + 3 + 4


def test_t12_small():
    assert verify("T12", max_n=6).passed


def test_t13_small():
    assert verify("T13", max_n=3).passed


def test_t14_small():
    assert verify("T14", max_n=6).passed


def test_t15_small():
    assert verify("T15", max_n=4).passed


def test_t16_reports_characterization_counterexamples():
    report = verify("T16", max_n=5)
    assert not report.passed
    assert all("characterization" in f.expected for f in report.failures)
    assert len(report.failures) == 4
    assert any("no witness" in n or "witness:" in n for n in report.notes)


def test_t16_jump_search_finds_the_order_8_witness(tmp_path):
    # G?KuEG: two 4-cycles joined by an edge; orders 1-7 come from the built-in.
    fname = tmp_path / "w8.g6"
    fname.write_text("G?KuEG\n", encoding="ascii")
    report = verify("T16", max_n=8, universe=Universe([str(fname)]))
    assert report.checked == 1456
    assert len(report.failures) == 4
    assert report.notes == [
        "witness: G?KuEG has power domination number 2 and its product with an edge "
        "needs 3 (re-checked standalone)"
    ]


def test_t16_witness_recheck_fails_loudly_on_a_wrong_value():
    product = cartesian_product(parse_graph6("G?KuEG"), path(2))
    _recheck_power_domination(product, 3)
    with pytest.raises(RuntimeError, match="power domination number 3, not 2"):
        _recheck_power_domination(product, 2)


def test_t16_house_counterexample_replays():
    # K2 box house: the product power-dominates with one vertex although no
    # structural condition covers the pair.
    house = parse_graph6("DLs")
    from zfpd.products import cartesian_product
    from zfpd.families import path

    prod = cartesian_product(path(2), house)
    assert power_domination_number(prod).value == 1
    assert power_domination_number(house).value >= 1


def test_reports_are_deterministic():
    a = verify("T3", max_n=5).to_dict()
    b = verify("T3", max_n=5).to_dict()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_report_pickles_and_keeps_its_json_keys():
    # pool workers send their reports back pickled
    report = VerifyReport("T8", claim_of("T8"))
    report.universe = "connected graphs, orders 1..4"
    report.checked += 1
    report.checked += 1
    report.fail(path(3), "Z = 1", "Z = 2")
    report.notes.append("no witness up to n=4")
    report.elapsed_s = 0.25
    d = report.to_dict()
    assert pickle.loads(pickle.dumps(report)).to_dict() == d
    assert sorted(d) == ["checked", "claim", "elapsed_s", "failures", "notes", "passed", "theorem", "universe"]
    assert d["failures"] == [{"graph6": write_graph6(path(3)), "expected": "Z = 1", "observed": "Z = 2"}]
    assert (d["checked"], d["notes"], d["passed"]) == (2, ["no witness up to n=4"], False)
    with pytest.raises(AttributeError):
        report.failures[0].observed = "Z = 1"


def test_a_pickled_report_leaves_its_universe_behind():
    report = verify("T8", max_n=5)
    back = pickle.loads(pickle.dumps(report))
    assert back.to_dict() == report.to_dict()
    assert sorted(report.to_dict()) == ["checked", "claim", "elapsed_s", "failures", "notes", "passed", "theorem", "universe"]


class _Backwards(Universe):
    """A universe whose verifiers sweep every built-in order backwards."""

    def connected(self, n):
        return super().connected(n)[::-1]

    def trees(self, n):
        return super().trees(n)[::-1]


def test_reports_do_not_depend_on_the_order_of_a_built_in_universe():
    for tid in ("T3", "T4", "T8", "T10", "T16"):
        forward = verify(tid).to_dict()
        backward = verify(tid, universe=_Backwards()).to_dict()
        forward.pop("elapsed_s")
        backward.pop("elapsed_s")
        assert backward == forward, tid
    # the first converse-failure witness in canonical order, whatever the sweep order
    assert verify("T10", universe=_Backwards()).notes[0].startswith("converse-failure witness: CF has")


def test_printed_universe_graphs_are_in_canonical_labels():
    r = {tid: verify(tid) for tid in ("T3", "T4", "T8", "T10", "T16")}
    printed = r["T3"].notes[0].split("e.g. ")[1].split(", ")
    printed += r["T4"].notes[0].split("(")[1].rstrip(")").split(", ")
    printed += [f.graph6 for f in r["T8"].failures]
    printed.append(r["T10"].notes[0].split()[2])
    # T16's counterexamples are products; their factors head the expectation
    printed += [g6 for f in r["T16"].failures for g6 in f.expected.split(":")[0].split(" box ")]
    assert len(printed) == 3 + 4 + 12 + 1 + 8
    for g6 in printed:
        assert write_graph6(canonical_graph(parse_graph6(g6))) == g6


def test_printing_goes_by_type_not_by_adjacency(tmp_path):
    # A file graph equal to a built-in class whose key labels are not the
    # canonical ones: the file graph prints as it is, the built-in one canonically.
    built = next(g for g in build_classes("connected", 5) if canonical_graph(g) != g)
    fname = tmp_path / "five.g6"
    fname.write_text(write_graph6(built) + "\n", encoding="ascii")
    (from_file,) = Universe([str(fname)]).connected(5)
    assert from_file == built and isinstance(built, BuiltClass) and not isinstance(from_file, BuiltClass)
    report = VerifyReport("T1", claim_of("T1"))
    report.fail(from_file, "as it is", "")
    report.fail(built, "canonical", "")
    assert [f.graph6 for f in report.failures] == [write_graph6(built), write_graph6(canonical_graph(built))]
    assert report.failures[0].graph6 != report.failures[1].graph6


def test_t10_names_the_vertices_of_the_graph_it_prints(monkeypatch):
    # Claim every degree n-3 vertex fails, so T10 reports each one; its labels
    # must be those of the printed graph6 string, not of the built graph.
    import zfpd.theorems as theorems

    monkeypatch.setattr(theorems, "is_power_dominating_set", lambda g, s: False)
    report = verify("T10", max_n=5)
    assert report.failures
    for f in report.failures:
        g = parse_graph6(f.graph6)
        v, w1, w2 = map(int, re.match(r"vertex (\d+) \(degree n-3\) power dominates iff (\d+),(\d+) ", f.expected).groups())
        assert g.degree(v) == g.n - 3
        assert {w1, w2} == set(range(g.n)) - {v} - {u for u in range(g.n) if g.has_edge(u, v)}


def test_universe_files_override_orders(tmp_path):
    fname = tmp_path / "n8.g6"
    lines = [write_graph6(wagner_graph()), "# comment", write_graph6(canonical_graph(h_graph()))]
    fname.write_text("\n".join(lines) + "\n", encoding="ascii")
    u = Universe([str(fname)])
    assert u.has_file_for("connected", 8)
    assert len(u.connected(8)) == 1  # only the Wagner graph has order 8
    assert u.source(8) == "n8.g6"
    assert len(u.connected(3)) == 2  # smaller orders still come from the built-in
    assert u.connected(8) is u.connected(8) and u.connected(3) is u.connected(3)  # built once
    # a second file for the same order adds its graphs and its name; a name is listed once
    a, b = tmp_path / "a.g6", tmp_path / "b.g6"
    a.write_text(write_graph6(wagner_graph()) + "\n", encoding="ascii")
    b.write_text(write_graph6(cycle(8)) + "\n" + write_graph6(complete(5)) + "\n", encoding="ascii")
    u = Universe([str(a), str(b), str(a)])
    assert len(u.connected(8)) == 2  # the Wagner graph once, then the 8-cycle
    assert u.source(8) == "a.g6, b.g6"
    assert u.source(5) == "b.g6"


def test_verifiers_reach_the_universe_through_connected(monkeypatch):
    # perfbench/tracer.py times the universe build by wrapping Universe.connected.
    orders = []
    plain = Universe.connected

    def counting(self, n):
        orders.append(n)
        return plain(self, n)

    monkeypatch.setattr(Universe, "connected", counting)
    assert verify("T1", max_n=4).checked == 10
    assert orders == [1, 2, 3, 4]


def test_universe_keeps_one_copy_of_a_repeated_graph(tmp_path):
    twice = tmp_path / "twice.g6"
    twice.write_text("Bw\nBw\n", encoding="ascii")  # the triangle, listed twice
    for files in ([twice], [twice, twice]):
        report = verify("T1", max_n=3, universe=Universe([str(f) for f in files]))
        assert report.checked == 3, files  # orders 1 and 2 built in, one triangle
    # an isomorphic relabeling is a different graph6 line and is kept
    relabeled = tmp_path / "p3.g6"
    p3 = (path(3), Graph(3, [(0, 2), (2, 1)]))
    relabeled.write_text("".join(write_graph6(g) + "\n" for g in p3), encoding="ascii")
    u = Universe([str(relabeled)])
    assert len(u.connected(3)) == 2 and len(u.trees(3)) == 2


def test_verify_with_universe_file(tmp_path):
    fname = tmp_path / "n8.g6"
    fname.write_text(write_graph6(wagner_graph()) + "\n", encoding="ascii")
    report = verify("T1", max_n=8, universe=Universe([str(fname)]))
    assert report.passed
    assert report.checked == 996 + 1
    # a file covering order 9 lifts T9's cap; orders it covers replace the built-in
    paths = tmp_path / "paths.g6"
    paths.write_text("".join(write_graph6(path(n)) + "\n" for n in range(1, 10)), encoding="ascii")
    report = verify("T9", max_n=9, universe=Universe([str(paths)]))
    assert report.passed and report.checked == 9
    assert report.notes == ["no witness with max degree n-5 and power domination >= 3 up to n=9"]


def test_pd_at_most_agrees_with_power_domination_number():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            gp = power_domination_number(g).value
            for k in (1, 2, 3):
                assert _pd_at_most(g, k) == (gp <= k), (write_graph6(g), k)


def _t15_pairs(monkeypatch) -> list[tuple[Graph, Graph, Graph]]:
    """``(g, h, g box h)`` for every product a default T15 run builds, in order."""
    built = []

    def record(g, h):
        built.append((g, h, cartesian_product(g, h)))
        return built[-1][2]

    monkeypatch.setattr(theorems, "cartesian_product", record)
    report = verify("T15")
    assert report.passed and report.checked == len(built)
    return built


def test_value_only_minima_match_the_certificate_solvers():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert _gp(g) == power_domination_number(g).value, write_graph6(g)
            assert _z(g) == zero_forcing_number(g).value, write_graph6(g)


def test_t15_mirrored_products_are_isomorphic_by_swapping_coordinates(monkeypatch):
    # g box h and h box g are isomorphic through (a, b) -> (b, a), which is
    # what lets T15 solve one of them for both.  (a, b) is vertex a * h.n + b
    # of g box h and b * g.n + a of h box g.
    for g, h, prod in _t15_pairs(monkeypatch):
        to_mirror = [b * g.n + a for a in range(g.n) for b in range(h.n)]
        rows = [0] * prod.n
        for v, row in enumerate(prod.adj):
            rows[to_mirror[v]] = mask_of(to_mirror[w] for w in bits(row))
        assert Graph.from_rows(rows) == cartesian_product(h, g), (write_graph6(g), write_graph6(h))


def _recording(fn, seen: list):
    def call(g, *args):
        seen.append(g)
        return fn(g, *args)

    return call


def test_t15_solves_one_product_of_each_mirrored_pair_and_each_factor_once(monkeypatch):
    searched: list[Graph] = []
    monkeypatch.setattr(theorems, "find_power_dominating_set", _recording(theorems.find_power_dominating_set, searched))
    solved: dict[str, list[Graph]] = {"_gp": [], "_gamma": [], "_z": []}
    for name, seen in solved.items():
        monkeypatch.setattr(theorems, name, _recording(getattr(theorems, name), seen))
    pairs = _t15_pairs(monkeypatch)
    searched_ids = {id(g) for g in searched}
    per_pair = Counter(frozenset((g, h)) for g, h, prod in pairs if id(prod) in searched_ids)
    assert per_pair.keys() == {frozenset((g, h)) for g, h, _ in pairs}
    assert set(per_pair.values()) == {1}
    products = {id(prod) for *_, prod in pairs}
    for name, seen in solved.items():
        factors = [g for g in seen if id(g) not in products]
        assert factors and len(factors) == len(set(factors)), name


def test_t13_solves_each_factor_once(monkeypatch):
    built: list[Graph] = []

    def record(g, h):
        built.append(lexicographic_product(g, h))
        return built[-1]

    monkeypatch.setattr(theorems, "lexicographic_product", record)
    solved: dict[str, list[Graph]] = {"_gp": [], "_gamma": [], "total_domination_number": []}
    for name, seen in solved.items():
        monkeypatch.setattr(theorems, name, _recording(getattr(theorems, name), seen))
    report = verify("T13")
    assert report.passed and report.checked == len(built) == 9 * 9 + 3
    products = {id(prod) for prod in built}
    assert sum(id(g) in products for g in solved["_gp"]) == len(built)  # each product once
    for name, seen in solved.items():
        factors = [g for g in seen if id(g) not in products]
        assert factors and len(factors) == len(set(factors)), name


def test_tree_zero_forcing_number_is_its_path_cover_number():
    # Z(T) = P(T) for every tree (AIM Minimum Rank group, LAA 2008): an
    # oracle independent of the subset search.
    trees = [t for n in range(1, 11) for t in build_classes("trees", n)]
    assert len(trees) == 201
    for t in trees:
        assert _z(t) == path_cover_number(t).value, write_graph6(t)


def test_both_copies_of_a_power_dominating_vertex_power_dominate_the_product_with_an_edge():
    # Vertex v of g is 2v and 2v + 1 in g box K2; T16's edge bound takes this
    # set as its witness and runs no search.
    pairs = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            prod = cartesian_product(g, path(2))
            for v in range(n):
                if is_power_dominating_set(g, 1 << v):
                    pairs += 1
                    assert is_power_dominating_set(prod, 3 << 2 * v), (write_graph6(g), v)
    assert pairs == 3642
