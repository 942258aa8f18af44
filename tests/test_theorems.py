import pytest

from zfpd.families import complete, cycle, enumerate_connected, h_graph, parse_graph6, path, wagner_graph, write_graph6, canonical_graph
from zfpd.graph import Graph
from zfpd.invariants import power_domination_number
from zfpd.structure import is_outerplanar
from zfpd.theorems import Universe, _pd_at_most, claim_of, theorem_ids, verify

H_GRAPH_G6 = write_graph6(canonical_graph(h_graph()))


def test_theorem_ids_complete():
    assert theorem_ids() == [f"T{i}" for i in range(1, 17)]
    for tid in theorem_ids():
        assert claim_of(tid)


def test_unknown_id():
    with pytest.raises(ValueError, match="unknown theorem id"):
        verify("T99")


def test_cap_without_universe_file():
    with pytest.raises(ValueError, match="capped"):
        verify("T1", max_n=9)
    # T9's built-in universe stops at order 8, so order 9 is refused before any sweep.
    with pytest.raises(ValueError, match="T9 is capped at max_n=8 without a universe file"):
        verify("T9", max_n=9)


def test_hard_cap_lift_needs_every_order_above_it(tmp_path):
    # order 10 alone leaves order 9 uncovered, so the run is refused before any sweep
    only10 = tmp_path / "n10.g6"
    only10.write_text(write_graph6(path(10)) + "\n", encoding="ascii")
    with pytest.raises(ValueError, match="^T1 is capped at max_n=8 without a universe file$"):
        verify("T1", max_n=10, universe=Universe([str(only10)]))


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


def test_universe_files_override_orders(tmp_path):
    fname = tmp_path / "n8.g6"
    lines = [write_graph6(wagner_graph()), "# comment", write_graph6(canonical_graph(h_graph()))]
    fname.write_text("\n".join(lines) + "\n", encoding="ascii")
    u = Universe([str(fname)])
    assert u.has_file_for(8)
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
