import ast
import json
import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from zfpd.cli import main
from zfpd.families import (
    are_isomorphic, build_classes, enumerate_connected, parse_edge_list, parse_graph6, path, star, wheel, write_graph6,
)
from zfpd.graph import MAX_ORDER, Graph
from zfpd.products import cartesian_product

from oracles import sparse_connected_graph

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_wheel_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "wheel", "--n", "6")
    assert code == 0
    assert are_isomorphic(parse_graph6(out.strip()), wheel(6))


def test_gen_invalid_family(capsys):
    code, _, err = run(capsys, "gen", "--family", "nope", "--n", "4")
    assert code == 2
    assert "unknown family" in err


def test_gen_refuses_an_option_the_family_does_not_take(capsys):
    for argv, message in (
        (("--family", "hgraph", "--n", "5"), "family 'hgraph' takes no order"),
        (("--family", "path", "--n", "3", "--parts", "2,2"), "family 'path' takes no part sizes"),
        (("--family", "spider", "--n", "4", "--legs", "1,1,1"), "family 'spider' takes no order"),
        (("--family", "multipartite", "--parts", "2,2", "--legs", "1,1,1"), "family 'multipartite' takes no leg lengths"),
        (("--family", "wagner", "--legs", "1,1,1"), "family 'wagner' takes no leg lengths"),
        # a family missing the option it takes keeps its message
        (("--family", "path"), "family 'path' needs an order"),
        (("--family", "multipartite"), "family 'multipartite' needs part sizes"),
        (("--family", "spider"), "family 'spider' needs leg lengths"),
    ):
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_gen_wagner(capsys):
    code, out, _ = run(capsys, "gen", "--family", "wagner")
    g = parse_graph6(out.strip())
    assert g.n == 8 and g.degree_stats() == (3, 3)


def test_compute_on_cycle(capsys, tmp_path):
    gpath = tmp_path / "c6.g6"
    code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "6", "-o", str(gpath))
    assert code == 0
    code, out, _ = run(
        capsys, "compute", "--input", str(gpath), "--params", "zf,pd,dom", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    params = payload["graphs"][0]["params"]
    assert params["zf"]["value"] == 2
    assert params["pd"]["value"] == 1
    assert params["dom"]["value"] == 2
    for info in params.values():
        assert isinstance(info["witness"], list)


def test_compute_solves_a_repeated_parameter_once(capsys, tmp_path):
    gpath = tmp_path / "p4.g6"
    gpath.write_text(write_graph6(path(4)) + "\n", encoding="ascii")
    code, out, _ = run(capsys, "compute", "--input", str(gpath), "--params", "zf,pd,zf", "--format", "table")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["zf", "pd"]


def test_compute_empty_file(capsys, tmp_path):
    gpath = tmp_path / "empty.g6"
    gpath.write_text("# nothing here\n", encoding="ascii")
    code, out, _ = run(capsys, "compute", "--input", str(gpath), "--params", "zf", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"graphs": []}


def test_compute_parse_error_reports_line(capsys, tmp_path):
    gpath = tmp_path / "bad.g6"
    gpath.write_text("A_\nD?\n", encoding="ascii")
    code, _, err = run(capsys, "compute", "--input", str(gpath), "--params", "zf")
    assert code == 2
    assert "line 2" in err


def test_compute_non_ascii_byte_reports_line(capsys, tmp_path):
    gpath = tmp_path / "bad.g6"
    gpath.write_bytes(b"A_\nD\xc3\n")
    code, _, err = run(capsys, "compute", "--input", str(gpath), "--params", "zf")
    assert code == 2
    assert "line 2: byte 195 is outside the printable graph6 range" in err
    gpath.write_bytes(b"0 1\n1 \xc3\n")
    code, _, err = run(capsys, "compute", "--input", str(gpath), "--edgelist", "--params", "zf")
    assert code == 2
    assert "line 2: vertex labels must be integers" in err


def test_verify_non_ascii_byte_in_universe_reports_line(capsys, tmp_path):
    gpath = tmp_path / "bad.g6"
    gpath.write_bytes(b"A_\nD\xc3\n")
    code, _, err = run(capsys, "verify", "--ids", "T1", "--max-n", "4", "--universe", str(gpath))
    assert code == 2
    assert "line 2: byte 195 is outside the printable graph6 range" in err


def test_parse_errors_name_their_file(capsys, tmp_path):
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("A_\n", encoding="ascii")
    bad.write_text("A_\nH??\n", encoding="ascii")  # order 9 needs 6 data bytes
    message = f"error: {bad}: line 2: truncated payload: expected 6 data bytes, found 2\n"
    for argv in (
        ("verify", "--ids", "T1", "--max-n", "4", "--universe", str(good), "--universe", str(bad)),
        ("compute", "--input", str(bad), "--params", "zf"),
        ("product", "--kind", "cartesian", str(good), str(bad)),
        ("product", "--kind", "cartesian", str(bad), str(good)),
    ):
        assert run(capsys, *argv) == (2, "", message), argv


def test_compute_skips_disconnected_with_notice(capsys, tmp_path):
    gpath = tmp_path / "two.g6"
    gpath.write_text("A?\n", encoding="ascii")  # two isolated vertices
    code, out, _ = run(capsys, "compute", "--input", str(gpath), "--params", "zf", "--format", "json")
    assert code == 0
    entry = json.loads(out)["graphs"][0]
    assert entry["params"] == {}
    assert "disconnected" in entry["skipped"]["zf"]


def test_compute_spider_needs_tree(capsys, tmp_path):
    gpath = tmp_path / "c4.g6"
    run(capsys, "gen", "--family", "cycle", "--n", "4", "-o", str(gpath))
    code, out, _ = run(capsys, "compute", "--input", str(gpath), "--params", "spider", "--format", "json")
    assert code == 0
    entry = json.loads(out)["graphs"][0]
    assert "tree" in entry["skipped"]["spider"]


def double_star(a, b):
    """Two adjacent centres carrying ``a`` and ``b`` leaves: a tree that is neither a path nor a spider."""
    n = 2 + a + b
    return Graph(n, [(0, 1)] + [(0, v) for v in range(2, 2 + a)] + [(1, v) for v in range(2 + a, n)])


def test_compute_skips_parameters_above_their_cap(capsys, tmp_path):
    gpath = tmp_path / "big.g6"
    graphs = (double_star(12, 11), double_star(10, 9), path(25), star(21))
    gpath.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    code, out, _ = run(
        capsys, "compute", "--input", str(gpath), "--params", "pathcover,spider", "--format", "json"
    )
    assert code == 0
    d25, d21, p25, s21 = json.loads(out)["graphs"]
    assert d25["params"] == {}
    assert d25["skipped"] == {
        "pathcover": "path cover search is capped at 24 vertices",
        "spider": "spider search is capped at 20 vertices",
    }
    assert d21["skipped"] == {"spider": "spider search is capped at 20 vertices"}
    assert d21["params"]["pathcover"]["value"] == 17
    # A path and a spider above the caps need no search: the whole vertex set is the one part.
    assert p25["skipped"] == s21["skipped"] == {}
    assert p25["params"]["pathcover"] == p25["params"]["spider"] == {"value": 1, "witness": [list(range(25))]}
    assert s21["params"]["spider"] == {"value": 1, "witness": [list(range(21))]}
    assert s21["params"]["pathcover"]["value"] == 19
    gpath.write_text(f"{write_graph6(path(60))}\n", encoding="ascii")
    code, out, _ = run(capsys, "compute", "--input", str(gpath), "--params", "zf,pd,dom,tdom", "--format", "json")
    assert code == 0
    (p60,) = json.loads(out)["graphs"]
    assert p60["params"] == {"zf": {"value": 1, "witness": [0]}, "pd": {"value": 1, "witness": [0]}}
    assert p60["skipped"] == {
        "dom": "domination search is capped at 1000000 subsets of one size",
        "tdom": "total domination search is capped at 1000000 subsets of one size",
    }


def _compute_json(capsys, gpath, params):
    code, out, _ = run(capsys, "compute", "--input", str(gpath), "--params", params, "--format", "json")
    assert code == 0
    return json.loads(out)["graphs"]


def test_each_parameter_solved_alone_matches_it_solved_with_the_others(capsys, tmp_path):
    # `compute` starts zf, dom and tdom at bounds solved earlier for the same
    # graph; a parameter asked alone has none, and must get the same value,
    # witness or skip message.
    rng = random.Random(97)
    graphs = [g for n in range(1, 8) for g in build_classes("connected", n)]
    for n in range(12, 16):
        graphs += [sparse_connected_graph(rng, n) for _ in range(3)]
        graphs += [sparse_connected_graph(rng, n, extra=False) for _ in range(2)]
    gpath = tmp_path / "mixed.g6"
    gpath.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    every = ("zf", "pd", "dom", "tdom", "pathcover", "spider")
    together = _compute_json(capsys, gpath, ",".join(every))
    assert len(together) == len(graphs)
    for p in every:
        alone = _compute_json(capsys, gpath, p)
        for a, t in zip(alone, together):
            assert a["params"].get(p) == t["params"].get(p), (p, a["graph6"])
            assert a["skipped"].get(p) == t["skipped"].get(p), (p, a["graph6"])


def test_a_bound_from_another_parameter_never_lifts_a_refusal(capsys, tmp_path):
    # Z(K1,23) = 22 = P, but alone zf is refused at k = 12; solved after the
    # path cover number it must be refused the same way, not answered.
    gpath = tmp_path / "star24.g6"
    gpath.write_text(write_graph6(star(24)) + "\n", encoding="ascii")
    for params in ("zf", "zf,pathcover"):
        (entry,) = _compute_json(capsys, gpath, params)
        assert entry["skipped"] == {"zf": "zero forcing search is capped at 1000000 subsets of one size"}, params
    assert entry["params"]["pathcover"]["value"] == 22


def test_compute_edgelist_input(capsys, tmp_path):
    gpath = tmp_path / "p4.txt"
    gpath.write_text("0 1\n1 2\n2 3\n", encoding="ascii")
    code, out, _ = run(
        capsys, "compute", "--input", str(gpath), "--edgelist", "--params", "zf", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["graphs"][0]["params"]["zf"]["value"] == 1


def test_product_command(capsys, tmp_path):
    a = tmp_path / "p2.g6"
    b = tmp_path / "p4.g6"
    run(capsys, "gen", "--family", "path", "--n", "2", "-o", str(a))
    run(capsys, "gen", "--family", "path", "--n", "4", "-o", str(b))
    code, out, _ = run(capsys, "product", "--kind", "cartesian", str(a), str(b))
    assert code == 0
    expected = cartesian_product(path(2), path(4))
    assert are_isomorphic(parse_graph6(out.strip()), expected)


def test_product_amalgam(capsys, tmp_path):
    a = tmp_path / "p2.g6"
    run(capsys, "gen", "--family", "path", "--n", "2", "-o", str(a))
    code, out, _ = run(capsys, "product", "--kind", "amalgam", str(a), str(a), "--at", "1,0")
    assert code == 0
    assert are_isomorphic(parse_graph6(out.strip()), path(3))
    # Without --at the amalgam glues vertex 0 of each side.
    code, out, _ = run(capsys, "product", "--kind", "amalgam", str(a), str(a))
    assert code == 0
    assert are_isomorphic(parse_graph6(out.strip()), path(3))


def test_outside_input_above_the_order_cap_is_refused(capsys, tmp_path):
    # Only the cap plus one is asked for, and each refusal comes before any row is built.
    top = MAX_ORDER + 1
    assert parse_edge_list([f"0 {MAX_ORDER - 1}"]).n == MAX_ORDER
    edges = tmp_path / "big.txt"
    edges.write_text(f"0 1\n# far label\n0 {MAX_ORDER}\n", encoding="ascii")
    left = next(d for d in range(2, top) if top % d == 0)  # operands whose product is the cap plus one
    factors = [tmp_path / "left.txt", tmp_path / "right.txt"]
    for f, order in zip(factors, (left, top // left)):
        f.write_text(f"0 {order - 1}\n", encoding="ascii")
    pair = [tmp_path / "k2.txt", tmp_path / "cap.txt"]  # amalgam order 2 + cap - 1
    for f, order in zip(pair, (2, MAX_ORDER)):
        f.write_text(f"0 {order - 1}\n", encoding="ascii")
    product = f"a product of orders {left} and {top // left}"
    for argv, what in (
        (("compute", "--input", str(edges), "--edgelist", "--params", "zf"), f"{edges}: line 3: vertex label {MAX_ORDER}"),
        (("gen", "--family", "path", "--n", str(top)), "family 'path'"),
        (("gen", "--family", "multipartite", "--parts", f"1,{MAX_ORDER}"), "family 'multipartite'"),
        (("gen", "--family", "spider", "--legs", f"1,1,{MAX_ORDER - 2}"), "family 'spider'"),
        (("product", "--kind", "cartesian", "--edgelist", *map(str, factors)), product),
        (("product", "--kind", "lex", "--edgelist", *map(str, factors)), product),
        (("product", "--kind", "amalgam", "--edgelist", *map(str, pair)), f"an amalgam of orders 2 and {MAX_ORDER}"),
    ):
        code, out, err = run(capsys, *argv)
        message = f"error: {what} asks for order {top}, above the cap of {MAX_ORDER}\n"
        assert (code, out, err) == (2, "", message), argv


def test_product_refuses_at_for_a_kind_without_glue(capsys, tmp_path):
    a = tmp_path / "p2.g6"
    a.write_text("A_\n", encoding="ascii")
    for kind in ("cartesian", "lex"):
        code, out, err = run(capsys, "product", "--kind", kind, str(a), str(a), "--at", "0,0")
        assert (code, out, err) == (2, "", f"error: kind {kind!r} takes no --at\n")


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--ids", "T1", "--max-n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["passed"] is True
    assert set(report) == {
        "theorem", "claim", "universe", "checked", "failures", "notes", "elapsed_s", "passed",
    }


def test_verify_failing_claim_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--ids", "T8", "--max-n", "6", "--format", "json")
    assert code == 1
    report = json.loads(out)["reports"][0]
    assert report["passed"] is False
    assert report["failures"]
    for failure in report["failures"]:
        assert set(failure) == {"graph6", "expected", "observed"}


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--ids", "BOGUS")
    assert code == 2
    assert "unknown theorem id" in err


def test_verify_refuses_every_id_before_building_anything(capsys, monkeypatch):
    # T7 alone would build the trees up to order 10; the run is refused for a
    # later id first, at every worker count.
    from zfpd import families, theorems

    def unreachable(*args, **kwargs):
        raise AssertionError("a universe order was built before the run was refused")

    for module in (families, theorems):
        for name in ("build_classes", "enumerate_connected", "enumerate_trees"):
            monkeypatch.setattr(module, name, unreachable)
    for ids, message in (
        ("T7,T1", "T1 is capped at max_n=8 without a universe file"),
        ("T7,T99", "unknown theorem id 'T99' (known: " + ", ".join(theorems.theorem_ids()) + ")"),
    ):
        for workers in ("1", "2"):
            code, out, err = run(capsys, "verify", "--ids", ids, "--max-n", "10", "--workers", workers)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (ids, workers)


def test_verify_labels_canonically_only_what_it_prints(capsys, monkeypatch):
    # These verifiers print no graph at their default caps, so a run never
    # needs the canonical labelling, serial or pooled.
    from zfpd import families

    def unreachable(adj):
        raise AssertionError("a graph was labelled canonically")

    monkeypatch.setattr(families, "_canon", unreachable)
    for workers in ("1", "2"):
        code, out, err = run(capsys, "verify", "--ids", "T1,T2,T7,T12", "--workers", workers, "--format", "json")
        assert (code, err) == (0, ""), workers
        assert [r["checked"] for r in json.loads(out)["reports"]] == [996, 986, 95, 994]


def test_verify_refuses_an_own_cap_before_building_anything(capsys, monkeypatch, tmp_path):
    # T4 and T13 have caps of their own, T7 and T8 those of the spider and
    # planarity searches, T2, T3, T9 and T12 the largest order the subset
    # searches sweep whole, and T16 half of it, since it sweeps products
    # with an edge; no universe file lifts them, even one that covers every
    # order up to the one asked for.
    from zfpd import families, theorems

    above = tmp_path / "six_to_twenty_five.g6"
    above.write_text("".join(write_graph6(path(n)) + "\n" for n in range(6, 26)), encoding="ascii")

    def unreachable(*args, **kwargs):
        raise AssertionError("a universe order was built before the run was refused")

    for module in (families, theorems):
        for name in ("build_classes", "enumerate_connected", "enumerate_trees"):
            monkeypatch.setattr(module, name, unreachable)
    for args, message in (
        (("--ids", "T13", "--max-n", "6"), "T13 is capped at max_n=5; no universe file lifts it"),
        (("--ids", "T4", "--max-n", "8"), "T4 is capped at max_n=7; no universe file lifts it"),
        (("--ids", "T2", "--max-n", "23"), "T2 is capped at max_n=22; no universe file lifts it"),
        (("--ids", "T7", "--max-n", "21"), "T7 is capped at max_n=20; no universe file lifts it"),
        (("--ids", "T8", "--max-n", "13"), "T8 is capped at max_n=12; no universe file lifts it"),
        (("--ids", "T3", "--max-n", "23"), "T3 is capped at max_n=22; no universe file lifts it"),
        (("--ids", "T12", "--max-n", "23"), "T12 is capped at max_n=22; no universe file lifts it"),
        (("--ids", "T9", "--max-n", "23"), "T9 is capped at max_n=22; no universe file lifts it"),
        (("--ids", "T16", "--max-n", "12"), "T16 is capped at max_n=11; no universe file lifts it"),
    ):
        for universe in ((), ("--universe", str(above))):
            for workers in ("1", "2"):
                code, out, err = run(capsys, "verify", *args, *universe, "--workers", workers)
                assert (code, out, err) == (2, "", f"error: {message}\n"), (args, universe, workers)


def test_verify_out_file_is_json_unless_a_table_is_asked_for(capsys, monkeypatch, tmp_path):
    # stdout is a terminal, so it gets the table; a file written through --out gets JSON.
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    base = ("verify", "--ids", "T11", "--max-n", "4", "--workers", "1")
    code, out, _ = run(capsys, *base)
    assert code == 0 and out.startswith("T11  pass")
    report = tmp_path / "out.json"
    assert run(capsys, *base, "--out", str(report)) == (0, "", "")
    assert [r["theorem"] for r in json.loads(report.read_text())["reports"]] == ["T11"]
    assert run(capsys, *base, "--out", str(report), "--format", "table") == (0, "", "")
    assert report.read_text().startswith("T11  pass")


def test_verify_runs_a_repeated_id_once(capsys):
    code, out, _ = run(capsys, "verify", "--ids", "T1,T3,T1", "--max-n", "3", "--format", "json")
    assert code == 0
    assert [r["theorem"] for r in json.loads(out)["reports"]] == ["T1", "T3"]


def test_verify_json_schema_stable_across_runs(capsys):
    code1, out1, _ = run(capsys, "verify", "--ids", "T3,T12", "--max-n", "5", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--ids", "T3,T12", "--max-n", "5", "--format", "json")
    assert code1 == code2 == 0
    a = json.loads(out1)
    b = json.loads(out2)
    for r in a["reports"] + b["reports"]:
        r.pop("elapsed_s")
    assert a == b


def test_verify_json_matches_golden_file(capsys):
    cases = (
        ("T1", "4", 0, "golden_verify_t1.json"),
        # every verifier: pins T4 below its order-6 sweep and T16's counts
        ("all", "5", 1, "golden_verify_all_n5.json"),
    )
    for ids, max_n, status, golden in cases:
        code, out, _ = run(capsys, "verify", "--ids", ids, "--max-n", max_n, "--format", "json", "--workers", "1")
        assert code == status, golden
        got = json.loads(out)
        for r in got["reports"]:
            r["elapsed_s"] = 0.0
        assert got == json.loads((DATA / golden).read_text()), golden


def test_compute_json_matches_golden_file(capsys):
    # Eight graphs of orders 10-14: the Petersen graph, K4,6, the 3x4 grid,
    # two sparse random graphs, a spider and two random trees.  Every
    # solver's value and witness is pinned, so a change in any tie rule shows.
    code, out, _ = run(
        capsys,
        "compute",
        "--input",
        str(DATA / "compute_input.g6"),
        "--params",
        "zf,pd,dom,tdom,pathcover,spider",
        "--format",
        "json",
    )
    assert code == 0
    assert out == (DATA / "golden_compute.json").read_text()


def test_verify_table_format(capsys):
    code, out, _ = run(capsys, "verify", "--ids", "T1", "--max-n", "4", "--format", "table")
    assert code == 0
    assert "T1" in out and "pass" in out


def test_verify_workers_match_serial(capsys, tmp_path):
    # The second case sends the parent's parsed universe to the workers.
    universe = tmp_path / "six.g6"
    universe.write_text("".join(write_graph6(g) + "\n" for g in enumerate_connected(6)), encoding="ascii")
    for extra in (
        ("--ids", "T1,T3", "--max-n", "5"),
        ("--ids", "T1,T3", "--max-n", "6", "--universe", str(universe)),
        ("--ids", "T1,T7", "--max-n", "6"),  # the pool builds both kinds of universe first
    ):
        args = ("verify", "--format", "json", *extra)
        code1, out1, _ = run(capsys, *args, "--workers", "1")
        code2, out2, _ = run(capsys, *args, "--workers", "2")
        assert code1 == code2 == 0
        a = json.loads(out1)
        b = json.loads(out2)
        for r in a["reports"] + b["reports"]:
            r.pop("elapsed_s")
        assert a == b


def test_verify_parses_each_universe_line_once(capsys, tmp_path, monkeypatch):
    import zfpd.families as families

    lines = [write_graph6(g) for n in range(1, 6) for g in enumerate_connected(n)]
    universe = tmp_path / "upto5.g6"
    universe.write_text("# orders 1..5\n" + "".join(line + "\n" for line in lines), encoding="ascii")
    calls = []
    plain = families.parse_graph6

    def counting(text):
        calls.append(text)
        return plain(text)

    monkeypatch.setattr(families, "parse_graph6", counting)
    code, _, _ = run(
        capsys, "verify", "--ids", "T1,T3,T12", "--max-n", "5", "--universe", str(universe),
        "--workers", "1", "--format", "json",
    )
    assert code == 0
    assert calls == lines


def test_verify_pool_does_not_pickle_a_rebound_cli_verify(capsys, monkeypatch):
    import zfpd.cli as cli

    calls = []
    plain = cli.verify

    def wrapper(tid, **kwargs):  # a local function, which pickle cannot send to a worker
        calls.append(tid)
        return plain(tid, **kwargs)

    monkeypatch.setattr(cli, "verify", wrapper)
    code, _, _ = run(capsys, "verify", "--ids", "T1,T3", "--max-n", "4", "--format", "json", "--workers", "2")
    assert code == 0 and calls == []
    code, _, _ = run(capsys, "verify", "--ids", "T1,T3", "--max-n", "4", "--format", "json", "--workers", "1")
    assert code == 0 and calls == ["T1", "T3"]


def test_verify_starts_at_most_one_worker_per_verifier(capsys, monkeypatch):
    import concurrent.futures
    from concurrent.futures import Executor, Future

    sizes = []

    class InProcessPool(Executor):
        """Records the pool size asked for and runs each job at submit; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            done = Future()
            done.set_result(fn(*args, **kwargs))
            return done

    # `verify` imports the pool class from concurrent.futures only when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    args = ("verify", "--max-n", "4", "--workers", "64", "--format", "json")
    code, out, _ = run(capsys, *args, "--ids", "T1,T14")
    assert code == 0 and sizes == [2]
    assert [r["theorem"] for r in json.loads(out)["reports"]] == ["T1", "T14"]
    code, _, _ = run(capsys, *args, "--ids", "T1")
    assert code == 0 and sizes == [2]  # one verifier runs in-process, without a pool


def test_runtime_loads_only_standard_library_modules(tmp_path):
    # Run in a fresh interpreter, so the test tools loaded here do not count.
    import zfpd

    script = textwrap.dedent(
        """
        import sys
        before = set(sys.modules)
        import zfpd.cli
        status = zfpd.cli.main(sys.argv[1:])
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(sorted(loaded - set(sys.stdlib_module_names) - {"zfpd", "__mp_main__"}))
        sys.exit(status)
        """
    )
    argv = ["verify", "--ids", "T1,T14", "--max-n", "4", "--workers", "2", "--out", str(tmp_path / "r.json")]
    src = str(pathlib.Path(zfpd.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    assert json.loads((tmp_path / "r.json").read_text())["reports"][1]["theorem"] == "T14"


def test_every_exported_name_resolves():
    # A stale __all__ entry breaks only `from zfpd.<module> import *`, which nothing else runs.
    import importlib
    import pkgutil

    import zfpd

    for info in pkgutil.iter_modules(zfpd.__path__):
        if info.name != "__main__":
            exec(f"from zfpd.{info.name} import *", {})
    # The package exports lazily, from one name -> module table.
    assert zfpd.__all__ == list(zfpd._EXPORTS)
    listed = dir(zfpd)
    for name, module in zfpd._EXPORTS.items():
        assert name in listed
        assert getattr(zfpd, name) is getattr(importlib.import_module(f"zfpd.{module}"), name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(zfpd, "no_such_name")


def _modules_loaded(code: str, *argv: str) -> set[str]:
    """Modules a fresh interpreter, given ``argv``, loads while running ``code``, beyond those loaded at start."""
    import zfpd

    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(sorted(set(sys.modules) - before))\n"
    src = str(pathlib.Path(zfpd.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src}, cwd=DATA,
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))  # after the command's own output


def test_each_command_loads_only_what_it_runs():
    # no timing gate: this pins which modules start-up compiles, not how long it takes
    loaded = _modules_loaded("import zfpd")
    assert "zfpd" in loaded and not {m for m in loaded if m.startswith("zfpd.")}
    run_cli = "import zfpd.cli\nassert zfpd.cli.main(sys.argv[1:]) == 0"
    loaded = _modules_loaded(
        run_cli, "compute", "--input", "compute_input.g6", "--params", "zf,pd,dom,tdom,pathcover,spider",
        "--format", "json",
    )
    assert "zfpd.invariants" in loaded
    never = {"zfpd.theorems", "zfpd.structure", "zfpd.products", "dataclasses", "multiprocessing",
             "concurrent.futures.process"}
    assert not loaded & never
    loaded = _modules_loaded(run_cli, "verify", "--ids", "T1,T14", "--max-n", "4", "--workers", "1", "--format", "json")
    assert "zfpd.theorems" in loaded and "multiprocessing" not in loaded


def test_python_dash_m_zfpd_runs_the_cli():
    import zfpd

    src = str(pathlib.Path(zfpd.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "zfpd", "--help"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: zfpd")


def test_tracer_bindings_exist():
    # perfbench/tracer.py rebinds these names for `--trace 1`; an API change
    # that drops one would break the traced benchmark runs.
    import importlib

    source = (pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py").read_text()
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")
    }
    assert tables["SPANNED"] and tables["COUNTED"]
    wrapped = set()
    for module, attr, _ in tables["SPANNED"] + tables["COUNTED"]:
        mod = importlib.import_module(f"zfpd.{module}")
        assert hasattr(mod, attr), f"zfpd.{module}.{attr}"
        wrapped.add(getattr(mod, attr))
    import zfpd.cli as cli
    import zfpd.theorems as theorems

    assert callable(theorems.Universe.connected) and callable(theorems.Universe.trees)
    assert callable(cli.verify) and callable(cli.main)
    # the tracer swaps each `compute` solver for the wrapper of the same function
    assert all(fn in wrapped for _, fn in cli._PARAMS.values())


def test_compute_skip_reasons_are_the_solvers_messages(capsys, tmp_path):
    # the order-0 graph, two isolated vertices, K1 and the triangle
    gpath = tmp_path / "odd.g6"
    gpath.write_text("?\nA?\n@\nBw\n", encoding="ascii")
    code, out, _ = run(
        capsys, "compute", "--input", str(gpath), "--params", "zf,pd,dom,tdom,pathcover,spider",
        "--format", "json",
    )
    assert code == 0
    empty, two, k1, k3 = json.loads(out)["graphs"]
    every = ("zf", "pd", "dom", "tdom", "pathcover", "spider")
    assert empty["params"] == {} and empty["skipped"] == dict.fromkeys(every, "empty graph")
    assert two["params"] == {} and two["skipped"] == dict.fromkeys(every, "disconnected graph")
    assert k1["skipped"] == {"tdom": "total domination needs at least two vertices"}
    assert set(k1["params"]) == set(every) - {"tdom"}
    assert k3["skipped"] == {"spider": "spider number needs a tree"}
    assert set(k3["params"]) == set(every) - {"spider"}


def test_empty_selection_is_refused(capsys, tmp_path):
    gpath = tmp_path / "p2.g6"
    gpath.write_text("A_\n", encoding="ascii")
    for argv, message in (
        (("verify", "--ids", ""), "error: no theorem ids given"),
        (("verify", "--ids", ","), "error: no theorem ids given"),
        (("compute", "--input", str(gpath), "--params", ""), "error: no parameters given"),
        (("compute", "--input", str(gpath), "--params", " , "), "error: no parameters given"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message + "\n"), argv


def test_bad_option_or_output_path_is_one_error_line(capsys, tmp_path):
    p2 = tmp_path / "p2.g6"
    p2.write_text("A_\n", encoding="ascii")
    missing = tmp_path / "missing" / "out.txt"
    for argv in (
        ("gen", "--family", "multipartite", "--parts", "3,x"),
        ("gen", "--family", "spider", "--legs", "2,,2"),
        ("gen", "--family", "path", "--n", "3", "--out", str(missing)),
        ("product", "--kind", "cartesian", str(p2), str(p2), "--out", str(missing)),
        ("verify", "--ids", "T1", "--max-n", "3", "--format", "json", "--out", str(missing)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        assert "Traceback" not in err
    assert not missing.parent.exists()


def test_bad_number_is_refused_with_the_option_named(capsys, tmp_path):
    p2 = tmp_path / "p2.g6"
    p2.write_text("A_\n", encoding="ascii")
    amalgam = ("product", "--kind", "amalgam", str(p2), str(p2), "--at")
    for argv, message in (
        (("gen", "--family", "multipartite", "--parts", "3,x"), "--parts expects comma-separated integers, got '3,x'"),
        (("gen", "--family", "spider", "--legs", "2,,2"), "--legs expects comma-separated integers, got '2,,2'"),
        ((*amalgam, "1"), "--at expects 2 comma-separated integers, got '1'"),
        ((*amalgam, "0,0,1"), "--at expects 2 comma-separated integers, got '0,0,1'"),
        ((*amalgam, "0,y"), "--at expects 2 comma-separated integers, got '0,y'"),
        (("verify", "--ids", "T1", "--max-n", "0"), "max_n must be at least 1, got 0"),
        (("verify", "--ids", "T1", "--workers", "0"), "--workers must be at least 1, got 0"),
        (("verify", "--ids", "T1,T3", "--max-n", "4", "--workers", "-2"), "--workers must be at least 1, got -2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_verify_universe_file_with_order_zero_line(capsys, tmp_path):
    gpath = tmp_path / "with-empty.g6"
    gpath.write_text("A_\n?\n", encoding="ascii")
    code, out, err = run(capsys, "verify", "--ids", "T1", "--max-n", "2", "--universe", str(gpath), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["reports"][0]["checked"] == 2
