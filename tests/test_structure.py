import pathlib
import random

import networkx as nx
import pytest

from zfpd.graph import Graph
from zfpd.families import (
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    h_graph,
    parse_graph6,
    path,
    read_graph6_lines,
    wagner_graph,
    wheel,
)
from zfpd.products import cartesian_product
from zfpd.structure import MinorWitness, has_minor, is_outerplanar, is_planar

from oracles import brute_minor, peeled_outerplanar, random_graph

ORDER_1_TO_8 = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "connected_1to8.g6"


def _nx_outerplanar(g: Graph) -> bool:
    # G plus an apex vertex is planar exactly when G is outerplanar.
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(range(g.n + 1))
    nxg.add_edges_from((g.n, v) for v in range(g.n))
    return nx.check_planarity(nxg)[0]


def test_has_minor_basic_examples():
    k4 = complete(4)
    w = has_minor(k4, k4)
    assert w is not None
    w.validate(k4, k4)
    assert has_minor(cycle(5), k4) is None
    w5 = wheel(5)
    w = has_minor(w5, k4)
    assert w is not None
    w.validate(w5, k4)


def test_minor_witness_is_immutable_and_rejects_a_corrupted_model():
    k4, w5 = complete(4), wheel(5)
    w = has_minor(w5, k4)
    with pytest.raises(AttributeError):
        w.branch_sets = ()
    sets = w.branch_sets
    for bad in (
        sets[:-1],  # a pattern vertex without a branch set
        (0,) + sets[1:],  # an empty branch set
        (sets[0] | sets[1],) + sets[1:],  # overlapping branch sets
        sets[:-1] + (1 << w5.n,),  # a branch set outside the host
    ):
        with pytest.raises(ValueError):
            MinorWitness(bad).validate(w5, k4)


def test_minor_monotone_under_subpatterns():
    for g in [wheel(5), complete(5), wagner_graph()]:
        if has_minor(g, complete(4)) is not None:
            assert has_minor(g, complete(3)) is not None


def test_has_minor_empty_and_oversized_patterns():
    assert has_minor(path(3), Graph(0)) is not None
    with pytest.raises(ValueError):
        has_minor(complete(8), complete(7))


def test_has_minor_refuses_hosts_above_the_cap():
    # The 4x5 grid has 20 vertices; without the cap the contraction search
    # for a complete-5 minor gave no answer in 20 s.
    with pytest.raises(ValueError, match="capped at 12 host vertices"):
        has_minor(cartesian_product(path(4), path(5)), complete(5))
    assert has_minor(cartesian_product(path(3), path(4)), complete(3)) is not None
    # a host with fewer edges than the pattern needs no search, at any order
    assert has_minor(Graph(13), complete(3)) is None


def test_has_minor_against_brute_force():
    patterns = [complete(3), complete(4), complete_multipartite((2, 3))]
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for pat in patterns:
                witness = has_minor(g, pat)
                assert (witness is not None) == brute_minor(g, pat)
                if witness is not None:
                    witness.validate(g, pat)


def test_outerplanar_examples():
    for n in range(3, 9):
        assert is_outerplanar(cycle(n))
    assert not is_outerplanar(complete(4))
    assert not is_outerplanar(complete_multipartite((2, 3)))
    assert is_outerplanar(h_graph())
    assert is_outerplanar(path(1))
    assert not is_outerplanar(wheel(6))
    assert not is_outerplanar(wagner_graph())
    assert is_outerplanar(Graph(0))
    # Peeling 5 joins 6 and 7 across the edge 5-6, whose two sides peeling
    # 3 and 4 filled; a rule that refused such a join says no here.
    assert is_outerplanar(parse_graph6("G??XuG"))


def test_outerplanar_against_networkx_on_order_8():
    lines = [line for line in ORDER_1_TO_8.read_text(encoding="ascii").splitlines() if line[:1] == "G"]
    assert len(lines) == 11117
    for g in read_graph6_lines(lines):
        assert is_outerplanar(g) == _nx_outerplanar(g), g


def test_outerplanar_against_networkx_on_random_graphs():
    # Of these draws, 1,455 are disconnected, 1,943 are outerplanar and 381
    # pass the edge count but fail to peel.
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice((0.1, 0.2, 0.3, 0.4, 0.6)))
        assert is_outerplanar(g) == _nx_outerplanar(g), g


def test_bitmask_peel_matches_the_dict_peel():
    graphs = [Graph(0)] + [g for n in range(1, 8) for g in enumerate_connected(n)]
    # Of the 500 draws, 281 are disconnected, 264 are outerplanar and 150
    # pass the edge count but fail to peel; 7 of those fail only because an
    # edge joined across a full edge is full itself.
    rng = random.Random(29)
    graphs += [random_graph(rng, rng.randint(6, 14), rng.uniform(0.1, 0.4)) for _ in range(500)]
    for g in graphs:
        assert is_outerplanar(g) == peeled_outerplanar(g), g


def test_planar_examples():
    assert not is_planar(complete(5))
    assert not is_planar(complete_multipartite((3, 3)))
    assert is_planar(wheel(7))
    assert is_planar(wagner_graph()) is False
    assert is_planar(complete(4))
    # the edge bound needs no minor search, so it answers above the host cap
    assert is_planar(complete(13)) is False
    with pytest.raises(ValueError, match="^planarity test is capped at 12 vertices$"):
        is_planar(path(13))


def test_wagner_k5_vs_k33():
    # the Wagner graph is nonplanar through the bipartite pattern only
    wg = wagner_graph()
    assert has_minor(wg, complete(5)) is None
    w = has_minor(wg, complete_multipartite((3, 3)))
    assert w is not None
    w.validate(wg, complete_multipartite((3, 3)))


def test_outerplanar_implies_planar_and_edge_bounds():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            outer = is_outerplanar(g)
            planar = is_planar(g)
            if outer:
                assert planar
                assert g.n < 2 or g.m <= 2 * g.n - 3
            if planar and g.n >= 3:
                assert g.m <= 3 * g.n - 6


def test_planarity_and_witnesses_against_networkx():
    # networkx's planarity test is the oracle.
    outer_pats = [complete(4), complete_multipartite((2, 3))]
    planar_pats = [complete(5), complete_multipartite((3, 3))]
    for n in range(1, 8):
        for g in enumerate_connected(n):
            nxg = nx.Graph(g.edges())
            nxg.add_nodes_from(range(g.n))
            planar = nx.check_planarity(nxg)[0]
            outer = _nx_outerplanar(g)
            assert is_planar(g) == planar, g
            assert is_outerplanar(g) == outer, g
            found = []
            for pat in outer_pats + planar_pats:
                w = has_minor(g, pat)
                if w is not None:
                    w.validate(g, pat)
                found.append(w is not None)
            assert outer == (not any(found[:2])), g
            assert planar == (not any(found[2:])), g
