import random
from itertools import product

import pytest

from zfpd.graph import Graph, mask_of
from zfpd.families import (
    are_isomorphic,
    complete,
    cycle,
    enumerate_connected,
    path,
)
from zfpd.products import (
    amalgamate,
    cartesian_product,
    lexicographic_product,
)

from oracles import random_graph


def test_cartesian_examples():
    g = cartesian_product(path(2), path(2))
    assert are_isomorphic(g, cycle(4))
    g = cartesian_product(path(2), path(3))
    assert g.n == 6 and g.m == 7
    rook = cartesian_product(complete(3), complete(3))
    assert rook.n == 9 and rook.m == 18
    assert rook.degree_stats() == (4, 4)


def test_lexicographic_examples():
    g = lexicographic_product(path(2), complete(2))
    assert are_isomorphic(g, complete(4))
    g = lexicographic_product(complete(2), Graph(2))
    assert are_isomorphic(g, cycle(4))
    g = lexicographic_product(path(3), complete(1))
    assert are_isomorphic(g, path(3))


def test_edge_count_formulas_random():
    rng = random.Random(59)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        h = random_graph(rng, rng.randint(1, 5), rng.random())
        cart = cartesian_product(g, h)
        assert cart.m == g.n * h.m + h.n * g.m
        lex = lexicographic_product(g, h)
        assert lex.m == g.m * h.n * h.n + g.n * h.m


def test_cartesian_commutes_up_to_isomorphism():
    factors = [g for n in (2, 3, 4) for g in enumerate_connected(n)]
    for g in factors:
        for h in factors:
            if g.n * h.n > 8:
                continue
            a = cartesian_product(g, h)
            b = cartesian_product(h, g)
            assert are_isomorphic(a, b)


def test_lexicographic_is_not_commutative():
    a = lexicographic_product(path(3), complete(2))
    b = lexicographic_product(complete(2), path(3))
    assert a.degree_sequence() != b.degree_sequence()


def test_product_layout_matches_definitions():
    rng = random.Random(71)
    factors = [complete(1), Graph(3)]
    factors += [random_graph(rng, rng.randint(1, 5), rng.random()) for _ in range(14)]
    for g in factors:
        for h in rng.sample(factors, 5):
            cart = cartesian_product(g, h)
            lex = lexicographic_product(g, h)
            assert cart.n == lex.n == g.n * h.n
            for gv, hv, gw, hw in product(range(g.n), range(h.n), repeat=2):
                if (gv, hv) == (gw, hw):
                    continue
                g_adj = g.has_edge(gv, gw)
                h_adj = h.has_edge(hv, hw)
                u, v = gv * h.n + hv, gw * h.n + hw
                assert cart.has_edge(u, v) == (gv == gw and h_adj or hv == hw and g_adj)
                assert lex.has_edge(u, v) == (g_adj or gv == gw and h_adj)


def test_products_reject_empty_operands():
    with pytest.raises(ValueError):
        cartesian_product(Graph(0), path(2))
    with pytest.raises(ValueError):
        lexicographic_product(path(2), Graph(0))


def test_amalgamate_examples():
    assert are_isomorphic(amalgamate(path(2), 1, path(2), 0), path(3))
    pan = amalgamate(complete(3), 0, path(3), 0)
    assert pan.n == 5 and pan.m == 5
    other = amalgamate(complete(1), 0, cycle(5), 2)
    assert are_isomorphic(other, cycle(5))
    with pytest.raises(IndexError):
        amalgamate(path(2), 2, path(2), 0)


def test_amalgamate_keeps_both_induced_copies():
    rng = random.Random(61)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 5), 0.6)
        h = random_graph(rng, rng.randint(1, 5), 0.6)
        gv = rng.randrange(g.n)
        hv = rng.randrange(h.n)
        glued = amalgamate(g, gv, h, hv)
        assert glued.n == g.n + h.n - 1
        # the left operand sits on its own labels
        assert glued.induced_subgraph(mask_of(range(g.n))) == g
        # the right operand comes back through its documented relabeling
        keep = [w for w in range(h.n) if w != hv]
        relabel = {w: g.n + i for i, w in enumerate(keep)}
        relabel[hv] = gv
        expected_edges = {tuple(sorted((relabel[a], relabel[b]))) for a, b in h.edges()}
        hmask = mask_of(relabel.values())
        sub_edges = {
            (a, b)
            for a, b in glued.edges()
            if hmask >> a & 1 and hmask >> b & 1
        }
        # only one left-operand vertex is in the set, so nothing else can leak in
        assert sub_edges == expected_edges
