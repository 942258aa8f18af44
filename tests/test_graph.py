import math
import pickle
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from zfpd.graph import (
    Graph,
    bits,
    mask_of,
    k_subsets,
    is_path,
    is_tree,
    induces_connected,
)
from zfpd.families import (
    build_classes,
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    enumerate_trees,
    path,
    star,
)
from zfpd.invariants import _induced_path_masks, _spider_masks
from zfpd.products import cartesian_product, lexicographic_product

from oracles import (
    _connected_subset,
    _induces_path,
    _induces_spider,
    adj_sets,
    bfs_distances,
    naive_diameter,
    random_connected_graph,
    random_graph,
)


def test_constructor_rejects_bad_edges():
    with pytest.raises(IndexError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_from_rows_validates():
    with pytest.raises(ValueError):
        Graph.from_rows([0b010, 0b000, 0b000])  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_rows([0b001, 0b000])  # loop at 0
    with pytest.raises(ValueError):
        Graph.from_rows([0b100, 0b000])  # bit outside range
    with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 2"):
        Graph.from_rows([0b110, 0b001, 0b000])  # the bad bit is not row 0's lowest
    g = Graph.from_rows([0b010, 0b001])
    assert g.has_edge(0, 1)


def test_graphs_built_unchecked_pass_the_checks():
    # ``Graph._of`` stores rows derived from a valid graph without checking
    # them; every graph built that way must pass ``from_rows``.
    def checked(g):
        assert Graph.from_rows(g.adj) == g

    rng = random.Random(67)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        h = random_graph(rng, rng.randint(1, 6), rng.random())
        checked(cartesian_product(g, h))
        checked(lexicographic_product(g, h))
        checked(g.complement())
        if g.m:
            checked(g.delete_edge(*rng.choice(list(g.edges()))))
        checked(g.induced_subgraph(rng.randrange(1 << g.n)))
    for n in range(1, 8):
        for g in chain(build_classes("connected", n), enumerate_connected(n)):
            checked(g)
    for n in range(1, 11):
        for g in chain(build_classes("trees", n), enumerate_trees(n)):
            checked(g)


def test_neighbors_examples():
    p3 = path(3)
    assert p3.neighbors(1) == mask_of([0, 2])
    assert complete(4).neighbors(0) == mask_of([1, 2, 3])
    assert cycle(5).neighbors(2) == mask_of([1, 3])
    assert p3.closed_neighbors(1) == mask_of([0, 1, 2])
    with pytest.raises(IndexError):
        p3.neighbors(3)


def test_degree_stats_examples():
    assert star(5).degree_stats() == (1, 4)
    assert cycle(6).degree_stats() == (2, 2)
    assert path(4).degree_stats() == (1, 2)
    with pytest.raises(ValueError):
        Graph(0).degree_stats()


def test_distance_examples():
    assert path(5).distance(0, 4) == 4
    assert cycle(6).distance(0, 3) == 3
    two_parts = Graph(4, [(0, 1), (2, 3)])
    assert two_parts.distance(0, 3) == math.inf
    assert path(5).distance(2, 2) == 0


def test_diameter_examples():
    assert complete(7).diameter() == 1
    assert cycle(8).diameter() == 4
    assert path(6).diameter() == 5
    assert Graph(1).diameter() == 0
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (2, 3)]).diameter()
    with pytest.raises(ValueError):
        Graph(0).diameter()


def test_diameter_exceeds_matches_the_bfs_oracle():
    rng = random.Random(37)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 12), rng.uniform(0.05, 0.7))
        try:
            d = naive_diameter(g)
        except ValueError:
            d = math.inf  # disconnected
        for r in range(4):
            assert g.diameter_exceeds(r) == (d > r), (g, r)


def test_diameter_matches_the_bfs_oracle():
    for n in range(1, 8):
        for g in build_classes("connected", n):
            assert g.diameter() == naive_diameter(g)
    rng = random.Random(71)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randint(8, 14), rng.uniform(0.05, 0.6))
        assert g.diameter() == naive_diameter(g)
        # an isolated vertex, or any split, leaves no diameter
        apart = Graph(g.n + 1, g.edges())
        with pytest.raises(ValueError, match="diameter requires a connected graph"):
            apart.diameter()


def test_twins_examples():
    k4 = complete(4)
    assert k4.are_twins(0, 1)
    k23 = complete_multipartite((2, 3))
    assert k23.are_twins(0, 1)  # the two vertices of the small part
    assert not path(4).are_twins(0, 3)
    with pytest.raises(ValueError):
        k4.are_twins(2, 2)


def test_twins_symmetry():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        u = rng.randrange(g.n)
        v = (u + 1 + rng.randrange(g.n - 1)) % g.n
        if u == v:
            continue
        assert g.are_twins(u, v) == g.are_twins(v, u)


def test_connectivity_examples():
    assert cycle(5).is_connected()
    assert Graph(1).is_connected()
    assert not Graph(4, [(0, 1), (0, 2)]).is_connected()
    with pytest.raises(ValueError):
        Graph(0).is_connected()


def test_complement_examples():
    assert complete(4).complement().m == 0
    c5 = cycle(5)
    comp = c5.complement()
    assert comp.degree_sequence() == c5.degree_sequence()
    assert comp.m == 5


def test_complement_involution_random():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 8), rng.random())
        assert g.complement().complement() == g


def test_delete_edge():
    p3 = complete(3).delete_edge(0, 1)
    assert is_path(p3)
    assert is_path(cycle(4).delete_edge(0, 3))
    k33e = complete_multipartite((3, 3)).delete_edge(0, 3)
    assert k33e.degree_sequence() == (3, 3, 3, 3, 2, 2)
    with pytest.raises(ValueError):
        path(3).delete_edge(0, 2)


def test_induced_subgraph():
    c5 = cycle(5)
    assert is_path(c5.induced_subgraph(mask_of([1, 2, 3])))
    assert complete(5).induced_subgraph(mask_of([0, 2, 4])) == complete(3)
    empty = c5.induced_subgraph(0)
    assert empty.n == 0
    with pytest.raises(ValueError):
        c5.induced_subgraph(1 << 5)


def test_triangle_inequality_spot_check():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 8), 0.3)
        u, v, w = (rng.randrange(g.n) for _ in range(3))
        assert g.distance(u, w) <= g.distance(u, v) + g.distance(v, w)


def test_pickle_round_trip_keeps_the_graph():
    for g in (Graph(0), Graph(1), path(5), complete(4), star(6)):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.n == g.n and back.m == g.m


def test_k_subsets_order_and_count():
    masks = list(k_subsets(5, 2))
    assert masks == sorted(masks)
    assert len(masks) == 10
    assert list(k_subsets(4, 0)) == [0]
    assert list(k_subsets(3, 4)) == []
    assert all(m.bit_count() == 3 for m in k_subsets(6, 3))


def test_bits_and_mask_roundtrip():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert mask_of([0, 3, 5]) == 0b101001


def test_path_tree_predicates():
    assert is_path(Graph(1))
    assert is_path(path(6))
    assert not is_path(cycle(4))
    assert not is_path(star(4))
    assert is_tree(star(7))
    assert not is_tree(cycle(5))
    # The edge count and degrees answer first; a disconnected graph with
    # n - 1 edges and no degree above 2, such as a triangle and an isolated
    # vertex, still needs the connectivity search.
    assert not is_path(Graph(0)) and not is_tree(Graph(0))
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for picks in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if picks >> i & 1])
            adj = adj_sets(g)
            assert is_path(g) == _induces_path(adj, range(n)), g
            assert is_tree(g) == (_connected_subset(adj, range(n)) and g.m == n - 1), g


def test_induces_connected():
    c6 = cycle(6)
    assert induces_connected(c6, mask_of([0, 1, 2]))
    assert not induces_connected(c6, mask_of([0, 2, 4]))
    assert not induces_connected(c6, 0)


def test_bfs_queries_match_set_oracle():
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5]))  # sparse ones fall apart
        dist = [bfs_distances(g, u) for u in range(n)]
        assert g.is_connected() == (len(dist[0]) == n)
        for u in range(n):
            for v in range(n):
                assert g.distance(u, v) == dist[u].get(v, math.inf)
            if len(dist[u]) == n:
                assert g.eccentricity(u) == max(dist[u].values())
            else:
                with pytest.raises(ValueError, match="^eccentricity requires a connected graph$"):
                    g.eccentricity(u)
        for _ in range(12):
            verts = set(bits(rng.getrandbits(n)))
            expected = bool(verts) and len(bfs_distances(g, min(verts), verts)) == len(verts)
            assert induces_connected(g, mask_of(verts)) == expected


def _all_graphs(n: int):
    """Every graph of order ``n`` up to isomorphism, as disjoint unions of connected ones."""
    pool = [g for k in range(1, n + 1) for g in enumerate_connected(k)]

    def unions(left: int, start: int):
        if left == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            if pool[i].n <= left:
                for rest in unions(left - pool[i].n, i):
                    yield (pool[i], *rest)

    for parts in unions(n, 0):
        edges, offset = [], 0
        for part in parts:
            edges += [(u + offset, v + offset) for u, v in part.edges()]
            offset += part.n
        yield Graph(n, edges)


def _random_tree(rng, n: int) -> Graph:
    labels = list(range(n))
    rng.shuffle(labels)
    return Graph(n, [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)])


def _brute(g, predicate):
    adj = adj_sets(g)
    return [m for m in range(1, 1 << g.n) if predicate(adj, set(bits(m)))]


def test_all_graphs_helper_counts():
    assert [sum(1 for _ in _all_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_induced_path_masks_match_brute_filter():
    rng = random.Random(2024)
    small = chain.from_iterable(_all_graphs(n) for n in range(1, 7))
    sampled = [random_graph(rng, n, p) for n in range(7, 11) for p in (0.2, 0.35, 0.6)]
    for g in chain(small, sampled):
        assert _induced_path_masks(g) == _brute(g, _induces_path), g


def test_spider_masks_match_brute_filter_on_trees():
    rng = random.Random(7)
    small = chain.from_iterable(enumerate_trees(n) for n in range(1, 7))
    sampled = [_random_tree(rng, n) for n in range(7, 11) for _ in range(3)]
    for t in chain(small, sampled):
        assert _spider_masks(t) == _brute(t, _induces_spider), t


@given(st.integers(0, 7), st.data())
def test_complement_involution_hypothesis(n, data):
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    g = Graph(n, chosen)
    assert g.complement().complement() == g
    for u, v in chosen:
        assert g.has_edge(u, v)
