import pathlib
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import networkx as nx
import pytest

from zfpd.graph import Graph
import zfpd.families as families
from zfpd.families import (
    _KINDS,
    MAX_BUILTIN_ORDER,
    MAX_TREE_ORDER,
    _attach_leaf,
    _attach_vertex,
    _iso_key,
    _iso_search,
    are_isomorphic,
    BuiltClass,
    build_classes,
    canonical_graph,
    canonical_key,
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    enumerate_trees,
    generate,
    h_graph,
    parse_graph6,
    path,
    read_graph6_lines,
    spider,
    star,
    wagner_graph,
    wheel,
    write_graph6,
)
from zfpd.products import cartesian_product

from oracles import augmented_children, brute_automorphisms, brute_canonical_key, every_child, random_graph, refine_every_cell

DATA_FILE = pathlib.Path(__file__).parent.parent / "perfbench" / "data" / "connected_1to8.g6"

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
# every order the built-in enumeration covers: OEIS A001349 and A000055
BUILT_COUNTS = {
    "connected": [1, 1, 2, 6, 21, 112, 853, 11117],
    "trees": [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551],
}


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# ---------------------------------------------------------------------------
# generators


def test_family_examples():
    w5 = wheel(5)
    assert w5.degree_stats() == (3, 4)
    assert w5.m == 8
    k33 = complete_multipartite((3, 3))
    assert k33.m == 9
    assert k33.degree_stats() == (3, 3)
    assert path(1).n == 1
    assert cycle(3).m == 3
    assert star(6).degree_sequence() == (5, 1, 1, 1, 1, 1)


def test_edge_count_invariants():
    for n in range(1, 9):
        assert path(n).m == n - 1
        assert complete(n).m == n * (n - 1) // 2
    for n in range(3, 9):
        assert cycle(n).m == n


def test_every_family_member_connected():
    members = [
        path(5), cycle(6), complete(4), star(7), wheel(6),
        complete_multipartite((1, 2, 3)), spider([1, 2, 3]), h_graph(), wagner_graph(),
    ]
    for g in members:
        assert g.is_connected()


def test_h_graph_shape():
    hg = h_graph()
    assert hg.n == 6 and hg.m == 5
    heavy = [v for v in range(6) if hg.degree(v) == 3]
    assert len(heavy) == 2
    assert hg.has_edge(*heavy)


def test_wagner_shape_and_twin_freeness():
    wg = wagner_graph()
    assert wg.n == 8 and wg.m == 12
    assert wg.degree_stats() == (3, 3)
    for u, v in combinations(range(8), 2):
        assert not wg.are_twins(u, v)


def test_spider_generator():
    sp = spider([2, 2, 2])
    assert sp.n == 7
    assert sum(1 for v in range(sp.n) if sp.degree(v) > 2) == 1
    assert sp.degree(0) == 3
    with pytest.raises(ValueError):
        spider([1, 1])
    with pytest.raises(ValueError):
        spider([0, 1, 2])


def test_generator_parameter_floors():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        wheel(3)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        complete_multipartite((3, 2))
    with pytest.raises(ValueError):
        complete_multipartite((4,))


def test_generate_dispatch():
    assert generate("wheel", 6).m == 10
    assert generate("multipartite", parts=(2, 2)).m == 4
    assert generate("spider", legs=(1, 1, 1)).n == 4
    assert generate("wagner").n == 8
    with pytest.raises(ValueError):
        generate("moebius")
    with pytest.raises(ValueError):
        generate("path")


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_values():
    # 'D?{' decodes to five vertices whose last one neighbors all others.
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert write_graph6(complete(1)) == "@"


def test_graph6_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("D?")  # truncated payload
    with pytest.raises(ValueError):
        parse_graph6("D?{{")  # oversized payload
    with pytest.raises(ValueError):
        parse_graph6("D?\x1f")  # byte below the printable range
    # the padding bits after the triangle must stay zero
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(63 + 0b000001))


def test_graph6_roundtrip_enumerated():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            assert parse_graph6(write_graph6(g)) == g


def test_graph6_roundtrip_random_and_nx_crosscheck():
    rng = random.Random(17)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        line = write_graph6(g)
        assert parse_graph6(line) == g
        if g.n:
            theirs = nx.from_graph6_bytes(line.encode())
            assert set(theirs.edges()) == set(g.edges())
            ours = parse_graph6(nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip())
            assert ours == g


def test_graph6_long_order_header():
    g = path(70)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g


def test_read_graph6_lines_skips_comments():
    lines = ["# comment", "", "D?{", "A_"]
    graphs = read_graph6_lines(lines)
    assert [g.n for g in graphs] == [5, 2]
    with pytest.raises(ValueError, match="line 2"):
        read_graph6_lines(["A_", "garbage\x01"])


# ---------------------------------------------------------------------------
# canonical labeling


def test_canonical_key_matches_brute_force():
    rng = random.Random(23)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        assert canonical_key(g) == brute_canonical_key(g)
    for g in enumerate_connected(5):
        assert canonical_key(g) == brute_canonical_key(g)
    for g in list(enumerate_connected(6))[::9]:
        assert canonical_key(g) == brute_canonical_key(g)


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(29)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(g) == canonical_key(relabeled)
        assert canonical_graph(g) == canonical_graph(relabeled)


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _every_labelled_graph(top: int) -> list[Graph]:
    """Every graph on the vertices ``0..n-1`` for ``0 <= n <= top``, disconnected ones included."""
    graphs = []
    for n in range(top + 1):
        all_pairs = list(combinations(range(n), 2))
        for picks in range(1 << len(all_pairs)):
            graphs.append(Graph(n, [e for i, e in enumerate(all_pairs) if picks >> i & 1]))
    return graphs


def _columns(g: Graph) -> tuple[int, ...]:
    """Upper-triangle columns: column ``j`` holds ``j``'s edges to ``0..j-1``, vertex 0 highest."""
    return tuple(sum((g.adj[i] >> j & 1) << (j - 1 - i) for i in range(j)) for j in range(1, g.n))


def test_canonical_graph_matches_brute_force():
    # canonical_graph rebuilds the graph from its key alone, so check that the
    # result is g up to isomorphism and carries the brute-force minimum columns.
    rng = random.Random(43)
    graphs = _every_labelled_graph(5)
    graphs += [_relabeled(random_graph(rng, n, rng.random()), rng) for n in range(6, 10) for _ in range(25)]
    for g in graphs:
        h = canonical_graph(g)
        assert _iso_key(h.adj) == _iso_key(g.adj), write_graph6(g)
        if g.n <= 6:
            assert _columns(h) == brute_canonical_key(g)[1:], write_graph6(g)


def _same_classes(graphs: list[Graph], key_a, key_b) -> None:
    # Two keys induce the same partition iff equal a-keys pair with equal b-keys.
    pairs = {(key_a(g), key_b(g)) for g in graphs}
    assert len({a for a, _ in pairs}) == len(pairs) == len({b for _, b in pairs})


def test_iso_key_matches_brute_force():
    _same_classes(_every_labelled_graph(5), lambda g: _iso_key(g.adj), brute_canonical_key)
    rng = random.Random(31)
    sample = []
    for _ in range(60):
        g = random_graph(rng, 6, rng.random())
        sample += [g, _relabeled(g, rng), g.complement()]
    _same_classes(sample, lambda g: _iso_key(g.adj), brute_canonical_key)


def test_iso_key_on_graphs_refinement_cannot_split():
    # Vertex-transitive and other highly regular graphs leave refinement with
    # large cells, so the key comes from the individualization search.
    graphs = [complete(n) for n in range(1, 9)]
    graphs += [cycle(n) for n in range(3, 13)]
    graphs += [wheel(n) for n in range(4, 13)]
    parts = [(2, 2), (3, 3), (2, 2, 2), (4, 4), (2, 3, 3), (3, 3, 3), (4, 4, 4)]
    graphs += [complete_multipartite(p) for p in parts]
    k2 = complete(2)
    cube = cartesian_product(cartesian_product(k2, k2), k2)
    graphs += [wagner_graph(), cube, cycle(8).complement()]
    regular = [(8, 3), (8, 3), (8, 4), (10, 3), (10, 3), (10, 4), (12, 3), (12, 3), (12, 5)]
    for seed, (n, d) in enumerate(regular, start=1):
        graphs.append(Graph(n, nx.random_regular_graph(d, n, seed=seed).edges()))
    rng = random.Random(37)
    for g in graphs:
        assert _iso_key(g.adj) == _iso_key(_relabeled(g, rng).adj)
    for g, h in combinations(graphs, 2):
        if g.n == h.n and g.m == h.m:
            assert (_iso_key(g.adj) == _iso_key(h.adj)) == nx.is_isomorphic(_to_nx(g), _to_nx(h))


def test_iso_key_is_relabeling_invariant():
    rng = random.Random(41)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert _iso_key(g.adj) == _iso_key(_relabeled(g, rng).adj)


def test_canonical_labelling_refuses_orders_above_its_cap():
    binary_tree = Graph(15, [((v - 1) // 2, v) for v in range(1, 15)])  # seconds to label without the cap
    for label in (canonical_key, canonical_graph, lambda g: are_isomorphic(g, g)):
        with pytest.raises(ValueError, match=f"capped at order {MAX_TREE_ORDER}, got order 15"):
            label(binary_tree)
    assert canonical_key(path(MAX_TREE_ORDER))[0] == MAX_TREE_ORDER
    assert are_isomorphic(path(MAX_TREE_ORDER), canonical_graph(path(MAX_TREE_ORDER)))


def test_are_isomorphic_examples():
    assert are_isomorphic(path(4).complement(), path(4))
    assert are_isomorphic(cycle(5).complement(), cycle(5))
    assert not are_isomorphic(path(4), star(4))
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert are_isomorphic(cycle(6).complement(), prism)


# ---------------------------------------------------------------------------
# enumeration


def test_connected_counts():
    for n, count in CONNECTED_COUNTS.items():
        assert len(list(enumerate_connected(n))) == count


def test_connected_count_order8():
    assert len(list(enumerate_connected(8))) == 11117


def test_enumeration_members_are_connected_and_distinct():
    for n in range(1, 7):
        reps = list(enumerate_connected(n))
        keys = {canonical_key(g) for g in reps}
        assert len(keys) == len(reps)
        assert all(g.is_connected() for g in reps)
        assert all(g.n == n for g in reps)


def test_enumeration_against_networkx_dedup():
    # Independent route: dedup every labeled connected graph via nx isomorphism.
    for n in range(1, 6):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        reps: list[nx.Graph] = []
        for picks in range(1 << len(all_pairs)):
            edges = [all_pairs[i] for i in range(len(all_pairs)) if picks >> i & 1]
            cand = nx.Graph()
            cand.add_nodes_from(range(n))
            cand.add_edges_from(edges)
            if not nx.is_connected(cand):
                continue
            if not any(nx.is_isomorphic(cand, r) for r in reps):
                reps.append(cand)
        assert len(reps) == CONNECTED_COUNTS[n]


def test_enumeration_caps():
    from zfpd.theorems import Universe

    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_connected(MAX_BUILTIN_ORDER + 1))
    # build_classes is the one place that knows the caps; nothing is built past them
    pool = ProcessPoolExecutor(max_workers=2)  # starts no worker: no job reaches it
    refused = [
        lambda: build_classes("connected", 0),
        lambda: build_classes("trees", 0),
        lambda: build_classes("connected", MAX_BUILTIN_ORDER + 1),
        lambda: build_classes("trees", MAX_TREE_ORDER + 1),
        lambda: Universe().connected(MAX_BUILTIN_ORDER + 1),
        lambda: Universe().trees(MAX_TREE_ORDER + 1),
        lambda: build_classes("connected", MAX_BUILTIN_ORDER + 1, pool, 2),
    ]
    with pool:
        for call in refused:
            with pytest.raises(ValueError, match=r"enumeration covers 1\.\.\d+, not \d+$"):
                call()
    with pytest.raises(ValueError, match="unknown kind 'forest'"):
        build_classes("forest", 3)


def test_tree_counts():
    for n, count in TREE_COUNTS.items():
        assert len(list(enumerate_trees(n))) == count
    for t in enumerate_trees(7):
        assert t.is_connected() and t.m == t.n - 1


def test_enumeration_order_is_canonical():
    # The public enumeration's contract: canonical representatives in
    # strictly increasing key order (the verifiers read build_classes instead).
    universes = [enumerate_connected(n) for n in range(1, 8)]
    universes += [enumerate_trees(n) for n in range(1, 10)]
    for universe in universes:
        reps = list(universe)
        assert all(g == canonical_graph(g) for g in reps)
        keys = [canonical_key(g) for g in reps]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_matches_the_checked_in_universe_file():
    with open(DATA_FILE, encoding="ascii") as fh:  # opened read-only
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    built = [write_graph6(g) for n in range(1, 8) for g in enumerate_connected(n)]
    assert built == lines[: len(built)] and len(built) == 996


# ---------------------------------------------------------------------------
# automorphism generators and orbit-pruned candidates


def _generated_group(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    todo = list(group)
    for p in todo:
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def _vertex_orbits(perms, n: int) -> set[frozenset[int]]:
    return {frozenset(p[v] for p in perms) for v in range(n)}


def test_iso_search_generates_the_automorphism_group():
    rng = random.Random(13)
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [t for n in range(1, 9) for t in enumerate_trees(n)]
    for g in graphs:
        for h in (g, _relabeled(g, rng)):
            group = _generated_group(_iso_search(h.adj)[1], h.n)
            brute = brute_automorphisms(h)
            assert len(group) == len(brute), write_graph6(h)
            assert _vertex_orbits(group, h.n) == _vertex_orbits(brute, h.n), write_graph6(h)
            assert group == brute, write_graph6(h)


def test_orbit_pruned_candidates_reach_every_class():
    # No generators means no pruning: every nonempty subset, every vertex.
    for n in range(1, 7):
        for extend, parents in ((_attach_vertex, enumerate_connected(n)), (_attach_leaf, enumerate_trees(n))):
            for g in parents:
                gens = _iso_search(g.adj)[1]
                pruned = [_iso_key(c) for c in extend(g.adj, gens)]
                assert {_iso_key(c) for c in extend(g.adj, [])} == set(pruned), write_graph6(g)
                assert len(pruned) == len(set(pruned))  # one candidate per orbit, no two isomorphic
    assert len(list(_attach_vertex(complete(4).adj, _iso_search(complete(4).adj)[1]))) == 4


def test_refining_against_split_cells_keeps_keys_generators_and_leaf_orders(monkeypatch):
    # every orbit-pruned candidate of orders 2..7
    graphs = [
        child
        for kind, (extend, _, _) in _KINDS.items()
        for n in range(1, 7)
        for g in build_classes(kind, n)
        for child in extend(g.adj, _iso_search(g.adj)[1])
    ]
    found = [_iso_search(adj) for adj in graphs]
    monkeypatch.setattr(families, "_refine", refine_every_cell)
    for adj, (key, gens, order) in zip(graphs, found):
        every_key, every_gens, every_order = _iso_search(adj)
        assert (key, set(gens), order) == (every_key, set(every_gens), every_order), adj


def _dedup_classes(kind: str, top: int) -> list[list[tuple[int, ...]]]:
    """Orders ``1..top`` as the build made them before canonical augmentation:
    the sorted ``_iso_key`` set of every child of every parent, no candidate
    filtered out."""
    orders = [[Graph(1).adj]]
    for _ in range(2, top + 1):
        orders.append(sorted({_iso_key(child) for adj in orders[-1] for child in every_child(adj, kind)}))
    return orders


def test_canonical_augmentation_builds_what_the_key_set_dedup_built():
    for kind, top in (("connected", 7), ("trees", 10)):
        built = [sorted(_iso_key(g.adj) for g in build_classes(kind, n)) for n in range(1, top + 1)]
        assert built == _dedup_classes(kind, top), kind


def test_filtered_tie_only_build_keeps_what_the_full_search_kept():
    # Every parent, in its built labels and relabelled: the kept children
    # are the same list, in the same labels, as searching every orbit
    # representative that the invariant does not reject.
    rng = random.Random(30)
    for kind, top in (("connected", 6), ("trees", 9)):
        extend = _KINDS[kind][0]
        for n in range(1, top + 1):
            for g in build_classes(kind, n):
                for adj in (g.adj, _relabeled(g, rng).adj):
                    kept = [child for child in extend(adj, _iso_search(adj)[1]) if families._canonical_child(child)]
                    assert kept == augmented_children(adj, kind), (kind, adj)


def test_built_class_counts_match_oeis():
    assert {kind: len(counts) for kind, counts in BUILT_COUNTS.items()} == {kind: top for kind, (_, _, top) in _KINDS.items()}
    for kind, counts in BUILT_COUNTS.items():
        assert [len(build_classes(kind, n)) for n in range(1, len(counts) + 1)] == counts, kind


def test_each_kind_builds_the_connected_classes_its_test_accepts():
    # The test is how a universe file's graphs are filed under a kind, so a
    # kind's built orders and its file orders hold the same kind of graph.
    for kind, (_, holds, top) in _KINDS.items():
        for n in range(1, min(top, 7) + 1):
            accepted = {_iso_key(g.adj) for g in build_classes("connected", n) if holds(g)}
            assert {_iso_key(g.adj) for g in build_classes(kind, n)} == accepted, (kind, n)


def test_order_8_classes_are_the_classes_of_the_checked_in_universe_file():
    with open(DATA_FILE, encoding="ascii") as fh:  # opened read-only
        eights = [g for g in read_graph6_lines(fh) if g.n == 8]
    keys = sorted({_iso_key(g.adj) for g in eights})
    assert len(keys) == len(eights) == 11117
    assert sorted(_iso_key(g.adj) for g in build_classes("connected", 8)) == keys


def test_pool_build_equals_the_serial_build(monkeypatch):
    serial_connected = [build_classes("connected", n) for n in range(1, 8)]
    serial_trees = [build_classes("trees", n) for n in range(1, 9)]
    # An empty cache, so the orders are built again, through the pool, whose
    # workers search for every parent's generators themselves.
    monkeypatch.setattr(families, "_BUILT", {(kind, 1): (BuiltClass(1),) for kind in _KINDS})
    with ProcessPoolExecutor(max_workers=2) as pool:
        build_classes("connected", 7, pool, 2)
        build_classes("trees", 8, pool, 2)
    assert len(families._BUILT) == 7 + 8  # every order was built again
    assert [build_classes("connected", n) for n in range(1, 8)] == serial_connected  # Graph equality is adjacency equality
    assert [build_classes("trees", n) for n in range(1, 9)] == serial_trees
    for classes in families._BUILT.values():  # no shard kept a class that another kept too
        assert all(a.adj < b.adj for a, b in zip(classes, classes[1:]))
        assert all(type(g) is BuiltClass for g in classes)


def test_built_classes_keep_their_type_through_a_pickle():
    # pool jobs are sent their part of the universe pickled
    for kind, top in (("connected", 6), ("trees", 8)):
        for n in range(1, top + 1):
            classes = build_classes(kind, n)
            back = pickle.loads(pickle.dumps(classes))
            assert back == classes and all(type(g) is BuiltClass for g in classes + back), (kind, n)


def test_built_classes_have_distinct_iso_keys_in_adjacency_order():
    # A class keeps the labels its build found, so only its key is compared.
    for kind, top in (("connected", 7), ("trees", 9)):
        for n in range(1, top + 1):
            classes = build_classes(kind, n)
            assert len({_iso_key(g.adj) for g in classes}) == len(classes), (kind, n)
            assert all(a.adj < b.adj for a, b in zip(classes, classes[1:])), (kind, n)


def test_universe_orders_hold_the_classes_that_enumeration_labels():
    from zfpd.theorems import Universe

    # enumeration yields in key order, so equal lists mean equal sets of classes, each once
    u = Universe()
    for n in range(1, 8):
        assert sorted(canonical_key(g) for g in u.connected(n)) == [canonical_key(g) for g in enumerate_connected(n)]
    for n in range(1, 10):
        assert sorted(canonical_key(t) for t in u.trees(n)) == [canonical_key(t) for t in enumerate_trees(n)]
