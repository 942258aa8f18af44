import random

import pytest

from zfpd.graph import Graph, mask_of, k_subsets, is_tree
from zfpd.families import (
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    enumerate_trees,
    h_graph,
    parse_graph6,
    path,
    spider,
    star,
    wheel,
)
from zfpd import invariants
from zfpd.invariants import (
    _induced_path_masks,
    _spider_masks,
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
from zfpd.products import cartesian_product
from zfpd.propagation import is_power_dominating_set, is_zero_forcing_set

from oracles import (
    _induces_path,
    _induces_spider,
    adj_sets,
    closed_nbhd_sets,
    closure_sets,
    naive_diameter,
    naive_domination,
    naive_path_cover,
    naive_power_domination,
    naive_spider_number,
    naive_total_domination,
    naive_zero_forcing,
    random_connected_graph,
    random_graph,
    subset_dp_partition,
)


def test_zero_forcing_family_values():
    for n in range(2, 9):
        assert zero_forcing_number(path(n)).value == 1
    assert zero_forcing_number(complete(5)).value == 4
    assert zero_forcing_number(complete(8)).value == 7
    for n in range(4, 9):
        assert zero_forcing_number(wheel(n)).value == 3
    assert zero_forcing_number(complete_multipartite((2, 3))).value == 3


def test_domination_family_values():
    for n in range(2, 10):
        assert domination_number(path(n)).value == (n + 2) // 3
    assert domination_number(wheel(8)).value == 1
    assert total_domination_number(cycle(4)).value == 2
    assert total_domination_number(path(2)).value == 2


def test_power_domination_family_values():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert power_domination_number(g).value == 1
    assert power_domination_number(h_graph()).value == 2
    assert power_domination_number(complete_multipartite((3, 4))).value == 2
    assert power_domination_number(complete_multipartite((2, 6))).value == 1


def test_path_cover_values():
    for n in range(1, 8):
        assert path_cover_number(path(n)).value == 1
    assert path_cover_number(cycle(5)).value == 2
    assert path_cover_number(complete(4)).value == 2
    assert path_cover_number(star(5)).value == 3


def test_path_cover_witness_is_a_partition_of_induced_paths():
    for g in [cycle(6), complete(5), wheel(6), star(6)]:
        res = path_cover_number(g)
        seen = 0
        for part in res.witness:
            pmask = mask_of(part)
            assert pmask & seen == 0
            seen |= pmask
            sub = g.induced_subgraph(pmask)
            assert sub.m == len(part) - 1 and (sub.n == 1 or sub.degree_stats()[1] <= 2)
            for a, b in zip(part, part[1:]):
                assert g.has_edge(a, b)
        assert seen == g.full_mask
        assert len(res.witness) == res.value


def test_spider_number_values():
    assert spider_number(spider([2, 2, 2])).value == 1
    assert spider_number(path(7)).value == 1
    assert spider_number(h_graph()).value == 2
    assert is_spider(spider([1, 1, 1, 1]))
    assert is_spider(path(3))
    assert not is_spider(h_graph())
    assert not is_spider(cycle(4))


def test_spider_witness_parts_induce_spiders():
    for t in enumerate_trees(7):
        res = spider_number(t)
        seen = 0
        for part in res.witness:
            pmask = mask_of(part)
            assert pmask & seen == 0
            seen |= pmask
            assert is_spider(t.induced_subgraph(pmask))
        assert seen == t.full_mask


def test_partition_solvers_match_subset_dp():
    # Value and witness, part by part, equal the reference DP's over the same
    # part lists: the budgeted search keeps the DP's tie rule.
    rng = random.Random(71)
    graphs = [g for n in range(1, 8) for g in enumerate_connected(n)]
    graphs += [t for n in range(8, 11) for t in enumerate_trees(n)]
    graphs += [random_connected_graph(rng, n, p) for n in range(8, 17) for p in (0.05, 0.15, 0.3)]
    graphs += [star(24), complete_multipartite((3, 12)), cartesian_product(path(4), path(6))]
    for g in graphs:
        res = path_cover_number(g)
        want = subset_dp_partition(g, _induced_path_masks(g))
        assert (res.value, [mask_of(part) for part in res.witness]) == want, g
        if is_tree(g) and g.n <= 20:
            res = spider_number(g)
            want = subset_dp_partition(g, _spider_masks(g))
            assert (res.value, [mask_of(part) for part in res.witness]) == want, g


def test_part_lists_are_every_inducing_set_in_ascending_order():
    # The listings walk neighbour bits inline; the lists must be exactly the
    # sets a brute-force sweep finds, sorted.
    for n in range(1, 7):
        for g in enumerate_connected(n):
            adj = adj_sets(g)
            every = [m for m in range(1, 1 << n) if _induces_path(adj, {v for v in range(n) if m >> v & 1})]
            assert _induced_path_masks(g) == every, g
    for n in range(1, 10):
        for t in enumerate_trees(n):
            adj = adj_sets(t)
            every = [m for m in range(1, 1 << n) if _induces_spider(adj, {v for v in range(n) if m >> v & 1})]
            assert _spider_masks(t) == every, t


def test_one_part_is_decided_without_listing_parts(monkeypatch):
    # star(20) has 2^19 + 19 spider parts; listing them took about 1.8 s.
    def refuse(g):
        raise AssertionError("parts listed")

    monkeypatch.setattr(invariants, "_spider_masks", refuse)
    monkeypatch.setattr(invariants, "_induced_path_masks", refuse)
    res = spider_number(star(20))
    assert (res.value, res.witness) == (1, (tuple(range(20)),))
    res = path_cover_number(path(24))
    assert (res.value, res.witness) == (1, (tuple(range(24)),))


def test_diameter_values():
    assert complete(6).diameter() == 1
    assert cycle(8).diameter() == 4
    assert path(6).diameter() == 5


def test_solver_errors():
    # `zfpd compute` prints these messages under `skipped`, so they are pinned here.
    for solver in (
        zero_forcing_number,
        power_domination_number,
        domination_number,
        total_domination_number,
        path_cover_number,
        spider_number,
    ):
        with pytest.raises(ValueError, match="^empty graph$"):
            solver(Graph(0))
        with pytest.raises(ValueError, match="^disconnected graph$"):
            solver(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError, match="^total domination needs at least two vertices$"):
        total_domination_number(Graph(1))
    with pytest.raises(ValueError, match="^spider number needs a tree$"):
        spider_number(cycle(5))
    # A cap bounds only a search: a path or a spider above it needs none.  Two
    # adjacent centres carrying 10 and 9 leaves make a tree of order 21 that is no spider.
    double_star = Graph(21, [(0, 1)] + [(0, v) for v in range(2, 12)] + [(1, v) for v in range(12, 21)])
    with pytest.raises(ValueError, match="^path cover search is capped at 24 vertices$"):
        path_cover_number(cycle(25))
    assert path_cover_number(path(25)).value == 1
    with pytest.raises(ValueError, match="^spider search is capped at 20 vertices$"):
        spider_number(double_star)
    assert spider_number(star(21)).value == 1
    with pytest.raises(ValueError, match="domination search is capped at 1000000 subsets of one size"):
        domination_number(path(60))
    assert spider_number(path(20)).value == 1


def test_set_size_cap_refuses_before_any_search():
    # Z(K_n) = n - 1 and every smaller size is below the minimum degree, so
    # the first size searched is already above the cap.
    cap = invariants._SET_CAP
    big = complete(cap + 2)
    with pytest.raises(ValueError, match=f"^zero forcing search is capped at sets of {cap} vertices$"):
        zero_forcing_number(big)
    with pytest.raises(ValueError, match=f"^power domination search is capped at sets of {cap} vertices$"):
        find_power_dominating_set(big, cap + 1)
    assert find_zero_forcing_set(big, cap) is None  # below the minimum degree: no search, no refusal


def test_oracle_equivalence_small():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert zero_forcing_number(g).value == naive_zero_forcing(g)
            assert power_domination_number(g).value == naive_power_domination(g)
            assert domination_number(g).value == naive_domination(g)
            assert path_cover_number(g).value == naive_path_cover(g)
            assert g.diameter() == naive_diameter(g)
            if n >= 2:
                assert total_domination_number(g).value == naive_total_domination(g)
            if is_tree(g):
                assert spider_number(g).value == naive_spider_number(g)


def test_witnesses_pass_their_predicates():
    rng = random.Random(53)
    sample = [g for n in range(2, 7) for g in enumerate_connected(n)]
    for g in rng.sample(sample, 25):
        zres = zero_forcing_number(g)
        assert zres.witness.bit_count() == zres.value
        assert is_zero_forcing_set(g, zres.witness)
        zres.certificate.validate(g)
        pres = power_domination_number(g)
        assert is_power_dominating_set(g, pres.witness)
        pres.certificate.validate(g)
        dres = domination_number(g)
        assert g.closed_neighborhood(dres.witness) == g.full_mask
        tres = total_domination_number(g)
        assert g.open_neighborhood(tres.witness) == g.full_mask


def test_param_results_are_immutable():
    res = zero_forcing_number(cycle(5))
    for field in ("value", "witness", "certificate"):
        with pytest.raises(AttributeError):
            setattr(res, field, None)


def test_witness_is_smallest_mask_of_minimum_size():
    for g in [cycle(5), wheel(5), star(5), complete(4), h_graph()]:
        res = zero_forcing_number(g)
        for m in k_subsets(g.n, res.value):
            if m >= res.witness:
                break
            assert not is_zero_forcing_set(g, m)
        pres = power_domination_number(g)
        for m in k_subsets(g.n, pres.value):
            if m >= pres.witness:
                break
            assert not is_power_dominating_set(g, m)
        dres = domination_number(g)
        for m in k_subsets(g.n, dres.value):
            if m >= dres.witness:
                break
            assert g.closed_neighborhood(m) != g.full_mask
        tres = total_domination_number(g)
        for m in k_subsets(g.n, tres.value):
            if m >= tres.witness:
                break
            assert g.open_neighborhood(m) != g.full_mask


def _first_hit(g, start, holds):
    """First ``(k, mask)`` in (size, mask) order whose vertex list satisfies ``holds``."""
    for k in range(start, g.n + 1):
        for m in k_subsets(g.n, k):
            if holds([v for v in range(g.n) if m >> v & 1]):
                return k, m
    raise AssertionError("no subset qualifies")


def test_solvers_match_first_hit_sweep():
    # Sparse graphs make the domination prune fire; the oracle sweeps every
    # subset with the set-based predicates and keeps the first hit.
    rng = random.Random(59)
    for n in range(8, 15):
        for p in (0.0, 0.1, 0.25):
            g = random_connected_graph(rng, n, p)
            adj = adj_sets(g)
            verts = set(range(g.n))
            cases = [
                (zero_forcing_number, 1, lambda s: closure_sets(g, s) == verts),
                (power_domination_number, 1, lambda s: closure_sets(g, closed_nbhd_sets(g, s)) == verts),
                (domination_number, 1, lambda s: closed_nbhd_sets(g, s) == verts),
                (total_domination_number, 2, lambda s: set().union(*(adj[v] for v in s)) == verts),
            ]
            for solver, start, holds in cases:
                res = solver(g)
                assert (res.value, res.witness) == _first_hit(g, start, holds), (solver.__name__, g)


def test_forcing_sweeps_match_first_hit_for_every_size():
    # Every size k, not only the minimum: the zero forcing sweep stops early
    # once a partial choice forces, and answers None below the minimum degree.
    rng = random.Random(67)
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    graphs += [random_graph(rng, n, p) for n in range(7, 14) for p in (0.15, 0.3, 0.5)]
    for g in graphs:
        for k in range(g.n + 1):
            zf = next((m for m in k_subsets(g.n, k) if is_zero_forcing_set(g, m)), None)
            pd = next((m for m in k_subsets(g.n, k) if is_power_dominating_set(g, m)), None)
            assert find_zero_forcing_set(g, k) == zf, (g, k)
            assert find_power_dominating_set(g, k) == pd, (g, k)


def _sparse_connected_graph(rng, n):
    # A random spanning tree plus n/4..n/2 extra edges, like the graphs of the
    # benchmark's ``compute`` input, where the zero forcing sweep mostly refutes.
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    target = n - 1 + rng.randint(n // 4, n // 2)
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


def test_zero_forcing_sweep_matches_first_hit_on_sparse_graphs():
    # Here both pruning rules of the sweep fire often: no top vertex below the
    # first t whose prefix 0..t closes the graph, and no last vertex inside a
    # failed closure.  Every k up to Z + 1 must still give the first hit.
    rng = random.Random(71)
    for n in range(12, 17):
        for _ in range(2):
            g = _sparse_connected_graph(rng, n)
            z = zero_forcing_number(g).value
            for k in range(z + 2):
                first = next((m for m in k_subsets(g.n, k) if is_zero_forcing_set(g, m)), None)
                assert find_zero_forcing_set(g, k) == first, (g, k)
                assert (first is None) == (k < z), (g, k)


def test_zero_forcing_sweep_rechecks_neighbours_of_forced_vertices():
    # From {0, 2}, 0 forces 4, and only then can 2 (a neighbour of 4, not its
    # forcer) force 3; a sweep that skips such vertices finds no set of size 2.
    assert find_zero_forcing_set(parse_graph6("D@{"), 2) == 0b101


def test_min_degree_bound_is_safe():
    # No set below the minimum degree can force, so the search answers None there unswept.
    for g in [cycle(5), complete(5), complete_multipartite((2, 3)), wheel(6)]:
        delta = g.degree_stats()[0]
        for k in range(0, delta):
            assert all(not is_zero_forcing_set(g, m) for m in k_subsets(g.n, k))


def test_spider_number_equals_power_domination_on_trees():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert spider_number(t).value == power_domination_number(t).value


def test_total_domination_sandwich():
    # classical sanity bound: domination <= total domination <= twice domination
    for n in range(2, 7):
        for g in enumerate_connected(n):
            gamma = domination_number(g).value
            gt = total_domination_number(g).value
            assert gamma <= gt <= 2 * gamma
