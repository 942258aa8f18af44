import pickle
import random

import pytest
from hypothesis import given, strategies as st

from zfpd.graph import Graph, mask_of
from zfpd.families import (
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected,
    h_graph,
    path,
    star,
    wheel,
)
from zfpd.propagation import (
    ForceLog,
    _spread,
    closure,
    closure_with_log,
    is_power_dominating_set,
    is_zero_forcing_set,
)

from oracles import closure_random_order, closure_sets, random_graph, rescanning_closure_with_log


def test_closure_examples():
    p4 = path(4)
    assert closure(p4, mask_of([0])) == mask_of([0, 1, 2, 3])
    assert closure(cycle(4), mask_of([0])) == mask_of([0])
    k4 = complete(4)
    assert closure(k4, mask_of([0, 1])) == mask_of([0, 1])
    assert closure(k4, mask_of([0, 1, 2])) == k4.full_mask
    assert closure(star(4), mask_of([0])) == mask_of([0])


def test_closure_rejects_foreign_bits():
    with pytest.raises(ValueError):
        closure(path(3), 1 << 3)


def test_closure_accepts_disconnected_graphs():
    g = Graph(4, [(0, 1), (2, 3)])
    assert closure(g, mask_of([0, 2])) == g.full_mask


def test_log_path_example():
    cl, log = closure_with_log(path(3), mask_of([0]))
    assert cl == mask_of([0, 1, 2])
    assert log.forces == ((0, 1), (1, 2))
    assert log.chains == ((0, 1, 2),)
    assert log.terminals == mask_of([2])
    log.validate(path(3))


def test_log_star_example():
    # star(4): hub 0, leaves 1..3; start with the hub and two leaves
    cl, log = closure_with_log(star(4), mask_of([0, 1, 2]))
    assert cl == star(4).full_mask
    assert log.forces == ((0, 3),)
    assert log.chains == ((0, 3), (1,), (2,))
    log.validate(star(4))


def test_log_cycle5_canonical_schedule():
    # Lowest-index eligible forcer acts first; derived by replaying the rule.
    cl, log = closure_with_log(cycle(5), mask_of([0, 1]))
    assert cl == cycle(5).full_mask
    assert log.forces == ((0, 4), (1, 2), (2, 3))
    assert log.chains == ((0, 4), (1, 2, 3))
    assert log.terminals == mask_of([4, 3])
    log.validate(cycle(5))


def test_force_log_is_immutable_and_rejects_a_corrupted_certificate():
    g = cycle(5)
    _, log = closure_with_log(g, mask_of([0, 1]))
    assert pickle.loads(pickle.dumps(log)) == log
    with pytest.raises(AttributeError):
        log.forces = ()
    for bad in (
        ForceLog(log.initial, log.forces[::-1], log.chains, log.terminals),  # a forcer not yet black
        ForceLog(log.initial, log.forces, log.chains[:1], log.terminals),  # chains miss part of the closure
        ForceLog(log.initial, log.forces, log.chains, log.terminals | 1),  # terminals off the chain ends
    ):
        with pytest.raises(ValueError):
            bad.validate(g)


def test_closure_with_log_agrees_with_closure():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        start = rng.randrange(1 << g.n)
        cl, log = closure_with_log(g, start)
        assert cl == closure(g, start)
        log.validate(g)


def test_closure_with_log_keeps_the_rescanning_schedule():
    rng = random.Random(37)
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for _ in range(4):
                start = rng.randrange(1 << n)
                cl, log = closure_with_log(g, start)
                assert (cl, log) == rescanning_closure_with_log(g, start)
                log.validate(g)


def test_closure_matches_set_oracle():
    rng = random.Random(37)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        start = rng.randrange(1 << g.n)
        expect = mask_of(closure_sets(g, [v for v in range(g.n) if start >> v & 1]))
        assert closure(g, start) == expect
    # Larger sparse graphs from small starting sets, so forcing runs long chains.
    for _ in range(200):
        g = random_graph(rng, rng.randint(10, 16), rng.random() * 0.4)
        start = mask_of(v for v in range(g.n) if rng.random() < 0.3)
        expect = mask_of(closure_sets(g, [v for v in range(g.n) if start >> v & 1]))
        assert closure(g, start) == expect


def test_closure_properties_random():
    rng = random.Random(41)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        u = rng.randrange(1 << g.n)
        cl = closure(g, u)
        assert cl & u == u  # extensive
        assert closure(g, cl) == cl  # idempotent
        sup = u | rng.randrange(1 << g.n)
        assert closure(g, sup) & cl == cl  # monotone
        assert closure_random_order(g, u, rng) == cl  # order-independent


def test_spread_matches_closure_from_a_closed_set():
    # Adding vertices to a closed set can only let the new vertices and their
    # neighbors force, so spreading from their closed neighborhood gives the
    # closure of the whole; sparse graphs and one or two extras make the
    # forcing run on.
    rng = random.Random(61)
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 14), rng.random() * rng.choice((0.3, 1.0)))
        closed = closure(g, mask_of(v for v in range(g.n) if rng.random() < 0.3))
        extra = mask_of(rng.sample(range(g.n), rng.randint(0, min(2, g.n))))
        if rng.random() < 0.3:
            extra |= rng.randrange(1 << g.n)
        black = closed | extra
        expect = mask_of(closure_sets(g, [v for v in range(g.n) if black >> v & 1]))
        assert _spread(g.adj, black, g.closed_neighborhood(extra & ~closed)) == expect


def test_closure_from_a_closed_set_stays_inside_any_closure_holding_the_new_vertex():
    # If u = cl(C + t) for a closed set C, then cl(C + t') lies in u for every
    # t' in u, because C + t' is inside the closed set u.  The zero forcing
    # sweep drops every last-vertex candidate inside a failed closure on this.
    rng = random.Random(73)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.random() * rng.choice((0.3, 0.6)))
        closed = closure_sets(g, [v for v in range(g.n) if rng.random() < 0.3])
        for t in range(g.n):
            u = closure_sets(g, closed | {t})
            for t2 in u:
                assert closure_sets(g, closed | {t2}) <= u, (g, sorted(closed), t, t2)


def test_zero_forcing_set_examples():
    assert is_zero_forcing_set(path(5), mask_of([0]))
    assert not is_zero_forcing_set(cycle(5), mask_of([0]))
    assert is_zero_forcing_set(cycle(5), mask_of([0, 1]))
    g = complete(6)
    assert is_zero_forcing_set(g, g.full_mask)


def test_power_dominating_set_examples():
    w = wheel(7)
    assert is_power_dominating_set(w, mask_of([0]))  # the hub
    k33 = complete_multipartite((3, 3))
    assert not any(is_power_dominating_set(k33, 1 << v) for v in range(6))
    hg = h_graph()
    assert not any(is_power_dominating_set(hg, 1 << v) for v in range(6))
    heavy = [v for v in range(6) if hg.degree(v) == 3]
    assert is_power_dominating_set(hg, mask_of(heavy))


def test_power_domination_is_zero_forcing_of_closed_neighborhood():
    rng = random.Random(43)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        s = rng.randrange(1 << g.n)
        assert is_power_dominating_set(g, s) == is_zero_forcing_set(
            g, g.closed_neighborhood(s)
        )


def test_forcing_chain_invariants_over_enumerated_graphs():
    rng = random.Random(47)
    for n in range(1, 6):
        for g in enumerate_connected(n):
            for _ in range(4):
                start = rng.randrange(1 << n)
                _, log = closure_with_log(g, start)
                log.validate(g)


@given(st.integers(1, 7), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_closure_extensive_idempotent_hypothesis(n, edge_seed, start_seed):
    rng = random.Random(edge_seed)
    g = random_graph(rng, n, rng.random())
    start = start_seed % (1 << n)
    cl = closure(g, start)
    assert cl & start == start
    assert closure(g, cl) == cl
