"""Independent reference implementations used only as test oracles.

Everything here recomputes from first principles with plain Python sets and
itertools.combinations, deliberately sharing no code path with the library
solvers: no bitmasks, no pruning, no Gosper enumeration.  The two exceptions
are ``subset_dp_partition``, the subset DP the partition solvers used to run,
kept on bitmasks as the reference for their value and witness, and
``refine_every_cell``, the colour refinement the isomorphism search used to
run, kept as the reference for its keys and generators, and
``rescanning_closure_with_log``, the bit-generator loop ``closure_with_log``
used to run, kept as the reference for its canonical schedule.
"""

from __future__ import annotations

from itertools import combinations, permutations


def adj_sets(g) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        out[u].add(v)
        out[v].add(u)
    return out


def closure_sets(g, start) -> set[int]:
    adj = adj_sets(g)
    black = set(start)
    changed = True
    while changed:
        changed = False
        for v in list(black):
            whites = adj[v] - black
            if len(whites) == 1:
                black |= whites
                changed = True
    return black


def closed_nbhd_sets(g, vs) -> set[int]:
    adj = adj_sets(g)
    out = set(vs)
    for v in vs:
        out |= adj[v]
    return out


def naive_zero_forcing(g) -> int:
    verts = set(range(g.n))
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            if closure_sets(g, s) == verts:
                return k
    raise AssertionError("unreachable")


def naive_power_domination(g) -> int:
    verts = set(range(g.n))
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            if closure_sets(g, closed_nbhd_sets(g, s)) == verts:
                return k
    raise AssertionError("unreachable")


def naive_domination(g) -> int:
    verts = set(range(g.n))
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            if closed_nbhd_sets(g, s) == verts:
                return k
    raise AssertionError("unreachable")


def naive_total_domination(g) -> int:
    adj = adj_sets(g)
    verts = set(range(g.n))
    for k in range(1, g.n + 1):
        for s in combinations(range(g.n), k):
            covered = set()
            for v in s:
                covered |= adj[v]
            if covered == verts:
                return k
    raise AssertionError("no total dominating set")


def _connected_subset(adj, subset) -> bool:
    subset = set(subset)
    if not subset:
        return False
    seen = {next(iter(subset))}
    frontier = set(seen)
    while frontier:
        grown = set()
        for v in frontier:
            grown |= adj[v] & subset
        frontier = grown - seen
        seen |= frontier
    return seen == subset


def _induces_path(adj, subset) -> bool:
    subset = set(subset)
    if len(subset) == 1:
        return True
    if not _connected_subset(adj, subset):
        return False
    degs = [len(adj[v] & subset) for v in subset]
    edges = sum(degs) // 2
    return edges == len(subset) - 1 and max(degs) <= 2


def _induces_spider(adj, subset) -> bool:
    subset = set(subset)
    if not _connected_subset(adj, subset):
        return False
    degs = [len(adj[v] & subset) for v in subset]
    edges = sum(degs) // 2
    if edges != len(subset) - 1:
        return False
    return sum(1 for d in degs if d > 2) <= 1


def _min_cover(g, part_ok) -> int:
    adj = adj_sets(g)
    best = [g.n]

    def rec(uncovered: frozenset, used: int) -> None:
        if used >= best[0]:
            return
        if not uncovered:
            best[0] = used
            return
        v = min(uncovered)
        rest = sorted(uncovered - {v})
        for r in range(len(rest) + 1):
            for extra in combinations(rest, r):
                part = {v, *extra}
                if part_ok(adj, part):
                    rec(uncovered - part, used + 1)

    rec(frozenset(range(g.n)), 0)
    return best[0]


def naive_path_cover(g) -> int:
    return _min_cover(g, _induces_path)


def naive_spider_number(g) -> int:
    return _min_cover(g, _induces_spider)


def subset_dp_partition(g, parts) -> tuple[int, list[int]]:
    """Fewest of ``parts`` (vertex masks) partitioning all vertices, plus one witness.

    A memoized DP over every subset reachable by removing the parts that
    hold the lowest uncovered vertex.  Ties go to the smallest part mask.
    """
    by_low: dict[int, list[int]] = {}
    for p in parts:
        by_low.setdefault(p & -p, []).append(p)
    for group in by_low.values():
        group.sort()
    memo: dict[int, int] = {0: 0}
    choice: dict[int, int] = {}

    def solve(s: int) -> int:
        # Only called on a state not yet in ``memo``.
        low = s & -s
        best = g.n + 1
        pick = 0
        for q in by_low.get(low, ()):
            if q & ~s:
                continue
            sub = memo.get(s ^ q)
            if sub is None:
                sub = solve(s ^ q)
            if sub + 1 < best:
                best = sub + 1
                pick = q
        memo[s] = best
        choice[s] = pick
        return best

    value = solve(g.full_mask)
    witness = []
    s = g.full_mask
    while s:
        q = choice[s]
        witness.append(q)
        s ^= q
    return value, witness


def bfs_distances(g, src: int, within=None) -> dict[int, int]:
    """Distance from ``src`` to each vertex it reaches through ``within`` (all vertices by default)."""
    adj = adj_sets(g)
    allowed = set(range(g.n)) if within is None else set(within)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v] & allowed:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def naive_diameter(g) -> int:
    best = 0
    for src in range(g.n):
        dist = bfs_distances(g, src)
        if len(dist) != g.n:
            raise ValueError("disconnected")
        best = max(best, max(dist.values()))
    return best


def brute_canonical_key(g) -> tuple:
    """Minimum upper-triangle column tuple over every vertex permutation."""
    n = g.n
    adj = g.adj
    best = None
    for perm in permutations(range(n)):
        key = []
        for j in range(1, n):
            col = 0
            for i in range(j):
                col = col << 1 | (adj[perm[i]] >> perm[j] & 1)
            key.append(col)
        key = tuple(key)
        if best is None or key < best:
            best = key
    return (n,) + (best if best is not None else ())


def refine_every_cell(adj, cells, against=None):
    """``families._refine`` as it was before it refined against the split
    cells only: each round signs every vertex with its neighbour count in
    every cell, first cell highest, until no cell splits.  ``against`` is
    ignored, so this can stand in for ``_refine``."""
    width = len(adj).bit_length()
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = 0
                for m in masks:
                    sig = sig << width | (adj[v] & m).bit_count()
                groups.setdefault(sig, []).append(v)
            out.extend(groups[sig] for sig in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def brute_automorphisms(g) -> set[tuple[int, ...]]:
    """Every vertex permutation ``p`` (``p[v]`` is ``v``'s image) that keeps
    the edge set, found by assigning images vertex by vertex and dropping a
    partial map as soon as it breaks an edge or a non-edge."""
    adj = adj_sets(g)
    found = set()

    def extend(images: list[int]) -> None:
        v = len(images)
        if v == g.n:
            found.add(tuple(images))
            return
        for w in range(g.n):
            if w in images or len(adj[w]) != len(adj[v]):
                continue
            if all((u in adj[v]) == (images[u] in adj[w]) for u in range(v)):
                extend(images + [w])

    extend([])
    return found


def brute_minor(g, pattern) -> bool:
    """Exhaustive branch-set assignment: every labeling of host vertices with
    pattern vertices or 'unused'."""
    adj = adj_sets(g)
    p = pattern.n
    if p == 0:
        return True
    pattern_edges = list(pattern.edges())
    from itertools import product

    for labeling in product(range(p + 1), repeat=g.n):
        branch = [set() for _ in range(p)]
        for host_v, lab in enumerate(labeling):
            if lab < p:
                branch[lab].add(host_v)
        if any(not b for b in branch):
            continue
        if any(not _connected_subset(adj, b) for b in branch):
            continue
        ok = True
        for a, b in pattern_edges:
            if not any(adj[x] & branch[b] for x in branch[a]):
                ok = False
                break
        if ok:
            return True
    return False


def random_graph(rng, n: int, p: float):
    from zfpd.graph import Graph

    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng, n: int, p: float):
    from zfpd.graph import Graph

    base = random_graph(rng, n, p)
    order = list(range(n))
    rng.shuffle(order)
    extra = list(base.edges())
    for a, b in zip(order, order[1:]):
        extra.append((a, b))
    return Graph(n, extra)


def closure_random_order(g, start: int, rng) -> int:
    """Closure applying forces in a random eligible order each step."""
    from zfpd.graph import bits

    black = start
    while True:
        eligible = []
        for v in bits(black):
            white = g.adj[v] & ~black
            if white and white & white - 1 == 0:
                eligible.append((v, white))
        if not eligible:
            return black
        _, w = rng.choice(eligible)
        black |= w


def rescanning_closure_with_log(g, black: int):
    """Closure and ``ForceLog`` by rescanning the black vertices in ascending
    order after each force, through the ``bits`` generator: the lowest able
    forcer acts."""
    from zfpd.graph import bits
    from zfpd.propagation import ForceLog

    initial = black
    forces = []
    successor = {}
    while True:
        for v in bits(black):
            white = g.adj[v] & ~black
            if white and white & white - 1 == 0:
                w = white.bit_length() - 1
                forces.append((v, w))
                successor[v] = w
                black |= white
                break
        else:
            break
    chains = []
    terminals = 0
    for s in bits(initial):
        chain = [s]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(tuple(chain))
        terminals |= 1 << chain[-1]
    return black, ForceLog(initial, tuple(forces), tuple(chains), terminals)
