"""Independent reference implementations used only as test oracles.

Everything here recomputes from first principles with plain Python sets and
itertools.combinations, deliberately sharing no code path with the library
solvers: no bitmasks, no pruning, no Gosper enumeration.  The exceptions
are ``subset_dp_partition``, the subset DP the partition solvers used to run,
kept on bitmasks as the reference for their value and witness;
``refine_every_cell``, the colour refinement the isomorphism search used to
run, kept as the reference for its keys and generators;
``rescanning_closure_with_log``, the bit-generator loop ``closure_with_log``
used to run, kept as the reference for its canonical schedule; and
``grown_spider_masks``, the grow-and-dedup spider listing, kept as the
reference for the listing from each spider's centre.  ``peeled_outerplanar``
is the peel over a dict of dicts that ``is_outerplanar`` used to run, kept
as the reference for the peel on bitmasks.  ``augmented_children`` is
canonical augmentation as the build ran it before it filtered candidates
and searched only ties on the invariant, kept as the reference for both; it
calls the library's isomorphism search, deletion test and orbit walk.
"""

from __future__ import annotations

from itertools import combinations, permutations

from zfpd.families import _deletable, _iso_search, _orbit_reps


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


def grown_spider_masks(t) -> list[int]:
    """Masks of the vertex sets inducing a spider in the tree ``t``, as
    ``invariants._spider_masks`` listed them before it listed each spider
    once from its centre: each spider grows from every vertex, one neighbour
    ``w`` at a time, deduplicated through a set.  In a tree ``w`` sees
    exactly one vertex ``u`` of the set, so a second branch vertex can appear
    only when ``u`` has just reached degree 3."""
    from zfpd.graph import bits

    adj = t.adj
    found = {1 << v for v in range(t.n)}
    stack = [(1 << v, adj[v]) for v in range(t.n)]
    while stack:
        mask, reach = stack.pop()
        step = reach & ~mask
        while step:
            low = step & -step
            step ^= low
            m = mask | low
            if m in found:
                continue
            w = low.bit_length() - 1
            u = (adj[w] & mask).bit_length() - 1
            if (adj[u] & m).bit_count() == 3 and any(
                (adj[v] & m).bit_count() > 2 for v in bits(m ^ 1 << u)
            ):
                continue
            found.add(m)
            stack.append((m, reach | adj[w]))
    return sorted(found)


def peeled_outerplanar(g) -> bool:
    """Mitchell's peel as ``is_outerplanar`` used to run it: ``sides[a][b]``
    counts the sides of edge ``ab`` that peeled vertices fill (0-2)."""
    if g.n >= 2 and g.m > 2 * g.n - 3:
        return False
    sides = [dict.fromkeys(nbrs, 0) for nbrs in adj_sets(g)]
    left = set(range(g.n))
    while left:
        v = min((w for w in left if len(sides[w]) <= 2), default=None)
        if v is None:
            return False
        left.remove(v)
        for w in sides[v]:
            del sides[w][v]
        if len(sides[v]) == 2:
            (a, va), (b, vb) = sides[v].items()
            new = 2 if 2 in (va, vb) else 1
            old = sides[a].get(b)
            if old is not None and (old == 2 or new == 2):
                return False
            sides[a][b] = sides[b][a] = new if old is None else old + new
    return True


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


def sparse_connected_graph(rng, n: int, extra: bool = True):
    """A random spanning tree, randomly labelled, plus n/4..n/2 extra edges unless ``extra`` is false.

    With the extra edges these are like the graphs of the benchmark's
    ``compute`` input, where the zero forcing sweep mostly refutes.
    """
    from zfpd.graph import Graph

    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    target = n - 1 + (rng.randint(n // 4, n // 2) if extra else 0)
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[a], perm[b]) for a, b in edges])


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


def every_child(adj: tuple[int, ...], kind: str) -> list[tuple[int, ...]]:
    """Every child of the parent ``adj``: its new last vertex joined to every
    nonempty vertex set for "connected", to every single vertex for "trees"."""
    return [_child(adj, nb) for nb in _neighbour_sets(len(adj), kind)]


def augmented_children(adj: tuple[int, ...], kind: str) -> list[tuple[int, ...]]:
    """The children of the parent ``adj`` that the build kept before it
    filtered candidates and searched only ties: one child per orbit of the
    new vertex's neighbour sets, kept if an ``_iso_search`` puts its new
    vertex in the orbit of the canonical deletion."""
    reps = _orbit_reps(_neighbour_sets(len(adj), kind), _iso_search(adj)[1])
    return [child for child in (_child(adj, nb) for nb in reps) if _searched_canonical_child(child)]


def _neighbour_sets(n: int, kind: str):
    return range(1, 1 << n) if kind == "connected" else [1 << v for v in range(n)]


def _child(adj: tuple[int, ...], nb: int) -> tuple[int, ...]:
    new_bit = 1 << len(adj)
    return tuple(row | new_bit if nb >> u & 1 else row for u, row in enumerate(adj)) + (nb,)


def _searched_canonical_child(child: tuple[int, ...]) -> bool:
    """``families._canonical_child`` with an ``_iso_search`` of every child
    that no vertex beats on (degree, sum of neighbour degrees)."""
    new = len(child) - 1
    degree = [row.bit_count() for row in child]
    of_degree: dict[int, int] = {}
    for v, d in enumerate(degree):
        of_degree[d] = of_degree.get(d, 0) | 1 << v

    def inv(v: int) -> tuple[int, int]:
        return degree[v], sum(d * (child[v] & m).bit_count() for d, m in of_degree.items())

    least = inv(new)
    if any(degree[v] <= least[0] and inv(v) < least and _deletable(child, v) for v in range(new)):
        return False
    _, gens, order = _iso_search(child)
    first = next(v for v in order if degree[v] == least[0] and inv(v) == least and (v == new or _deletable(child, v)))
    orbit = {first}
    todo = [first]
    for v in todo:
        for perm in gens:
            if perm[v] not in orbit:
                orbit.add(perm[v])
                todo.append(perm[v])
    return new in orbit
