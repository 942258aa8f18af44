"""Benchmark inputs and output checks, written without zfpd's own code.

The graph6 codec, the graph generator and every witness check here are the
benchmark's own few lines, so a bug in zfpd's parser or solvers cannot make
its own output look right.
"""

from __future__ import annotations

import random
from collections import Counter

# Connected graphs up to isomorphism, orders 1..8 (OEIS A001349).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# ``compute`` inputs: orders cycle through COMPUTE_ORDERS so every seed gets
# the same mix of sizes; only edge placement and labels depend on the seed.
COMPUTE_ORDERS = (14, 15)
COMPUTE_SPARSE = 64
COMPUTE_TREES = 16


# ---------------------------------------------------------------------------
# graph6, as in McKay's format description: order byte, then the upper
# triangle column by column in 6-bit groups offset by 63.


def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    if n > 62:
        raise ValueError("benchmark graphs stay below order 63")
    bitstr = [1 if (i, j) in edges else 0 for j in range(1, n) for i in range(j)]
    bitstr += [0] * (-len(bitstr) % 6)
    groups = (int("".join(map(str, bitstr[k:k + 6])), 2) for k in range(0, len(bitstr), 6))
    return chr(n + 63) + "".join(chr(g + 63) for g in groups)


def decode_graph6(text: str) -> list[int]:
    """Adjacency bitmasks of a graph6 string of order below 63."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 order byte in {text!r}")
    bitstr = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bitstr) < len(pairs) or len(bitstr) - len(pairs) >= 6:
        raise ValueError(f"bad graph6 length in {text!r}")
    adj = [0] * n
    for bit, (i, j) in zip(bitstr, pairs):
        if bit == "1":
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


# ---------------------------------------------------------------------------
# seeded ``compute`` graphs


def _random_tree(rng: random.Random, n: int) -> set[tuple[int, int]]:
    label = list(range(n))
    rng.shuffle(label)
    edges = set()
    for i in range(1, n):
        a, b = label[i], label[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    return edges


def compute_graphs(seed: int) -> list[str]:
    """graph6 lines for ``compute``: sparse connected graphs, then trees.

    A sparse graph is a random spanning tree plus ``extra`` random edges,
    where ``extra`` steps through n/4..n/2 by slot, so every seed sees the
    same densities.
    """
    rng = random.Random(seed)
    out = []
    for i in range(COMPUTE_SPARSE + COMPUTE_TREES):
        n = COMPUTE_ORDERS[i % len(COMPUTE_ORDERS)]
        edges = _random_tree(rng, n)
        if i < COMPUTE_SPARSE:
            extra = n // 4 + (i // len(COMPUTE_ORDERS)) % (n // 2 - n // 4 + 1)
            while len(edges) < n - 1 + extra:
                a, b = sorted(rng.sample(range(n), 2))
                edges.add((a, b))
        out.append(encode_graph6(n, edges))
    return out


# ---------------------------------------------------------------------------
# the fixed ``check7`` and ``check8`` universes


def check_universe(lines: list[str], max_order: int) -> str | None:
    """Problem with a universe of orders 1..max_order, or None if it is the expected one."""
    graphs = [ln for ln in lines if ln and not ln.startswith("#")]
    dupes = [g for g, c in Counter(graphs).items() if c > 1]
    if dupes:
        return f"duplicate lines, first {dupes[0]}"
    by_order = Counter(ord(g[0]) - 63 for g in graphs)
    expected = {n: c for n, c in CONNECTED_COUNTS.items() if n <= max_order}
    if dict(by_order) != expected:
        return f"per-order counts {dict(sorted(by_order.items()))}, expected {expected}"
    for g in graphs:
        if not _connected(decode_graph6(g), -1):
            return f"disconnected graph {g}"
    return None


# ---------------------------------------------------------------------------
# witness checks for ``compute`` output


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _closed(adj: list[int], m: int) -> int:
    out = m
    for v in range(len(adj)):
        if m >> v & 1:
            out |= adj[v]
    return out


def _open(adj: list[int], m: int) -> int:
    out = 0
    for v in range(len(adj)):
        if m >> v & 1:
            out |= adj[v]
    return out


def _forces(adj: list[int], black: int) -> bool:
    full = (1 << len(adj)) - 1
    changed = True
    while changed and black != full:
        changed = False
        for v in range(len(adj)):
            white = adj[v] & ~black
            if black >> v & 1 and white and white & (white - 1) == 0:
                black |= white
                changed = True
    return black == full


def _connected(adj: list[int], mask: int) -> bool:
    mask &= (1 << len(adj)) - 1
    if not mask:
        return False
    seen = frontier = mask & -mask
    while frontier:
        frontier = _open(adj, frontier) & mask & ~seen
        seen |= frontier
    return seen == mask


def _partition(adj: list[int], parts: list[list[int]]) -> bool:
    flat = [v for p in parts for v in p]
    return sorted(flat) == list(range(len(adj))) and all(parts)


def _induced_path(adj: list[int], seq: list[int]) -> bool:
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if bool(adj[seq[a]] >> seq[b] & 1) != (b == a + 1):
                return False
    return True


def _spider_part(adj: list[int], part: list[int]) -> bool:
    m = _mask(part)
    heavy = sum(1 for v in part if bin(adj[v] & m).count("1") > 2)
    return _connected(adj, m) and heavy <= 1


def _is_tree(adj: list[int]) -> bool:
    return _connected(adj, -1) and sum(bin(r).count("1") for r in adj) == 2 * (len(adj) - 1)


def witness_problem(adj: list[int], param: str, value: int, witness: list) -> str | None:
    """Why ``witness`` does not certify ``value`` for ``param``, or None."""
    if len(witness) != value:
        return f"witness size {len(witness)} != value {value}"
    full = (1 << len(adj)) - 1
    if param in ("zf", "pd", "dom", "tdom"):
        if len(set(witness)) != len(witness) or not all(0 <= v < len(adj) for v in witness):
            return "witness is not a vertex set"
        m = _mask(witness)
        ok = {
            "zf": lambda: _forces(adj, m),
            "pd": lambda: _forces(adj, _closed(adj, m)),
            "dom": lambda: _closed(adj, m) == full,
            "tdom": lambda: _open(adj, m) == full,
        }[param]()
        return None if ok else "witness does not do what it claims"
    if not _partition(adj, witness):
        return "witness is not a partition of the vertices"
    part_ok = _induced_path if param == "pathcover" else _spider_part
    bad = [p for p in witness if not part_ok(adj, p)]
    return f"bad part {bad[0]}" if bad else None


COMPUTE_PARAMS = ("zf", "pd", "dom", "tdom", "pathcover", "spider")


def compute_problem(graph6_lines: list[str], payload: dict) -> str | None:
    """First problem in a ``compute`` JSON payload, or None if every witness holds."""
    entries = payload.get("graphs", [])
    if len(entries) != len(graph6_lines):
        return f"{len(entries)} results for {len(graph6_lines)} graphs"
    for line, entry in zip(graph6_lines, entries):
        if entry["graph6"] != line:
            return f"graph {entry['index']}: graph6 {entry['graph6']} != input {line}"
        adj = decode_graph6(line)
        expect_skip = {"spider"} if not _is_tree(adj) else set()
        if set(entry["skipped"]) != expect_skip or set(entry["params"]) != set(COMPUTE_PARAMS) - expect_skip:
            return f"graph {entry['index']}: unexpected parameter set"
        for param, res in entry["params"].items():
            why = witness_problem(adj, param, res["value"], res["witness"])
            if why:
                return f"graph {entry['index']} {param}: {why}"
    return None
