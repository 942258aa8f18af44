"""Named graph families, graph6 round-tripping and small-graph enumeration.

The enumeration side produces exactly one representative per isomorphism
class of connected graphs (or trees).  Candidates are deduplicated by a
complete isomorphism key computed by colour refinement and
individualization; the first candidate of each new class is then relabeled
by the canonical labeling, the lexicographically smallest upper-triangle
adjacency bitstring over all vertex orderings, which also sorts the classes.
That minimum is found by a search pruned level by level, so it stays fast
even on the symmetric graphs where trying all ``n!`` orderings would hurt,
but it is the costlier of the two and runs once per class, not per
candidate.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .graph import Graph, bits

__all__ = [
    "path",
    "cycle",
    "complete",
    "complete_multipartite",
    "star",
    "wheel",
    "spider",
    "h_graph",
    "wagner_graph",
    "generate",
    "FAMILY_NAMES",
    "parse_graph6",
    "write_graph6",
    "read_graph6_lines",
    "canonical_key",
    "canonical_permutation",
    "canonical_graph",
    "are_isomorphic",
    "enumerate_connected",
    "enumerate_trees",
    "MAX_BUILTIN_ORDER",
    "MAX_TREE_ORDER",
]

MAX_BUILTIN_ORDER = 8
MAX_TREE_ORDER = 12


# ---------------------------------------------------------------------------
# generators


def path(n: int) -> Graph:
    """Path on ``n >= 1`` vertices, labeled 0..n-1 along the path."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    """Complete graph on ``n >= 1`` vertices."""
    if n < 1:
        raise ValueError("a complete graph needs at least one vertex")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph whose parts occupy consecutive labels.

    ``parts`` must be a non-decreasing sequence of at least two positive
    sizes; part ``i`` gets the labels ``sum(parts[:i])..sum(parts[:i+1])-1``.
    """
    parts = tuple(parts)
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    if any(r < 1 for r in parts):
        raise ValueError("part sizes must be positive")
    if any(a > b for a, b in zip(parts, parts[1:])):
        raise ValueError("part sizes must be non-decreasing")
    n = sum(parts)
    edges = []
    offsets = []
    at = 0
    for r in parts:
        offsets.append((at, at + r))
        at += r
    for i, (a0, a1) in enumerate(offsets):
        for b0, b1 in offsets[i + 1 :]:
            edges.extend((u, v) for u in range(a0, a1) for v in range(b0, b1))
    return Graph(n, edges)


def star(n: int) -> Graph:
    """Star of order ``n``: vertex 0 joined to the other ``n - 1``."""
    if n < 1:
        raise ValueError("a star needs at least one vertex")
    return Graph(n, ((0, v) for v in range(1, n)))


def wheel(n: int) -> Graph:
    """Wheel of order ``n >= 4``: hub 0 joined to the cycle 1..n-1."""
    if n < 4:
        raise ValueError("a wheel needs at least four vertices")
    rim = n - 1
    edges = [(0, v) for v in range(1, n)]
    edges.extend((1 + i, 1 + (i + 1) % rim) for i in range(rim))
    return Graph(n, edges)


def spider(legs: Sequence[int]) -> Graph:
    """Spider with the given leg lengths, center labeled 0.

    At least three legs of length >= 1 are required so the center is the
    unique vertex of degree greater than two.  Leg ``i`` occupies the labels
    after the previous legs, walking outward from the center.
    """
    legs = tuple(legs)
    if len(legs) < 3:
        raise ValueError("a spider needs at least three legs")
    if any(l < 1 for l in legs):
        raise ValueError("leg lengths must be positive")
    edges = []
    at = 1
    for l in legs:
        prev = 0
        for _ in range(l):
            edges.append((prev, at))
            prev = at
            at += 1
    return Graph(at, edges)


def h_graph() -> Graph:
    """Order-6 tree made of two paths 0-1-2 and 3-4-5 joined by the edge 1-4."""
    return Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)])


def wagner_graph() -> Graph:
    """Moebius ladder on 8 vertices: the cycle 0..7 plus the chords i, i+4."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges.extend((i, i + 4) for i in range(4))
    return Graph(8, edges)


FAMILY_NAMES = (
    "path",
    "cycle",
    "complete",
    "multipartite",
    "star",
    "wheel",
    "spider",
    "hgraph",
    "wagner",
)


def generate(
    family: str,
    n: int | None = None,
    *,
    parts: Sequence[int] | None = None,
    legs: Sequence[int] | None = None,
) -> Graph:
    """Build a named family member; the single dispatch point used by the CLI."""
    if family == "path":
        return path(_need_n(family, n))
    if family == "cycle":
        return cycle(_need_n(family, n))
    if family == "complete":
        return complete(_need_n(family, n))
    if family == "star":
        return star(_need_n(family, n))
    if family == "wheel":
        return wheel(_need_n(family, n))
    if family == "multipartite":
        if parts is None:
            raise ValueError("multipartite needs part sizes")
        return complete_multipartite(parts)
    if family == "spider":
        if legs is None:
            raise ValueError("spider needs leg lengths")
        return spider(legs)
    if family == "hgraph":
        return h_graph()
    if family == "wagner":
        return wagner_graph()
    raise ValueError(f"unknown family {family!r} (choose from {', '.join(FAMILY_NAMES)})")


def _need_n(family: str, n: int | None) -> int:
    if n is None:
        raise ValueError(f"family {family!r} needs an order")
    return n


# ---------------------------------------------------------------------------
# graph6
#
# Standard encoding: a size header followed by the upper triangle of the
# adjacency matrix in column order, packed into big-endian 6-bit groups,
# each offset by 63 to land on printable ASCII.


def write_graph6(g: Graph) -> str:
    chunks = [_encode_order(g.n)]
    acc = 0
    nbits = 0
    for col in range(1, g.n):
        for row in range(col):
            acc = acc << 1 | (g.adj[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        chunks.append(chr(acc + 63))
    return "".join(chunks)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"byte {ord(ch)} is outside the printable graph6 range")
    n, at = _decode_order(s)
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(s) - at != need:
        got = len(s) - at
        kind = "truncated" if got < need else "oversized"
        raise ValueError(f"{kind} payload: expected {need} data bytes, found {got}")
    rows = [0] * n
    idx = 0
    for ch in s[at:]:
        group = ord(ch) - 63
        for k in range(5, -1, -1):
            bit = group >> k & 1
            if idx < pairs:
                if bit:
                    row, col = _pair_at(idx)
                    rows[row] |= 1 << col
                    rows[col] |= 1 << row
            elif bit:
                raise ValueError("nonzero padding bits")
            idx += 1
    return Graph.from_rows(rows)


def _pair_at(idx: int) -> tuple[int, int]:
    # Upper-triangle bit positions run (0,1), (0,2), (1,2), (0,3), ...
    col = 1
    while col * (col + 1) // 2 <= idx:
        col += 1
    return idx - col * (col - 1) // 2, col


def _encode_order(n: int) -> str:
    if n < 0:
        raise ValueError("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + _b6(n, 3)
    if n <= 68719476735:
        return "~~" + _b6(n, 6)
    raise ValueError("order too large for graph6")


def _b6(n: int, width: int) -> str:
    return "".join(chr((n >> 6 * k & 63) + 63) for k in range(width - 1, -1, -1))


def _decode_order(s: str) -> tuple[int, int]:
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if len(s) >= 2 and s[1] == "~":
        if len(s) < 8:
            raise ValueError("truncated size header")
        return _u6(s[2:8]), 8
    if len(s) < 4:
        raise ValueError("truncated size header")
    return _u6(s[1:4]), 4


def _u6(chars: str) -> int:
    n = 0
    for ch in chars:
        n = n << 6 | (ord(ch) - 63)
    return n


def read_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    """Parse graph6 lines, skipping blanks and ``#`` comments."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_graph6(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


def parse_edge_list(lines: Iterable[str]) -> Graph | None:
    """Parse the text edge-list format: one ``u v`` pair per line, 0-based.

    Blank lines and ``#`` comments are skipped; the order is one past the
    largest label seen.  Returns ``None`` for input with no edges.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex labels must be integers") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex labels must be nonnegative")
        if u == v:
            raise ValueError(f"line {lineno}: loops are not allowed")
        edges.append((u, v))
        top = max(top, u, v)
    if top < 0:
        return None
    return Graph(top + 1, edges)


# ---------------------------------------------------------------------------
# canonical labeling
#
# The canonical key of a graph is the minimum, over all vertex orderings, of
# the tuple of upper-triangle adjacency columns (column j holds the bits
# toward the j-th placed vertex, earliest placed vertex most significant).
# Minimizing column by column is exact for a lexicographic objective, and
# partial orderings with identical futures are merged, which collapses the
# orbits of highly symmetric graphs.  This key fixes every representative's
# labels (hence its graph6 string) and the order of every universe, but
# finding the minimum is the costly part of enumeration, so it runs once per
# isomorphism class; deduplication and memo lookups use ``_iso_key`` below.


def _canon(adj: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    n = len(adj)
    if n == 0:
        return (), ()
    # state: (remaining vertices, their bit patterns toward the placed prefix
    # in matching order, the placed prefix itself)
    states = [(tuple(range(n)), (0,) * n, ())]
    key = []
    for pos in range(n):
        best = min(min(pats) for _, pats, _ in states)
        if pos:
            key.append(best)
        nxt = []
        seen_sigs = set()
        for rem, pats, placed in states:
            for i, col in enumerate(pats):
                if col != best:
                    continue
                v = rem[i]
                row = adj[v]
                nrem = rem[:i] + rem[i + 1 :]
                npats = []
                for j, x in enumerate(rem):
                    if j != i:
                        npats.append(pats[j] << 1 | (row >> x & 1))
                sig = (nrem, tuple(npats))
                if sig in seen_sigs:
                    continue
                seen_sigs.add(sig)
                nxt.append((nrem, sig[1], placed + (v,)))
        states = nxt
    return tuple(key), states[0][2]


@lru_cache(maxsize=65536)
def _canon_cached(adj: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _canon(adj)


def _relabel(adj: tuple[int, ...], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows after moving vertex ``order[i]`` to label ``i``."""
    moved = [0] * len(adj)
    for new, old in enumerate(order):
        moved[old] = 1 << new
    rows = []
    for old in order:
        row = 0
        for w in bits(adj[old]):
            row |= moved[w]
        rows.append(row)
    return tuple(rows)


def canonical_key(g: Graph) -> tuple[int, ...]:
    """Isomorphism-invariant key: two graphs share it iff they are isomorphic."""
    return (g.n,) + _canon_cached(g.adj)[0]


def canonical_permutation(g: Graph) -> tuple[int, ...]:
    """An ordering realizing the canonical key; entry i is the old label at position i."""
    return _canon_cached(g.adj)[1]


def canonical_graph(g: Graph) -> Graph:
    """Relabel ``g`` into its canonical form."""
    return Graph.from_rows(_relabel(g.adj, canonical_permutation(g)))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_key(g) == canonical_key(h)


# ---------------------------------------------------------------------------
# complete isomorphism key by individualization and refinement
#
# In the style of McKay and Piperno, "Practical graph isomorphism, II"
# (arXiv:1301.1493).  Vertices start in cells by degree; ``_refine`` splits
# cells until the partition is equitable, ordering the new cells by their
# neighbour counts, so the ordered partition depends only on the graph.  A
# partition with a non-singleton cell branches on each vertex of the first
# smallest such cell; a twin of a vertex already tried gives the same leaves
# (swapping the two is an automorphism fixing the partition) and is skipped.
# Every discrete leaf orders the vertices, and the key is the smallest
# relabelled adjacency tuple over all leaves.  Two graphs share the key iff
# they are isomorphic; unlike ``canonical_key`` its order means nothing.


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    # A vertex's signature packs its neighbour count in each cell, first cell
    # highest, into one int: counts stay below 1 << width.
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
            groups: dict[int, list[int]] = {}
            for v in cell:
                row = adj[v]
                sig = 0
                for m in masks:
                    sig = sig << width | (row & m).bit_count()
                groups.setdefault(sig, []).append(v)
            out.extend(groups[sig] for sig in sorted(groups))
        if len(out) == len(cells):
            return out
        cells = out


def _search(adj: tuple[int, ...], cells: list[list[int]]) -> tuple[int, ...]:
    if len(cells) == len(adj):
        return _relabel(adj, [cell[0] for cell in cells])
    at = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)[1]
    best = None
    tried: list[int] = []
    for v in cells[at]:
        row = adj[v]
        if any(adj[u] & ~(1 << v) == row & ~(1 << u) for u in tried):
            continue
        tried.append(v)
        rest = [w for w in cells[at] if w != v]
        key = _search(adj, _refine(adj, cells[:at] + [[v], rest] + cells[at + 1 :]))
        if best is None or key < best:
            best = key
    return best


def _iso_key(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Complete isomorphism invariant of the graph with adjacency rows ``adj``."""
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        by_degree.setdefault(row.bit_count(), []).append(v)
    return _search(adj, _refine(adj, [by_degree[d] for d in sorted(by_degree)]))


# ---------------------------------------------------------------------------
# exhaustive enumeration
#
# Classes of order n are grown from the classes of order n - 1 by a candidate
# generator.  Every connected graph has a vertex whose removal keeps it
# connected, so attaching a new last vertex to each nonempty subset of every
# (n-1)-class reaches every connected n-class; attaching a leaf to each
# vertex does the same for trees.  Candidates are deduplicated by
# ``_iso_key``; only the first candidate of each class pays for ``_canon``,
# which gives the representative and the sort key.


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield one canonical representative per connected isomorphism class of order ``n``.

    Built-in enumeration covers ``1 <= n <= 8``; larger orders must come from
    external graph6 files.
    """
    if not 1 <= n <= MAX_BUILTIN_ORDER:
        raise ValueError(f"built-in enumeration covers 1..{MAX_BUILTIN_ORDER}, not {n}")
    yield from _classes(n, _attach_vertex)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Yield one canonical representative per tree isomorphism class of order ``n``."""
    if not 1 <= n <= MAX_TREE_ORDER:
        raise ValueError(f"tree enumeration covers 1..{MAX_TREE_ORDER}, not {n}")
    yield from _classes(n, _attach_leaf)


def _attach_vertex(g: Graph) -> Iterator[tuple[int, ...]]:
    new_bit = 1 << g.n
    for nb in range(1, new_bit):
        yield tuple([row | new_bit if nb >> u & 1 else row for u, row in enumerate(g.adj)]) + (nb,)


def _attach_leaf(t: Graph) -> Iterator[tuple[int, ...]]:
    for at in range(t.n):
        rows = list(t.adj)
        rows[at] |= 1 << t.n
        rows.append(1 << at)
        yield tuple(rows)


@lru_cache(maxsize=None)
def _classes(n: int, extend: Callable[[Graph], Iterator[tuple[int, ...]]]) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1),)
    reps: dict[tuple[int, ...], tuple[tuple[int, ...], Graph]] = {}
    for g in _classes(n - 1, extend):
        for adj in extend(g):
            key = _iso_key(adj)
            if key not in reps:
                legacy, order = _canon(adj)
                reps[key] = (legacy, Graph.from_rows(_relabel(adj, order)))
    return tuple(g for _, g in sorted(reps.values(), key=itemgetter(0)))
