"""Named graph families, graph6 round-tripping and small-graph enumeration.

The enumeration side produces exactly one representative per isomorphism
class of connected graphs (or trees), growing each order from the one
below by canonical augmentation: one candidate per orbit of the parent's
automorphism group, kept only if its new vertex is the class's canonical
deletion, so no key of another class is ever looked up.  Candidates that
a cheap invariant already rejects are never built, and a child is searched
only where that invariant ties its new vertex with another deletable one:
then a complete isomorphism key, found by colour refinement and
individualization, decides the canonical deletion in the same search that
yields the automorphism group's generators.  A parent's generators are
searched for where its candidates are made, so nothing but the classes
passes from one order to the next.  ``build_classes`` keeps each class in
the labels its candidate had, as a ``BuiltClass``, sorted by adjacency, and
is the one cache of built orders; a process pool can share out the parents.

The canonical labelling is the lexicographically smallest upper-triangle
adjacency bitstring over all vertex orderings.  Its minimum is found one
column at a time, merging partial orderings whose remaining vertices and bit
patterns toward the placed ones are equal; orderings that differ only by an
automorphism are not merged, so on trees the states multiply and the
labelling is slow.  The enumeration never pays for it: only
``enumerate_connected`` and ``enumerate_trees``, which yield canonical
representatives in key order, label a whole order, once per process, and
the verifiers label only the graphs their reports print.

``canonical_key``, ``canonical_graph`` and ``are_isomorphic`` run the same
labelling, whose cost grows with a graph's automorphisms as well as its
order (the complete binary tree of order 15 takes seconds, of order 31 it
does not finish).  They refuse a graph of order above ``MAX_TREE_ORDER``
(12), the largest order the tree enumeration builds, with ``ValueError``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .graph import Graph, bits, check_order

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
    "canonical_graph",
    "are_isomorphic",
    "enumerate_connected",
    "enumerate_trees",
    "build_classes",
    "BuiltClass",
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


# name -> (constructor, the one option it takes: "n", "parts", "legs" or None)
_FAMILIES: dict[str, tuple[Callable[..., Graph], str | None]] = {
    "path": (path, "n"),
    "cycle": (cycle, "n"),
    "complete": (complete, "n"),
    "multipartite": (complete_multipartite, "parts"),
    "star": (star, "n"),
    "wheel": (wheel, "n"),
    "spider": (spider, "legs"),
    "hgraph": (h_graph, None),
    "wagner": (wagner_graph, None),
}
FAMILY_NAMES = tuple(_FAMILIES)

# option -> (the noun a refusal names it by, the order its value asks for)
_OPTIONS: dict[str, tuple[str, Callable[..., int]]] = {
    "n": ("order", lambda n: n),
    "parts": ("part sizes", sum),
    "legs": ("leg lengths", lambda legs: 1 + sum(legs)),
}


def generate(
    family: str,
    n: int | None = None,
    *,
    parts: Sequence[int] | None = None,
    legs: Sequence[int] | None = None,
) -> Graph:
    """Build a named family member; the single dispatch point used by the CLI.

    A family takes at most one of ``n``, ``parts`` and ``legs``.  Leaving out
    the one it takes, or giving one it does not take, is refused, and so is
    an order above ``graph.MAX_ORDER``.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {', '.join(FAMILY_NAMES)})")
    build, takes = _FAMILIES[family]
    given = {"n": n, "parts": parts, "legs": legs}
    for option, value in given.items():
        if value is not None and option != takes:
            raise ValueError(f"family {family!r} takes no {_OPTIONS[option][0]}")
    if takes is None:
        return build()
    noun, order_of = _OPTIONS[takes]
    if given[takes] is None:
        raise ValueError(f"family {family!r} needs {'an ' if takes == 'n' else ''}{noun}")
    check_order(order_of(given[takes]), f"family {family!r}")
    return build(given[takes])


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
    # One "0"/"1" flag per payload bit; a big int would be copied per shift.
    flags = "".join(f"{ord(ch) - 63:06b}" for ch in s[at:])
    if "1" in flags[pairs:]:
        raise ValueError("nonzero padding bits")
    rows = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if flags[idx] == "1":
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            idx += 1
    # symmetric and loop-free by construction: no re-validation
    return Graph._of(rows)


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
    largest label seen, and a label that would take it above
    ``graph.MAX_ORDER`` is refused with its line.  Returns ``None`` for input
    with no edges.
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
        check_order(max(u, v) + 1, f"line {lineno}: vertex label {max(u, v)}")
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
# Minimizing column by column is exact for a lexicographic objective.  A
# search state holds the vertices not yet placed and each one's bit pattern
# toward the placed prefix; two partial orderings with equal states have the
# same completions, so they are merged.  Orderings that an automorphism maps
# onto each other mostly leave different vertices unplaced and stay apart, so
# on trees and other graphs with many automorphisms the states multiply.
# The key is the canonical form's whole upper triangle, so ``_from_key``
# rebuilds the graph from it: it fixes the labels (hence the graph6 string)
# and the order of what ``enumerate_connected`` and ``enumerate_trees`` yield,
# and the labels a report prints a built-in graph in.  Finding the minimum is
# costly, so enumeration, deduplication and memo lookups use ``_iso_key``
# below instead.


def _canon(adj: tuple[int, ...]) -> tuple[int, ...]:
    n = len(adj)
    # state: (remaining vertices, their bit patterns toward the placed prefix
    # in matching order), one dict entry each
    states = {(tuple(range(n)), (0,) * n): None}
    best = 0  # every remaining pattern is empty before the first placement
    key = []
    for _ in range(n - 1):
        nxt = {}
        for rem, pats in states:
            for i, col in enumerate(pats):
                if col != best:
                    continue
                row = adj[rem[i]]
                npats = []
                for j, x in enumerate(rem):
                    if j != i:
                        npats.append(pats[j] << 1 | (row >> x & 1))
                nxt[rem[:i] + rem[i + 1 :], tuple(npats)] = None
        states = nxt
        best = min(min(pats) for _, pats in states)
        key.append(best)
    return tuple(key)


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


def _canon_capped(g: Graph) -> tuple[int, ...]:
    if g.n > MAX_TREE_ORDER:
        raise ValueError(f"canonical labelling is capped at order {MAX_TREE_ORDER}, got order {g.n}")
    return _canon(g.adj)


def canonical_key(g: Graph) -> tuple[int, ...]:
    """Isomorphism-invariant key: two graphs share it iff they are isomorphic."""
    return (g.n,) + _canon_capped(g)


def canonical_graph(g: Graph) -> Graph:
    """Relabel ``g`` into its canonical form."""
    return _from_key(_canon_capped(g), g.n)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_key(g) == canonical_key(h)


# ---------------------------------------------------------------------------
# complete isomorphism key and automorphisms by individualization and refinement
#
# In the style of McKay and Piperno, "Practical graph isomorphism, II"
# (arXiv:1301.1493).  Vertices start in cells by degree; ``_refine`` splits
# cells until the partition is equitable, ordering the new cells by their
# neighbour counts, so the ordered partition depends only on the graph; each
# round counts neighbours only in the cells that the round before split.  A
# partition with a non-singleton cell branches on each vertex of the first
# smallest such cell; a twin of a vertex already tried gives the same leaves
# (swapping the two is an automorphism fixing the partition) and is skipped.
# Every discrete leaf orders the vertices, and the key is the smallest
# relabelled adjacency tuple over all leaves, and that leaf's vertex order
# comes with it.  Two graphs share the key iff they are isomorphic; unlike
# ``canonical_key`` its order means nothing.
#
# The same search generates the automorphism group: each skipped twin swap
# is a generator, and so is the map from the first leaf to any later leaf
# with the same relabelled tuple.  An automorphism carries the first leaf to
# a leaf of the unpruned tree, the twin swaps carry that leaf into the part
# searched, and there it is one of the later leaves, so nothing is missed.


def _refine(adj: tuple[int, ...], cells: list[list[int]], against: list[list[int]]) -> list[list[int]]:
    # ``against`` holds the cells that the last split made, less the last
    # piece of each split: vertices of one cell agree on their count into any
    # other cell, and into a last piece, whose count is the old cell's less
    # the other pieces'.  A vertex's signature packs its neighbour count in
    # each of them, first highest, into one int: counts stay below 1 << width.
    width = len(adj).bit_length()
    while against:
        masks = []
        for cell in against:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        out = []
        against = []
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
            pieces = [groups[sig] for sig in sorted(groups)]
            out.extend(pieces)
            against.extend(pieces[:-1])
        cells = out
    return cells


def _search(adj: tuple[int, ...], cells: list[list[int]], first: list, gens: set) -> tuple[tuple[int, ...], list[int]]:
    """Smallest leaf tuple below ``cells`` and its leaf's order; ``first`` keeps the first leaf, ``gens`` gathers generators."""
    if len(cells) == len(adj):
        order = [cell[0] for cell in cells]
        key = _relabel(adj, order)
        if not first:
            first += (key, order)
        elif key == first[0]:
            perm = [0] * len(adj)
            for old, new in zip(first[1], order):
                perm[old] = new
            gens.add(tuple(perm))
        return key, order
    at = min((len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1)[1]
    best = None
    tried: list[int] = []
    for v in cells[at]:
        row = adj[v]
        twin = next((u for u in tried if adj[u] & ~(1 << v) == row & ~(1 << u)), None)
        if twin is not None:
            swap = list(range(len(adj)))
            swap[twin], swap[v] = v, twin
            gens.add(tuple(swap))
            continue
        tried.append(v)
        rest = [w for w in cells[at] if w != v]
        leaf = _search(adj, _refine(adj, cells[:at] + [[v], rest] + cells[at + 1 :], [[v]]), first, gens)
        if best is None or leaf[0] < best[0]:
            best = leaf
    return best


def _iso_search(adj: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[int]]:
    """``_iso_key`` of ``adj``, generators of its automorphism group (``perm[v]`` is ``v``'s image) and the leaf order that relabels ``adj`` into the key."""
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(adj):
        by_degree.setdefault(row.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    gens: set[tuple[int, ...]] = set()
    key, order = _search(adj, _refine(adj, cells, cells[:-1]), [], gens)
    return key, list(gens), order


def _iso_key(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Complete isomorphism invariant of the graph with adjacency rows ``adj``."""
    return _iso_search(adj)[0]


def _orbit_reps(masks: Iterable[int], gens: Sequence[tuple[int, ...]]) -> Iterator[int]:
    """Yield the first mask of each orbit of the group that ``gens`` generate.

    ``masks`` must be a union of orbits, such as every nonempty vertex set
    or every single vertex; the orbits are walked breadth-first.
    """
    if not gens:
        yield from masks
        return
    seen: set[int] = set()
    for m in masks:
        if m in seen:
            continue
        yield m
        seen.add(m)
        todo = [m]
        for x in todo:
            for perm in gens:
                y = 0
                for v in bits(x):
                    y |= 1 << perm[v]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)


# ---------------------------------------------------------------------------
# exhaustive enumeration
#
# Classes of order n are grown from the classes of order n - 1 by canonical
# augmentation (McKay, "Isomorph-free exhaustive generation", J. Algorithms
# 1998).  Every connected graph has a vertex whose deletion keeps it
# connected, so attaching a new last vertex to a nonempty subset of every
# (n-1)-class reaches every connected n-class; attaching a leaf to a vertex
# does the same for trees.  Each kind is one entry of ``_KINDS``: the
# generator of its candidates, the test of whether a connected graph is of
# the kind (``theorems.Universe`` files a graph under every kind that accepts
# it), and the highest order built in.  The rules below serve a kind as long
# as the canonical deletion of each of its classes leaves a class of the kind,
# as it does for trees.  Two subsets (or vertices) in one orbit of the
# parent's automorphism group give isomorphic children, so only the first of
# each orbit is tried.  Each class then names one canonical deletion: among
# the vertices whose deletion leaves it connected (for a tree, its leaves),
# those of least (degree, sum of neighbour degrees), and of these the one
# that comes first in the leaf order of its ``_iso_key``.  A child is kept
# only if its new vertex lies in that vertex's orbit, so each class is kept
# exactly once, from the parent and orbit that its canonical deletion gives.
# A parent's vertex that is deletable and off the new vertex's neighbours
# stays deletable in the child, so the candidates that such a vertex beats on
# the invariant are dropped before the orbits are walked; the rule depends
# only on the parent's class, so what is left is still a union of orbits.
# The invariant rejects most survivors, and a survivor whose new vertex it
# ranks strictly first is kept without a search; only a tie pays one
# ``_iso_search``, and each parent one more, for the generators that prune
# its candidates.  A kept child, in its candidate's labels, is the class's
# representative, and the classes are sorted by adjacency.  The shard step
# (``_expand``) takes a slice of the parents' adjacencies and returns kept
# children, so a process pool can share an order out and ships nothing else
# either way; the slices yield disjoint lists, and the serial build runs the
# step on one slice.


def enumerate_connected(n: int) -> Iterator[Graph]:
    """Yield one canonical representative per connected isomorphism class of order ``n``, in ``canonical_key`` order.

    Built-in enumeration covers ``1 <= n <= 8``; larger orders must come from
    external graph6 files.
    """
    yield from _labelled("connected", n)


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Yield one canonical representative per tree isomorphism class of order ``n``, in ``canonical_key`` order."""
    yield from _labelled("trees", n)


def _attach_vertex(adj: tuple[int, ...], gens: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    # A deletable vertex left out of ``nb`` with degree below ``|nb|`` stays
    # deletable in the child and beats the new vertex, so drop such masks:
    # ``below[d]`` holds the deletable vertices of degree below ``d``.
    new_bit = 1 << len(adj)
    below = [0] * (len(adj) + 2)
    for v, row in enumerate(adj):
        if _deletable(adj, v):
            for d in range(row.bit_count() + 1, len(below)):
                below[d] |= 1 << v
    masks = (nb for nb in range(1, new_bit) if not below[nb.bit_count()] & ~nb)
    for nb in _orbit_reps(masks, gens):
        yield tuple([row | new_bit if nb >> u & 1 else row for u, row in enumerate(adj)]) + (nb,)


def _attach_leaf(adj: tuple[int, ...], gens: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    # A leaf at ``a`` loses to any other leaf ``u`` whose neighbour ``w`` is
    # not ``a`` and has degree at most ``a``'s: ``u`` stays a leaf of the
    # child and beats the new leaf on its neighbour's degree.  Drop such ``a``.
    stems = [(u, row.bit_length() - 1) for u, row in enumerate(adj) if row.bit_count() == 1]
    ats = [1 << a for a, row in enumerate(adj) if not any(a != u and a != w and adj[w].bit_count() <= row.bit_count() for u, w in stems)]
    for at in _orbit_reps(ats, gens):
        rows = list(adj)
        rows[at.bit_length() - 1] |= 1 << len(adj)
        rows.append(at)
        yield tuple(rows)


# kind -> (candidate generator, whether a connected graph is of the kind, highest
# order built in); every kind holds the order-1 graph, and a new kind is one entry
_KINDS = {"connected": (_attach_vertex, lambda g: True, MAX_BUILTIN_ORDER), "trees": (_attach_leaf, lambda g: g.m == g.n - 1, MAX_TREE_ORDER)}


def _deletable(adj: tuple[int, ...], v: int) -> bool:
    """Whether deleting ``v`` leaves the connected graph ``adj`` connected."""
    if adj[v].bit_count() == 1:
        return True
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        for u in bits(frontier):
            reach |= adj[u]
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def _canonical_child(child: tuple[int, ...]) -> bool:
    """Whether ``child``'s last vertex is a canonical deletion; only a tie on the invariant pays for an ``_iso_search``."""
    new = len(child) - 1
    degree = [row.bit_count() for row in child]
    of_degree: dict[int, int] = {}
    for v, d in enumerate(degree):
        of_degree[d] = of_degree.get(d, 0) | 1 << v

    def inv(v: int) -> tuple[int, int]:
        return degree[v], sum(d * (child[v] & m).bit_count() for d, m in of_degree.items())

    least = inv(new)
    ties = {new}
    for v in range(new):
        if degree[v] <= least[0] and inv(v) <= least and _deletable(child, v):
            if inv(v) < least:
                return False
            ties.add(v)
    if len(ties) == 1:
        return True
    _, gens, order = _iso_search(child)
    first = next(v for v in order if v in ties)
    orbit = {first}
    todo = [first]
    for v in todo:
        for perm in gens:
            if perm[v] not in orbit:
                orbit.add(perm[v])
                todo.append(perm[v])
    return new in orbit


def _expand(parents: Sequence[tuple[int, ...]], kind: str) -> list[tuple[int, ...]]:
    """Shard step: each class whose canonical deletion is in ``parents``, in the labels its candidate has.

    ``parents`` holds bare adjacencies; each one's automorphism generators,
    which prune its candidates to one per orbit, are searched for here.
    """
    extend = _KINDS[kind][0]
    children = (child for adj in parents for child in extend(adj, _iso_search(adj)[1]))
    return [child for child in children if _canonical_child(child)]


def _from_key(key: tuple[int, ...], n: int) -> Graph:
    """The order-``n`` graph in canonical labels whose ``_canon`` key is ``key``.

    Entry ``j - 1`` of the key holds vertex ``j``'s edges to ``0..j-1``,
    vertex 0 in the highest of its ``j`` bits.
    """
    rows = [0] * n
    for j, col in enumerate(key, start=1):
        for i in range(j):
            if col >> (j - 1 - i) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._of(rows)


class BuiltClass(Graph):
    """A class of a built-in order, in the labels its enumeration found.

    It has nothing of its own: the type alone tells a built-in class from any
    other graph of the same adjacency, and pickling keeps it.
    """

    __slots__ = ()


def _slices(items: list, shards: int) -> list[list]:
    return [items[i::shards] for i in range(min(shards, len(items)))]


# (kind, order) -> classes in the labels their candidates had, sorted by
# adjacency; filled one order at a time, and the one place a built order is kept
_BUILT: dict[tuple[str, int], tuple[BuiltClass, ...]] = {(kind, 1): (BuiltClass(1),) for kind in _KINDS}
# (kind, order) -> the same classes in canonical labels, sorted by ``_canon`` key; filled by ``_labelled``
_LABELLED: dict[tuple[str, int], tuple[Graph, ...]] = {}


def build_classes(kind: str, n: int, pool: Executor | None = None, shards: int = 1) -> tuple[BuiltClass, ...]:
    """The ``kind`` classes of order ``n >= 1``, built once per process.

    Each class is a ``BuiltClass`` in the labels of the candidate that its
    canonical deletion gave, and the classes are sorted by adjacency.  This
    is the one cache of built orders.  Missing orders are built upward from
    the highest one cached, each order's shard step split ``shards`` ways
    and mapped over ``pool`` (an ``Executor``) or, without one, in this
    process.
    The result does not depend on ``pool`` or ``shards``.  A ``kind`` not
    in ``_KINDS``, or an order above its cap there, is refused with
    ``ValueError``.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r} (choose from {', '.join(_KINDS)})")
    top = _KINDS[kind][2]
    if not 1 <= n <= top:
        raise ValueError(f"built-in {kind} enumeration covers 1..{top}, not {n}")
    if (kind, n) not in _BUILT:
        parents = [g.adj for g in build_classes(kind, n - 1, pool, shards)]
        parts = (pool.map if pool else map)(partial(_expand, kind=kind), _slices(parents, shards))
        keys = sorted(key for part in parts for key in part)  # keys are distinct
        _BUILT[kind, n] = tuple(BuiltClass._of(key) for key in keys)
    return _BUILT[kind, n]


def _labelled(kind: str, n: int) -> tuple[Graph, ...]:
    """``build_classes(kind, n)`` relabelled canonically and sorted by ``_canon`` key, labelled once per process."""
    if (kind, n) not in _LABELLED:
        keys = sorted(_canon(g.adj) for g in build_classes(kind, n))
        _LABELLED[kind, n] = tuple(_from_key(key, n) for key in keys)
    return _LABELLED[kind, n]
