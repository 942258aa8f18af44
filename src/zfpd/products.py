"""Binary graph constructions: Cartesian product, lexicographic product,
and vertex amalgamation.

Product vertices are laid out row-major: the pair ``(gv, hv)`` of factor
vertices lands at index ``gv * h.n + hv``, so fibre ``gv`` is the slot of
``h.n`` bits that starts at bit ``gv * h.n`` of each adjacency row.
A result above ``graph.MAX_ORDER`` is refused before its rows are built.
"""

from __future__ import annotations

from .graph import Graph, bits, check_order

__all__ = ["cartesian_product", "lexicographic_product", "amalgamate"]


def _check_operands(g: Graph, h: Graph) -> None:
    if g.n == 0 or h.n == 0:
        raise ValueError("product operands must be nonempty")
    check_order(g.n * h.n, f"a product of orders {g.n} and {h.n}")


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: move along one coordinate at a time."""
    _check_operands(g, h)
    rows = []
    for gv in range(g.n):
        across = sum(1 << gw * h.n for gw in bits(g.adj[gv]))  # vertex hv = 0 of each neighbouring fibre
        rows.extend(h.adj[hv] << gv * h.n | across << hv for hv in range(h.n))
    return Graph.from_rows(rows)


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """Composition: left-factor edges join whole fibres, right edges stay inside one."""
    _check_operands(g, h)
    rows = []
    for gv in range(g.n):
        across = sum(h.full_mask << gw * h.n for gw in bits(g.adj[gv]))  # each neighbouring fibre whole
        rows.extend(h.adj[hv] << gv * h.n | across for hv in range(h.n))
    return Graph.from_rows(rows)


def amalgamate(g: Graph, gv: int, h: Graph, hv: int) -> Graph:
    """Glue ``h`` onto ``g`` by identifying ``hv`` with ``gv``.

    The result keeps the labels of ``g``; the surviving vertices of ``h``
    follow in their original sorted order starting at ``g.n``.  The glued
    vertex carries both neighborhoods, so the induced copies of either
    operand come back intact.
    """
    if not 0 <= gv < g.n:
        raise IndexError(f"vertex {gv} out of range for the left operand")
    if not 0 <= hv < h.n:
        raise IndexError(f"vertex {hv} out of range for the right operand")
    check_order(g.n + h.n - 1, f"an amalgam of orders {g.n} and {h.n}")
    keep = [w for w in range(h.n) if w != hv]
    relabel = {w: g.n + i for i, w in enumerate(keep)}
    relabel[hv] = gv
    edges = list(g.edges())
    edges.extend((relabel[a], relabel[b]) for a, b in h.edges())
    return Graph(g.n + h.n - 1, edges)
