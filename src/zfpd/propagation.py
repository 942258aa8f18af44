"""The color-change engine: closures, force logs and the forcing predicates.

The rule is local: a black vertex with exactly one white neighbor turns that
neighbor black.  ``closure`` computes the unique fixed point; it does not
care about rule order, which is covered by property tests.  The logged
variant fixes a canonical schedule so certificates are reproducible: at each
step the lowest-index black vertex able to force performs its force.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, is_path

__all__ = [
    "ForceLog",
    "closure",
    "closure_with_log",
    "is_zero_forcing_set",
    "is_power_dominating_set",
]


def _check_subset(g: Graph, mask: int) -> None:
    if mask < 0 or mask & ~g.full_mask:
        raise ValueError("vertex set contains bits outside the graph")


def closure(g: Graph, black: int) -> int:
    """Fixed point of the color-change rule starting from ``black``.

    Any vertex of ``black`` may be able to force, so all of them are checked
    first; see ``_spread``.
    """
    _check_subset(g, black)
    return _spread(g.adj, black, black)


def _spread(adj: list[int], black: int, near: int) -> int:
    """Closure of ``black``, given that every black vertex able to force lies in ``near``.

    A black vertex gains that ability only when a neighbor turns black.  So
    each pass checks the black vertices of ``near``, then ``near`` becomes the
    closed neighborhood of the vertices that turned black in the pass, and
    the loop ends when a pass forces nothing.  A vertex that forces, or has
    no white neighbor, never forces again.  No bounds check: ``closure``
    makes it, and the zero forcing sweep in ``invariants`` builds its masks
    from the graph's own rows.
    """
    while near:
        rest = near & black
        near = 0
        while rest:
            low = rest & -rest
            rest ^= low
            white = adj[low.bit_length() - 1] & ~black
            if white and not white & white - 1:
                black |= white
                near |= white | adj[white.bit_length() - 1]
    return black


class ForceLog(NamedTuple):
    """Chronological list of forces plus the derived forcing chains.

    ``forces`` records ``(forcer, forced)`` pairs in the order applied.
    ``chains`` partitions the closure into vertex-disjoint sequences, each
    starting at an initial vertex and each inducing a path in the graph;
    initial vertices that never force stand alone.  ``terminals`` holds the
    last vertex of every chain.
    """

    initial: int
    forces: tuple[tuple[int, int], ...]
    chains: tuple[tuple[int, ...], ...]
    terminals: int

    def validate(self, g: Graph) -> None:
        """Re-check every invariant against ``g``; raises ``ValueError`` on failure."""
        _check_subset(g, self.initial)
        black = self.initial
        for u, w in self.forces:
            if not black >> u & 1:
                raise ValueError(f"forcer {u} was not black")
            if black >> w & 1:
                raise ValueError(f"{w} was forced while already black")
            if g.adj[u] & ~black != 1 << w:
                raise ValueError(f"{u} did not have {w} as its unique white neighbor")
            black |= 1 << w
        covered = 0
        for chain in self.chains:
            if not chain:
                raise ValueError("empty chain")
            if not self.initial >> chain[0] & 1:
                raise ValueError(f"chain {chain} does not start at an initial vertex")
            cmask = 0
            for v in chain:
                if cmask >> v & 1:
                    raise ValueError(f"vertex {v} repeats inside a chain")
                cmask |= 1 << v
            if cmask & covered:
                raise ValueError("chains overlap")
            covered |= cmask
            for a, b in zip(chain, chain[1:]):
                if not g.adj[a] >> b & 1:
                    raise ValueError(f"chain step {a}->{b} is not an edge")
                if (a, b) not in self.forces:
                    raise ValueError(f"chain step {a}->{b} was never forced")
            if not is_path(g.induced_subgraph(cmask)):
                raise ValueError(f"chain {chain} does not induce a path")
        if covered != black:
            raise ValueError("chains do not partition the closure")
        if self.terminals != sum(1 << chain[-1] for chain in self.chains):
            raise ValueError("terminals do not match chain endpoints")


def closure_with_log(g: Graph, black: int) -> tuple[int, ForceLog]:
    """Closure plus a canonical ``ForceLog``.

    Tie-break: among all currently able forcers, the lowest-index one acts
    (its white neighbor is unique, so the forced vertex needs no tie-break).
    """
    _check_subset(g, black)
    initial = black
    adj = g.adj
    forces: list[tuple[int, int]] = []
    successor: dict[int, int] = {}
    while True:
        for v in bits(black):
            white = adj[v] & ~black
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
    log = ForceLog(
        initial=initial,
        forces=tuple(forces),
        chains=tuple(chains),
        terminals=terminals,
    )
    return black, log


def is_zero_forcing_set(g: Graph, u: int) -> bool:
    """True iff the closure of ``u`` colors the whole graph."""
    return closure(g, u) == g.full_mask


def is_power_dominating_set(g: Graph, s: int) -> bool:
    """True iff the closure of the closed neighborhood of ``s`` colors everything."""
    _check_subset(g, s)
    return closure(g, g.closed_neighborhood(s)) == g.full_mask
