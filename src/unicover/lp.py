"""Exact rational LP layer: global min cut, the subtour membership test and
the cutting-plane subtour solver.

The subtour LP is solved as its dual, max 2 * sum(y_S) with no edge loaded
beyond its weight, on Tableau.generate, the column generation loop that the
decomposition masters share: each cut is a column, and each separation
round adds one and pivots on from the current basis (the warm-started
cutting-plane loop of Dantzig, Fulkerson and Johnson, which is column
generation on the dual).  The two-phase simplex.solve_lp, which shares no
code with Tableau, is not used; the tests check this solver against it.

The exact Stoer-Wagner min cut, run over the capacities scaled to ints,
only separates and tests LP vectors: the small cuts of a graph or of a
support (cuts of at most 4 edges, bridges, 2-edge cuts) are read off
cycle-space labels in graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .graph import (Cut, EdgeVector, GraphError, Multigraph, cut_edges, is_connected,
                    scale_to_ints)
from .simplex import SparseColumn, Tableau

ZERO = Fraction(0)


class LpInputError(GraphError):
    pass


def min_cut(G: Multigraph, cap: EdgeVector) -> Tuple[Fraction, Tuple[int, ...]]:
    """Exact global minimum cut of the capacity vector (Stoer-Wagner).

    Capacities may be ints or Fractions.  The phases run over the capacities
    times the lcm of their denominators, in ints; scaling keeps every
    comparison, so the shore is the one the rationals give.  The value comes
    back as a Fraction.

    Each phase starts from the lowest active vertex and keeps the others in
    a list of ascending ids, so max() over it picks the most tightly
    connected vertex with the lowest id on a tie.  The cut of the phase is
    the last vertex's key when it is picked; the earliest lightest phase
    gives the shore, the vertices merged into that last vertex.  It avoids
    vertex 0: every phase starts from vertex 0, the lowest active one, and
    only a phase's last vertex leaves the active list, so 0 is never merged
    into another."""
    n = G.n
    if n < 2:
        raise LpInputError("min cut needs at least 2 vertices")
    scale, ints = scale_to_ints(cap.values())
    if any(c < 0 for c in ints):
        raise LpInputError("negative capacity")
    icap = dict(zip(cap, ints))
    w = [[0] * n for _ in range(n)]
    for e in G.edges:
        c = icap.get(e.id, 0)
        if c:
            w[e.u][e.v] += c
            w[e.v][e.u] += c
    groups: List[List[int]] = [[v] for v in range(n)]
    active = list(range(n))
    best_value: Optional[int] = None
    best_shore: Tuple[int, ...] = ()
    while len(active) > 1:
        # Minimum cut phase starting from the first active vertex.
        rest = active[1:]
        key = w[active[0]][:]
        s = t = active[0]
        while rest:
            s, t = t, max(rest, key=key.__getitem__)
            rest.remove(t)
            row = w[t]
            for v in rest:
                key[v] += row[v]
        if best_value is None or key[t] < best_value:
            best_value = key[t]
            best_shore = tuple(sorted(groups[t]))
        # Merge t into s.
        groups[s] = sorted(groups[s] + groups[t])
        for v in active:
            if v not in (s, t):
                w[s][v] += w[t][v]
                w[v][s] = w[s][v]
        active.remove(t)
    return Fraction(best_value, scale), best_shore


@dataclass(frozen=True)
class MembershipResult:
    inside: bool
    shore: Optional[Tuple[int, ...]] = None
    value: Optional[Fraction] = None
    detail: str = ""


def membership(G: Multigraph, x: EdgeVector) -> MembershipResult:
    """Exact membership / separation for the subtour polyhedron: x >= 0 and
    x(delta(S)) >= 2 for every proper nonempty S, by one global min cut."""
    ids = set(G.edge_ids())
    for eid, value in x.items():
        if eid not in ids:
            raise LpInputError(f"vector supported outside the graph (e{eid})")
        if value < 0:
            return MembershipResult(False, detail=f"negative entry on e{eid}")
    value, shore = min_cut(G, x)
    if value < 2:
        return MembershipResult(False, shore=shore, value=value,
                                detail=f"cut of value {value} < 2")
    return MembershipResult(True)


@dataclass(frozen=True)
class LpResult:
    value: Fraction
    x: EdgeVector
    cuts: Tuple[Cut, ...]          # constraint pool at termination
    separation_rounds: int
    duals: Tuple[Fraction, ...]    # an optimal y >= 0, one per cut; 2 * sum(y) = value


def initial_shores(n: int) -> List[Tuple[int, ...]]:
    """The first pool of solve_subtour: {v} for v = 1..n-1, and {1..n-1}."""
    return [(v,) for v in range(1, n)] + [tuple(range(1, n))]


def solve_subtour(G: Multigraph) -> LpResult:
    """Exact optimum of the subtour elimination LP by cutting planes, warm
    started: the dual LP

        max 2 * sum(y_S)  s.t.  sum_{S : e in delta(S)} y_S <= w_e,  y >= 0

    is solved by Tableau.generate, with a row per edge and a column per
    cut.  Its slack basis is feasible (w >= 0), so no phase 1 runs.  The
    duals of the edge rows are the primal x = -pi / s; a separation round
    cuts x (in ints, on the scale s) and adds a violated cut as a column,
    and the simplex goes on from the current basis.  The loop stops at the
    first x whose min cut is at least 2, so that last separation is the
    subtour test of x."""
    if G.n < 3:
        raise LpInputError("LP modules reject n < 3")
    if not is_connected(G):
        raise LpInputError("disconnected input")
    edges = sorted(G.edges, key=lambda e: e.id)
    index = {e.id: i for i, e in enumerate(edges)}
    tab = Tableau([e.weight for e in edges], [0] * len(edges))    # slacks
    pool: List[Cut] = []

    def cut(shore: Tuple[int, ...]) -> SparseColumn:
        crossing = cut_edges(G, shore)
        pool.append(Cut(shore, crossing))
        return [(i, 1) for i in sorted(index[eid] for eid in crossing)]

    def separate(pi: List[int], s: int) -> Optional[SparseColumn]:
        value, shore = min_cut(G, {eid: -pi[i] for eid, i in index.items()})
        return None if value >= 2 * s else cut(shore)

    for shore in initial_shores(G.n):
        tab.add_column(cut(shore), -2)      # min -2 * sum(y)
    tab.generate(separate, -2)
    pi, s = tab.int_duals()
    x = {eid: Fraction(-pi[i], s) for eid, i in index.items() if pi[i]}
    duals = tuple(tab.solution()[tab.rows:])
    return LpResult(value=2 * sum(duals, ZERO), x=x, cuts=tuple(pool),
                    separation_rounds=len(pool) - G.n, duals=duals)


def everywhere(G: Multigraph, r: Fraction) -> EdgeVector:
    r = Fraction(r)
    return {e.id: r for e in G.edges}
