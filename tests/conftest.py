from fractions import Fraction

import pytest

from unicover.graph import Edge, Multigraph, cut_edges
from unicover.lp import _solve_over_cuts


def make_graph(n, pairs, weight=1):
    return Multigraph(n, tuple(
        Edge(u, v, Fraction(weight), i) for i, (u, v) in enumerate(pairs)))


def shores(n):
    """Every nonempty vertex set avoiding vertex 0, in bitmask order."""
    for mask in range(1, 1 << (n - 1)):
        yield tuple(v for v in range(1, n) if mask & (1 << (v - 1)))


def brute_force_min_cut(G, cap):
    """Reference oracle for min_cut: (value, shore) by exhaustive shore
    enumeration."""
    best, best_shore = None, ()
    for shore in shores(G.n):
        value = sum((cap.get(eid, Fraction(0)) for eid in cut_edges(G, shore)), Fraction(0))
        if best is None or value < best:
            best, best_shore = value, shore
    return best, best_shore


def brute_force_subtour(G):
    """Reference oracle for solve_subtour: the LP over every distinct cut,
    as (value, x, duals).  Exponential in n."""
    seen, family = set(), []
    for shore in shores(G.n):
        ids = cut_edges(G, shore)
        if ids not in seen:
            seen.add(ids)
            family.append(shore)
    return _solve_over_cuts(G, family)


def exhaustive_one_cover(crossing, candidate_ids, weights):
    """Reference oracle for decompose._one_cover_price: (value, edges) of a
    cheapest candidate set meeting every crossing set, found by summing the
    Fraction weights over every subset of the candidates that meet one, with
    ties going to the lowest bitmask."""
    relevant = sorted(eid for eid in candidate_ids if any(eid in c for c in crossing))
    best, best_sub = None, 0
    for sub in range(1 << len(relevant)):
        chosen = {relevant[i] for i in range(len(relevant)) if sub >> i & 1}
        if all(chosen & c for c in crossing):
            w = sum((Fraction(weights.get(eid, 0)) for eid in chosen), Fraction(0))
            if best is None or w < best:
                best, best_sub = w, sub
    return best, {relevant[i]: 1 for i in range(len(relevant)) if best_sub >> i & 1}


@pytest.fixture
def c4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def two_triangles():
    """Two triangles joined by a pair of bridges: has a genuine 2-edge cut."""
    return make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (2, 3), (5, 0)])
