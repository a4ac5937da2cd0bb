from fractions import Fraction

import pytest

from unicover.graph import Edge, Multigraph, connected_components, cut_edges
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


def support_components(G, H, without=()):
    """Components of the support of H (the edges of G with H positive) less
    the edges `without`."""
    return connected_components(G.n, ((e.u, e.v) for e in G.edges
                                      if H.get(e.id, 0) > 0 and e.id not in without))


def support_bridges(G, H):
    """Reference oracle for the bridges of a spanning support: (shore, edge
    id) for each support edge, taken once whatever H holds on it, whose
    removal splits the support, in edge-id order, by removing it and
    recounting components.  The shore is the side avoiding vertex 0."""
    cuts = []
    for eid in sorted(e.id for e in G.edges if H.get(e.id, 0) > 0):
        comps = support_components(G, H, (eid,))
        if len(comps) == 2:
            cuts.append((tuple(next(c for c in comps if 0 not in c)), eid))
    return cuts


def one_edge_cuts_oracle(G, F):
    """Reference oracle for lp.one_edge_cuts on a spanning support: the
    support's bridges that F uses once."""
    return [(shore, eid) for shore, eid in support_bridges(G, F) if F[eid] == 1]


def two_edge_connected(G, H):
    """Reference oracle for classify's twoec-multigraph label: the support
    spans G and no edge used once is a bridge of it."""
    return len(support_components(G, H)) == 1 and not one_edge_cuts_oracle(G, H)


def two_cut_pairs_oracle(G, x):
    """Reference oracle for connectors.two_cut_pairs: the pairs of support
    edges, in the order of G's edges, whose removal splits the support."""
    support = [e.id for e in G.edges if x.get(e.id, 0) > 0]
    return [(a, b) for i, a in enumerate(support) for b in support[i + 1:]
            if len(support_components(G, x, (a, b))) > 1]


@pytest.fixture
def c4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def two_triangles():
    """Two triangles joined by a pair of bridges: has a genuine 2-edge cut."""
    return make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (2, 3), (5, 0)])
