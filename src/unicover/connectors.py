"""Connector repair: make every term of a connector decomposition cross each
2-edge cut an even number of times.

Pipeline, for x in the subtour polytope: equality decomposition into
connectors, multiplicity normalization (no term holds two copies of an edge
while another holds none), then a per cut-class repair with two cases
depending on whether the class has an edge of fractional value below 1.
The classes are graph.two_cut_groups, and graph.odd_two_cut checks the
repaired terms, as verify does.  The stages pass decompose.Terms on, and the
result is labelled once, at the end, where every term must be a connector.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Tuple

from .graph import EdgeVector, Multigraph, odd_two_cut, scale_to_ints, two_cut_groups
from .decompose import (ConvexCombination, DecompositionError, Terms, clip_at_two,
                        coverage_of, decompose_connectors, make_combination,
                        pack_spanning_trees, reduce_int_terms)

ZERO = Fraction(0)


@dataclass(frozen=True)
class TwoCutClass:
    edge_ids: FrozenSet[int]
    kind: str                      # "D1" (all values >= 1) or "D2"
    distinguished: Optional[int]   # the unique sub-1 edge of a D2 class


def two_cut_classes(G: Multigraph, x: EdgeVector) -> Tuple[TwoCutClass, ...]:
    """The groups of graph.two_cut_groups, the edges of x's support that
    lie in 2-edge cuts, tagged D1 or D2, ordered by least edge id.  x is
    taken to be in the subtour polytope, the precondition of
    even_2cut_connectors, the caller.
    """
    classes = []
    for members in two_cut_groups(G, x):
        sub_one = [eid for eid in members if x[eid] < 1]
        if len(sub_one) > 1:
            raise DecompositionError(
                "two edges of one cut class are below 1; x violates a cut constraint")
        classes.append(TwoCutClass(frozenset(members), "D2" if sub_one else "D1",
                                   sub_one[0] if sub_one else None))
    return tuple(classes)


def normalize_connectors(terms: Terms, x: EdgeVector, G: Multigraph) -> Terms:
    """Rebalance an equality decomposition so that for every edge e, no term
    uses two copies while another uses none.

    Consequences: every term uses e at least once when x_e >= 1, and no term
    uses two copies when x_e < 1.  Terms are split when the two coefficients
    differ; total coverage is unchanged edge by edge.  The coefficients are
    ints over one denominator Q throughout, as in caratheodory_reduce, whose
    int core re-reduces them; a Fraction is built only for each returned
    coefficient.
    """
    limit = G.m + 1
    Q, scaled = scale_to_ints(lam for lam, _ in terms)
    current = [(a, f) for a, (_, f) in zip(scaled, terms)]
    for eid in sorted(x):
        doubled = [(a, f) for a, f in current if f.get(eid, 0) == 2]
        absent = [(a, f) for a, f in current if f.get(eid, 0) == 0]
        keep = [(a, f) for a, f in current if f.get(eid, 0) == 1]
        while doubled and absent:
            ai, fi = doubled.pop()
            aj, fj = absent.pop()
            t = min(ai, aj)
            donor = dict(fi)
            donor[eid] = 1
            receiver = dict(fj)
            receiver[eid] = 1
            keep.append((t, donor))
            keep.append((t, receiver))
            if ai > t:
                doubled.append((ai - t, fi))
            if aj > t:
                absent.append((aj - t, fj))
        current = keep + doubled + absent
        # Re-reducing keeps a subset of the current objects, which preserves
        # the no-2-and-0 invariant on the edges already processed.
        if len(current) > limit:
            Q, kept = reduce_int_terms(Q, current, limit)
            current = [(a, dict(key)) for key, a in kept]
    Q, kept = reduce_int_terms(Q, current, limit)
    return [(Fraction(a, Q), dict(key)) for key, a in kept]


def even_2cut_connectors(G: Multigraph, x: EdgeVector) -> ConvexCombination:
    """Convex combination of connectors dominated by x, each crossing every
    2-edge cut an even number of times.  x must be in the subtour polytope;
    it is not tested here (solve_subtour's last separation tests its x)."""
    xbar = clip_at_two(x)
    base = decompose_connectors(G, x)
    classes = two_cut_classes(G, x)
    terms = normalize_connectors(base, xbar, G)
    if not classes:
        return make_combination(G, terms, xbar, "equals", "connector")
    groups = [sorted(cls.edge_ids) for cls in classes]
    for cls, members in zip(classes, groups):
        e = cls.distinguished
        for _, f in terms:
            if cls.kind == "D1" or f.get(e, 0) == 1:
                for eid in members:
                    f[eid] = 1
            elif f.get(e, 0) == 0:
                for eid in members:
                    f[eid] = 0 if eid == e else 2
            else:
                raise DecompositionError("normalization left two copies on a sub-1 edge")
    cover = coverage_of([(coeff, f.items()) for coeff, f in terms])
    class_edges = {eid for members in groups for eid in members}
    for eid, v in cover.items():
        if v > xbar.get(eid, ZERO):
            raise DecompositionError(f"repair broke domination on e{eid}")
        if eid not in class_edges and v != xbar.get(eid, ZERO):
            raise DecompositionError(f"repair changed coverage off the classes on e{eid}")
    odd = min((pair for _, f in terms if (pair := odd_two_cut(f, groups))), default=None)
    if odd:
        raise DecompositionError(f"odd crossing of the cut {{e{odd[0]},e{odd[1]}}}")
    return make_combination(G, terms, dict(x), "dominated-by", "connector")


def decomposition(G: Multigraph, x: EdgeVector, kind: str) -> ConvexCombination:
    """The stored combination of a `unicover decompose` kind: spanning trees
    dominated by x, connectors equal to x clipped at 2, or even_2cut_connectors.
    x must be in the subtour polytope; no kind tests it."""
    if kind == "trees":
        return make_combination(G, pack_spanning_trees(G, x), x, "dominated-by")
    if kind == "connectors":
        return make_combination(G, decompose_connectors(G, x), clip_at_two(x), "equals",
                                "connector")
    if kind == "even2cut":
        return even_2cut_connectors(G, x)
    raise DecompositionError(f"unknown decomposition kind {kind!r}")
