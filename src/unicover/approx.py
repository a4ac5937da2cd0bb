"""Approximation algorithms with exact ratio certificates.

Every algorithm is an approx row of table.TABLE: a recipe on a profile, with
its ratio.  Node-weighted recipes (cubic, 3-edge-connected) build a cycle
cover C that crosses every 3- and 4-edge cut twice and add to it a minimum
spanning tree T of the contraction G/C: "doubled-mst" doubles T (a tour),
"mst+join" adds a minimum join of T's odd vertices (a 2-edge-connected
multigraph).  The beta recipes work on general weights through the repaired
connector family: "connector+cover" takes the lightest union of a connector
and one of its 1-covers, "connector+join" the lightest connector plus a
join of its odd vertices.  build_approx_result builds every result, here
and in verify: it checks weight <= ratio * lower bound with exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .graph import (EdgeMultiset, EdgeVector, GraphError, Multigraph, NodeWeights,
                    classify, kruskal, multiset_union, multiset_weight, odd_vertices,
                    require_profile)
from .cyclecover import contracted_cycle_cover
from .connectors import even_2cut_connectors
from .decompose import min_tjoin, one_cover_completions
from .lp import everywhere, initial_shores, solve_subtour
from .table import TABLE, lookup_row

# A dual solution of the subtour LP: (shore, y) pairs, one per cut
# x(delta(shore)) >= 2 with y > 0.
Dual = Tuple[Tuple[Tuple[int, ...], Fraction], ...]


class ApproxError(GraphError):
    pass


@dataclass(frozen=True)
class ApproxResult:
    algorithm: str
    solution: Tuple[Tuple[int, int], ...]   # sorted (edge id, multiplicity)
    weight: Fraction
    lower_bound: Fraction                    # the subtour LP optimum
    ratio: Fraction                          # claimed approximation factor
    object_class: str
    x: EdgeVector                            # an LP optimum: w.x = lower_bound
    dual: Dual                               # an optimal dual: 2 * sum(y) = lower_bound
    beta: Optional[Fraction] = None
    profile: Optional[str] = None

    def solution_multiset(self) -> EdgeMultiset:
        return dict(self.solution)


def build_approx_result(G: Multigraph, algorithm: str, solution: EdgeMultiset,
                        z: Fraction, x: EdgeVector, dual: Dual) -> ApproxResult:
    """The result of the solution against the bound z that x and dual
    certify: the row's fields, the weight, beta = w(E)/z on a beta row and
    the ratio at beta.  Raises unless the solution is of the row's object
    class and weighs at most ratio * z."""
    spec = TABLE[algorithm]
    if spec.profile is None and z <= 0:
        raise ApproxError(f"{algorithm}: beta = w(E)/z needs a lower bound z > 0, not {z}")
    beta = None if spec.profile else G.total_weight() / z
    ratio = spec.ratio_at(beta)
    weight = multiset_weight(G, solution)
    if weight > ratio * z:
        raise ApproxError(
            f"{algorithm}: weight {weight} exceeds the bound {ratio} * {z}")
    if spec.object_class not in classify(G, solution):
        raise ApproxError(f"{algorithm}: output is not a {spec.object_class}")
    return ApproxResult(
        algorithm=algorithm,
        solution=tuple(sorted((eid, m) for eid, m in solution.items() if m > 0)),
        weight=weight,
        lower_bound=z,
        ratio=ratio,
        object_class=spec.object_class,
        x=x,
        dual=dual,
        beta=beta,
        profile=spec.profile,
    )


def _parity_join(G: Multigraph, F: EdgeMultiset) -> Tuple[Fraction, EdgeMultiset]:
    """Minimum join of the odd-degree vertices of F."""
    return min_tjoin(G, {e.id: e.weight for e in G.edges}, odd_vertices(G, F))


def _node_weighted(Gw: Multigraph, f: NodeWeights, algorithm: str) -> ApproxResult:
    """The algorithm's result on Gw, a graph weighted by f."""
    spec = TABLE[algorithm]
    require_profile(Gw, spec.profile, ApproxError)
    z = 2 * f.total()
    cc, H = contracted_cycle_cover(Gw)
    # Cycle covers and perfect matchings have fixed weight on these inputs.
    C = cc.cover_multiset()
    if multiset_weight(Gw, C) != z:
        raise ApproxError("cycle cover weight is not twice the node weight sum")
    matching = {eid: 1 for eid in cc.matching}
    if multiset_weight(Gw, matching) != z / 2:
        raise ApproxError("perfect matching weight is not the node weight sum")
    tree = kruskal(H.n, sorted(H.edges, key=lambda e: (e.weight, e.id)))
    if len(tree) != H.n - 1:
        raise ApproxError("contraction is disconnected")
    T = {e.id: 1 for e in tree}
    if spec.recipe == "doubled-mst":
        augment = {eid: 2 for eid in T}
    else:   # a one-vertex contraction has an empty tree and nothing to join
        augment = multiset_union(T, _parity_join(H, T)[1]) if T else {}
    # The LP optimum in closed form: 2/3 on every edge meets each cut (of 3
    # or more edges) with 2, and y = f_v on the cut around each vertex v
    # (the shore {1..n-1} stands for {0}) is tight on every edge, as
    # w_uv = f_u + f_v; both weigh 2 f(V) = z.
    dual = tuple(zip(initial_shores(Gw.n), f.f[1:] + f.f[:1]))
    return build_approx_result(Gw, algorithm, multiset_union(C, augment), z,
                               everywhere(Gw, Fraction(2, 3)), dual)


def _beta(G: Multigraph, algorithm: str) -> ApproxResult:
    lp = solve_subtour(G)
    # The last separation of solve_subtour is the subtour test of lp.x.
    family = even_2cut_connectors(G, lp.x)
    z = lp.value
    if TABLE[algorithm].recipe == "connector+cover":
        # 1-covers are drawn from everywhere-1/2 outside the connector; the
        # first lightest union found wins.
        candidates = [obj for t in family.terms
                      for _, obj in one_cover_completions(G, t.multiset(), Fraction(1, 2))]
        if not candidates:
            raise ApproxError("the connector family has no 1-cover completion")
        sol = min(candidates, key=lambda obj: multiset_weight(G, obj))
    else:
        best = min(family.terms, key=lambda t: (multiset_weight(G, t.multiset()), t.edges))
        F = best.multiset()
        if multiset_weight(G, F) > z:
            raise ApproxError("every connector in the family outweighs the bound")
        jw, join = _parity_join(G, F)
        if 3 * jw > G.total_weight():
            raise ApproxError("parity join weighs more than a third of the graph")
        sol = multiset_union(F, join)
    dual = tuple((c.shore, y) for c, y in zip(lp.cuts, lp.duals) if y)
    return build_approx_result(G, algorithm, sol, z, lp.x, dual)


def approximate(algorithm: str, G: Multigraph, f: Optional[NodeWeights]
                ) -> Tuple[Multigraph, ApproxResult]:
    """Run an approx row of the table on G weighted by f, and return that
    graph with the result.  A node-weighted algorithm needs f; a beta
    algorithm runs on G's own edge weights when f is None."""
    beta = lookup_row(algorithm, "approx", ApproxError).profile is None
    if f is None and not beta:
        raise ApproxError(f"{algorithm} needs node-weights")
    Gw = G if f is None else f.induced_graph(G)
    return Gw, _beta(Gw, algorithm) if beta else _node_weighted(Gw, f, algorithm)


def tsp_7_5_node_weighted(G: Multigraph, f: NodeWeights) -> ApproxResult:
    """Tour of weight at most (7/5) of the cut lower bound."""
    return _node_weighted(f.induced_graph(G), f, "tsp75")


def twoec_13_10_node_weighted(G: Multigraph, f: NodeWeights) -> ApproxResult:
    """2-edge-connected multigraph of weight at most (13/10) of the bound."""
    return _node_weighted(f.induced_graph(G), f, "twoec1310")


def twoec_beta(G: Multigraph) -> ApproxResult:
    """2-edge-connected multigraph of weight at most (1+2*beta)/3 times the
    cut lower bound, where beta = w(E) / lower bound."""
    return _beta(G, "twoecbeta")


def tsp_beta(G: Multigraph) -> ApproxResult:
    """Tour of weight at most (1+beta/3) times the cut lower bound."""
    return _beta(G, "tspbeta")
