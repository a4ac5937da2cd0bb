"""Independent re-verification of serialized artifacts.

Verification never calls the construction pipelines or the simplex: it
rebuilds every claim from the raw JSON fields (graph, terms, coefficients,
bounds) and checks them with exact arithmetic, so a certificate produced
elsewhere is accepted or rejected on its own merits.  A stored subtour LP
optimum is certified by weak duality: a primal x in the subtour polytope
(one min cut) and a dual y >= 0 on cuts that no edge overloads, with
w.x = 2 * sum(y) = the stored value.  The node-weighted approx rows also
need edge weights induced by node weights f >= 0, w(uv) = f(u) + f(v).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import serialize
from .graph import (EdgeVector, GraphError, Multigraph, classify, cut_edges,
                    enumerate_cuts_upto, multiset_degrees, multiset_weight,
                    node_weights_of, require_profile)
from .approx import ApproxResult
from .connectors import two_cut_pairs
from .cyclecover import CycleCoverResult
from .covers import Certificate, check_certificate
from .decompose import ConvexCombination, verify_combination
from .lp import LpResult, initial_shores, membership
from .table import check_row, lookup_row

ZERO = Fraction(0)


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    ok: bool
    detail: str = ""


class VerifyError(GraphError):
    pass


def verify_document(doc: dict) -> VerifyReport:
    """Parse a document (a malformed one raises ParseError) and re-check it;
    a failed check is a report with ok False, naming what failed."""
    # Looked up at each call, so a rebound serialize parser is the one used.
    checks = {
        "uniform-cover-certificate": (serialize.certificate_from_json, _check_certificate),
        "approx-result": (serialize.approx_from_json, _check_approx),
        "decomposition": (serialize.decomposition_from_json, _check_decomposition),
        "lp-result": (serialize.lp_result_from_json, _check_lp_result),
        "cycle-cover": (serialize.cycle_cover_from_json, _check_cycle_cover),
    }
    kind = doc.get("type")
    if not isinstance(kind, str) or kind not in checks:
        return VerifyReport(str(kind), False, f"unknown document type {kind!r}")
    parse, check = checks[kind]
    G, obj = parse(doc)
    try:
        return VerifyReport(kind, True, check(G, obj))
    except GraphError as exc:
        return VerifyReport(kind, False, str(exc))


def _check_certificate(G: Multigraph, cert: Certificate) -> str:
    check_certificate(G, cert)
    require_profile(G, cert.profile, VerifyError)
    return f"variant {cert.variant} on n={G.n}"


def _check_decomposition(G: Multigraph, doc: Tuple[str, ConvexCombination]) -> str:
    kind, comb = doc
    verify_combination(G, comb, "connector")
    if kind == "trees":
        for t in comb.terms:
            if len(t.edges) != G.n - 1 or any(m != 1 for _, m in t.edges):
                raise VerifyError(f"term {t.edges} is not a spanning tree")
    elif kind == "even2cut":
        pairs = two_cut_pairs(G, comb.target_vector())
        for t in comb.terms:
            f = t.multiset()
            for a, b in pairs:
                if (f.get(a, 0) + f.get(b, 0)) % 2:
                    raise VerifyError(
                        f"term {t.edges} crosses the 2-edge cut {{e{a},e{b}}} an odd number of times")
    return f"{kind}: {len(comb.terms)} terms, {comb.relation}"


def _check_shore(shore: Tuple[int, ...], n: int, field: str) -> None:
    if not shore or list(shore) != sorted(set(shore)) or not all(0 < v < n for v in shore):
        raise VerifyError(f"{field} {list(shore)} is not a sorted set of vertices in 1..{n - 1}")


def _check_subtour_optimum(G: Multigraph, value: Fraction, x: EdgeVector,
                           dual: Sequence[Tuple[Tuple[int, ...], Fraction]],
                           fields: Tuple[str, str] = ("lower_bound", "dual")) -> None:
    """value is the subtour LP optimum: x is feasible, the (shore, y) pairs
    are a feasible dual, and both weigh value.  fields names the stored
    value and dual in a report."""
    value_field, dual_field = fields
    check = membership(G, x)
    if not check.inside:
        raise VerifyError(f"x is not in the subtour polytope: {check.detail}")
    total = sum((e.weight * x.get(e.id, ZERO) for e in G.edges), ZERO)
    if total != value:
        raise VerifyError(f"x weighs {total}, not the stored {value_field} {value}")
    n = G.n
    load: Dict[int, Fraction] = {}
    for i, (shore, y) in enumerate(dual):
        _check_shore(shore, n, f"{dual_field}[{i}] shore")
        if y < 0:
            raise VerifyError(f"{dual_field}[{i}] has y = {y} < 0")
        for eid in cut_edges(G, shore):
            load[eid] = load.get(eid, ZERO) + y
    for e in G.edges:
        if load.get(e.id, ZERO) > e.weight:
            raise VerifyError(f"the y of {dual_field} load e{e.id} with {load[e.id]}, "
                              f"more than its weight {e.weight}")
    bound = 2 * sum((y for _, y in dual), ZERO)
    if bound != value:
        raise VerifyError(f"2 * sum(y) over {dual_field} is {bound}, "
                          f"not the stored {value_field} {value}")


def _check_lp_result(G: Multigraph, lp: LpResult) -> str:
    # The pool starts with n shores; each separation round adds one whose
    # cut is new.
    n = G.n
    if lp.separation_rounds != len(lp.cuts) - n:
        raise VerifyError(f"separation_rounds {lp.separation_rounds} is not "
                          f"len(cuts) - n = {len(lp.cuts) - n}")
    if [c.shore for c in lp.cuts[:n]] != initial_shores(n):
        raise VerifyError(f"the first {n} cuts are not the initial pool "
                          f"{{v}} (v = 1..{n - 1}) and {{1..{n - 1}}}")
    seen = set()
    for i, c in enumerate(lp.cuts):
        _check_shore(c.shore, n, f"cuts[{i}].shore")
        if c.edge_ids != cut_edges(G, c.shore):
            raise VerifyError(f"cuts[{i}].edges is not the set of edges leaving its shore")
        if c.edge_ids in seen:
            raise VerifyError(f"cuts[{i}] repeats the edge set of an earlier cut")
        seen.add(c.edge_ids)
    _check_subtour_optimum(G, lp.value, lp.x, [(c.shore, y) for c, y in zip(lp.cuts, lp.duals)],
                           ("value", "cuts"))
    return f"value {lp.value}"


def _check_approx(G: Multigraph, res: ApproxResult) -> str:
    row = lookup_row(res.algorithm, "approx", VerifyError)
    check_row(res.algorithm, row, res, VerifyError)
    if row.profile is not None:
        # The rows with a profile are the node-weighted ones.
        require_profile(G, row.profile, VerifyError)
        node_weights_of(G, VerifyError)
    sol = res.solution_multiset()
    if any(m <= 0 for m in sol.values()):
        raise VerifyError("nonpositive multiplicity in the solution")
    weight = multiset_weight(G, sol)
    if weight != res.weight:
        raise VerifyError(f"solution weighs {weight}, not the stored {res.weight}")
    if res.object_class not in classify(G, sol):
        raise VerifyError(f"solution is not a {res.object_class}")
    z = res.lower_bound
    _check_subtour_optimum(G, z, res.x, res.dual)
    if res.beta is not None and (z <= 0 or res.beta != G.total_weight() / z):
        raise VerifyError("stored beta does not match w(E)/z")
    if weight > res.ratio * z:
        raise VerifyError(f"weight {weight} exceeds {res.ratio} * {z}")
    return f"{res.algorithm} weight {res.weight}"


def _check_cycle_cover(G: Multigraph, cc: CycleCoverResult) -> str:
    cover = set(cc.cover)
    ids = set(G.edge_ids())
    if list(cc.cover) != sorted(cover):
        raise VerifyError("stored cover is not sorted without repeats")
    if not cover <= ids:
        raise VerifyError("cover uses unknown edge ids")
    deg = multiset_degrees(G, cc.cover_multiset())
    if any(d != 2 for d in deg):
        raise VerifyError("cover is not a union of cycles through every vertex")
    matching = sorted(ids - cover)
    if matching != list(cc.matching):
        raise VerifyError("stored matching is not the cover's complement")
    # Each cyclically consecutive pair of a stored cycle uses up one cover
    # edge joining them; n pairs over n cover edges use up every one.
    if not all(cc.cycles) or \
            sorted(v for cycle in cc.cycles for v in cycle) != list(range(G.n)):
        raise VerifyError("stored cycles do not partition the vertices")
    unused = Counter(frozenset((e.u, e.v)) for e in G.edges if e.id in cover)
    for cycle in cc.cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not unused[frozenset((a, b))]:
                raise VerifyError(f"stored cycles step from {a} to {b} along no cover edge")
            unused[frozenset((a, b))] -= 1
    on_cycle = {v: i for i, cycle in enumerate(cc.cycles) for v in cycle}
    intra, cross = [], []
    for e in sorted(G.edges, key=lambda e: e.id):
        if e.id not in cover:
            (intra if on_cycle[e.u] == on_cycle[e.v] else cross).append(e.id)
    if intra != list(cc.intra_cycle):
        raise VerifyError(f"stored intra_cycle is not {intra}, the matching edges within one cycle")
    if cross != list(cc.cross_cycle):
        raise VerifyError(f"stored cross_cycle is not {cross}, the matching edges between cycles")
    covered = []
    for c in enumerate_cuts_upto(G, 4):
        if len(c) < 3:
            continue
        crossing = len(c & cover)
        if crossing < 2:
            raise VerifyError(f"cut of size {len(c)} not doubly covered")
        covered.append((c, crossing))
    if tuple(covered) != cc.covered_cuts:
        raise VerifyError("stored covered_cuts is not (cut, |cover ∩ cut|) "
                          "for each 3- and 4-edge cut in enumeration order")
    return f"{len(cc.cycles)} cycles"
