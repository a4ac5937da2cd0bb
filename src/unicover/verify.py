"""Independent re-verification of serialized artifacts.

Verification never calls the construction pipelines or the simplex: it
checks every claim from the raw JSON fields (graph, terms, coefficients,
bounds) with exact arithmetic, so a certificate produced elsewhere is
accepted or rejected on its own merits.  A certificate, an approx result
and a cycle cover are then rebuilt from their claim by their producer's
builder, and table.check_fields names the first stored field that differs;
an lp-result and a decomposition derive no field, so their checks stand
alone.  A stored subtour LP optimum is certified by weak duality: a
primal x in the subtour polytope (one min cut) and a dual y >= 0 on cuts
that no edge overloads, with w.x = 2 * sum(y) = the stored value.  The
node-weighted approx rows also need edge weights induced by node weights
f >= 0, w(uv) = f(u) + f(v).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import serialize
from .graph import (EdgeVector, GraphError, Multigraph, cut_edges, node_weights_of,
                    odd_two_cut, require_profile, scale_to_ints, two_cut_groups)
from .approx import ApproxResult, build_approx_result
from .cyclecover import CycleCoverResult, build_cycle_cover, small_cuts
from .covers import Certificate, check_certificate
from .decompose import ConvexCombination, verify_combination
from .lp import LpResult, initial_shores, membership
from .serialize import ParseError
from .table import check_fields, lookup_row


@dataclass(frozen=True)
class VerifyReport:
    kind: str
    ok: bool
    detail: str = ""


class VerifyError(GraphError):
    pass


def verify_document(doc: dict) -> VerifyReport:
    """Parse a document (a malformed one, a missing or unknown type
    included, raises ParseError) and re-check it; a failed check is a
    report with ok False, naming what failed."""
    # Looked up at each call, so a rebound serialize parser is the one used.
    checks = {
        "uniform-cover-certificate": (serialize.certificate_from_json, _check_certificate),
        "approx-result": (serialize.approx_from_json, _check_approx),
        "decomposition": (serialize.decomposition_from_json, _check_decomposition),
        "lp-result": (serialize.lp_result_from_json, _check_lp_result),
        "cycle-cover": (serialize.cycle_cover_from_json, _check_cycle_cover),
    }
    if "type" not in doc:
        raise ParseError("bad document: type is missing")
    kind = doc["type"]
    if type(kind) is not str or kind not in checks:
        raise ParseError(f"bad document: type {kind!r} is not one of {list(checks)}")
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
        groups = two_cut_groups(G, comb.target_vector())
        for t in comb.terms:
            odd = odd_two_cut(t.multiset(), groups)
            if odd:
                raise VerifyError(f"term {t.edges} crosses the 2-edge cut "
                                  f"{{e{odd[0]},e{odd[1]}}} an odd number of times")
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
    # Every sum runs in ints over the lcm Q of all denominators, as
    # coverage() does; a Fraction is built only for a report.
    m, k = G.m, len(x)
    Q, ints = scale_to_ints([value, *(e.weight for e in G.edges), *x.values(),
                             *(y for _, y in dual)])
    weight = dict(zip((e.id for e in G.edges), ints[1:m + 1]))
    total = sum(weight[eid] * v for eid, v in zip(x, ints[m + 1:m + 1 + k]))
    if total != ints[0] * Q:
        raise VerifyError(f"x weighs {Fraction(total, Q * Q)}, "
                          f"not the stored {value_field} {value}")
    load: Dict[int, int] = {}
    ysum = 0
    for i, ((shore, y), iy) in enumerate(zip(dual, ints[m + 1 + k:])):
        _check_shore(shore, G.n, f"{dual_field}[{i}] shore")
        if y < 0:
            raise VerifyError(f"{dual_field}[{i}] has y = {y} < 0")
        ysum += iy
        for eid in cut_edges(G, shore):
            load[eid] = load.get(eid, 0) + iy
    for e in G.edges:
        if load.get(e.id, 0) > weight[e.id]:
            raise VerifyError(f"the y of {dual_field} load e{e.id} with "
                              f"{Fraction(load[e.id], Q)}, more than its weight {e.weight}")
    bound = 2 * ysum
    if bound != ints[0]:
        raise VerifyError(f"2 * sum(y) over {dual_field} is {Fraction(bound, Q)}, "
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
    if row.profile is not None:
        # The rows with a profile are the node-weighted ones.
        require_profile(G, row.profile, VerifyError)
        node_weights_of(G, VerifyError)
    sol = res.solution_multiset()
    if any(m <= 0 for m in sol.values()):
        raise VerifyError("nonpositive multiplicity in the solution")
    _check_subtour_optimum(G, res.lower_bound, res.x, res.dual)
    check_fields(res, build_approx_result(G, res.algorithm, sol, res.lower_bound, res.x,
                                          res.dual), VerifyError)
    return f"{res.algorithm} weight {res.weight}"


def _check_cycle_cover(G: Multigraph, cc: CycleCoverResult) -> str:
    cover = set(cc.cover)
    if list(cc.cover) != sorted(cover) or not cover <= set(G.edge_ids()):
        raise VerifyError("stored cover is not a sorted set of edge ids")
    cuts = small_cuts(G)
    for c in cuts:
        if len(c & cover) < 2:
            raise VerifyError(f"cut of size {len(c)} not doubly covered")
    # A stored cycle may start anywhere and run either way.
    built = build_cycle_cover(G, cover, cuts)
    check_fields(replace(cc, cycles=tuple(map(_cycle_form, cc.cycles))),
                 replace(built, cycles=tuple(map(_cycle_form, built.cycles))), VerifyError)
    return f"{len(cc.cycles)} cycles"


def _cycle_form(cycle: Tuple[int, ...]) -> Tuple[int, ...]:
    """The least of the cycle's rotations, walked either way."""
    return min((c[i:] + c[:i] for c in (cycle, cycle[::-1]) for i in range(len(c))),
               default=())
