import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicover import cli, serialize, simplex
from unicover.approx import (approximate, tsp_7_5_node_weighted, tsp_beta,
                             twoec_13_10_node_weighted, twoec_beta)
from unicover.covers import uniform_cover
from unicover.cyclecover import find_covering_cycle_cover
from unicover.connectors import decomposition, even_2cut_connectors
from unicover.decompose import make_combination
from unicover.families import (heawood, k4, k33, petersen, random_node_weights,
                               random_subcubic_2ec)
from unicover.graph import GraphError, NodeWeights, cut_edges
from unicover.lp import everywhere, membership, solve_subtour
from unicover.serialize import ParseError
from unicover.verify import (VerifyError, _check_shore, _check_subtour_optimum,
                             verify_document)

from conftest import make_graph, reweighted, two_triangles_x

F = Fraction


def cert_doc(g=None, variant="18/19"):
    g = g if g is not None else petersen()
    return serialize.certificate_to_json(g, uniform_cover(g, variant))


def trees_doc(g):
    comb = decomposition(g, everywhere(g, F(2, 3)), "trees")
    return serialize.decomposition_to_json(g, comb, "trees")


def approx_doc():
    g = NodeWeights((F(1),) * 10).induced_graph(petersen())
    return serialize.approx_to_json(g, tsp_beta(g))


def node_weighted_doc(run):
    g, f = petersen(), random_node_weights(10, 5)
    return serialize.approx_to_json(f.induced_graph(g), run(g, f))


def beta_doc(run):
    g = random_node_weights(8, 11).induced_graph(random_subcubic_2ec(8, 3))
    return serialize.approx_to_json(g, run(g))


# One approx document of each kind of stored optimum: the closed form of
# the node-weighted algorithms and the cutting-plane LP of the beta ones.
OPTIMUM_DOCS = {
    "tsp75": lambda: node_weighted_doc(tsp_7_5_node_weighted),
    "twoec1310": lambda: node_weighted_doc(twoec_13_10_node_weighted),
    "twoecbeta": lambda: beta_doc(twoec_beta),
    "tspbeta": lambda: beta_doc(tsp_beta),
}


def _raise_y(doc):
    # Past the graph's whole weight, the cut's every edge is overloaded.
    total = sum(F(w) for _, _, w, _ in doc["graph"]["edges"])
    shore, y = doc["dual"][0]
    doc["dual"][0] = [shore, serialize.frac_str(F(y) + total)]


def _set_y(doc, y):
    doc["dual"][0] = [doc["dual"][0][0], y]


def _set_shore(doc, shore):
    doc["dual"][-1] = [shore, doc["dual"][-1][1]]


def _scale_x(doc, r):
    doc["x"] = {k: serialize.frac_str(F(v) * r) for k, v in doc["x"].items()}


def _raise_x(doc):
    # A larger x stays in the subtour polytope but weighs more.
    doc["x"]["0"] = serialize.frac_str(F(doc["x"].get("0", "0")) + 1)


# edit of an approx document -> (the field, and the check, the report names)
OPTIMUM_EDITS = {
    "y-raised": (_raise_y, "dual", "more than its weight"),
    "cut-dropped": (lambda doc: doc["dual"].pop(), "dual", "2 * sum(y)"),
    "y-negative": (lambda doc: _set_y(doc, "-1/1"), "dual[0]", "y = -1 < 0"),
    "shore-with-0": (lambda doc: _set_shore(doc, [0] + doc["dual"][-1][0]),
                     "shore", "not a sorted set"),
    "shore-unsorted": (lambda doc: _set_shore(doc, list(range(doc["graph"]["n"] - 1, 0, -1))),
                       "shore", "not a sorted set"),
    "x-scaled": (lambda doc: _scale_x(doc, F(9, 10)), "x", "not in the subtour polytope"),
    "x-off-bound": (_raise_x, "x", "not the stored lower_bound"),
}


# (variant, stored metadata, what the report names); the graph is Petersen
# for 18/19 and K4 for 8/9.  A cycle-cover certificate's metadata is its
# mixing weights alone: a cycle count, which no stored field could confirm,
# is an extra field whatever its value.
METADATA_EDITS = {
    "extra-fields": ("18/19", {"mixing": "1/2,1/2", "cycles": "99", "anything": "x"},
                     "metadata fields"),
    "foreign-fields": ("18/19", {"a": [1]}, "metadata fields"),
    "cycles-present": ("18/19", {"mixing": "15/19,4/19", "cycles": "2"}, "metadata fields"),
    "mixing": ("18/19", {"mixing": "1/2,1/2"}, "metadata mixing"),
    "cycles-over-n/2": ("18/19", {"mixing": "15/19,4/19", "cycles": "6"}, "metadata fields"),
    "cycles-zero": ("18/19", {"mixing": "15/19,4/19", "cycles": "0"}, "metadata fields"),
    "cycles-padded": ("18/19", {"mixing": "15/19,4/19", "cycles": "02"}, "metadata fields"),
    "cycles-not-text": ("18/19", {"mixing": "15/19,4/19", "cycles": 2}, "metadata fields"),
    "cycles-5000-digits": ("18/19", {"mixing": "15/19,4/19", "cycles": "9" * 5000},
                           "metadata fields"),
    "construction": ("8/9", {"construction": "cycles+tours"}, "metadata construction"),
    "construction-missing": ("8/9", {}, "metadata fields"),
}


class TestAccepts:
    def test_certificate(self):
        assert verify_document(cert_doc()).ok

    def test_approx(self):
        assert verify_document(approx_doc()).ok
        g = petersen()
        f = NodeWeights((F(1),) * 10)
        doc = serialize.approx_to_json(f.induced_graph(g),
                                       tsp_7_5_node_weighted(g, f))
        assert verify_document(doc).ok

    def test_decomposition(self):
        g = k4()
        comb = decomposition(g, everywhere(g, F(2, 3)), "trees")
        assert verify_document(serialize.decomposition_to_json(g, comb, "trees")).ok

    def test_decomposition_of_each_kind(self, two_triangles):
        g, x = two_triangles, solve_subtour(two_triangles).x
        for kind in ("connectors", "even2cut"):
            comb = decomposition(g, x, kind)
            rep = verify_document(serialize.decomposition_to_json(g, comb, kind))
            assert rep.ok and kind in rep.detail

    def test_lp_result(self):
        g = k33()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        assert verify_document(doc).ok

    @pytest.mark.parametrize("algorithm", OPTIMUM_DOCS)
    def test_approx_stores_an_optimum(self, algorithm):
        doc = OPTIMUM_DOCS[algorithm]()
        assert doc["algorithm"] == algorithm and doc["dual"]
        assert verify_document(doc).ok

    def test_cycle_cover(self):
        g = petersen()
        doc = serialize.cycle_cover_to_json(g, find_covering_cycle_cover(g))
        assert verify_document(doc).ok

    def test_round_trip_through_text(self):
        doc = serialize.loads(serialize.dumps(cert_doc()))
        assert verify_document(doc).ok


class TestRejects:
    def test_unknown_type(self):
        with pytest.raises(ParseError, match="type is missing"):
            verify_document({})
        for kind in ("mystery", ["lp-result"], None):
            with pytest.raises(ParseError, match="is not one of"):
                verify_document({"type": kind})

    def test_certificate_lambda_tampered(self):
        doc = cert_doc()
        doc["combination"]["terms"][0]["lambda"] = "1/2"
        assert not verify_document(doc).ok

    def test_certificate_alpha_tampered(self):
        doc = cert_doc()
        doc["alpha"] = "17/19"
        assert not verify_document(doc).ok

    def test_certificate_slack_tampered(self):
        doc = cert_doc()
        key = sorted(doc["slack"])[0]
        doc["slack"][key] = "0/1"
        rep = verify_document(doc)
        # Either the slack entry disagrees with alpha - coverage, or it was
        # already zero and some other entry must now disagree; force a change.
        if rep.ok:
            doc["slack"][key] = "1/1"
            rep = verify_document(doc)
        assert not rep.ok

    def test_certificate_edge_multiplicity_tampered(self):
        doc = cert_doc()
        doc["combination"]["terms"][0]["edges"][0][1] += 1
        assert not verify_document(doc).ok

    def test_certificate_label_tampered(self):
        doc = cert_doc()
        doc["combination"]["terms"][0]["classes"] = ["tour", "cycle-cover"]
        assert not verify_document(doc).ok

    def test_certificate_variant_swapped(self):
        doc = cert_doc()
        doc["variant"] = "15/17"
        assert not verify_document(doc).ok

    @pytest.mark.parametrize("edit", METADATA_EDITS)
    def test_certificate_metadata_tampered(self, edit):
        variant, metadata, named = METADATA_EDITS[edit]
        doc = cert_doc(petersen() if variant == "18/19" else k4(), variant)
        doc["metadata"] = metadata
        rep = verify_document(doc)
        assert not rep.ok and named in rep.detail

    def test_certificate_wrong_graph(self):
        doc = cert_doc()
        doc["graph"] = serialize.GRAPH[1](k33())
        assert not verify_document(doc).ok

    def test_approx_weight_tampered(self):
        doc = approx_doc()
        doc["weight"] = "1/1"
        assert not verify_document(doc).ok

    def test_approx_ratio_tampered(self):
        doc = approx_doc()
        doc["ratio"] = "2/1"
        assert not verify_document(doc).ok

    def test_approx_lower_bound_tampered(self):
        doc = approx_doc()
        doc["lower_bound"] = "1000/1"
        assert not verify_document(doc).ok

    def test_approx_object_class_tampered(self):
        doc = approx_doc()
        doc["object_class"] = "cycle-cover"
        assert not verify_document(doc).ok

    @pytest.mark.parametrize("algorithm,object_class", [
        ("tsp75", "connector"), ("tsp75", "twoec-multigraph"), ("tspbeta", "connector")])
    def test_approx_object_class_not_the_rows(self, algorithm, object_class):
        # A tour is also a connector and a 2EC multigraph, so only a
        # comparison with the algorithm's own object class rejects these.
        doc = OPTIMUM_DOCS[algorithm]()
        doc["object_class"] = object_class
        rep = verify_document(doc)
        assert not rep.ok and "object_class" in rep.detail, rep

    def test_approx_beta_on_a_fixed_ratio_row(self):
        # The value is the true w(E)/z, so only the row, whose ratio does not
        # depend on beta, can reject it.
        doc = OPTIMUM_DOCS["tsp75"]()
        G, res = serialize.approx_from_json(doc)
        doc["beta"] = serialize.frac_str(G.total_weight() / res.lower_bound)
        rep = verify_document(doc)
        assert not rep.ok and "beta" in rep.detail, rep

    @pytest.mark.parametrize("algorithm,profile", [
        ("tsp75", None), ("tsp75", "subcubic-2ec"), ("tsp75", "cubic-2ec"),
        ("tspbeta", "subcubic-2ec")])
    def test_approx_profile_tampered(self, algorithm, profile):
        # Each graph meets the profile written in, so only a comparison with
        # the algorithm's own profile rejects these.
        doc = OPTIMUM_DOCS[algorithm]()
        if profile is None:
            del doc["profile"]
        else:
            doc["profile"] = profile
        rep = verify_document(doc)
        assert not rep.ok and "profile" in rep.detail

    @pytest.mark.parametrize("algorithm,graph", [("tsp75", petersen), ("bip43", heawood)])
    def test_approx_weights_not_node_induced(self, algorithm, graph):
        # Raise the weight of an edge off the solution and store the new
        # graph's LP optimum: the solution weighs the same and the bound only
        # grows, so every other check passes.  But no node weights induce
        # the new edge weights.
        g = graph()
        ones = NodeWeights((F(1),) * g.n)
        _, res = approximate(algorithm, g, ones)
        off = min(set(g.edge_ids()) - set(res.solution_multiset()))
        gw = reweighted(g, {e.id: F(2) + (e.id == off) for e in g.edges})
        lp = solve_subtour(gw)
        res = replace(res, lower_bound=lp.value, x=lp.x,
                      dual=tuple((c.shore, y) for c, y in zip(lp.cuts, lp.duals) if y))
        rep = verify_document(serialize.approx_to_json(gw, res))
        assert not rep.ok and "not node-induced" in rep.detail, rep

    def test_lp_value_tampered(self):
        g = k33()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        doc["value"] = "100/1"
        assert not verify_document(doc).ok

    def test_cycle_cover_tampered(self):
        g = petersen()
        doc = serialize.cycle_cover_to_json(g, find_covering_cycle_cover(g))
        doc["cover"] = doc["cover"][:-1]
        assert not verify_document(doc).ok

    def test_cycle_cover_cycles_tampered(self):
        # Petersen's cover is two 5-cycles.  Walking one backwards is still
        # the same cycle; swapping two vertices, dropping a cycle or
        # splitting one is not.
        doc = serialize.cycle_cover_to_json(petersen(), find_covering_cycle_cover(petersen()))
        first, second = doc["cycles"]
        assert verify_document(dict(doc, cycles=[first[::-1], second])).ok
        swapped = [first[1], first[0]] + first[2:]
        for cycles in ([swapped, second], [first], [first[:2], first[2:], second]):
            rep = verify_document(dict(doc, cycles=cycles))
            assert not rep.ok and "cycles" in rep.detail

    def test_cycle_cover_cross_cycle_tampered(self):
        doc = serialize.cycle_cover_to_json(petersen(), find_covering_cycle_cover(petersen()))
        doc["cross_cycle"] = doc["cross_cycle"][1:]
        rep = verify_document(doc)
        assert not rep.ok and "cross_cycle" in rep.detail

    def test_cycle_cover_covered_cuts_tampered(self):
        doc = serialize.cycle_cover_to_json(petersen(), find_covering_cycle_cover(petersen()))
        for cuts in (doc["covered_cuts"][:-1], doc["covered_cuts"][::-1],
                     [[ids, count + 1] for ids, count in doc["covered_cuts"]]):
            rep = verify_document(dict(doc, covered_cuts=cuts))
            assert not rep.ok and "covered_cuts" in rep.detail

    def test_cycle_cover_repeated_cut_edge(self):
        doc = serialize.cycle_cover_to_json(petersen(), find_covering_cycle_cover(petersen()))
        ids, count = doc["covered_cuts"][0]
        doc["covered_cuts"][0] = [ids + ids[:1], count]
        with pytest.raises(ParseError, match=r"covered_cuts\[0\] repeats an edge id"):
            verify_document(doc)

    def test_lp_result_repeated_cut_edge(self):
        g = petersen()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        doc["cuts"].append({"shore": [0], "edges": [0, 1, 2, 0]})
        i = len(doc["cuts"]) - 1
        with pytest.raises(ParseError, match=rf"cuts\[{i}\]\.edges repeats an edge id"):
            verify_document(doc)

    def test_decomposition_label_tampered(self):
        g = k4()
        comb = decomposition(g, everywhere(g, F(2, 3)), "trees")
        doc = serialize.decomposition_to_json(g, comb, "trees")
        doc["combination"]["terms"][0]["classes"] = ["tour"]
        assert not verify_document(doc).ok

    def test_decomposition_not_convex(self):
        # Both edits keep the coefficient sum and the coverage.
        doc = trees_doc(petersen())
        assert verify_document(doc).ok
        terms = doc["combination"]["terms"]
        first = terms[0]
        raised = dict(first, **{"lambda": serialize.frac_str(F(first["lambda"]) + 1)})
        for edited in ([raised] + terms[1:] + [dict(first, **{"lambda": "-1/1"})],
                       terms + [dict(first, **{"lambda": "0/1"})]):
            doc["combination"]["terms"] = edited
            rep = verify_document(doc)
            assert not rep.ok and "coefficient" in rep.detail

    def test_decomposition_kind_trees_needs_spanning_trees(self):
        # The whole edge set is a connector, and 1 on every edge dominates it.
        g = k4()
        comb = make_combination(g, [(F(1), {e.id: 1 for e in g.edges})],
                                everywhere(g, F(1)), "dominated-by")
        doc = serialize.decomposition_to_json(g, comb, "trees")
        rep = verify_document(doc)
        assert not rep.ok and "spanning tree" in rep.detail
        assert verify_document(dict(doc, kind="connectors")).ok

    def test_decomposition_kind_even2cut_needs_even_crossings(self, two_triangles):
        # The term lacking the half-valued bridge e6 holds e7 once.
        g, x = two_triangles, two_triangles_x(two_triangles)
        doc = serialize.decomposition_to_json(g, decomposition(g, x, "connectors"), "even2cut")
        rep = verify_document(doc)
        assert not rep.ok and "2-edge cut" in rep.detail

    def test_decomposition_kind_even2cut_needs_a_bridgeless_support(self):
        # The 4-cycle with a pendant edge: the one term crosses every pair of
        # edges evenly, but the pendant edge is a bridge of the support.
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        comb = make_combination(g, [(F(1), {e.id: 1 for e in g.edges})],
                                everywhere(g, F(1)), "dominated-by")
        rep = verify_document(serialize.decomposition_to_json(g, comb, "even2cut"))
        assert not rep.ok and "not 2-edge-connected" in rep.detail
        assert verify_document(serialize.decomposition_to_json(g, comb, "connectors")).ok

    def test_decomposition_unknown_kind(self):
        for kind in ("forests", ["trees"], None):
            with pytest.raises(ParseError, match="kind"):
                verify_document(dict(trees_doc(k4()), kind=kind))

    def test_lp_result_cuts_tampered(self):
        g = petersen()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        rounds = doc["separation_rounds"]
        bad_cut = {"shore": [0, 3], "edges": [5, 7, 9], "y": "0/1"}
        for edit, field in (
                ({"cuts": doc["cuts"] + [bad_cut], "separation_rounds": 42}, "separation_rounds"),
                ({"separation_rounds": 42}, "separation_rounds"),
                ({"cuts": doc["cuts"] + [bad_cut], "separation_rounds": rounds + 1}, "shore"),
                ({"cuts": doc["cuts"] + [dict(bad_cut, shore=[3])],
                  "separation_rounds": rounds + 1}, "edges"),
                ({"cuts": doc["cuts"] + doc["cuts"][:1], "separation_rounds": rounds + 1},
                 "repeats"),
                ({"cuts": doc["cuts"][1:] + doc["cuts"][:1]}, "initial pool"),
                ({"cuts": [dict(c, shore=c["shore"][::-1]) for c in doc["cuts"]]},
                 "initial pool")):
            rep = verify_document(dict(doc, **edit))
            assert not rep.ok and field in rep.detail, (edit, rep)

    @pytest.mark.parametrize("edit", OPTIMUM_EDITS)
    @pytest.mark.parametrize("algorithm", OPTIMUM_DOCS)
    def test_approx_optimum_tampered(self, algorithm, edit):
        doc = OPTIMUM_DOCS[algorithm]()
        change, field, check = OPTIMUM_EDITS[edit]
        change(doc)
        rep = verify_document(doc)
        assert not rep.ok and field in rep.detail and check in rep.detail, rep

    def test_approx_zero_lower_bound(self):
        # On zero weights, x = 1 and the empty dual certify a bound of 0,
        # against which no beta = w(E) / 0 can be checked.
        g = reweighted(k4(), {e.id: 0 for e in k4().edges})
        tour = {frozenset(p) for p in ((0, 1), (1, 2), (2, 3), (3, 0))}
        doc = {"type": "approx-result", "graph": serialize.GRAPH[1](g),
               "algorithm": "tspbeta", "object_class": "tour",
               "solution": [[e.id, 1] for e in g.edges if frozenset((e.u, e.v)) in tour],
               "weight": "0/1", "lower_bound": "0/1", "beta": "1/1", "ratio": "4/3",
               "x": {str(e.id): "1/1" for e in g.edges}, "dual": []}
        rep = verify_document(doc)
        assert not rep.ok and "beta" in rep.detail

    def test_lp_result_not_optimal(self):
        # x = 1 everywhere is feasible and weighs its value 15, but the
        # optimum is 10: no stored dual can certify 15.
        g = petersen()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        assert doc["value"] == "10/1"
        doc.update(x={str(e.id): "1/1" for e in g.edges}, value="15/1")
        rep = verify_document(doc)
        assert not rep.ok and "2 * sum(y) over cuts is 10" in rep.detail

    def test_lp_result_dual_tampered(self):
        g = petersen()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        doc["cuts"][0]["y"] = "-1/1"
        rep = verify_document(doc)
        assert not rep.ok and "cuts[0] has y = -1" in rep.detail
        doc["cuts"][0]["y"] = "2/1"
        rep = verify_document(doc)
        assert not rep.ok and "the y of cuts load" in rep.detail

    def test_decomposition_repeated_term_edge(self, two_triangles):
        # The first term's [7, 2] split into [7, 1], [7, 1] keeps the
        # coverage but not the term classify would see.
        g, x = two_triangles, two_triangles_x(two_triangles)
        doc = serialize.decomposition_to_json(g, decomposition(g, x, "connectors"), "connectors")
        edges = doc["combination"]["terms"][0]["edges"]
        assert edges[-1] == [7, 2]
        edges[-1:] = [[7, 1], [7, 1]]
        with pytest.raises(ParseError, match=r"terms\[0\]\.edges repeats an edge id"):
            verify_document(doc)

    def test_approx_repeated_solution_edge(self):
        doc = approx_doc()
        eid, m = next(p for p in doc["solution"] if p[1] == 2)
        doc["solution"].remove([eid, m])
        doc["solution"] += [[eid, 1], [eid, 1]]
        with pytest.raises(ParseError, match="solution repeats an edge id"):
            verify_document(doc)


def test_verify_never_enters_the_simplex(monkeypatch, two_triangles):
    g, x = two_triangles, solve_subtour(two_triangles).x
    docs = [cert_doc(k4()), trees_doc(k4()),
            serialize.decomposition_to_json(g, even_2cut_connectors(g, x), "even2cut"),
            serialize.lp_result_to_json(k33(), solve_subtour(k33())),
            serialize.cycle_cover_to_json(petersen(), find_covering_cycle_cover(petersen()))]
    docs += [build() for build in OPTIMUM_DOCS.values()]

    def refuse(*args, **kwargs):
        raise AssertionError("verify ran an LP solver")

    for name, module in list(sys.modules.items()):
        if name.startswith("unicover"):
            for attr in ("solve_lp", "solve_subtour"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(simplex.Tableau, "optimize", refuse)
    kinds = set()
    for doc in docs:
        rep = verify_document(doc)
        assert rep.ok, rep
        kinds.add(rep.kind)
    assert len(kinds) == 5


# Each producer's record, with the graph it is stored on and its writer.
@lru_cache(maxsize=None)
def cover_record():
    return petersen(), uniform_cover(petersen(), "18/19"), serialize.certificate_to_json


@lru_cache(maxsize=None)
def node_weighted_record():
    g, f = petersen(), random_node_weights(10, 5)
    return f.induced_graph(g), tsp_7_5_node_weighted(g, f), serialize.approx_to_json


@lru_cache(maxsize=None)
def beta_record():
    g = random_node_weights(8, 11).induced_graph(random_subcubic_2ec(8, 3))
    return g, tsp_beta(g), serialize.approx_to_json


@lru_cache(maxsize=None)
def cycle_cover_record():
    return petersen(), find_covering_cycle_cover(petersen()), serialize.cycle_cover_to_json


def _bump_first(pairs):
    (key, value), rest = pairs[0], pairs[1:]
    return ((key, value + 1),) + rest


# (record, derived field, its tampered value); the fields are all those a
# builder derives from the stored claim.
DERIVED_EDITS = [
    (cover_record, "profile", lambda r: "cubic-2ec"),
    (cover_record, "alpha", lambda r: F(17, 19)),
    (cover_record, "object_class", lambda r: "twoec-multigraph"),
    (cover_record, "slack", lambda r: _bump_first(r.slack)),
    (cover_record, "max_multiplicity", lambda r: r.max_multiplicity + 1),
    (cover_record, "metadata",
     lambda r: tuple((k, "1/2,1/2" if k == "mixing" else v) for k, v in r.metadata)),
] + [(record, field, tamper) for record in (node_weighted_record, beta_record)
     for field, tamper in (
         ("weight", lambda r: r.weight + 1),
         ("ratio", lambda r: r.ratio + 1),
         ("object_class", lambda r: "connector"),
         ("beta", lambda r: F(1) if r.beta is None else r.beta + F(1, 3)),
         ("profile", lambda r: "subcubic-2ec"))] + [
    (cycle_cover_record, "matching", lambda r: r.matching[1:]),
    (cycle_cover_record, "intra_cycle", lambda r: r.intra_cycle + r.cross_cycle[:1]),
    (cycle_cover_record, "cross_cycle", lambda r: r.cross_cycle[1:]),
    (cycle_cover_record, "covered_cuts", lambda r: _bump_first(r.covered_cuts)),
    (cycle_cover_record, "cycles", lambda r: r.cycles[::-1]),
]


@pytest.mark.parametrize("record,field,tamper", DERIVED_EDITS,
                         ids=[f"{record.__name__[:-7]}-{field}"
                              for record, field, _ in DERIVED_EDITS])
def test_every_derived_field_is_checked(record, field, tamper):
    g, produced, to_json = record()
    value = tamper(produced)
    assert value != getattr(produced, field)
    rep = verify_document(to_json(g, replace(produced, **{field: value})))
    assert not rep.ok and field in rep.detail, rep


def test_approx_solution_out_of_edge_id_order():
    # The producer writes the pairs in edge-id order, and the rebuilt
    # record has them so.
    doc = approx_doc()
    doc["solution"].reverse()
    rep = verify_document(doc)
    assert not rep.ok and "solution" in rep.detail, rep


def fraction_sum_subtour_check(G, value, x, dual, fields=("lower_bound", "dual")):
    """Reference oracle for verify._check_subtour_optimum: the same checks in
    the same order, with w.x, the dual loads and sum(y) summed in Fractions."""
    value_field, dual_field = fields
    check = membership(G, x)
    if not check.inside:
        raise VerifyError(f"x is not in the subtour polytope: {check.detail}")
    total = sum((e.weight * x.get(e.id, F(0)) for e in G.edges), F(0))
    if total != value:
        raise VerifyError(f"x weighs {total}, not the stored {value_field} {value}")
    load = {}
    for i, (shore, y) in enumerate(dual):
        _check_shore(shore, G.n, f"{dual_field}[{i}] shore")
        if y < 0:
            raise VerifyError(f"{dual_field}[{i}] has y = {y} < 0")
        for eid in cut_edges(G, shore):
            load[eid] = load.get(eid, F(0)) + y
    for e in G.edges:
        if load.get(e.id, F(0)) > e.weight:
            raise VerifyError(f"the y of {dual_field} load e{e.id} with {load[e.id]}, "
                              f"more than its weight {e.weight}")
    bound = 2 * sum((y for _, y in dual), F(0))
    if bound != value:
        raise VerifyError(f"2 * sum(y) over {dual_field} is {bound}, "
                          f"not the stored {value_field} {value}")


def _weighted(g):
    """g with weights of several denominators."""
    return reweighted(g, {e.id: F(1 + e.id % 3, 1 + e.id % 4) for e in g.edges})


SUBTOUR_OPTIMA = [(g, solve_subtour(g)) for g in (
    petersen(), _weighted(k33()), _weighted(random_subcubic_2ec(10, 1)),
    random_node_weights(10, 2).induced_graph(petersen()))]


@st.composite
def tampered_optima(draw):
    """A stored subtour optimum (value, x, dual), with a few x entries
    raised (so x stays in the polytope), a few y replaced and sometimes the
    value moved."""
    g, lp = draw(st.sampled_from(SUBTOUR_OPTIMA))
    small = st.fractions(F(-1, 2), F(3), max_denominator=12)
    x = dict(lp.x)
    for eid in draw(st.lists(st.sampled_from(sorted(x)), max_size=2)):
        x[eid] += abs(draw(small))
    dual = [(c.shore, y) for c, y in zip(lp.cuts, lp.duals)]
    for i in draw(st.lists(st.integers(0, len(dual) - 1), max_size=2)):
        dual[i] = (dual[i][0], draw(small))
    value = lp.value + draw(st.sampled_from([0, 0, F(1, 3), F(-1, 2)]))
    return g, value, x, dual


@given(tampered_optima())
@settings(max_examples=200, deadline=None)
def test_subtour_optimum_check_sums_like_fractions(drawn):
    """The int sums accept exactly what the Fraction sums accept, and
    report every failure with the same words and numbers."""
    def outcome(check):
        try:
            check(*drawn)
        except GraphError as exc:
            return str(exc)
        return None

    assert outcome(_check_subtour_optimum) == outcome(fraction_sum_subtour_check)


# Small documents of each type for the strict readers, each with its int
# fields, named by their innermost object key.  Petersen's cycle cover has
# cross-cycle matching edges and K4's has intra-cycle ones; the tsp75
# document stores a profile and no beta, the twoecbeta one the reverse.
CYCLE_COVER_FIELDS = {"n", "edges", "cover", "cycles", "matching", "covered_cuts"}
STRICT_DOCS = {
    "uniform-cover-certificate": (lambda: cert_doc(k4()),
                                  {"n", "edges", "max_multiplicity"}),
    "decomposition": (lambda: trees_doc(k4()), {"n", "edges"}),
    "lp-result": (lambda: serialize.lp_result_to_json(k33(), solve_subtour(k33())),
                  {"n", "edges", "shore", "separation_rounds"}),
    "cycle-cover-petersen": (lambda: serialize.cycle_cover_to_json(
        petersen(), find_covering_cycle_cover(petersen())),
        CYCLE_COVER_FIELDS | {"cross_cycle"}),
    "cycle-cover-k4": (lambda: serialize.cycle_cover_to_json(
        k4(), find_covering_cycle_cover(k4())), CYCLE_COVER_FIELDS | {"intra_cycle"}),
    "approx-result": (OPTIMUM_DOCS["twoecbeta"], {"n", "edges", "solution", "dual"}),
    "approx-result-tsp75": (OPTIMUM_DOCS["tsp75"], {"n", "edges", "solution", "dual"}),
}
ID_KEYED = ("x", "target", "slack")        # objects whose keys are edge ids
MAPS = ID_KEYED + ("metadata",)            # objects of any keys, not tables
LOOKS_RATIONAL = ("variant",)              # strings such as "18/19"
OPTIONAL = (("beta",), ("profile",))       # of an approx-result
INT_EDITS = {"float": lambda v: v + 0.5, "integral-float": float, "string": str,
             "bool": bool}
KEY_EDITS = {"zero-padded": lambda k: "0" + k, "spaced": lambda k: " " + k,
             "signed": lambda k: "+" + k, "underscored": lambda k: "0_" + k}
RATIONAL_EDITS = {
    "unreduced": lambda q: "/".join(str(2 * int(t)) for t in q.split("/")),
    "leading-space": lambda q: " " + q, "trailing-space": lambda q: q + " ",
    "signed": lambda q: "+" + q, "underscored": lambda q: q.replace("/", "_0/"),
    "signed-denominator": lambda q: q.replace("/", "/+"),
    "negative-denominator": lambda q: "{}/-{}".format(-int(q.split("/")[0]), q.split("/")[1]),
    "integer": lambda q: "1", "decimal": lambda q: "1.0", "half": lambda q: "0.5"}
LABEL_EDITS = {"repeated": lambda labels: labels + labels[:1],
               "unknown": lambda labels: labels + ["bridge"]}
FIELD_EDITS = {"missing": lambda node, k: node.pop(k),
               "unknown": lambda node, k: node.update({k + "_copy": node[k]})}
SITE_EDITS = {"int": INT_EDITS, "key": KEY_EDITS, "rational": RATIONAL_EDITS,
              "labels": LABEL_EDITS, "field": FIELD_EDITS}
SITE_ERRORS = {"int": "not an integer", "key": "decimal string", "rational": "not a rational",
               "labels": "not a class label|repeats a label",
               "field": "is missing|outside its table"}


def int_sites(node, path=()):
    """The path of every stored int, rational and term label list of a JSON
    document, of every object keyed by edge ids (its own path with the key
    last), and of every field of a table object."""
    if isinstance(node, dict):
        if path and path[-1] in ID_KEYED:
            yield from (("key", path + (k,)) for k in node)
        if not path or path[-1] not in MAPS:
            skip = OPTIONAL if node.get("type") == "approx-result" else ()
            yield from (("field", path + (k,)) for k in node if path + (k,) not in skip)
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for k, v in items:
        if type(v) is int:
            yield "int", path + (k,)
        elif (type(v) is str and re.fullmatch(r"-?[0-9]+/[0-9]+", v)
              and k not in LOOKS_RATIONAL):
            yield "rational", path + (k,)
        elif k == "classes":
            yield "labels", path + (k,)
        else:
            yield from int_sites(v, path + (k,))


def edited(doc, site, edit):
    """A copy of doc with the value, key or field at `site` edited."""
    kind, path = site
    copy = json.loads(json.dumps(doc))
    node = copy
    for k in path[:-1]:
        node = node[k]
    if kind == "key":
        node[edit(path[-1])] = node.pop(path[-1])
    elif kind == "field":
        edit(node, path[-1])
    else:
        node[path[-1]] = edit(node[path[-1]])
    return copy


@pytest.mark.parametrize("name", sorted(STRICT_DOCS))
def test_every_stored_int_is_read_strictly(name):
    # A float, a string or a bool in an int field, an id key that is not
    # the id's decimal string, a rational in any form but the writer's
    # lowest-terms "p/q", a repeated or unknown class label, and a missing
    # or unknown field are parse errors; none is read leniently.
    build, fields = STRICT_DOCS[name]
    doc = build()
    assert name.startswith(doc["type"]) and verify_document(doc).ok
    sites = list(int_sites(doc))
    assert {next(k for k in reversed(path) if isinstance(k, str))
            for kind, path in sites if kind == "int"} == fields
    kinds = {kind for kind, _ in sites}
    assert ("key" in kinds) == (doc["type"] != "cycle-cover")
    assert ("labels" in kinds) == (doc["type"] in ("uniform-cover-certificate",
                                                   "decomposition"))
    assert {"int", "rational", "field"} <= kinds
    for site in sites:
        for edit in SITE_EDITS[site[0]].values():
            with pytest.raises(ParseError, match=SITE_ERRORS[site[0]]):
                verify_document(edited(doc, site, edit))


@pytest.mark.parametrize("name", sorted(STRICT_DOCS))
def test_verify_exits_2_on_a_lenient_int(name, tmp_path, capsys):
    doc = STRICT_DOCS[name][0]()
    first = {}
    for kind, path in int_sites(doc):
        first.setdefault(kind, (kind, path))
    picks = [(site, edit) for kind, site in first.items()
             for edit in SITE_EDITS[kind].values()]
    path = tmp_path / "doc.json"
    for site, edit in picks:
        path.write_text(json.dumps(edited(doc, site, edit)))
        assert cli.main(["verify", str(path)]) == cli.EXIT_PRECONDITION, site
        err = capsys.readouterr().err
        assert "parse error" in err, err


# Any JSON value, and often one of the small ints and the strings that the
# documents hold, so that an edit gets past the reader to the checks.
JSON_VALUES = st.integers(-1, 4) | st.sampled_from(
    ["0/1", "1/2", "1/1", "2/4", "tour", "connector", "lp-result"]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8)


@lru_cache(maxsize=None)
def fuzz_seeds():
    """A K4 certificate and a K_{3,3} lp-result, as JSON text."""
    return {"certificate": json.dumps(cert_doc(k4())),
            "lp-result": json.dumps(serialize.lp_result_to_json(k33(), solve_subtour(k33())))}


def subtree_paths(node, path=()):
    """The path of every value below node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from subtree_paths(v, path + (k,))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(["certificate", "lp-result"]), st.data())
def test_an_edited_document_is_reported_or_refused(seed, data):
    # One to three subtrees replaced by any JSON values: verify_document
    # returns a report or raises a library error (a ParseError among them),
    # which the CLI turns into exit code 2; nothing else.
    doc = json.loads(fuzz_seeds()[seed])
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(subtree_paths(doc))))
        node = doc
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = data.draw(JSON_VALUES)
    try:
        verify_document(doc)
    except GraphError:
        pass
