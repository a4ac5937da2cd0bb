from fractions import Fraction

import pytest

from unicover import serialize
from unicover.approx import tsp_7_5_node_weighted, tsp_beta
from unicover.covers import uniform_cover
from unicover.cyclecover import find_covering_cycle_cover
from unicover.connectors import even_2cut_connectors
from unicover.decompose import (decompose_connectors, decompose_spanning_trees,
                                make_combination)
from unicover.families import k4, k33, petersen
from unicover.graph import NodeWeights
from unicover.lp import everywhere, solve_subtour
from unicover.serialize import ParseError
from unicover.verify import verify_document

F = Fraction


def cert_doc(g=None, variant="18/19"):
    g = g if g is not None else petersen()
    return serialize.certificate_to_json(g, uniform_cover(g, variant))


def trees_doc(g):
    comb = decompose_spanning_trees(g, everywhere(g, F(2, 3)))
    return serialize.decomposition_to_json(g, comb, "trees")


def approx_doc():
    g = NodeWeights((F(1),) * 10).induced_graph(petersen())
    return serialize.approx_to_json(g, tsp_beta(g))


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
        comb = decompose_spanning_trees(g, everywhere(g, F(2, 3)))
        assert verify_document(serialize.decomposition_to_json(g, comb, "trees")).ok

    def test_decomposition_of_each_kind(self, two_triangles):
        g, x = two_triangles, solve_subtour(two_triangles).x
        for kind, comb in (("connectors", decompose_connectors(g, x)),
                           ("even2cut", even_2cut_connectors(g, x))):
            rep = verify_document(serialize.decomposition_to_json(g, comb, kind))
            assert rep.ok and kind in rep.detail

    def test_lp_result(self):
        g = k33()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
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
        for kind in ("mystery", ["lp-result"], None):
            assert not verify_document({"type": kind}).ok

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

    def test_certificate_wrong_graph(self):
        doc = cert_doc()
        doc["graph"] = serialize.graph_to_json(k33())
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
        comb = decompose_spanning_trees(g, everywhere(g, F(2, 3)))
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
        g, x = two_triangles, solve_subtour(two_triangles).x
        doc = serialize.decomposition_to_json(g, decompose_connectors(g, x), "even2cut")
        rep = verify_document(doc)
        assert not rep.ok and "2-edge cut" in rep.detail

    def test_decomposition_unknown_kind(self):
        for kind in ("forests", ["trees"], None):
            with pytest.raises(ParseError, match="kind"):
                verify_document(dict(trees_doc(k4()), kind=kind))

    def test_lp_result_cuts_tampered(self):
        g = petersen()
        doc = serialize.lp_result_to_json(g, solve_subtour(g))
        rounds = doc["separation_rounds"]
        bad_cut = {"shore": [0, 3], "edges": [5, 7, 9]}
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
