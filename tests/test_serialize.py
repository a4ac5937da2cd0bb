import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicover.covers import check_certificate, uniform_cover
from unicover.cyclecover import find_covering_cycle_cover
from unicover.connectors import decomposition
from unicover.families import k4, petersen
from unicover.lp import everywhere
from unicover.serialize import (COMBINATION, GRAPH, ID_VECTOR, EncodeError, ParseError,
                                approx_from_json, approx_to_json, certificate_from_json,
                                certificate_to_json, combination_from_json,
                                cycle_cover_to_json, dumps, frac_str, graph_from_json,
                                graph_from_text, graph_to_text, loads, parse_frac,
                                weights_from_text)
from unicover.graph import NodeWeights

from conftest import fraction_frac_str

F = Fraction


class TestRationals:
    def test_always_p_over_q(self):
        assert frac_str(F(3)) == "3/1"
        assert frac_str(F(-7, 2)) == "-7/2"

    def test_round_trip_examples(self):
        for s in ["0/1", "18/19", "-3/4"]:
            assert frac_str(parse_frac(s)) == s

    def test_bad_rational(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_frac("1.5x", line=4)
        with pytest.raises(ParseError):
            parse_frac("1/0")

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, p, q):
        v = F(p, q)
        assert parse_frac(frac_str(v)) == v


class TestGraphText:
    def test_round_trip(self):
        g = petersen()
        assert graph_from_text(graph_to_text(g)) == g

    def test_multiplicity_expansion(self):
        g = graph_from_text("2 3\n0 1 1/2 3\n")
        assert g.n == 2 and g.m == 3
        assert all(e.weight == F(1, 2) for e in g.edges)

    def test_header_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            graph_from_text("")
        with pytest.raises(ParseError, match="line 1"):
            graph_from_text("3\n")

    def test_edge_line_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            graph_from_text("2 1\n0 x 1/1\n")
        with pytest.raises(ParseError, match="line 3"):
            graph_from_text("3 2\n0 1 1/1\n1 2 nope\n")
        with pytest.raises(ParseError, match="expected 2"):
            graph_from_text("2 2\n0 1 1/1\n")

    def test_self_loop_reported(self):
        with pytest.raises(ParseError, match="self-loop"):
            graph_from_text("2 1\n1 1 1/1\n")


class TestWeightsText:
    def test_round_trip(self):
        # The text format written by hand: one rational per line, blank
        # lines skipped.
        f = NodeWeights((F(1, 2), F(3), F(7, 5)))
        assert weights_from_text("1/2\n3/1\n\n7/5\n") == f

    def test_count_check(self):
        with pytest.raises(ParseError, match="expected 4"):
            weights_from_text("1/2\n1/2\n", n=4)


class TestJson:
    # Each value is written by its kind, a (read, write) pair, and read
    # back by its public reader where there is one.
    def test_graph_round_trip(self):
        g = k4()
        assert graph_from_json(loads(dumps(GRAPH[1](g)))) == g

    def test_vector_round_trip(self):
        x = everywhere(k4(), F(2, 3))
        assert ID_VECTOR[0](loads(dumps(ID_VECTOR[1](x)))) == x

    def test_combination_round_trip(self):
        g = k4()
        comb = decomposition(g, everywhere(g, F(2, 3)), "trees")
        assert combination_from_json(loads(dumps(COMBINATION[1](comb)))) == comb

    def test_certificate_round_trip(self):
        g = k4()
        cert = uniform_cover(g, "18/19")
        g2, cert2 = certificate_from_json(loads(dumps(certificate_to_json(g, cert))))
        assert g2 == g and cert2 == cert
        check_certificate(g2, cert2)

    def test_approx_round_trip(self):
        from unicover.approx import tsp_beta
        g = NodeWeights((F(1),) * 4).induced_graph(k4())
        res = tsp_beta(g)
        g2, res2 = approx_from_json(loads(dumps(approx_to_json(g, res))))
        assert g2 == g and res2 == res

    def test_cycle_cover_document(self):
        g = petersen()
        doc = cycle_cover_to_json(g, find_covering_cycle_cover(g))
        assert doc["type"] == "cycle-cover"
        assert loads(dumps(doc)) == doc

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            loads("{\n  broken\n}")

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="object"):
            loads("[1, 2]")


@given(st.one_of(st.integers(-50, 50), st.booleans(),
                 st.builds(F, st.integers(-50, 50), st.integers(1, 12)),
                 st.builds(lambda q: f" {q} ", st.builds(F, st.integers(-50, 50),
                                                          st.integers(1, 12)))))
@settings(max_examples=200, deadline=None)
def test_frac_str_is_the_fraction_form(v):
    # ints and Fractions are written as they are; anything else, bools and
    # strings included, is made a Fraction first.
    assert frac_str(v) == fraction_frac_str(v)


# JSON text: any character, with the ones JSON escapes or uses as syntax
# drawn often.
json_text = st.text(st.one_of(st.characters(), st.sampled_from('"\\,[]{}:\n\t\x00\x1f\x7fé€😀')),
                    max_size=8)
json_leaves = st.one_of(json_text, st.integers(), st.integers(-2 ** 200, 2 ** 200),
                        st.booleans(), st.none())


def json_containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(json_text, children, max_size=4))


def nest(value, kinds):
    """value wrapped in one container per kind, innermost first."""
    for kind, key in kinds:
        value = {key: value} if kind == "dict" else [value] if kind == "list" else (value,)
    return value


json_trees = st.recursive(json_leaves, json_containers, max_leaves=30)
deep_json_trees = st.builds(nest, json_trees, st.lists(
    st.tuples(st.sampled_from(["dict", "list", "tuple"]), json_text), min_size=6, max_size=9))


def as_read(v):
    """v as JSON reads it back: every tuple a list."""
    if isinstance(v, (list, tuple)):
        return [as_read(x) for x in v]
    if isinstance(v, dict):
        return {key: as_read(x) for key, x in v.items()}
    return v


@given(st.one_of(json_trees, deep_json_trees))
@settings(max_examples=400, deadline=None)
def test_dumps_round_trips_on_one_ascii_line(v):
    text = dumps(v)
    assert json.loads(text) == as_read(v)
    assert text.isascii() and text.endswith("\n") and text.count("\n") == 1


@pytest.mark.parametrize("v", [[{1, 2}], {"a": F(1, 2)}], ids=["set", "Fraction"])
def test_dumps_rejects_what_no_document_holds(v):
    with pytest.raises(EncodeError):
        dumps(v)


def _walk(v, keys, leaves):
    """Append v's dict keys to keys and its other non-list values to leaves."""
    if isinstance(v, list):
        for x in v:
            _walk(x, keys, leaves)
    elif isinstance(v, dict):
        keys.extend(v)
        for x in v.values():
            _walk(x, keys, leaves)
    else:
        leaves.append(v)


def test_golden_documents_hold_only_json_types():
    # The writer accepts any JSON value; the builders must make only these.
    from test_golden import APPROX, COVERS, SOLVER_DOCUMENTS
    docs = [build() for _, build, _ in APPROX + SOLVER_DOCUMENTS]
    for variant, family, _ in COVERS:
        G = family()
        docs.append(certificate_to_json(G, uniform_cover(G, variant)))
    assert {doc["type"] for doc in docs} == {
        "uniform-cover-certificate", "approx-result", "lp-result", "decomposition",
        "cycle-cover"}
    keys, leaves = [], []
    _walk(docs, keys, leaves)
    assert {type(key) for key in keys} == {str}
    assert {type(v) for v in leaves} <= {str, int, bool, type(None)}
