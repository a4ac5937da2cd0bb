import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicover.families import (c8_12, heawood, k4, k5, k33, lcf_5, mobius_kantor,
                               petersen, prism, random_cubic_3ec,
                               random_subcubic_2ec)
from unicover.graph import (PROFILES, Edge, GraphError, Multigraph, NodeWeights,
                            _cuts_upto, _cycle_space_labels, classify,
                            connected_components, contract, cut_edges,
                            enumerate_cuts_upto, is_bipartite, multiset_degrees,
                            multiset_union, multiset_weight, node_weights_of,
                            validate_structure)

from conftest import (BRIDGED_CUBIC, TWO_CUT_CUBIC, fraction_induced_weights,
                      fraction_multiset_weight, fraction_sum, make_graph,
                      regular_multigraphs, reweighted, shore_holding_zero, triple_scan_cuts,
                      unit_min_cut)

F = Fraction


class TestMultigraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            make_graph(2, [(0, 0)])

    def test_rejects_duplicate_id(self):
        with pytest.raises(GraphError, match="duplicate"):
            Multigraph(2, (Edge(0, 1, F(1), 0), Edge(0, 1, F(1), 0)))

    def test_rejects_negative_weight(self):
        for weight in [F(-1), F(-1, 3), -2]:
            with pytest.raises(GraphError, match="e0 has negative weight"):
                Multigraph(2, (Edge(0, 1, weight, 0),))

    @pytest.mark.parametrize("weight", [0.5, "1/2"])
    def test_rejects_a_weight_that_is_not_exact(self, weight):
        with pytest.raises(GraphError, match="e3 has weight .* not an int or a Fraction"):
            Multigraph(2, (Edge(0, 1, weight, 3),))

    def test_parallel_edges_allowed(self):
        g = make_graph(2, [(0, 1), (0, 1), (0, 1)])
        assert g.m == 3
        assert g.degrees() == [3, 3]

    def test_node_weights_induce_edge_weights(self):
        f = NodeWeights((F(1), F(2), F(3)))
        g = f.induced_graph(make_graph(3, [(0, 1), (1, 2), (2, 0)]))
        assert {e.id: e.weight for e in g.edges} == {0: F(3), 1: F(5), 2: F(4)}

    def test_node_weights_positive(self):
        with pytest.raises(GraphError):
            NodeWeights((F(1), F(0)))


class TestValidateStructure:
    def test_k4_cubic(self):
        assert validate_structure(k4(), "cubic-3ec").passed

    def test_petersen_not_bipartite(self):
        report = validate_structure(petersen(), "bipartite-cubic-3ec")
        assert not report.passed
        assert report.violation == "odd cycle found"

    def test_k5_four_regular(self):
        assert validate_structure(k5(), "4regular-4ec").passed

    def test_degree_violation_named(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        report = validate_structure(g, "cubic-3ec")
        assert not report.passed
        assert "degree 2" in report.violation

    def test_two_edge_cut_named(self):
        # Two K4-minus-an-edge blocks joined by a pair of bridges: cubic but
        # only 2-edge-connected.
        g = TWO_CUT_CUBIC
        report = validate_structure(g, "cubic-3ec")
        assert not report.passed
        assert report.violation == "2-edge cut {e10,e11}"

    def test_subcubic_accepts_cycle(self, c4):
        assert validate_structure(c4, "subcubic-2ec").passed

    def test_disconnected_input_named(self):
        two_k4 = make_graph(8, [(a + s, b + s) for s in (0, 4)
                                for a, b in itertools.combinations(range(4), 2)])
        report = validate_structure(two_k4, "cubic-3ec")
        assert not report.passed
        assert report.violation == "disconnected input"


# Oracle for each profile: (allowed degrees, edge connectivity, bipartite).
PROFILE_RULES = {
    "cubic-3ec": ({3}, 3, False),
    "cubic-2ec": ({3}, 2, False),
    "subcubic-2ec": ({0, 1, 2, 3}, 2, False),
    "bipartite-cubic-3ec": ({3}, 3, True),
    "4regular-4ec": ({4}, 4, False),
}

# Two K5-minus-an-edge blocks joined by two edges: 4-regular with a 2-edge
# cut.
BLOCK5 = [p for p in itertools.combinations(range(5), 2) if p != (3, 4)]
TWO_CUT_QUARTIC = make_graph(10, BLOCK5 + [(a + 5, b + 5) for a, b in BLOCK5] + [(3, 8), (4, 9)])
NAMED = (k4(), k5(), k33(), petersen(), prism(), heawood(), mobius_kantor(), c8_12(),
         lcf_5(20), random_cubic_3ec(12, 1), random_subcubic_2ec(8, 1),
         TWO_CUT_CUBIC, BRIDGED_CUBIC, TWO_CUT_QUARTIC)


@st.composite
def multigraphs(draw):
    """Up to 8 vertices and 14 edges, parallel edges and isolated vertices
    allowed."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=14))
    return make_graph(n, [(u, v) for u, v in pairs if u != v])


def test_every_profile_has_an_oracle_rule():
    assert set(PROFILES) == set(PROFILE_RULES)


@given(st.one_of(multigraphs(), regular_multigraphs(3), regular_multigraphs(4),
                 st.sampled_from(NAMED)),
       st.sampled_from(sorted(PROFILE_RULES)))
@settings(max_examples=400, deadline=None)
def test_profiles_match_the_min_cut_oracle(g, profile):
    """validate_structure against the unit-capacity Stoer-Wagner min cut: the
    same verdict, and a failing cut is a smallest cut, named by its edges."""
    degrees, need, bipartite = PROFILE_RULES[profile]
    conn = unit_min_cut(g)
    degrees_ok = all(d in degrees for d in g.degrees())
    want = degrees_ok and conn >= need and (not bipartite or is_bipartite(g))
    report = validate_structure(g, profile)
    assert report.passed == want
    if want:
        assert report.violation is None
    elif not degrees_ok:
        v, d = map(int, re.fullmatch(r"vertex (\d+) has degree (\d+)", report.violation).groups())
        assert g.degrees()[v] == d and d not in degrees
    elif conn == 0:
        assert report.violation == "disconnected input"
    elif conn < need:
        size, names = re.fullmatch(r"(\d+)-edge cut \{(.*)\}", report.violation).groups()
        ids = frozenset(int(name[1:]) for name in names.split(","))
        assert int(size) == len(ids) == conn
        shore_holding_zero(g, ids)
    else:
        assert report.violation == "odd cycle found"


def brute_force_cuts(G, k):
    """Reference oracle: the edge sets of size <= k that leave some vertex
    shore holding vertex 0, each once, by size, then by sorted edge ids."""
    found = set()
    rest = list(range(1, G.n))
    for size in range(0, G.n - 1):
        for extra in itertools.combinations(rest, size):
            ids = cut_edges(G, (0,) + extra)
            if len(ids) <= k:
                found.add(ids)
    return tuple(sorted(found, key=lambda c: (len(c), sorted(c))))


@st.composite
def connected_multigraphs(draw):
    """A random tree on up to 9 vertices plus extra edges, parallels allowed."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n > 1:
        pairs += [(u, v) for u, v in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
            if u != v]
    order = draw(st.permutations(range(len(pairs))))
    return make_graph(n, [pairs[i] for i in order])


@given(connected_multigraphs(), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_cut_enumeration_matches_brute_force(g, k):
    assert enumerate_cuts_upto(g, k) == brute_force_cuts(g, k)


# Labels of 2-5 bits, so that zero labels, repeated labels and pairs with
# equal XOR are common.
narrow_labels = st.integers(2, 5).flatmap(lambda bits: st.dictionaries(
    st.integers(0, 40), st.integers(0, (1 << bits) - 1), max_size=14))


@given(narrow_labels, st.integers(0, 4))
@settings(max_examples=400, deadline=None)
def test_cuts_upto_follows_the_triple_scan(label, k):
    """The one-sweep pair table lists the same sets as the triple scan, in
    the same order."""
    assert _cuts_upto(label, k) == triple_scan_cuts(label, k)


@given(st.one_of(
    st.builds(random_cubic_3ec, st.integers(2, 16).map(lambda h: 2 * h), st.integers(0, 99)),
    st.builds(lcf_5, st.integers(6, 16).map(lambda h: 2 * h))), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_cut_enumeration_follows_the_triple_scan_on_cubic_graphs(g, k):
    label = _cycle_space_labels(g.edges, g.adjacency())
    assert enumerate_cuts_upto(g, k) == triple_scan_cuts(label, k)


class TestCutEnumeration:
    def test_k4_has_no_small_cuts(self):
        assert len(enumerate_cuts_upto(k4(), 2)) == 0

    def test_c4_has_six_2cuts(self, c4):
        fam = enumerate_cuts_upto(c4, 2)
        assert [len(c) for c in fam] == [2] * 6

    def test_petersen_small_cuts(self):
        fam = enumerate_cuts_upto(petersen(), 4)
        assert sum(len(c) == 3 for c in fam) == 10    # vertex stars
        assert sum(len(c) == 4 for c in fam) == 15    # adjacent-pair shores

    def test_agrees_with_direct_check(self, two_triangles):
        g = two_triangles
        fam = enumerate_cuts_upto(g, 4)
        for cut in fam:
            assert cut_edges(g, shore_holding_zero(g, cut)) == cut
            assert len(cut) <= 4

    def test_disconnected_shore(self):
        # Blobs {0,1} and {4,5} each hang on {2,3} by two edges, so
        # delta({0,1,4,5}) has 4 edges and a shore in two pieces.
        g = make_graph(6, [(0, 1), (0, 2), (1, 3), (4, 5), (2, 4), (3, 5), (2, 3)])
        fam = enumerate_cuts_upto(g, 4)
        assert frozenset({1, 2, 4, 5}) in fam
        assert shore_holding_zero(g, frozenset({1, 2, 4, 5})) == (0, 1, 4, 5)
        assert fam == brute_force_cuts(g, 4)

    def test_parallel_pair_is_a_2cut(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)])
        fam = enumerate_cuts_upto(g, 2)
        assert frozenset({3, 4}) in fam
        assert shore_holding_zero(g, frozenset({3, 4})) == (0, 1, 2)
        assert fam == brute_force_cuts(g, 2)

    def test_bridge(self):
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        assert enumerate_cuts_upto(g, 1) == (frozenset({6}),)
        assert shore_holding_zero(g, frozenset({6})) == (0, 1, 2)

    def test_rejects_large_k_and_disconnected_input(self, c4):
        with pytest.raises(GraphError, match="k <= 4"):
            enumerate_cuts_upto(c4, 5)
        with pytest.raises(GraphError, match="disconnected"):
            enumerate_cuts_upto(make_graph(4, [(0, 1), (2, 3)]), 2)

    def test_edge_connectivity(self, two_triangles):
        # The first cut listed is a smallest one: its size is the unit min cut.
        for g, want in ((k4(), 3), (petersen(), 3), (two_triangles, 2)):
            assert len(enumerate_cuts_upto(g, 4)[0]) == want == unit_min_cut(g)


class TestContract:
    def test_contract_nothing_is_identity(self):
        g = k4()
        h = contract(g, {})
        assert h.n == g.n and h.m == g.m
        assert sorted(h.edge_ids()) == sorted(g.edge_ids())

    def test_contract_triangle_of_k4(self):
        g = k4()
        triangle = {e.id: 1 for e in g.edges if 0 not in (e.u, e.v)}
        h = contract(g, triangle)
        assert (h.n, h.m) == (2, 3)

    def test_contract_petersen_two_factor(self):
        g = petersen()
        factor = {e.id: 1 for e in g.edges
                  if (e.u < 5 and e.v < 5) or (e.u >= 5 and e.v >= 5)}
        h = contract(g, factor)
        assert (h.n, h.m) == (2, 5)


class TestClassify:
    def test_hamiltonian_cycle_of_k4(self):
        g = k4()
        ids = {frozenset((e.u, e.v)): e.id for e in g.edges}
        cyc = {ids[frozenset(p)]: 1 for p in [(0, 1), (1, 2), (2, 3), (3, 0)]}
        assert classify(g, cyc) == {"tour", "twoec-multigraph", "connector", "cycle-cover"}

    def test_spanning_tree_is_connector_only(self):
        g = k4()
        tree = {0: 1, 1: 1, 2: 1}  # star at vertex 0
        assert classify(g, tree) == {"connector"}

    def test_doubled_tree(self):
        g = k4()
        doubled = {0: 2, 1: 2, 2: 2}
        assert classify(g, doubled) == {"tour", "twoec-multigraph", "connector"}

    def test_empty_on_single_vertex(self):
        g = Multigraph(1, ())
        assert classify(g, {}) == {"tour", "twoec-multigraph", "connector"}

    def test_tour_crosses_every_cut_evenly(self):
        g = prism()
        cyc = {e.id: 1 for e in g.edges if abs(e.u - e.v) != 3}  # both triangles
        cyc.update({e.id: 2 for e in g.edges if abs(e.u - e.v) == 3 and e.u == 0})
        labels = classify(g, cyc)
        if "tour" in labels:
            for cut in enumerate_cuts_upto(g, 4):
                crossing = sum(cyc.get(eid, 0) for eid in cut)
                assert crossing % 2 == 0 and crossing >= 2


class TestHelpers:
    def test_multiset_union_and_weight(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)], weight=2)
        u = multiset_union({0: 1}, {0: 1, 2: 1})
        assert u == {0: 2, 2: 1}
        assert multiset_weight(g, u) == 6
        assert multiset_degrees(g, u) == [3, 2, 1]

    def test_bipartite_detection(self):
        assert is_bipartite(k33())
        assert not is_bipartite(k4())


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8))
    pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    pairs += [(u, v) for u, v in extra if u != v]
    return make_graph(n, pairs)


@given(connected_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_cut_edges_symmetric_difference(g, data):
    shore = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
    complement = set(range(g.n)) - shore
    assert cut_edges(g, shore) == cut_edges(g, complement)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_components_partition_vertices(g):
    comps = connected_components(g.n, ((e.u, e.v) for e in g.edges))
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))


NODE_WEIGHT = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(2), F(7, 4)])


class TestNodeWeightsOf:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_recovers_the_node_weights(self, data):
        g = data.draw(st.sampled_from([k4(), petersen(), prism(), k33(), heawood(),
                                       mobius_kantor(), random_cubic_3ec(12, 3),
                                       random_subcubic_2ec(9, 2)]))
        f = [data.draw(NODE_WEIGHT) for _ in range(g.n)]
        gw = reweighted(g, {e.id: f[e.u] + f[e.v] for e in g.edges})
        got = node_weights_of(gw, GraphError)
        assert all(v >= 0 for v in got)
        assert all(e.weight == got[e.u] + got[e.v] for e in gw.edges)
        if is_bipartite(g):
            # f is known up to a shift, and the least shift leaves a 0.
            assert min(got) == 0
        else:
            assert list(got) == f

    @pytest.mark.parametrize("g", [petersen(), heawood()], ids=["petersen", "heawood"])
    def test_rejects_one_edge_off(self, g):
        # With G - e connected, no f fits the other edges and e too.
        gw = reweighted(g, {e.id: F(2) + (e.id == 4) for e in g.edges})
        with pytest.raises(GraphError, match=r"not node-induced: e\d+ weighs"):
            node_weights_of(gw, GraphError)

    def test_rejects_a_negative_node_weight(self):
        # Petersen's f is unique; Heawood's shift cannot lift vertex 0 off
        # -1 without pushing vertex 9 (0 here, and not adjacent to 0) below 0.
        f = [F(-1)] + [F(1)] * 9
        gw = reweighted(petersen(), {e.id: f[e.u] + f[e.v] for e in petersen().edges})
        with pytest.raises(GraphError, match=r"f\(0\) = -1 < 0"):
            node_weights_of(gw, GraphError)
        h = heawood()
        assert 9 not in {w for w, _ in h.adjacency()[0]}
        f = [F(-1)] + [F(1)] * 8 + [F(0)] + [F(1)] * 4
        hw = reweighted(h, {e.id: f[e.u] + f[e.v] for e in h.edges})
        with pytest.raises(GraphError, match="node weights f >= 0"):
            node_weights_of(hw, GraphError)

    def test_rejects_a_disconnected_graph(self):
        with pytest.raises(GraphError, match="disconnected"):
            node_weights_of(make_graph(4, [(0, 1), (2, 3)]), GraphError)


# Exact sums in ints over one lcm, against the term-by-term Fraction sums.
RATIONAL = st.builds(F, st.integers(0, 30), st.integers(1, 12))
POSITIVE = st.one_of(st.builds(F, st.integers(1, 30), st.integers(1, 12)), st.integers(1, 30))


@st.composite
def weighted_graphs(draw, weight=st.one_of(RATIONAL, st.integers(0, 30))):
    """2 to 8 vertices and up to 14 edges, each weighing a Fraction over a
    denominator 1-12 or an int."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=14))
    return Multigraph(n, tuple(Edge(u, v, draw(weight), i) for i, (u, v) in enumerate(pairs)))


@given(weighted_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_multiset_weight_is_the_fraction_sum(g, data):
    # Ids reach past G's edges, multiplicities include 0, and H may be empty.
    H = data.draw(st.dictionaries(st.integers(0, g.m + 2), st.integers(0, 3)))
    got = multiset_weight(g, H)
    assert type(got) is F
    assert got == fraction_multiset_weight(g, H)


def test_multiset_weight_of_nothing():
    g = make_graph(3, [(0, 1), (1, 2)], weight=F(5, 7))
    for H in ({}, {0: 0, 1: 0}, {7: 2}):
        assert type(multiset_weight(g, H)) is F and multiset_weight(g, H) == 0


@given(weighted_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_induced_weights_and_totals_are_the_fraction_sums(g, data):
    f = NodeWeights(tuple(data.draw(POSITIVE) for _ in range(g.n)))
    gw = f.induced_graph(g)
    assert [(e.u, e.v, e.id) for e in gw.edges] == [(e.u, e.v, e.id) for e in g.edges]
    want = fraction_induced_weights(f.f, g)
    for e in gw.edges:
        assert type(e.weight) is F and e.weight == want[e.id]
    for got, values in ((f.total(), f.f), (g.total_weight(), [e.weight for e in g.edges]),
                        (gw.total_weight(), list(want.values()))):
        assert type(got) is F and got == fraction_sum(values)
