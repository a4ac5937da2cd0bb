import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unicover import connectors
from unicover.connectors import (decomposition, even_2cut_connectors, normalize_connectors,
                                 two_cut_classes)
from unicover.decompose import (DecompositionError, clip_at_two, decompose_connectors,
                                reduce_int_terms, verify_combination)
from unicover.families import k4, petersen, random_node_weights, random_subcubic_2ec
from unicover.graph import (GraphError, classify, multiset_degrees, odd_two_cut, one_edge_cuts,
                            two_cut_groups)
from unicover.lp import everywhere, membership, solve_subtour
from unicover.simplex import LpError

from conftest import (fraction_normalize_connectors, make_graph, one_edge_cuts_oracle,
                      support_bridges, support_components, two_cut_pairs_oracle,
                      two_edge_connected)

F = Fraction


def two_triangles_x(two_triangles):
    """All ones except a half/three-halves split across the bridge pair."""
    x = everywhere(two_triangles, F(1))
    x[6] = F(1, 2)
    x[7] = F(3, 2)
    return x


def two_cut_pairs(G, x):
    """The pairs of edges in one group of two_cut_groups, in id order: the
    2-edge cuts of x's support."""
    return sorted(pair for group in two_cut_groups(G, x)
                  for pair in itertools.combinations(group, 2))


class TestTwoCutPairs:
    def test_c4_all_pairs(self, c4):
        pairs = two_cut_pairs(c4, everywhere(c4, F(1)))
        assert len(pairs) == 6

    def test_k4_has_none(self):
        assert two_cut_pairs(k4(), everywhere(k4(), F(1))) == []

    def test_three_parallel_edges_have_none(self):
        g = make_graph(2, [(0, 1)] * 3)
        assert two_cut_pairs(g, {0: F(1, 2), 1: F(3, 2), 2: F(3, 2)}) == []

    def test_bridge_pair_found(self, two_triangles):
        pairs = two_cut_pairs(two_triangles, everywhere(two_triangles, F(1)))
        assert (6, 7) in pairs

    def test_rejects_disconnected_support(self, c4):
        with pytest.raises(GraphError, match="connected"):
            two_cut_groups(c4, {0: F(1), 2: F(1)})

    def test_rejects_a_support_with_a_bridge(self):
        # The pendant edge 3-4 is a bridge, so no pair is a 2-edge cut.
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
        with pytest.raises(GraphError, match="support is not 2-edge-connected"):
            two_cut_groups(g, everywhere(g, F(1)))
        with pytest.raises(GraphError, match="support is not 2-edge-connected"):
            two_cut_classes(g, everywhere(g, F(1)))

    def test_odd_crossing_names_the_least_pair(self, c4, two_triangles):
        groups = two_cut_groups(c4, everywhere(c4, F(1)))
        assert groups == [[0, 1, 2, 3]]
        assert odd_two_cut({0: 1, 1: 1, 2: 2, 3: 1}, groups) == (0, 2)
        assert odd_two_cut({0: 2, 1: 0, 2: 2}, groups) is None
        groups = two_cut_groups(two_triangles, everywhere(two_triangles, F(1)))
        assert odd_two_cut({6: 1}, groups) == (6, 7)
        assert odd_two_cut({6: 2, 7: 2}, groups) is None


class TestTwoCutClasses:
    def test_c4_single_d1_class(self, c4):
        classes = two_cut_classes(c4, everywhere(c4, F(1)))
        assert len(classes) == 1
        cls = classes[0]
        assert cls.kind == "D1" and cls.edge_ids == frozenset({0, 1, 2, 3})

    def test_k4_no_classes(self):
        assert len(two_cut_classes(k4(), everywhere(k4(), F(2, 3)))) == 0

    def test_three_parallel_edges_no_classes(self):
        g = make_graph(2, [(0, 1)] * 3)
        assert len(two_cut_classes(g, {0: F(1, 2), 1: F(3, 2), 2: F(3, 2)})) == 0

    def test_two_triangles_mixed(self, two_triangles):
        classes = two_cut_classes(two_triangles, two_triangles_x(two_triangles))
        kinds = {frozenset(c.edge_ids): c.kind for c in classes}
        assert kinds[frozenset({6, 7})] == "D2"
        d2 = next(c for c in classes if c.kind == "D2")
        assert d2.distinguished == 6

    def test_rejects_vector_outside_polyhedron(self, two_triangles):
        x = everywhere(two_triangles, F(1))
        x[6] = x[7] = F(1, 2)
        with pytest.raises(DecompositionError):
            two_cut_classes(two_triangles, x)


def coverage(terms):
    out = {}
    for c, f in terms:
        for eid, m in f.items():
            out[eid] = out.get(eid, F(0)) + c * m
    return out


class TestNormalize:
    def test_no_pair_two_and_zero(self, two_triangles):
        x = two_triangles_x(two_triangles)
        base = decompose_connectors(two_triangles, x)
        norm = normalize_connectors(base, x, two_triangles)
        for eid in x:
            mults = [f.get(eid, 0) for _, f in norm]
            assert not (2 in mults and 0 in mults)
        assert coverage(norm) == coverage(base)

    def test_coefficients_still_sum_to_one(self):
        g = petersen()
        x = everywhere(g, F(1))
        base = decompose_connectors(g, x)
        norm = normalize_connectors(base, x, g)
        assert sum(c for c, _ in norm) == 1

    def test_matches_the_fraction_rebalance(self, monkeypatch):
        # Coefficients kept as ints over one denominator give the terms
        # that Fraction coefficients re-reduced by caratheodory_reduce give,
        # the re-reductions inside the loop included.
        cuts = []

        def counted(Q, terms, limit):
            cuts.append(len(terms) > limit)
            return reduce_int_terms(Q, terms, limit)
        monkeypatch.setattr(connectors, "reduce_int_terms", counted)
        for seed in range(6):
            g = random_node_weights(10, seed + 100).induced_graph(random_subcubic_2ec(10, seed))
            x = solve_subtour(g).x
            base = decompose_connectors(g, x)
            xbar = clip_at_two(x)
            assert (normalize_connectors([(c, dict(f)) for c, f in base], xbar, g)
                    == fraction_normalize_connectors([(c, dict(f)) for c, f in base], xbar, g))
        assert any(cuts[:-1]), "no re-reduction inside the loop cut a term"


class TestEven2CutConnectors:
    def check(self, g, x):
        comb = even_2cut_connectors(g, x)
        verify_combination(g, comb, "connector")
        assert comb.relation == "dominated-by"
        for a, b in two_cut_pairs_oracle(g, x):
            for t in comb.terms:
                f = t.multiset()
                assert (f.get(a, 0) + f.get(b, 0)) % 2 == 0
        return comb

    def test_c4_every_term_full_cycle(self, c4):
        comb = self.check(c4, everywhere(c4, F(1)))
        for t in comb.terms:
            assert dict(t.edges) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_two_triangles_d2_case(self, two_triangles):
        x = two_triangles_x(two_triangles)
        comb = self.check(two_triangles, x)
        # Terms avoiding the half-value bridge must double its partner.
        for t in comb.terms:
            f = t.multiset()
            if f.get(6, 0) == 0:
                assert f.get(7, 0) == 2

    def test_class_free_input_unchanged_coverage(self):
        g = k4()
        x = everywhere(g, F(1))
        comb = even_2cut_connectors(g, x)
        assert comb.coverage() == x

    def test_random_subcubic(self):
        for seed in range(8):
            g = random_subcubic_2ec(10, seed)
            self.check(g, everywhere(g, F(1)))


@st.composite
def supports(draw):
    """A small multigraph with parallel edges, an edge multiset H with
    multiplicities up to 2 and a vector x with halves, each possibly
    leaving edges out."""
    n = draw(st.integers(2, 6))
    pairs = [(i, (i + 1) % n) for i in range(n)] if draw(st.booleans()) else []
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda p: p[0] != p[1]), min_size=1, max_size=8))
    g = make_graph(n, pairs)
    H = {e.id: draw(st.sampled_from((0, 1, 1, 2))) for e in g.edges}
    x = {e.id: draw(st.sampled_from((F(0), F(1, 2), F(1), F(1), F(3, 2), F(2))))
         for e in g.edges}
    return g, H, x


@given(supports())
@settings(max_examples=200, deadline=None)
def test_small_cuts_match_the_remove_and_recount_oracles(case):
    g, H, x = case
    spanning = len(support_components(g, H)) == 1
    even = all(d % 2 == 0 for d in multiset_degrees(g, H))
    expected = {label for label, holds in (
        ("tour", spanning and even), ("twoec-multigraph", two_edge_connected(g, H)),
        ("connector", spanning)) if holds}
    assert classify(g, H) - {"cycle-cover"} == expected
    if spanning:
        assert one_edge_cuts(g, H) == one_edge_cuts_oracle(g, H)
    else:
        with pytest.raises(GraphError, match="F is not connected"):
            one_edge_cuts(g, H)

    if len(support_components(g, x)) > 1:
        error = "support is not spanning connected"
    elif support_bridges(g, x):
        error = "support is not 2-edge-connected"
    else:
        pairs = two_cut_pairs_oracle(g, x)
        assert two_cut_pairs(g, x) == pairs
        assert odd_two_cut(H, two_cut_groups(g, x)) == next(
            ((a, b) for a, b in pairs if (H.get(a, 0) + H.get(b, 0)) % 2), None)
        partners = {}
        for a, b in pairs:
            partners.setdefault(a, {a}).add(b)
            partners.setdefault(b, {b}).add(a)
        classes = sorted({frozenset(c) for c in partners.values()}, key=min)
        if any(sum(x[eid] < 1 for eid in c) > 1 for c in classes):
            with pytest.raises(DecompositionError, match="below 1"):
                two_cut_classes(g, x)
        else:
            got = two_cut_classes(g, x)
            assert [c.edge_ids for c in got] == classes
            for c in got:
                sub_one = [eid for eid in c.edge_ids if x[eid] < 1]
                assert (c.kind, c.distinguished) == (
                    ("D2", sub_one[0]) if sub_one else ("D1", None))
        return
    for scan in (two_cut_groups, two_cut_classes):
        with pytest.raises(GraphError, match=error):
            scan(g, x)


def test_even_2cut_connectors_requires_connectors_without_classes(monkeypatch):
    # K4 at 2/3 has no 2-edge cut, so the normalized terms are returned as
    # they are; a term with three copies of an edge is not a connector.
    normalize = connectors.normalize_connectors

    def tripled(terms, x, G):
        (c, f), *rest = normalize(terms, x, G)
        return [(c, {**f, 0: 3})] + rest

    monkeypatch.setattr(connectors, "normalize_connectors", tripled)
    g = k4()
    with pytest.raises(DecompositionError, match="not a connector"):
        even_2cut_connectors(g, everywhere(g, F(2, 3)))


@given(supports())
@settings(max_examples=150, deadline=None)
def test_connector_stages_outside_subtour_raise_or_verify(case):
    # The connector stages do not test their input.  Given a vector outside
    # the subtour polytope, each must raise a library error or return a
    # decomposition that verifies.
    g, _, x = case
    assume(not membership(g, x).inside)
    for kind in ("connectors", "even2cut"):
        try:
            comb = decomposition(g, x, kind)
        except (GraphError, LpError):
            continue
        verify_combination(g, comb, "connector")


def test_decomposition_rejects_an_unknown_kind():
    g = k4()
    with pytest.raises(DecompositionError, match="unknown decomposition kind 'forests'"):
        decomposition(g, everywhere(g, F(1)), "forests")
