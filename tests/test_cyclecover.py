import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicover import serialize
from unicover.approx import tsp_7_5_node_weighted, twoec_13_10_node_weighted
from unicover.cyclecover import (CycleCoverError, CycleCoverResult, _perfect_matchings,
                                 find_covering_cycle_cover, verify_contraction)
from unicover.families import (heawood, k4, k33, mobius_kantor, petersen, prism,
                               random_cubic_3ec, random_node_weights)
from unicover.graph import (GraphError, contract, enumerate_cuts_upto, is_bipartite,
                            multiset_degrees)
from unicover.lp import min_cut
from unicover.verify import verify_document

from conftest import (BRIDGED_CUBIC, TWO_CUT_CUBIC, make_graph, regular_multigraphs,
                      set_scan_matchings, set_scan_search, unit_min_cut)


def brute_force_cover(g):
    """First 2-factor (by edge-id subsets) covering all 3- and 4-edge cuts."""
    targets = [c for c in enumerate_cuts_upto(g, 4) if len(c) in (3, 4)]
    ids = sorted(g.edge_ids())
    for subset in itertools.combinations(ids, g.n):
        chosen = set(subset)
        deg = multiset_degrees(g, {eid: 1 for eid in chosen})
        if all(d == 2 for d in deg) and \
                all(len(chosen & c) >= 2 for c in targets):
            return chosen
    return None


class TestPerfectMatchings:
    def test_k4_has_three(self):
        assert len(list(_perfect_matchings(k4()))) == 3

    def test_petersen_has_six(self):
        assert len(list(_perfect_matchings(petersen()))) == 6

    def test_all_are_matchings(self):
        g = prism()
        for matching in _perfect_matchings(g):
            deg = multiset_degrees(g, {eid: 1 for eid in matching})
            assert all(d == 1 for d in deg)

    def test_odd_graph_has_none(self):
        g = make_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert list(_perfect_matchings(g)) == []


class TestFindCover:
    def test_k4(self):
        res = find_covering_cycle_cover(k4())
        assert len(res.cover) == 4
        assert len(res.cycles) == 1
        assert set(res.cover) | set(res.matching) == set(k4().edge_ids())

    def test_petersen_two_factor_all_cross(self):
        res = find_covering_cycle_cover(petersen())
        assert len(res.cover) == 10
        assert res.intra_cycle == ()
        assert len(res.cross_cycle) == 5
        for _, crossing in res.covered_cuts:
            assert crossing >= 2

    def test_covers_all_small_cuts(self):
        for g in [k33(), prism(), heawood(), mobius_kantor()]:
            res = find_covering_cycle_cover(g)
            targets = [c for c in enumerate_cuts_upto(g, 4) if len(c) in (3, 4)]
            chosen = set(res.cover)
            for c in targets:
                assert len(chosen & c) >= 2

    def test_matches_brute_force_existence(self):
        for seed in range(5):
            g = random_cubic_3ec(10, seed)
            res = find_covering_cycle_cover(g)
            assert brute_force_cover(g) is not None
            deg = multiset_degrees(g, res.cover_multiset())
            assert all(d == 2 for d in deg)

    def test_rejects_non_cubic(self, c4):
        with pytest.raises(CycleCoverError):
            find_covering_cycle_cover(c4)

    def test_rejects_bridge(self):
        g = make_graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                           (4, 5)])
        with pytest.raises(CycleCoverError):
            find_covering_cycle_cover(g)

    def test_accepts_a_bridgeless_cubic_graph_with_a_2_edge_cut(self):
        res = find_covering_cycle_cover(TWO_CUT_CUBIC)
        assert res.cover == (1, 2, 3, 4, 6, 7, 8, 9)

    def test_rejects_a_cubic_graph_with_a_bridge(self):
        with pytest.raises(CycleCoverError,
                           match=r"^profile cubic-2ec fails: 1-edge cut \{e14\}$"):
            find_covering_cycle_cover(BRIDGED_CUBIC)


class TestContraction:
    def test_petersen_contraction_5ec(self):
        g = petersen()
        h = verify_contraction(g, find_covering_cycle_cover(g))
        assert h.n > 1 and min_cut(h, {e.id: 1 for e in h.edges})[0] >= 5

    def test_bipartite_contraction_even_6ec(self):
        for g in [k33(), heawood(), mobius_kantor()]:
            h = verify_contraction(g, find_covering_cycle_cover(g))
            assert all(d % 2 == 0 for d in h.degrees())
            if h.n > 1:
                assert min_cut(h, {e.id: 1 for e in h.edges})[0] >= 6

    def test_hamiltonian_cover_contracts_to_point(self):
        g = k4()
        h = verify_contraction(g, find_covering_cycle_cover(g))
        assert h.n == 1 and h.m == 0

    def test_contraction_edges_are_matching(self):
        for seed in range(5):
            g = random_cubic_3ec(12, seed)
            res = find_covering_cycle_cover(g)
            h = verify_contraction(g, res)
            assert h == contract(g, res.cover_multiset())
            assert h.m == len(res.cross_cycle)

    def test_rejects_a_cover_missing_a_3_edge_cut(self):
        # The prism's two triangles leave the three rungs, a 3-edge cut, as
        # G/C: two vertices joined by three edges.
        g = prism()
        res = replace(find_covering_cycle_cover(g), cover=(0, 1, 2, 3, 4, 5))
        with pytest.raises(CycleCoverError, match="bad contraction: 3-edge cut"):
            verify_contraction(g, res)

    def test_rejects_a_5_edge_cut_of_a_bipartite_input_by_parity(self):
        # These Heawood edges form two components, joined by 5 edges in G/C: no
        # cut of at most 4 edges, but odd degrees, so not 6-edge-connected.
        g = heawood()
        cover = (0, 3, 6, 7, 8, 9, 10, 13, 14, 16, 17, 20)
        assert contract(g, {eid: 1 for eid in cover}).degrees() == [5, 5]
        res = replace(find_covering_cycle_cover(g), cover=cover)
        with pytest.raises(CycleCoverError, match="bad contraction: odd degree"):
            verify_contraction(g, res)


CUBIC = (k4(), k33(), prism(), petersen(), heawood(), mobius_kantor(),
         random_cubic_3ec(10, 1), random_cubic_3ec(12, 2), TWO_CUT_CUBIC, BRIDGED_CUBIC)


@pytest.mark.parametrize("g", CUBIC)
def test_perfect_matchings_follow_the_set_scan(g):
    assert list(_perfect_matchings(g)) == list(set_scan_matchings(g))


# All but BRIDGED_CUBIC, which fails the profile test.
@pytest.mark.parametrize("g", CUBIC[:-1] + tuple(
    random_cubic_3ec(n, seed) for n in (14, 18, 24) for seed in (1, 2)))
def test_search_follows_the_set_scan(g):
    """The bitmask search returns the set scan's cover, built alike."""
    assert find_covering_cycle_cover(g) == set_scan_search(g)


@st.composite
def covers(draw):
    """A cubic graph (sometimes only nearly cubic) and an edge set to
    contract: the complement of one of its first perfect matchings, or any
    set of its edges."""
    g = draw(st.one_of(st.sampled_from(CUBIC), regular_multigraphs(3)))
    matchings = list(itertools.islice(_perfect_matchings(g), 40))
    if matchings and draw(st.booleans()):
        matching = set(draw(st.sampled_from(matchings)))
        cover = [eid for eid in g.edge_ids() if eid not in matching]
    else:
        cover = draw(st.lists(st.sampled_from(g.edge_ids()), unique=True))
    return g, tuple(sorted(cover))


@given(covers())
@settings(max_examples=300, deadline=None)
def test_contraction_check_matches_the_min_cut_oracle(drawn):
    """verify_contraction accepts exactly when G/C is one vertex, or has a
    unit min cut of at least 5, and for a bipartite G of at least 6 with
    every degree even."""
    g, cover = drawn
    h = contract(g, {eid: 1 for eid in cover})
    bip = is_bipartite(g)
    want = h.n == 1 or (unit_min_cut(h) >= (6 if bip else 5)
                        and not (bip and any(d % 2 for d in h.degrees())))
    res = CycleCoverResult(cover, (), (), (), (), ())
    try:
        assert verify_contraction(g, res) == h
    except GraphError:
        assert not want
    else:
        assert want


@pytest.mark.parametrize("n", [24, 28, 32])
def test_beyond_twenty_vertices(n):
    """Cycle covers and the node-weighted approximations past the old n <= 20
    cap, each verified from its document.  verify checks an approx
    document's stored LP optimum and dual without solving the LP, so this
    stays fast at n = 32."""
    g, f = random_cubic_3ec(n, 0), random_node_weights(n, 0)
    gw = f.induced_graph(g)
    res = find_covering_cycle_cover(gw)
    assert verify_document(serialize.cycle_cover_to_json(gw, res)).ok
    for run in (tsp_7_5_node_weighted, twoec_13_10_node_weighted):
        out = run(g, f)
        assert out.weight <= out.ratio * out.lower_bound
        assert verify_document(serialize.approx_to_json(gw, out)).ok
