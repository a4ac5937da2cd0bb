import itertools
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from unicover import decompose, serialize
from unicover.connectors import decomposition
from unicover.covers import uniform_cover
from unicover.decompose import (ConvexCombination, DecompositionError, Term,
                                _equality_master, _minimal_covers,
                                _one_cover_price, canonical,
                                caratheodory_reduce, decompose_connectors,
                                decompose_one_covers, decompose_spanning_trees,
                                decompose_tjoins, make_combination, min_tjoin,
                                pack_spanning_trees, verify_combination, wolsey_tours)
from unicover.families import k4, k33, petersen, prism, random_cubic_3ec
from unicover.graph import (GraphError, classify, connected_components, cut_edges,
                            multiset_degrees, one_edge_cuts)
from unicover.lp import everywhere
from unicover.simplex import Adjugate, solve_lp

from conftest import (exhaustive_one_cover, kernel_vector, make_graph, mask_scan_min_tjoin,
                      restart_caratheodory)
import test_golden as golden

F = Fraction


def spanning_trees_of(g):
    """All spanning trees by exhaustive enumeration (oracle helper)."""
    out = []
    for subset in itertools.combinations(sorted(g.edge_ids()), g.n - 1):
        chosen = set(subset)
        comps = connected_components(
            g.n, ((e.u, e.v) for e in g.edges if e.id in chosen))
        if len(comps) == 1:
            out.append({eid: 1 for eid in subset})
    return out


def tree_packing_feasible(g, x):
    """Exhaustive-LP oracle: max total tree packing under x reaches 1."""
    trees = spanning_trees_of(g)
    ids = sorted(x)
    rows = [([F(t.get(eid, 0)) for t in trees], "<=", x[eid]) for eid in ids]
    sol = solve_lp([F(-1)] * len(trees), rows)
    return -sol.value >= 1


class TestSpanningTrees:
    def test_parallel_pair(self):
        g = make_graph(2, [(0, 1), (0, 1)])
        comb = decomposition(g, everywhere(g, F(1)), "trees")
        verify_combination(g, comb, "connector")
        for t in comb.terms:
            assert sum(m for _, m in t.edges) == 1

    def test_k4_two_thirds(self):
        g = k4()
        comb = decomposition(g, everywhere(g, F(2, 3)), "trees")
        verify_combination(g, comb, "connector")
        for t in comb.terms:
            assert sum(m for _, m in t.edges) == g.n - 1

    def test_c4_all_ones(self, c4):
        comb = decomposition(c4, everywhere(c4, F(1)), "trees")
        verify_combination(c4, comb)
        cov = comb.coverage()
        assert all(v <= 1 for v in cov.values())

    def test_matches_exhaustive_oracle(self, c4, two_triangles):
        for g, r in [(k4(), F(2, 3)), (c4, F(1)), (prism(), F(2, 3))]:
            x = everywhere(g, r)
            assert tree_packing_feasible(g, x)
            verify_combination(g, decomposition(g, x, "trees"))

    def test_infeasible_rejected(self, c4):
        with pytest.raises(DecompositionError):
            decompose_spanning_trees(c4, everywhere(c4, F(1, 2)))

    def test_outside_dominant_names_the_dual(self, monkeypatch):
        # 1/4 everywhere packs spanning trees to 1/2 on K4 and to 2/5 on a
        # cubic graph of 16 vertices.  Below 1 the master runs to its
        # optimum, so w is its proof, and the message names it.
        packings = record_packings(monkeypatch)
        for g, value, weight in ((k4(), F(1, 2), "1/3"), (random_cubic_3ec(16, 1), F(2, 5), "1/15")):
            with pytest.raises(DecompositionError) as info:
                pack_spanning_trees(g, everywhere(g, F(1, 4)))
            shown = ", ".join(f"e{eid}: {weight}" for eid in range(g.m))
            assert str(info.value) == (
                f"spanning tree packing value {value} < 1, so x is outside the dominant: "
                f"every spanning tree weighs at least 1 under w = {{{shown}}}, but w.x = {value}")
            packing = packings[-1][3]
            assert packing.sigma == value and packing.terms == []
            assert prim_min_tree(g, packing.w) >= 1

    def test_deterministic(self):
        g = petersen()
        a = decompose_spanning_trees(g, everywhere(g, F(2, 3)))
        b = decompose_spanning_trees(g, everywhere(g, F(2, 3)))
        assert a == b


class TestConnectors:
    def test_c4_identity(self, c4):
        x = everywhere(c4, F(1))
        comb = decomposition(c4, x, "connectors")
        verify_combination(c4, comb, "connector")
        assert comb.relation == "equals"
        assert comb.coverage() == x

    def test_three_parallel_edges(self):
        g = make_graph(2, [(0, 1), (0, 1), (0, 1)])
        x = {0: F(1, 2), 1: F(3, 2), 2: F(3, 2)}
        comb = decomposition(g, x, "connectors")
        verify_combination(g, comb, "connector")
        assert comb.coverage() == x

    def test_doubled_tree_identity(self):
        g = k4()
        x = {0: F(2), 1: F(2), 2: F(2)}
        terms = decompose_connectors(g, x)
        assert len(terms) == 1
        assert terms[0][1] == {0: 2, 1: 2, 2: 2}

    def test_clips_above_two(self):
        g = make_graph(2, [(0, 1), (0, 1)])
        comb = decomposition(g, {0: F(3), 1: F(2)}, "connectors")
        assert comb.coverage() == {0: F(2), 1: F(2)}

    def test_equality_exact_on_lp_vectors(self, two_triangles):
        from unicover.lp import solve_subtour
        for g in [k4(), k33(), two_triangles]:
            x = solve_subtour(g).x
            comb = decomposition(g, x, "connectors")
            assert comb.coverage() == {eid: min(v, F(2)) for eid, v in x.items()}


class TestEqualityMaster:
    def test_infeasible_target_returns_none(self):
        # Exact maximum over the objects holding 0, 1 or 2 copies of edge 0;
        # no average of them reaches 3.
        def at_most_two_copies(weights):
            k = max(range(3), key=lambda k: weights[0] * k)
            return weights[0] * k, {0: k}

        assert _equality_master([(0, F(3))], lambda index: at_most_two_copies) is None


class TestTJoins:
    def test_empty_t(self):
        terms = decompose_tjoins(k4(), {}, set())
        assert len(terms) == 1 and terms[0][1] == {}

    def test_cycle_arcs(self, c4):
        x = everywhere(c4, F(1, 2))
        comb = make_combination(c4, decompose_tjoins(c4, x, {0, 2}), x, "dominated-by")
        verify_combination(c4, comb)
        for t in comb.terms:
            deg = multiset_degrees(c4, t.multiset())
            assert {v for v in range(4) if deg[v] % 2 == 1} == {0, 2}

    def test_one_third_on_cubic(self):
        g = petersen()
        x = everywhere(g, F(1, 3))
        comb = make_combination(g, decompose_tjoins(g, x, {0, 1, 2, 3}), x, "dominated-by")
        verify_combination(g, comb)

    def test_odd_t_rejected(self):
        with pytest.raises(Exception, match="odd"):
            decompose_tjoins(k4(), {}, {0})

    def test_outside_dominant_names_the_dual(self, monkeypatch):
        # The minimum {0, 1}-odd cut of 1/4 everywhere is a vertex star, 3/4.
        packings = record_packings(monkeypatch)
        for g in (k4(), random_cubic_3ec(16, 1)):
            x = everywhere(g, F(1, 4))
            with pytest.raises(DecompositionError,
                               match=r"T-join packing value 3/4 < 1.*w\.x = 3/4") as info:
                decompose_tjoins(g, x, {0, 1})
            # The master's weights certify it, and the message names them:
            # every T-join weighs at least 1.
            packing = packings[-1][3]
            assert packing.sigma == F(3, 4) and packing.terms == []
            w = packing.w
            shown = ", ".join(f"e{eid}: {v}" for eid, v in w.items() if v)
            assert f"w = {{{shown}}}" in str(info.value)
            assert sorted(w) == sorted(x)
            assert all(v >= 0 for v in w.values())
            assert sum(w[eid] * v for eid, v in x.items()) == F(3, 4)
            assert min_tjoin(g, w, {0, 1})[0] >= 1


def record_packings(monkeypatch):
    """Wrap decompose._pack, its Tableau and the three packing oracle
    builders from outside.  Each packing appends (G, x, (builder name, its
    arguments), Packing, rounds) to the list returned; rounds holds, per
    pricing call of its master, the restricted master's sum(lambda) read
    from the tableau before the call and whether the object priced out."""
    seen, built, tableaux = [], [], []
    for name in ("_mst_price", "_tjoin_price", "_one_cover_price"):
        def builder(*args, name=name, real=getattr(decompose, name)):
            built.append((name, args))
            return real(*args)
        monkeypatch.setattr(decompose, name, builder)

    class Recorded(decompose.Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            tableaux.append(self)

    pack = decompose._pack

    def recording(G, x, oracle):
        rounds = []

        def recorded_oracle(index):
            price = oracle(index)

            def priced(w):
                tab = tableaux[-1]
                z, scale = tab.int_obj()
                value, obj = price(w)
                rounds.append((F(-z, scale), value < tab.D))
                return value, obj
            return priced

        packing = pack(G, x, recorded_oracle)
        seen.append((G, x, built[-1], packing, rounds))
        return packing

    monkeypatch.setattr(decompose, "Tableau", Recorded)
    monkeypatch.setattr(decompose, "_pack", recording)
    return seen


def prim_min_tree(G, w):
    """The least weight of a spanning tree in the edges that w lists, grown
    from vertex 0 by Prim's rule; None when they do not span G."""
    edges = [e for e in G.edges if e.id in w]
    inside, total = {0}, F(0)
    while len(inside) < G.n:
        leaving = [e for e in edges if (e.u in inside) != (e.v in inside)]
        if not leaving:
            return None
        e = min(leaving, key=lambda e: w[e.id])
        inside |= {e.u, e.v}
        total += w[e.id]
    return total


def k4_star_links():
    """K4, the 1-edge cuts of its star at vertex 0 as crossing sets, and the
    three links off the star: each crossing set is the two links at one
    leaf, so every 1-cover takes two links."""
    g = k4()
    star = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
    crossing = [cut_edges(g, shore) for shore, _ in one_edge_cuts(g, star)]
    return g, crossing, [e.id for e in g.edges if e.id not in star]


def pack_one_covers(g, crossing, x):
    """The 1-cover packing master on x itself, its oracle looked up on the
    module so that record_packings sees it."""
    packing = decompose._pack(g, x, lambda index: decompose._one_cover_price(crossing, index))
    return packing.terms_of(x, "1-cover")


def refuse_each_class():
    """One input outside each class's dominant: 1/4 everywhere on K4 packs
    spanning trees to 1/2 and {0, 1}-joins to 3/4, and 1/2 on the links off
    K4's star packs its 1-covers to 3/4."""
    g, crossing, links = k4_star_links()
    quarter = everywhere(g, F(1, 4))
    for refusal in (lambda: pack_spanning_trees(g, quarter),
                    lambda: decompose_tjoins(g, quarter, {0, 1}),
                    lambda: pack_one_covers(g, crossing, {eid: F(1, 2) for eid in links})):
        with pytest.raises(DecompositionError, match="packing value"):
            refusal()


def build_golden_covers():
    for variant, family, sha in golden.COVERS:
        G = family()
        assert golden.digest(serialize.certificate_to_json(G, uniform_cover(G, variant))) == sha


def test_every_golden_packing_carries_its_proof(monkeypatch):
    # Every tree, T-join and 1-cover packing of the golden covers, and one
    # refusal of each class.  A packing with terms packs sigma >= 1 copies
    # of their coverage below x.  Where the last pricing call found no
    # improving object, the master ran to its optimum and w is its proof:
    # nonnegative, weighing x at sigma exactly and every object of the class
    # at least 1, by the tests' own oracles.  A master that stops at value 1
    # prices no more, so its last call improved and its w proves nothing;
    # every golden master stops so, and only the refusals carry the proof.
    packings = record_packings(monkeypatch)
    build_golden_covers()
    refuse_each_class()
    packed, proved = set(), set()
    for G, x, (name, args), packing, rounds in packings:
        w = packing.w
        assert sorted(w) == sorted(eid for eid, v in x.items() if v > 0)
        if packing.terms:
            assert packing.sigma >= 1
            assert sum(c for c, _ in packing.terms) == 1
            cover = decompose.coverage_of([(c, obj.items()) for c, obj in packing.terms])
            assert all(packing.sigma * v <= x[eid] for eid, v in cover.items())
            packed.add(name)
        else:
            assert packing.sigma < 1
        if rounds[-1][1]:
            assert packing.terms
            continue
        assert all(v >= 0 for v in w.values())
        assert sum(v * x[eid] for eid, v in w.items()) == packing.sigma
        if name == "_mst_price":
            least = prim_min_tree(G, w)
        elif name == "_tjoin_price":
            least = mask_scan_min_tjoin(G, w, args[2])[0]
        else:
            least = exhaustive_one_cover(args[0], w, w)[0]
        assert least >= 1
        proved.add(name)
    assert packed == proved == {"_mst_price", "_tjoin_price", "_one_cover_price"}


def test_golden_masters_price_nothing_once_they_pack_value_1(monkeypatch):
    # A restricted optimum's sum(lambda) never falls from one pricing call
    # to the next, and every call sees it below 1; each golden master packs
    # at least 1 though its last call still improved, so the stop ended it.
    packings = record_packings(monkeypatch)
    build_golden_covers()
    assert packings
    for _, _, _, packing, rounds in packings:
        values = [v for v, _ in rounds]
        assert values == sorted(values) and values[-1] < 1 <= packing.sigma
        assert rounds[-1][1]


class TestMinTJoin:
    def test_a_negative_weight_raises(self, c4):
        # Dijkstra would settle vertex 1 at 1 before the path 0-3-2-1 of
        # weight 1 + 1 - 2 = 0 reaches it, and return a join that is not
        # the minimum; both pricing forms refuse the weights instead.
        with pytest.raises(DecompositionError, match="nonnegative"):
            min_tjoin(c4, {0: 1, 1: -2, 2: 1, 3: 1}, {0, 1})
        price = decompose._tjoin_price(c4, {0: 0, 1: 1, 2: 2, 3: 3}, {0, 1})
        assert price([1, 3, 1, 1]) == (1, {0: 1})
        with pytest.raises(DecompositionError, match="nonnegative"):
            price([1, -2, 1, 1])

    def exhaustive_min(self, g, weights, T):
        import itertools
        ids = sorted(weights)
        best = None
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                deg = multiset_degrees(g, {eid: 1 for eid in subset})
                if {v for v in range(g.n) if deg[v] % 2 == 1} == T:
                    w = sum(weights[eid] for eid in subset)
                    if best is None or w < best:
                        best = w
        return best

    def test_each_search_settles_every_later_terminal(self):
        # From terminal 0, terminals 1 and 2 are settled before 3, which
        # lies behind the non-terminal 4; the optimum pairs 0 with 3.
        g = make_graph(5, [(0, 1), (0, 2), (1, 2), (0, 4), (4, 3)])
        weights = {0: 2, 1: 2, 2: 1, 3: 3, 4: 3}
        assert min_tjoin(g, weights, {0, 1, 2, 3}) == (7, {3: 1, 4: 1, 2: 1})

    def test_matches_exhaustive(self, c4, two_triangles):
        for g in [k4(), c4, prism(), two_triangles]:
            weights = {e.id: F(e.id % 4 + 1, 3) for e in g.edges}
            for T in [set(), {0, 1}, {0, g.n - 1}, {0, 1, 2, 3}]:
                value, join = min_tjoin(g, weights, T)
                deg = multiset_degrees(g, join)
                assert {v for v in range(g.n) if deg[v] % 2 == 1} == T
                assert value == self.exhaustive_min(g, weights, T)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_min_tjoin_is_scale_invariant(data):
    # The masters price with int duals -π where the Fraction duals are -π/s.
    g = data.draw(st.sampled_from([k4(), prism(), petersen()]))
    iw = {e.id: data.draw(st.integers(0, 6)) for e in g.edges}
    s = data.draw(st.integers(1, 12))
    T = set(data.draw(st.sampled_from([[0, 1], [0, 3], [0, 1, 2, 3]])))
    value, join = min_tjoin(g, iw, T)
    scaled_value, scaled_join = min_tjoin(g, {eid: F(v, s) for eid, v in iw.items()}, T)
    assert scaled_join == join
    assert scaled_value == value / s


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_min_tjoin_is_the_mask_scan_join(data):
    # The layered DP over reached masks, with searches stopped early, must
    # return the join of the full 2^|T| scan, not just its value: zero and
    # repeated weights make many optimal joins, and a support that drops
    # edges may leave T disconnected.
    n = data.draw(st.sampled_from([6, 8, 10, 12, 14]))
    g = random_cubic_3ec(n, data.draw(st.integers(0, 30)))
    weights = {e.id: data.draw(st.sampled_from([0, F(0), F(1, 2), F(1), 2, F(3, 4)]))
               for e in g.edges if data.draw(st.integers(0, 9))}
    size = data.draw(st.sampled_from([2, 4, 6, 8, 10, 12]).filter(lambda k: k <= n))
    T = set(data.draw(st.permutations(range(n)))[:size])
    try:
        expected = mask_scan_min_tjoin(g, weights, T)
    except DecompositionError:
        with pytest.raises(DecompositionError, match="not connected"):
            min_tjoin(g, weights, T)
        return
    value, join = min_tjoin(g, weights, T)
    assert (value, join) == expected
    assert list(join) == list(expected[1])


WEIGHT = st.sampled_from([0, F(0), F(1, 3), F(1, 2), F(1), 1, F(3, 2), 2])


@st.composite
def crossing_family(draw):
    """Crossing edge sets over the ids 0..k+1, each holding a candidate,
    and candidate weights with zeros and ties."""
    k = draw(st.integers(1, 8))
    candidates = set(range(k))
    crossing = []
    for _ in range(draw(st.integers(1, 6))):
        extra = draw(st.sets(st.integers(0, k + 1), max_size=k))
        crossing.append(frozenset(extra | {draw(st.integers(0, k - 1))}))
    weights = {eid: draw(WEIGHT) for eid in sorted(candidates)
               if draw(st.booleans()) or eid == 0}
    return crossing, candidates, weights


@given(crossing_family())
@settings(max_examples=300, deadline=None)
def test_one_cover_price_matches_exhaustive_scan(case):
    crossing, candidates, weights = case
    ids = sorted(candidates)
    index = {eid: i for i, eid in enumerate(ids)}
    value, cover = _one_cover_price(crossing, index)([weights.get(eid, 0) for eid in ids])
    assert (value, cover) == exhaustive_one_cover(crossing, candidates, weights)


@given(st.lists(st.integers(1, 63), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_minimal_covers_are_all_the_minimal_covers(hits):
    full = 0
    for h in hits:
        full |= h

    def covers(sub):
        got = 0
        for i, h in enumerate(hits):
            if sub >> i & 1:
                got |= h
        return got == full

    want = [sub for sub in range(1 << len(hits)) if covers(sub)
            and not any(sub >> i & 1 and covers(sub & ~(1 << i)) for i in range(len(hits)))]
    assert sorted(_minimal_covers(hits, full)) == want


def test_one_cover_price_rejects_a_negative_weight():
    crossing = [frozenset({0, 1}), frozenset({1, 2})]
    price = _one_cover_price(crossing, {0: 0, 1: 1, 2: 2})
    assert price([1, 3, 1]) == (2, {0: 1, 2: 1})
    with pytest.raises(DecompositionError, match="nonnegative"):
        price([1, F(-1, 2), 1])


class TestOneCovers:
    def test_star_tree_of_k4(self):
        g = k4()
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        y = {e.id: F(1, 2) for e in g.edges if e.id not in tree}
        # The stage's target, (2 / (1 + alpha)) * y.
        comb = make_combination(g, decompose_one_covers(g, tree, y, F(1, 2)),
                                {eid: F(4, 3) * v for eid, v in y.items()}, "dominated-by")
        verify_combination(g, comb)
        target = comb.target_vector()
        assert all(v == F(2, 3) for v in target.values())
        # Every term touches all three leaf cuts.
        shores = [set(s) for s, _ in one_edge_cuts(g, tree)]
        edge = {e.id: e for e in g.edges}
        for t in comb.terms:
            chosen = dict(t.edges)
            for s in shores:
                assert any((edge[eid].u in s) != (edge[eid].v in s) for eid in chosen)

    def test_outside_dominant_names_the_dual(self, monkeypatch):
        # Every 1-cover of K4's star takes two of the three links, so 1/2
        # on each packs 1-covers to 3/4; decompose_one_covers' own target
        # never falls outside, so the master is run on this one directly.
        packings = record_packings(monkeypatch)
        g, crossing, links = k4_star_links()
        x = {eid: F(1, 2) for eid in links}
        with pytest.raises(DecompositionError) as info:
            pack_one_covers(g, crossing, x)
        assert str(info.value) == (
            "1-cover packing value 3/4 < 1, so x is outside the dominant: every 1-cover "
            "weighs at least 1 under w = {e3: 1/2, e4: 1/2, e5: 1/2}, but w.x = 3/4")
        packing = packings[-1][3]
        assert packing.sigma == F(3, 4) and packing.terms == []
        assert exhaustive_one_cover(crossing, links, packing.w)[0] == 1

    def test_no_bridges_short_circuit(self, c4):
        cyc = {e.id: 1 for e in c4.edges}
        terms = decompose_one_covers(c4, cyc, {}, F(1, 2))
        assert len(terms) == 1 and terms[0][1] == {}

    def test_alpha_threshold_enforced(self):
        g = k4()
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        y = {e.id: F(1, 4) for e in g.edges if e.id not in tree}
        with pytest.raises(DecompositionError, match="alpha"):
            decompose_one_covers(g, tree, y, F(1, 2))

    def test_vector_outside_cover_rejected(self):
        # 2/5 on the two non-star edges at vertex 1 gives its 1-edge cut 4/5.
        g = k4()
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        y = {e.id: F(2, 5) for e in g.edges if e.id not in tree}
        with pytest.raises(DecompositionError) as info:
            decompose_one_covers(g, tree, y, F(2, 5))
        assert str(info.value) == ("input vector is outside cover: "
                                   "1-edge cut of F at e0 has value 4/5 < 1")

    def test_vector_outside_the_graph_rejected(self):
        g = k4()
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        y = {e.id: F(1, 2) for e in g.edges if e.id not in tree}
        y[99] = F(1, 2)
        with pytest.raises(DecompositionError, match=r"outside the graph \(e99\)"):
            decompose_one_covers(g, tree, y, F(1, 2))

    @pytest.mark.parametrize("alpha", [F(0), F(-1, 2), F(3, 2)])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        g = k4()
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        with pytest.raises(GraphError, match=r"alpha must be in \(0, 1\]"):
            decompose_one_covers(g, tree, {}, alpha)

    def test_more_than_22_candidates_rejected(self):
        # The star at vertex 0 of K9 has 8 bridges; each leaf's cut meets 7
        # of the 28 edges off the star, so all 28 are candidates.
        g = make_graph(9, list(itertools.combinations(range(9), 2)))
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        y = {e.id: F(1, 2) for e in g.edges if e.id not in tree}
        with pytest.raises(DecompositionError,
                           match="1-cover pricing capped at 22 candidate edges"):
            decompose_one_covers(g, tree, y, F(1, 2))


def tour_combination(g, x):
    """wolsey_tours of x as a combination dominated by (3/2) x."""
    return make_combination(g, wolsey_tours(g, x), {eid: F(3, 2) * v for eid, v in x.items()},
                            "dominated-by", "tour")


class TestWolseyTours:
    def test_hamiltonian_cycle_identity(self, c4):
        x = everywhere(c4, F(1))
        comb = tour_combination(c4, x)
        verify_combination(c4, comb, "tour")
        assert all(v <= F(3, 2) for v in comb.coverage().values())

    def test_five_parallel_edges(self):
        g = make_graph(2, [(0, 1)] * 5)
        comb = tour_combination(g, everywhere(g, F(2, 5)))
        verify_combination(g, comb, "tour")
        assert all(v <= F(3, 5) for v in comb.coverage().values())

    def test_petersen_two_thirds(self):
        g = petersen()
        comb = tour_combination(g, everywhere(g, F(2, 3)))
        verify_combination(g, comb, "tour")
        assert all(v <= F(1) for v in comb.coverage().values())

    def test_vector_outside_subtour_rejected(self):
        g = petersen()
        with pytest.raises(DecompositionError, match="outside subtour"):
            wolsey_tours(g, everywhere(g, F(1, 2)))


class TestCaratheodory:
    def test_reduces_term_count(self):
        g = k4()
        trees = spanning_trees_of(g)
        terms = [(F(1, len(trees)), t) for t in trees]
        reduced = caratheodory_reduce(terms, g.m + 1)
        assert len(reduced) <= g.m + 1
        total = sum(c for c, _ in reduced)
        assert total == 1
        cov = {}
        for c, t in terms:
            for eid, m in t.items():
                cov[eid] = cov.get(eid, F(0)) + c * m
        cov2 = {}
        for c, t in reduced:
            for eid, m in t.items():
                cov2[eid] = cov2.get(eid, F(0)) + c * m
        assert cov == cov2

    def test_negative_coefficient_rejected(self):
        terms = [(F(3, 2), {0: 1}), (F(-1, 2), {1: 1})]
        with pytest.raises(DecompositionError,
                           match=re.escape("term ((1, 1),) has coefficient -1/2 < 0")):
            caratheodory_reduce(terms, 5)

    def test_zero_coefficient_skipped(self):
        terms = [(F(1), {0: 1}), (F(0), {1: 1}), (0, {})]
        assert caratheodory_reduce(terms, 1) == [(F(1), {0: 1})]

    def test_independent_terms_over_limit_rejected(self):
        with pytest.raises(DecompositionError, match="affinely independent"):
            caratheodory_reduce([(F(1, 2), {0: 1}), (F(1, 2), {1: 1})], 1)

    def test_bound_enforced_in_verify(self):
        # make_combination reduces, so the oversized combination is built by hand.
        g = make_graph(2, [(0, 1)])
        terms = tuple(Term(c, canonical(obj), frozenset(classify(g, obj)))
                      for c, obj in [(F(1, 2), {0: 1}), (F(1, 4), {0: 2}), (F(1, 4), {})])
        comb = ConvexCombination(terms, ((0, F(1)),), "equals")
        with pytest.raises(DecompositionError, match="bound"):
            verify_combination(g, comb)


class TestVerifyCombination:
    def test_rejects_bad_sum(self):
        g = k4()
        comb = ConvexCombination(
            terms=(make_combination(g, [(F(1), {0: 1, 1: 1, 2: 1})],
                                    {0: F(1), 1: F(1), 2: F(1)}, "equals").terms[0],) * 2,
            target=((0, F(2)), (1, F(2)), (2, F(2))),
            relation="equals")
        with pytest.raises(DecompositionError, match="sum"):
            verify_combination(g, comb)

    def test_rejects_broken_domination(self):
        g = k4()
        comb = make_combination(g, [(F(1), {0: 2})], {0: F(1)}, "dominated-by")
        with pytest.raises(DecompositionError, match="exceeds"):
            verify_combination(g, comb)


def fraction_coverage(comb):
    """Reference for ConvexCombination.coverage: the term-by-term Fraction
    sum, its keys in order of first appearance."""
    out = {}
    for t in comb.terms:
        for eid, mult in t.edges:
            out[eid] = out.get(eid, F(0)) + t.coefficient * mult
    return out


def test_coverage_of_no_terms():
    assert ConvexCombination((), (), "equals").coverage() == {}


@st.composite
def combinations_to_check(draw):
    """Terms on Petersen's edges with multiplicities up to 3 and
    coefficients 1/d for distinct d, the last one 1 minus the rest: some
    denominators are coprime, and the lcm of 6, 10 and 15 is none of them;
    a target equal to the coverage, or off it on one edge, or with an edge
    of its own."""
    denominators = draw(st.lists(st.sampled_from([6, 7, 10, 11, 13, 15]), unique=True,
                                 max_size=5))
    coeffs = [F(1, d) for d in denominators]
    coeffs.append(1 - sum(coeffs, F(0)))
    terms = []
    for c in coeffs:
        edges = draw(st.dictionaries(st.integers(0, 14), st.integers(1, 3), max_size=6))
        terms.append(Term(c, canonical(edges), frozenset()))
    comb = ConvexCombination(tuple(terms), (), "equals")
    target = dict(fraction_coverage(comb))
    edit = draw(st.sampled_from(["none", "raise", "lower", "extra"]))
    if edit != "none" and target:
        eid = draw(st.sampled_from(sorted(target)))
        target[eid] += {"raise": F(1, 29), "lower": F(-1, 29), "extra": F(0)}[edit]
    if edit == "extra":
        target[15] = F(1, 2)
    relation = draw(st.sampled_from(["equals", "dominated-by"]))
    return ConvexCombination(tuple(terms), tuple(sorted(target.items())), relation)


def verify_outcome(comb):
    try:
        return verify_combination(petersen(), comb)
    except DecompositionError as exc:
        return str(exc)


@given(combinations_to_check())
@settings(max_examples=200, deadline=None)
def test_coverage_is_the_fraction_sum(comb):
    # The same exact rationals, keyed in the same order, and so the same
    # verify_combination report as with the term-by-term sum.
    cover = comb.coverage()
    assert list(cover.items()) == list(fraction_coverage(comb).items())
    outcome = verify_outcome(comb)
    with mock.patch.object(ConvexCombination, "coverage", fraction_coverage):
        assert verify_outcome(comb) == outcome


def rank(cols):
    """Rank of integer columns, by Fraction elimination (oracle helper)."""
    rows = [[F(v) for v in col] for col in cols]
    r = 0
    for k in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][k]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][k] / rows[r][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@st.composite
def integer_columns(draw):
    nrows = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    cols = [[draw(entry) for _ in range(nrows)] for _ in range(draw(st.integers(1, 7)))]
    # Some columns copy a combination of earlier ones, so dependence is common.
    for j in range(1, len(cols)):
        if draw(st.booleans()):
            a, b = draw(entry), draw(entry)
            i, k = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
            cols[j] = [a * u + b * v for u, v in zip(cols[i], cols[k])]
    return cols, nrows


@given(integer_columns())
@settings(max_examples=300, deadline=None)
def test_kernel_vector_of_integer_columns(case):
    cols, nrows = case
    d = kernel_vector([list(c) for c in cols], nrows)
    if d is None:
        assert rank(cols) == len(cols)
        return
    # j is the first column in the span of the columns before it.
    j = next(j for j in range(len(cols)) if rank(cols[:j + 1]) <= j)
    assert len(d) == len(cols) and d[j] == 1 and all(v == 0 for v in d[j + 1:])
    for r in range(nrows):
        assert sum((dj * col[r] for dj, col in zip(d, cols)), F(0)) == 0


COEFF = st.builds(F, st.integers(0, 5), st.integers(1, 6))
TIED = st.sampled_from([F(1), F(2)])


@st.composite
def term_lists(draw, coeff=COEFF, mult=st.integers(0, 2)):
    """Terms over m <= 4 edges with multiplicities `mult` (0-2): each object
    of a pool of m + 2 to 12 distinct ones, more than the rank m + 1, then
    repeats drawn from the pool; and a limit from m - 1 to m + 2, below and
    above the rank.  With `coeff` TIED, ratio tests tie often, so steps
    drop several terms at once."""
    m = draw(st.integers(1, 4))
    obj = st.dictionaries(st.integers(0, m - 1), mult, max_size=m)
    pool = draw(st.lists(obj, min_size=m + 2, max_size=12, unique_by=canonical))
    repeats = draw(st.lists(st.sampled_from(pool), max_size=6))
    terms = [(draw(coeff), obj) for obj in pool + repeats]
    return terms, draw(st.integers(m - 1, m + 2))


def reduce_counting_swaps(terms, limit):
    """caratheodory_reduce's result, and how many of its kernel exchanges
    brought a term into a row that another term held.  The spy keeps the
    rows that terms hold: `exchange` brings a term in, `release` a unit
    column."""
    swaps = 0
    term_rows = {}              # kernel -> the rows its terms hold
    exchange, release = Adjugate.exchange, Adjugate.release

    def spy_exchange(self, row, alpha):
        nonlocal swaps
        held = term_rows.setdefault(self, set())
        swaps += row in held
        held.add(row)
        return exchange(self, row, alpha)

    def spy_release(self, row):
        term_rows[self].remove(row)
        return release(self, row)

    with mock.patch.object(Adjugate, "exchange", spy_exchange), \
            mock.patch.object(Adjugate, "release", spy_release):
        return caratheodory_reduce(terms, limit), swaps


def check_against_oracle(terms, limit):
    """caratheodory_reduce gives the restarting oracle's list, order and
    coefficients, or its error, and exchanges a term for a term once for
    each step that drops one earlier term; returns the oracle's step kinds."""
    steps = []
    try:
        want = restart_caratheodory(terms, limit, steps)
    except DecompositionError as exc:
        with pytest.raises(DecompositionError, match=re.escape(str(exc))):
            caratheodory_reduce(terms, limit)
        return steps
    got, swaps = reduce_counting_swaps(terms, limit)
    assert got == want
    assert swaps == steps.count("earlier")
    return steps


@given(term_lists())
@settings(max_examples=300, deadline=None)
def test_caratheodory_matches_the_restarting_oracle(case):
    check_against_oracle(*case)


@given(term_lists(TIED))
@settings(max_examples=300, deadline=None)
def test_caratheodory_matches_the_restarting_oracle_on_ties(case):
    check_against_oracle(*case)


@given(term_lists(mult=st.integers(0, 2 ** 40)))
@settings(max_examples=200, deadline=None)
def test_caratheodory_matches_the_restarting_oracle_on_wide_multiplicities(case):
    # Multiplicities up to 2^40 put the basis's adjugate past 64-bit lanes.
    check_against_oracle(*case)


def test_caratheodory_widens_its_lanes(monkeypatch):
    # Over three edges of multiplicities near 2^40, the adjugate's entries
    # pass 2^80, and the lanes widen; the oracle still agrees.
    widths = []
    widen = Adjugate.widen

    def recorded(self):
        widen(self)
        widths.append(self.width)

    monkeypatch.setattr(Adjugate, "widen", recorded)
    big = 2 ** 40
    terms = [(F(1, 6), {}), (F(1, 6), {0: big}), (F(1, 6), {1: big + 1}),
             (F(1, 6), {2: big + 3}), (F(1, 6), {0: big, 1: big + 1, 2: big + 3}),
             (F(1, 6), {0: 1, 1: 1, 2: 1})]
    assert check_against_oracle(terms, 4)
    assert widths and max(widths) > 64


@pytest.mark.parametrize("terms, limit, steps", [
    # 0, 1 and 2 copies of one edge: the kernel vector is (1, -2, 1).
    ([(F(1, 2), {}), (F(1, 4), {0: 1}), (F(1, 4), {0: 2})], 2, ["new"]),
    ([(F(1, 4), {}), (F(1, 4), {0: 1}), (F(1, 2), {0: 2})], 2, ["earlier"]),
    ([(F(1, 4), {}), (F(1, 2), {0: 1}), (F(1, 4), {0: 2})], 2, ["several"]),
    ([(F(1, 8), {}), (F(1, 8), {0: 1}), (F(1, 4), {0: 2}), (F(1, 4), {0: 3}),
      (F(1, 4), {0: 4})], 2, ["earlier", "new", "earlier"]),
    # Starting again from column 0 after a rewrite.
    ([(F(2), {}), (F(1), {0: 1}), (F(1), {0: 1, 1: 1}), (F(2), {0: 1, 1: 2}),
      (F(1), {0: 2, 1: 1})], 3, ["earlier", "several"]),
    ([(F(2), {}), (F(1), {0: 1}), (F(1), {0: 1, 1: 1}), (F(2), {0: 1, 1: 2}),
      (F(1), {0: 2, 1: 1}), (F(1), {0: 2, 1: 2})], 2, ["earlier", "several", "several"]),
    # Several drop after a rewrite, and the next pass ends on a new term.
    ([(F(1), {0: 1, 1: 2, 2: 1}), (F(2), {0: 2, 1: 2}), (F(1), {1: 2, 2: 1}),
      (F(2), {0: 2, 1: 1}), (F(1), {0: 1, 1: 1}), (F(1), {}), (F(1), {0: 2, 1: 2, 2: 2})],
     3, ["earlier", "several", "new"]),
])
def test_caratheodory_step_kinds(terms, limit, steps):
    assert check_against_oracle(terms, limit) == steps


@pytest.mark.parametrize("kind", ["new", "earlier", "several"])
def test_tied_term_lists_reach_each_step_kind(kind):
    def reaches(case):
        steps = []
        try:
            restart_caratheodory(*case, steps)
        except DecompositionError:
            pass
        return kind in steps

    find(term_lists(TIED), reaches,
         settings=settings(database=None, derandomize=True, max_examples=1000,
                           phases=[Phase.generate]))


MIXED = st.builds(F, st.integers(0, 12), st.integers(1, 12))


@given(term_lists(MIXED))
@settings(max_examples=300, deadline=None)
def test_caratheodory_over_mixed_denominators_is_the_fraction_merge(case):
    # The merge runs in ints over the lcm of every input denominator; the
    # oracle merges as Fractions.  Equal lists, types included.
    terms, limit = case
    check_against_oracle(terms, limit)
    try:
        want = restart_caratheodory(terms, limit)
    except DecompositionError:
        return
    got = caratheodory_reduce(terms, limit)
    assert [(type(c), c, obj) for c, obj in got] == [(type(c), c, obj) for c, obj in want]
