from fractions import Fraction

import pytest

from unicover.approx import (ApproxError, approximate, tsp_7_5_node_weighted,
                             tsp_beta, twoec_13_10_node_weighted, twoec_beta)
from unicover.families import (heawood, k4, k33, petersen, random_cubic_3ec,
                               random_node_weights, random_subcubic_2ec)
from unicover.graph import NodeWeights, classify, multiset_weight
from unicover.lp import solve_subtour

from conftest import make_graph

F = Fraction


def unit_weights(n):
    return NodeWeights((F(1),) * n)


class TestNodeWeighted:
    def test_petersen_tsp(self):
        res = tsp_7_5_node_weighted(petersen(), unit_weights(10))
        assert res.lower_bound == 20
        assert res.weight <= F(7, 5) * 20
        assert res.object_class == "tour"

    def test_k4_is_hamiltonian(self):
        res = tsp_7_5_node_weighted(k4(), unit_weights(4))
        assert res.lower_bound == 8 and res.weight == 8

    def test_twoec_never_worse_than_tsp(self):
        for seed in range(4):
            g = random_cubic_3ec(10, seed)
            f = random_node_weights(10, seed + 100)
            tour = tsp_7_5_node_weighted(g, f)
            twoec = twoec_13_10_node_weighted(g, f)
            assert twoec.lower_bound == tour.lower_bound == 2 * f.total()
            assert twoec.weight <= tour.weight
            assert twoec.weight <= F(13, 10) * twoec.lower_bound

    def test_solution_classifies_correctly(self):
        for seed in range(4):
            g = random_cubic_3ec(12, seed)
            f = random_node_weights(12, seed)
            gw = f.induced_graph(g)
            tour = tsp_7_5_node_weighted(g, f)
            assert "tour" in classify(gw, tour.solution_multiset())
            twoec = twoec_13_10_node_weighted(g, f)
            assert "twoec-multigraph" in classify(gw, twoec.solution_multiset())

    def test_lower_bound_is_lp_optimum(self):
        for seed in range(3):
            g = random_cubic_3ec(8, seed)
            f = random_node_weights(8, seed + 7)
            res = tsp_7_5_node_weighted(g, f)
            assert res.lower_bound == solve_subtour(f.induced_graph(g)).value

    def test_rejects_wrong_profile(self, c4):
        with pytest.raises(ApproxError):
            tsp_7_5_node_weighted(c4, unit_weights(4))


class TestBipartite:
    def test_k33_tour(self):
        _, res = approximate("bip43", k33(), unit_weights(6))
        assert res.ratio == F(4, 3)
        assert res.weight <= F(4, 3) * res.lower_bound

    def test_heawood_both_targets(self):
        f = unit_weights(14)
        _, tour = approximate("bip43", heawood(), f)
        _, twoec = approximate("bip54", heawood(), f)
        assert tour.ratio == F(4, 3) and twoec.ratio == F(5, 4)
        assert twoec.weight <= tour.weight

    def test_rejects_nonbipartite(self):
        with pytest.raises(ApproxError):
            approximate("bip43", petersen(), unit_weights(10))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ApproxError, match="unknown algorithm"):
            approximate("both", k33(), unit_weights(6))


class TestBetaAlgorithms:
    def test_c4_tight(self, c4):
        res = twoec_beta(c4)
        assert res.lower_bound == 4
        assert res.beta == 1
        assert res.ratio == 1
        assert res.weight == 4

    def test_tsp_beta_on_cycle(self, c4):
        res = tsp_beta(c4)
        assert res.beta == 1 and res.ratio == F(4, 3)
        assert res.weight <= F(4, 3) * 4

    def test_random_weighted_subcubic(self):
        for seed in range(6):
            g = random_subcubic_2ec(10, seed)
            f = random_node_weights(g.n, seed + 50)
            gw = f.induced_graph(g)
            twoec = twoec_beta(gw)
            assert twoec.weight <= twoec.ratio * twoec.lower_bound
            assert twoec.beta == gw.total_weight() / twoec.lower_bound
            assert "twoec-multigraph" in classify(gw, twoec.solution_multiset())
            tour = tsp_beta(gw)
            assert tour.weight <= tour.ratio * tour.lower_bound
            assert "tour" in classify(gw, tour.solution_multiset())

    def test_rejects_zero_weights(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], weight=0)
        with pytest.raises(ApproxError):
            twoec_beta(g)

    def test_solution_weight_is_exact(self):
        g = random_subcubic_2ec(8, 3)
        f = random_node_weights(g.n, 11)
        gw = f.induced_graph(g)
        res = twoec_beta(gw)
        assert res.weight == multiset_weight(gw, res.solution_multiset())
