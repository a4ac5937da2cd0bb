"""Byte-identity gate for refactors (ROADMAP aim 2).

Each case pins the sha256 of the JSON artifact that `serialize.dumps` writes
for one cheap instance of a cover variant, an approximation algorithm, the
subtour LP, a decomposition of its optimum or a covering cycle cover, and of
the small-cut family of one cubic graph.  One more cover, 18/19 on a
20-vertex cubic graph, is there for its size: the denominators in its
column-generation masters reach 4.6·10⁸.  A
refactor must leave every digest unchanged; a change that alters artifacts on
purpose must say why in CHANGES.md and update the digests here.
"""
import hashlib
from fractions import Fraction

import pytest

from unicover import serialize
from unicover.approx import (approximate, tsp_7_5_node_weighted, tsp_beta,
                             twoec_13_10_node_weighted, twoec_beta)
from unicover.connectors import decomposition
from unicover.covers import uniform_cover
from unicover.cyclecover import find_covering_cycle_cover
from unicover.families import (k4, k5, k33, petersen, random_cubic_3ec,
                               random_node_weights, random_subcubic_2ec)
from unicover.graph import NodeWeights, enumerate_cuts_upto
from unicover.lp import solve_subtour
from unicover.verify import verify_document

from conftest import shore_holding_zero


def digest(doc: dict) -> str:
    return hashlib.sha256(serialize.dumps(doc).encode("utf-8")).hexdigest()


def ones(n):
    return NodeWeights((Fraction(1),) * n)


def cubic20():
    return random_cubic_3ec(20, 1)


COVERS = [
    ("18/19", k4, "5dd8f1128a1d12c06b1037ad2e9441a0e3b5a699ed2090ca77111b94f51d4fec"),
    ("15/17", k4, "6316a4d32858c4ee5e26117dd056c21b55148f912f426219a1c50913fbb280b6"),
    ("8/9", k4, "8c0fbd2af86090fd6b999a8eac8cb764ed4b96d6a42ace7004eae2c00e61fa27"),
    ("12/13", k33, "6b4f26dca902ba77497f217881d74307a8ca8d646155a42a4372d7ab894ee2b3"),
    ("7/8", k33, "434313f3d22d934a86b038f823dfe459884a717ea69eef3fb18b9381b7eb610a"),
    ("3/4", k5, "a8ae58c66f5efc921253a4fed5b62b468cf08f5c8f373058b2f8ce78bb3ea65a"),
    ("18/19", cubic20, "4f93863e12c9eb80555da30264997c7ba8533521ea3f41012169a23cb1785285"),
]


@pytest.mark.parametrize("variant,family,sha", COVERS)
def test_cover_artifact_bytes(variant, family, sha):
    G = family()
    assert digest(serialize.certificate_to_json(G, uniform_cover(G, variant))) == sha


def _node_weighted(run, family, n):
    G, f = family(), ones(n)
    return serialize.approx_to_json(f.induced_graph(G), run(G, f))


def _beta(run):
    G = random_node_weights(8, 11).induced_graph(random_subcubic_2ec(8, 3))
    return serialize.approx_to_json(G, run(G))


APPROX = [
    ("tsp75", lambda: _node_weighted(tsp_7_5_node_weighted, petersen, 10),
     "737523519c52da64f4a84e978d95d8e2a8ca531f3092d52b5a3417cc159d880c"),
    ("twoec1310", lambda: _node_weighted(twoec_13_10_node_weighted, petersen, 10),
     "e83366a8356a84d0d57d208d679ca7442e8669aad5cecd8b033c8a285dd472d5"),
    ("bip43", lambda: _node_weighted(lambda G, f: approximate("bip43", G, f)[1], k33, 6),
     "4d037b06445450d569486d5fd4c0a213480c3cc5bba656a4c4581aff8582b10b"),
    ("bip54", lambda: _node_weighted(lambda G, f: approximate("bip54", G, f)[1], k33, 6),
     "5844e8fe36bbcd1619e164c47b598f41b1f7378432741922b20d46b3f71cb132"),
    ("twoecbeta", lambda: _beta(twoec_beta),
     "b31de670506327158ed491c275e66d2af1feb51816623ea71c47e50ee5185129"),
    ("tspbeta", lambda: _beta(tsp_beta),
     "00aedd5e8541ac86bfc76e2102fdb8df91b590f46d31bffe96411101775177df"),
]


@pytest.mark.parametrize("algorithm,build,sha", APPROX, ids=[a for a, _, _ in APPROX])
def test_approx_artifact_bytes(algorithm, build, sha):
    doc = build()
    assert doc["algorithm"] == algorithm
    assert digest(doc) == sha
    assert verify_document(doc).ok


def _subcubic():
    # Its subtour LP needs 2 separation rounds.
    return random_node_weights(10, 3).induced_graph(random_subcubic_2ec(10, 3))


def _subcubic8():
    # normalize_connectors re-reduces its terms 8 times on this one.
    return random_node_weights(8, 1).induced_graph(random_subcubic_2ec(8, 1))


def _lp(family):
    G = family()
    return serialize.lp_result_to_json(G, solve_subtour(G))


def _decomposition(family, kind):
    G = family()
    return serialize.decomposition_to_json(G, decomposition(G, solve_subtour(G).x, kind), kind)


def _cycle_cover():
    G = random_node_weights(16, 2).induced_graph(random_cubic_3ec(16, 2))
    return serialize.cycle_cover_to_json(G, find_covering_cycle_cover(G))


SOLVER_DOCUMENTS = [
    ("lp-petersen", lambda: _lp(petersen),
     "0cff0a16e2144bea3b07698214c95f15e7166a7260a73c3536350d7f44244fc2"),
    ("lp-subcubic", lambda: _lp(_subcubic),
     "85d85849c2b9cfbaf285127ebec02c67b9158f76c37cd25644b6b294ea320749"),
    ("trees-petersen", lambda: _decomposition(petersen, "trees"),
     "890db9f6ae7b759977cde0cfed1542451aff9e00ed0494db992f3ecbcdbacdff"),
    ("connectors-subcubic",
     lambda: _decomposition(_subcubic, "connectors"),
     "4a68926540d2527a608a4a8a67dd6f1ab41ee1cfdff13bc32a84bb3f566c2201"),
    ("even2cut-subcubic8",
     lambda: _decomposition(_subcubic8, "even2cut"),
     "84ec01a0d5b0fb33fd1737e550bb50a766f02eb3d225bea4af1ef10bb4179647"),
    ("cycle-cover-cubic16", _cycle_cover,
     "4a94b54cac17a09eed7a6eb3a190d2d3d3802f4656e7638be6b61133b6d69431"),
]


@pytest.mark.parametrize("name,build,sha", SOLVER_DOCUMENTS,
                         ids=[n for n, _, _ in SOLVER_DOCUMENTS])
def test_solver_document_bytes(name, build, sha):
    doc = build()
    assert digest(doc) == sha
    assert verify_document(doc).ok


def test_small_cut_family_bytes():
    # Each row's shore is the side holding vertex 0, derived from the edges.
    g = random_cubic_3ec(20, 1)
    cuts = enumerate_cuts_upto(g, 4)
    rows = sorted([len(c), sorted(c), list(shore_holding_zero(g, c))] for c in cuts)
    assert len(rows) == 72
    assert digest(rows) == "3f22fb16c78d52106424b23de6d5f489f8cb819300bded6dbc7abb6d8956140c"
