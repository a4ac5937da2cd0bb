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
    ("18/19", k4, "92f14fc7106c4b6a3b906eeb884f9a34c664527310fb38e6db307b7b132d43b5"),
    ("15/17", k4, "8df024ced0208e39ce05f049cb9e0c53f925e25b138930a97f52fc2d053e5880"),
    ("8/9", k4, "5918adaf8f3db78aeab50762fcf789872c4ae1ae1f84eb4104659112d0e25110"),
    ("12/13", k33, "37e577508d6b088f78df4241b0c466e50e22d9f8b6d4c625c4303ba6a54a5166"),
    ("7/8", k33, "828e2807a8ac24722774d9e47e260f1c47a8a6e5817b7367fcefd3131463196d"),
    ("3/4", k5, "d5d35a6601b810d71908dd7b18f795cf160d9c65d1d72bfa32a0c57377482e4a"),
    ("18/19", cubic20, "fd93dd07a36d918c96d2472ee0d81f4841823ce8845b4f249bf9eba6c18dd29a"),
]


@pytest.mark.parametrize("variant,family,sha", COVERS,
                         ids=[f"{v}-{family.__name__}" for v, family, _ in COVERS])
def test_cover_artifact_bytes(variant, family, sha):
    G = family()
    doc = serialize.certificate_to_json(G, uniform_cover(G, variant))
    assert digest(doc) == sha
    assert verify_document(doc).ok


def _node_weighted(run, family, n):
    G, f = family(), ones(n)
    return serialize.approx_to_json(f.induced_graph(G), run(G, f))


def _beta(run):
    G = random_node_weights(8, 11).induced_graph(random_subcubic_2ec(8, 3))
    return serialize.approx_to_json(G, run(G))


APPROX = [
    ("tsp75", lambda: _node_weighted(tsp_7_5_node_weighted, petersen, 10),
     "2f4bf368e887394926b4bd51f01f0e632de2212354fa23839be29cd3a856bada"),
    ("twoec1310", lambda: _node_weighted(twoec_13_10_node_weighted, petersen, 10),
     "f39b0caf964600dec10131eb8eaf833c1228df3fb15a5e71fecc5a7f458c7017"),
    ("bip43", lambda: _node_weighted(lambda G, f: approximate("bip43", G, f)[1], k33, 6),
     "21d9da9ad871f9314d09dcd7fc8ca353fcc51a0235a6b050f9988f72837aef99"),
    ("bip54", lambda: _node_weighted(lambda G, f: approximate("bip54", G, f)[1], k33, 6),
     "69c8f1ee104c78765d2b14f284619f90cb87a76a2cf366917d8d09b14742f759"),
    ("twoecbeta", lambda: _beta(twoec_beta),
     "761f6b141e4ca49671f781ec990aa640c1ae1064578d16f5c68fbac199db457e"),
    ("tspbeta", lambda: _beta(tsp_beta),
     "32fe16cec97a2f851d2498e5f13a48ae8b7bb1e1f091142b72b8764e20fb72a4"),
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
     "1a5e9103a97da9a372a9a1a0c3104475fe81cfd10354625ff555b4a04683c59c"),
    ("lp-subcubic", lambda: _lp(_subcubic),
     "b2d1437fbdf45df8be48a829981fa91694a42fb749d049daa9a5eca1669995af"),
    ("trees-petersen", lambda: _decomposition(petersen, "trees"),
     "c35a6576d1397f66fa7a7d7cf437b8eae87a1498eea9c4ed6747c08554783888"),
    ("connectors-subcubic",
     lambda: _decomposition(_subcubic, "connectors"),
     "3e173bc03f29360672220360b69f5a047908376aa30e9d6900f57464a34cca20"),
    ("even2cut-subcubic8",
     lambda: _decomposition(_subcubic8, "even2cut"),
     "55d5b05bd22a2d5ae10189de1c53e8799df71b9d59fb71f6fcb4d54a0ed52807"),
    ("cycle-cover-cubic16", _cycle_cover,
     "7369206861583918df28f41cb9fe5f3aa5df9c0d989807e8f506644982d58a45"),
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
    assert digest(rows) == "153d3c73048199e79ec8d123762e562dd59f4645adb49fde94d21f7fda1838da"
