from fractions import Fraction

import pytest

from unicover import serialize
from unicover.covers import VARIANTS, CoverError, check_certificate, uniform_cover
from unicover.decompose import verify_combination
from unicover.families import (c8_12, circulant, heawood, k4, k5, k33, mobius_kantor,
                               petersen, prism, random_cubic_3ec)
from unicover.table import TABLE
from unicover.verify import verify_document

from conftest import make_graph

F = Fraction

CUBIC = [k4, petersen, prism]
BIPARTITE = [k33, heawood, mobius_kantor]
FOUR_REGULAR = [k5, c8_12]

INSTANCES = {
    "18/19": CUBIC,
    "12/13": BIPARTITE,
    "15/17": CUBIC,
    "8/9": CUBIC,
    "7/8": BIPARTITE,
    "3/4": FOUR_REGULAR,
}


def check(g, variant):
    cert = uniform_cover(g, variant)
    check_certificate(g, cert)
    spec = TABLE[variant]
    alpha, object_class = spec.ratio, spec.object_class
    assert cert.alpha == alpha
    assert cert.object_class == object_class
    verify_combination(g, cert.combination, object_class)
    cover = cert.combination.coverage()
    for e in g.edges:
        v = cover.get(e.id, F(0))
        assert v <= alpha
        assert dict(cert.slack)[e.id] == alpha - v
    if spec.subgraph_only:
        assert cert.max_multiplicity <= 1
    return cert


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_on_named_instances(variant):
    for family in INSTANCES[variant]:
        check(family(), variant)


@pytest.mark.parametrize("n, sorted_pairs", [(24, False), (32, False), (20, True)])
def test_3_4_on_circulants(n, sorted_pairs):
    # Each 1-cover master on C_n(1, 2) prices over the n + 1 edges off its
    # tree.  At n = 20, the edges as sorted vertex pairs rather than jump by
    # jump make the tree master stop at many more trees.
    g = circulant(n, (1, 2))
    if sorted_pairs:
        g = make_graph(n, sorted((e.u, e.v) for e in g.edges))
    assert verify_document(serialize.certificate_to_json(g, check(g, "3/4"))).ok


def test_random_cubic_instances():
    for seed in range(3):
        g = random_cubic_3ec(10, seed)
        check(g, "18/19")
        check(g, "15/17")
        check(g, "8/9")


def test_8_9_uses_subgraphs_only():
    for family in CUBIC:
        cert = uniform_cover(family(), "8/9")
        for t in cert.combination.terms:
            assert all(m == 1 for _, m in t.edges)


def test_bipartite_beats_general_tour_bound():
    for family in BIPARTITE:
        cert = uniform_cover(family(), "12/13")
        cover = cert.combination.coverage()
        assert all(v <= F(12, 13) < F(18, 19) for v in cover.values())


def test_tour_terms_have_even_degree():
    from unicover.graph import multiset_degrees
    g = petersen()
    cert = uniform_cover(g, "18/19")
    for t in cert.combination.terms:
        deg = multiset_degrees(g, t.multiset())
        assert all(d % 2 == 0 for d in deg)


def test_profile_mismatch_rejected():
    with pytest.raises(CoverError):
        uniform_cover(petersen(), "12/13")     # not bipartite
    with pytest.raises(CoverError):
        uniform_cover(k4(), "3/4")             # not 4-regular
    with pytest.raises(CoverError):
        uniform_cover(k5(), "18/19")           # not cubic


def test_unknown_variant_rejected():
    with pytest.raises(CoverError, match="variant"):
        uniform_cover(k4(), "5/6")
