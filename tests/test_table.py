"""The one table of variants and algorithms: every row produces documents
that carry its profile, object class and alpha or ratio, the cover rows
derive the paper's numbers, each part of a recipe stays inside its bounds,
and the CLI offers exactly the table's names."""
import argparse
from fractions import Fraction

import pytest

from unicover import cli, serialize
from unicover.approx import approximate
from unicover.covers import VARIANTS, cover_parts, uniform_cover
from unicover.cyclecover import find_covering_cycle_cover
from unicover.decompose import coverage_of
from unicover.families import k4, k5, k33, lcf_5, random_node_weights, random_subcubic_2ec
from unicover.table import RECIPES, TABLE, names
from unicover.verify import verify_document

import test_golden as golden
from test_acceptance import criterion_1_matrix

F = Fraction

SMALL = {"cubic-3ec": k4, "bipartite-cubic-3ec": k33, "4regular-4ec": k5}


def produce(name):
    row = TABLE[name]
    if row.kind == "cover":
        G = SMALL[row.profile]()
        return serialize.certificate_to_json(G, uniform_cover(G, name))
    if row.profile is None:
        G = random_node_weights(8, 11).induced_graph(random_subcubic_2ec(8, 3))
        return serialize.approx_to_json(*approximate(name, G, None))
    G = SMALL[row.profile]()
    f = random_node_weights(G.n, 1)
    return serialize.approx_to_json(*approximate(name, G, f))


@pytest.mark.parametrize("name", TABLE)
def test_each_row_produces_documents_of_its_row(name):
    row, doc = TABLE[name], produce(name)
    assert doc.get("profile") == row.profile
    assert doc["object_class"] == row.object_class
    if row.kind == "cover":
        assert doc["variant"] == name and F(doc["alpha"]) == row.ratio
    else:
        assert doc["algorithm"] == name
        assert ("beta" in doc) == (row.profile is None)
        beta = F(doc["beta"]) if "beta" in doc else F(0)
        assert F(doc["ratio"]) == row.ratio + row.slope * beta
    assert verify_document(doc).ok


@pytest.mark.parametrize("beta", [F(1), F(7, 5), F(3, 2), F(11, 4)])
def test_beta_rows_are_the_papers_ratios(beta):
    assert TABLE["twoecbeta"].ratio_at(beta) == (1 + 2 * beta) / 3
    assert TABLE["tspbeta"].ratio_at(beta) == 1 + beta / 3


# alpha, mixing, r and cover_r of each cover row, as the paper has them.
PAPER = {
    "18/19": (F(18, 19), (F(15, 19), F(4, 19)), F(2, 5), None),
    "12/13": (F(12, 13), (F(9, 13), F(4, 13)), F(1, 3), None),
    "15/17": (F(15, 17), (F(5, 17), F(12, 17)), F(2, 5), F(1, 2)),
    "8/9": (F(8, 9), (), F(2, 3), F(1, 2)),
    "7/8": (F(7, 8), (F(1, 4), F(3, 4)), F(1, 3), F(1, 2)),
    "3/4": (F(3, 4), (), F(1, 2), F(1, 3)),
}


def test_cover_rows_derive_the_papers_numbers():
    rows = {name: TABLE[name] for name in names("cover")}
    assert {name: (row.ratio, row.mixing, row.r, row.cover_r)
            for name, row in rows.items()} == PAPER
    for name, row in rows.items():
        assert name == str(row.ratio)
        if row.recipe == "cycles+doubled-trees":
            assert row.mixing[0] == 3 / (7 - 8 * row.r)
        if row.recipe == "cycles+tours":
            assert row.mixing[0] == 1 / (7 - 9 * row.r)


@pytest.mark.parametrize("name", names("cover"))
def test_the_mixing_brings_both_classes_to_alpha(name):
    row = TABLE[name]
    weights = row.mixing or (F(1),)
    bounds = RECIPES[row.recipe].bounds(row.r, row.cover_r)
    assert sum(weights) == 1 and len(weights) == len(bounds)
    for edge_class in (0, 1):
        assert sum(w * bound[edge_class] for w, bound in zip(weights, bounds)) == row.ratio


@pytest.mark.parametrize("name", names("cover"))
def test_each_part_covers_each_class_within_its_bound(name):
    """On every golden cover and criterion-1 input of the variant, each part
    that covers.cover_parts builds is a convex combination that covers every
    edge of C and of M at most the recipe's bound for that class.  C is the
    cover that the cycle recipes build on; tree+cover has none, and its
    bound is the same on every edge."""
    row = TABLE[name]
    bounds = RECIPES[row.recipe].bounds(row.r, row.cover_r)
    inputs = [family() for variant, family, _ in golden.COVERS if variant == name]
    inputs += [G for variant, G in criterion_1_matrix() if variant == name]
    if row.profile == "bipartite-cubic-3ec":
        # Every bipartite input above contracts to one vertex; this one
        # contracts to three, so the first part's bound on M is reached.
        inputs.append(lcf_5(24))
    assert inputs
    for G in inputs:
        C = find_covering_cycle_cover(G).cover if RECIPES[row.recipe].cycles else ()
        parts = cover_parts(G, row)
        assert len(parts) == len(bounds)
        for part, (on_c, on_m) in zip(parts, bounds):
            assert sum(c for c, _ in part) == 1
            cover = coverage_of([(c, obj.items()) for c, obj in part])
            for e in G.edges:
                assert cover.get(e.id, F(0)) <= (on_c if e.id in C else on_m)


def test_cli_offers_the_table_names():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, flag):
        return tuple(next(a for a in commands[command]._actions
                          if flag in a.option_strings).choices)

    assert choices("uniform-cover", "--variant") == names("cover") == VARIANTS
    assert choices("approx", "--alg") == names("approx")
    assert names("cover") + names("approx") == tuple(TABLE)
