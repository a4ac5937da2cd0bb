"""The one table of variants and algorithms: every row produces documents
that carry its profile, object class and alpha or ratio, and the CLI offers
exactly the table's names."""
import argparse
from fractions import Fraction

import pytest

from unicover import cli, serialize
from unicover.approx import approximate
from unicover.covers import VARIANTS, uniform_cover
from unicover.families import k4, k5, k33, random_node_weights, random_subcubic_2ec
from unicover.table import TABLE, names
from unicover.verify import verify_document

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


def test_cli_offers_the_table_names():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def choices(command, flag):
        return tuple(next(a for a in commands[command]._actions
                          if flag in a.option_strings).choices)

    assert choices("uniform-cover", "--variant") == names("cover") == VARIANTS
    assert choices("approx", "--alg") == names("approx")
    assert names("cover") + names("approx") == tuple(TABLE)
