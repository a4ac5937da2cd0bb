"""Each public entry point tests a fact about its input once: one profile
test per call, and no global min cut of a (graph, capacity) pair that the
call has already cut.  Graphs are immutable, so the stages after the test
can trust it.  Bridges and 2-edge cuts are read from one cycle-space
labelling, with no component count.  A pipeline labels its terms once, at
its end.  A process builds the CLI's parser once, and a CLI call weights
a node-weighted graph once.  The connector master prices only
while it is infeasible.  Column generation takes a pinned path: a round
that adds a column prices that column alone, not every column."""
import argparse
import sys
from collections import Counter

import pytest

from unicover import cli, decompose, graph, lp, serialize, simplex
from unicover.approx import approximate
from unicover.connectors import two_cut_classes
from unicover.covers import VARIANTS, uniform_cover
from unicover.cyclecover import find_covering_cycle_cover
from unicover.families import (heawood, k4, k5, k33, petersen, random_node_weights,
                               random_subcubic_2ec)
from unicover.table import TABLE, names

import test_golden as golden

COVER_INPUTS = {"18/19": petersen, "12/13": k33, "15/17": petersen,
                "8/9": petersen, "7/8": heawood, "3/4": k5}


def _key(G, cap):
    # min_cut reads the edges' ends and ids, not their weights.
    return (G.n, tuple((e.u, e.v, e.id) for e in G.edges)), tuple(sorted(cap.items()))


def _patch(monkeypatch, original, replacement):
    """Replace every binding of `original` in the library's modules."""
    for name, module in list(sys.modules.items()):
        if name == "unicover" or name.startswith("unicover."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def calls(monkeypatch):
    """Counts validate_structure, _cycle_space_labels and
    connected_components calls and lists the min_cut keys, through every
    binding of the functions in the library's modules."""
    seen = {"validate_structure": 0, "labels": 0, "components": 0, "min_cut": []}
    validate_structure, min_cut = graph.validate_structure, lp.min_cut
    labels, components = graph._cycle_space_labels, graph.connected_components

    def counted_validate(G, profile):
        seen["validate_structure"] += 1
        return validate_structure(G, profile)

    def listed_min_cut(G, cap):
        seen["min_cut"].append(_key(G, cap))
        return min_cut(G, cap)

    def counted_labels(edges, adj):
        seen["labels"] += 1
        return labels(edges, adj)

    def counted_components(n, edges):
        seen["components"] += 1
        return components(n, edges)

    _patch(monkeypatch, validate_structure, counted_validate)
    _patch(monkeypatch, min_cut, listed_min_cut)
    _patch(monkeypatch, labels, counted_labels)
    _patch(monkeypatch, components, counted_components)
    return seen


@pytest.fixture
def combinations(monkeypatch):
    """Counts make_combination calls through every binding of it in the
    library's modules."""
    seen = []
    make_combination = decompose.make_combination

    def counted(*args, **kwargs):
        seen.append(args[0])
        return make_combination(*args, **kwargs)

    _patch(monkeypatch, make_combination, counted)
    return seen


def _repeated(keys):
    return {key: count for key, count in Counter(keys).items() if count > 1}


def _approx_input(algorithm):
    """A graph and node weights for the algorithm: a weighted subcubic graph
    for a beta row, Heawood or Petersen for a node-weighted one."""
    profile = TABLE[algorithm].profile
    if profile is None:
        return random_subcubic_2ec(10, 3), random_node_weights(10, 3)
    G = heawood() if profile.startswith("bipartite") else petersen()
    return G, random_node_weights(G.n, 1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_uniform_cover_tests_each_fact_once(calls, variant):
    uniform_cover(COVER_INPUTS[variant](), variant)
    assert calls["validate_structure"] == 1
    assert _repeated(calls["min_cut"]) == {}


@pytest.mark.parametrize("variant", VARIANTS)
def test_uniform_cover_labels_its_terms_once(combinations, variant):
    uniform_cover(COVER_INPUTS[variant](), variant)
    assert len(combinations) == 1


@pytest.mark.parametrize("algorithm", names("approx"))
def test_approximate_labels_a_beta_family_once(combinations, algorithm):
    G, f = _approx_input(algorithm)
    approximate(algorithm, G, f)
    assert len(combinations) == (0 if TABLE[algorithm].profile else 1)


def test_find_covering_cycle_cover_tests_each_fact_once(calls):
    find_covering_cycle_cover(petersen())
    assert calls["validate_structure"] == 1
    assert _repeated(calls["min_cut"]) == {}


@pytest.mark.parametrize("algorithm", names("approx"))
def test_approximate_tests_each_fact_once(calls, algorithm):
    profile = TABLE[algorithm].profile
    G, f = _approx_input(algorithm)
    if profile is None:
        rounds = lp.solve_subtour(f.induced_graph(G)).separation_rounds
        calls["min_cut"].clear()
    approximate(algorithm, G, f)
    assert calls["validate_structure"] == (0 if profile is None else 1)
    assert _repeated(calls["min_cut"]) == {}
    if profile is None:
        # solve_subtour cuts each x it reaches, and its last separation is
        # the connector stage's input test.
        assert len(calls["min_cut"]) == rounds + 1


@pytest.mark.parametrize("kind", ("trees", "connectors", "even2cut"))
def test_decompose_cuts_the_lp_optimum_once(calls, tmp_path, kind):
    # The last separation of solve_subtour tests the optimum that every
    # kind is handed.
    G = random_node_weights(10, 3).induced_graph(random_subcubic_2ec(10, 3))
    rounds = lp.solve_subtour(G).separation_rounds
    calls["min_cut"].clear()
    path = tmp_path / "g.txt"
    path.write_text(serialize.graph_to_text(G))
    assert cli.main(["decompose", kind, str(path)]) == cli.EXIT_OK
    assert len(calls["min_cut"]) == rounds + 1


def test_connector_master_stops_at_feasibility(monkeypatch):
    # Every pricing call adds a column: none is made once lambda is
    # feasible, where further pivots are degenerate.
    seen = {"priced": 0, "kept": 0}
    price_max, keep = decompose._connector_price_max, decompose._keep

    def counted_price_max(G, support):
        price = price_max(G, support)

        def counted(weights):
            seen["priced"] += 1
            return price(weights)
        return counted

    def counted_keep(*args):
        seen["kept"] += 1
        return keep(*args)

    _patch(monkeypatch, price_max, counted_price_max)
    _patch(monkeypatch, keep, counted_keep)
    G, _ = _approx_input("twoecbeta")
    decompose.decompose_connectors(G, lp.solve_subtour(G).x)
    assert seen == {"priced": 11, "kept": 11}


# (pivots, full entering scans).  The connector path's pivots are those of
# the kernel that scanned every column after each added column: 11.  That
# kernel made 23 full scans, of which 11 followed a round that added a column;
# each of those is now one column's reduced cost.  The 18/19 path is that of
# packing masters that stop once they pack value 1.
PIVOT_PATHS = {"18/19-petersen": (87, 94), "connectors": (11, 23 - 11)}


@pytest.mark.parametrize("run", sorted(PIVOT_PATHS))
def test_column_generation_takes_the_pinned_pivot_path(monkeypatch, run):
    seen = {"pivots": 0, "scans": 0}
    pivot, entering = simplex.Tableau._pivot, simplex.Tableau._entering

    def counted_pivot(self, *args):
        seen["pivots"] += 1
        return pivot(self, *args)

    def counted_entering(self, *args):
        seen["scans"] += 1
        return entering(self, *args)

    if run == "connectors":
        G, _ = _approx_input("twoecbeta")
        x = lp.solve_subtour(G).x
    monkeypatch.setattr(simplex.Tableau, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex.Tableau, "_entering", counted_entering)
    if run == "connectors":
        decompose.decompose_connectors(G, x)
    else:
        uniform_cover(petersen(), "18/19")
    assert (seen["pivots"], seen["scans"]) == PIVOT_PATHS[run]


def _widest_lanes(monkeypatch):
    """The widest lanes that any kernel reaches after the call, starting
    from the width of a new kernel."""
    widest = [simplex.Adjugate(1).width]
    widen = simplex.Adjugate.widen

    def recorded(self):
        widen(self)
        widest[0] = max(widest[0], self.width)

    monkeypatch.setattr(simplex.Adjugate, "widen", recorded)
    return widest


@pytest.mark.parametrize("run", sorted(PIVOT_PATHS))
def test_the_pinned_pivot_paths_keep_64_bit_lanes(monkeypatch, run):
    # Lanes are as narrow as the values allow; a kernel that widened early
    # would still be exact, only slower, so its width is pinned here.
    if run == "connectors":
        G, _ = _approx_input("twoecbeta")
        x = lp.solve_subtour(G).x
    widest = _widest_lanes(monkeypatch)
    if run == "connectors":
        decompose.decompose_connectors(G, x)
    else:
        uniform_cover(petersen(), "18/19")
    assert widest == [64]


def test_the_golden_cubic20_cover_widens_its_lanes(monkeypatch):
    widest = _widest_lanes(monkeypatch)
    uniform_cover(golden.cubic20(), "18/19")
    assert widest[0] > 64


@pytest.mark.parametrize("algorithm", ("tsp75", "twoecbeta"))
def test_approx_cli_weights_the_graph_once(monkeypatch, tmp_path, capsys, algorithm):
    G, f = _approx_input(algorithm)
    want = serialize.dumps(serialize.approx_to_json(*approximate(algorithm, G, f)))
    built = []
    induced_graph = graph.NodeWeights.induced_graph

    def counted(self, G):
        built.append(G)
        return induced_graph(self, G)

    monkeypatch.setattr(graph.NodeWeights, "induced_graph", counted)
    gpath, wpath = tmp_path / "g.txt", tmp_path / "w.txt"
    gpath.write_text(serialize.graph_to_text(G))
    wpath.write_text("".join(f"{serialize.frac_str(v)}\n" for v in f.f))
    assert cli.main(["approx", "--alg", algorithm, str(gpath),
                     "--node-weights", str(wpath)]) == cli.EXIT_OK
    assert len(built) == 1
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ("classify", "one_edge_cuts", "two_cut_classes"))
def test_small_cuts_label_once(calls, c4, name):
    g = petersen()
    doubled = {e.id: 2 if e.id == 0 else 1 for e in g.edges}
    star = {e.id: 1 for e in k4().edges if 0 in (e.u, e.v)}
    run = {"classify": lambda: graph.classify(g, doubled),
           "one_edge_cuts": lambda: graph.one_edge_cuts(k4(), star),
           "two_cut_classes": lambda: two_cut_classes(c4, lp.everywhere(c4, 1))}[name]
    assert run()
    assert calls["labels"] == 1
    assert calls["components"] == 0


def test_the_parser_is_built_once(monkeypatch, tmp_path, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    g = k4()
    path = tmp_path / "lp.json"
    path.write_text(serialize.dumps(serialize.lp_result_to_json(g, lp.solve_subtour(g))))
    cli.build_parser.cache_clear()
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK
    assert built == list(cli.COMMANDS)
    assert cli.main(["verify", str(path)]) == cli.EXIT_OK
    assert built == list(cli.COMMANDS)
    assert capsys.readouterr().out.count("valid") == 2
