"""End-to-end acceptance checks.

Each test prints exactly one pass/fail line on the real terminal (bypassing
capture) so a full run reads as a seven-line scoreboard.  Every comparison is
exact rational arithmetic; there are no tolerances anywhere.
"""
import itertools
import sys
import time
from fractions import Fraction

from unicover import serialize
from unicover.approx import (approximate, tsp_7_5_node_weighted, tsp_beta,
                             twoec_13_10_node_weighted, twoec_beta)
from unicover.connectors import decomposition, even_2cut_connectors
from unicover.covers import check_certificate, uniform_cover
from unicover.cyclecover import _perfect_matchings, find_covering_cycle_cover
from unicover.decompose import min_tjoin
from unicover.families import (c8_12, heawood, k4, k5, k33, mobius_kantor,
                               petersen, prism, random_cubic_3ec,
                               random_node_weights, random_subcubic_2ec)
from unicover.graph import (NodeWeights, classify, enumerate_cuts_upto,
                            multiset_degrees, multiset_weight)
from unicover.lp import everywhere, solve_subtour
from unicover.verify import verify_document

from conftest import brute_force_subtour, make_graph, two_cut_pairs_oracle

F = Fraction
TIME_BUDGET = 60.0


def report(capsys, criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {criterion}: {status} - {detail}")
        sys.stdout.flush()


def criterion_1_matrix():
    runs = [("18/19", g) for g in (k4(), petersen(), prism())]
    runs += [("18/19", random_cubic_3ec(8 + 2 * (s % 4), s)) for s in range(20)]
    for variant in ("12/13", "7/8"):
        runs += [(variant, g) for g in (k33(), heawood(), mobius_kantor())]
    for variant in ("15/17", "8/9"):
        runs += [(variant, g) for g in (k4(), petersen())]
    runs += [("3/4", g) for g in (k5(), c8_12())]
    return runs


def test_criterion_1_uniform_cover_certificates(capsys):
    worst = 0.0
    count = 0
    try:
        for variant, g in criterion_1_matrix():
            t0 = time.time()
            cert = uniform_cover(g, variant)
            check_certificate(g, cert)
            assert sum(t.coefficient for t in cert.combination.terms) == 1
            cover = cert.combination.coverage()
            for e in g.edges:
                assert cert.alpha - cover.get(e.id, F(0)) >= 0
            for t in cert.combination.terms:
                assert cert.object_class in classify(g, t.multiset())
            elapsed = time.time() - t0
            worst = max(worst, elapsed)
            assert elapsed < TIME_BUDGET
            count += 1
    except BaseException:
        report(capsys, 1, False, f"failed after {count} certified runs")
        raise
    report(capsys, 1, True, f"{count} certified runs, worst {worst:.2f}s")


def test_criterion_2_8_9_subgraph_property(capsys):
    checked = 0
    try:
        for g in (k4(), petersen()):
            cert = uniform_cover(g, "8/9")
            assert cert.max_multiplicity <= 1
            for t in cert.combination.terms:
                assert all(m == 1 for _, m in t.edges)
                checked += 1
    except BaseException:
        report(capsys, 2, False, "a doubled edge appeared in an 8/9 term")
        raise
    report(capsys, 2, True, f"{checked} terms, all multiplicity 1")


def test_criterion_3_connector_decomposition(capsys):
    instances = 0
    try:
        for seed in range(50):
            g = random_subcubic_2ec(6 + 2 * (seed % 4), seed)
            x = solve_subtour(g).x
            comb = even_2cut_connectors(g, x)
            cover = comb.coverage()
            for eid, v in cover.items():
                assert v <= min(x.get(eid, F(0)), F(2))
            pairs = two_cut_pairs_oracle(g, x)
            for t in comb.terms:
                f = t.multiset()
                for a, b in pairs:
                    assert (f.get(a, 0) + f.get(b, 0)) % 2 == 0
                assert "connector" in classify(g, f)
            instances += 1
    except BaseException:
        report(capsys, 3, False, f"failed after {instances} instances")
        raise
    report(capsys, 3, True, "50 instances: domination, even crossings, connector terms")


def test_criterion_4_approximation_ratios(capsys):
    runs = 0
    try:
        for seed in range(20):
            n = 8 + 2 * (seed % 4)
            g = random_cubic_3ec(n, seed)
            f = random_node_weights(n, seed + 1000)
            z = 2 * f.total()
            assert tsp_7_5_node_weighted(g, f).weight <= F(7, 5) * z
            assert twoec_13_10_node_weighted(g, f).weight <= F(13, 10) * z
            runs += 2
        ones6 = NodeWeights((F(1),) * 6)
        ones14 = NodeWeights((F(1),) * 14)
        assert approximate("bip43", k33(), ones6)[1].weight <= F(4, 3) * 12
        assert approximate("bip54", heawood(), ones14)[1].weight <= F(5, 4) * 28
        runs += 2
        for seed in range(20):
            g = random_subcubic_2ec(8 + 2 * (seed % 3), seed)
            fw = random_node_weights(g.n, seed + 2000)
            gw = fw.induced_graph(g)
            z = solve_subtour(gw).value
            beta = gw.total_weight() / z
            res2 = twoec_beta(gw)
            assert res2.lower_bound == z and res2.weight <= (1 + 2 * beta) / 3 * z
            res1 = tsp_beta(gw)
            assert res1.lower_bound == z and res1.weight <= (1 + beta / 3) * z
            runs += 2
    except BaseException:
        report(capsys, 4, False, f"a ratio bound failed after {runs} runs")
        raise
    report(capsys, 4, True, f"{runs} runs within their exact ratio bounds")


def brute_force_two_factor(g):
    targets = [c for c in enumerate_cuts_upto(g, 4) if len(c) in (3, 4)]
    for subset in itertools.combinations(sorted(g.edge_ids()), g.n):
        chosen = set(subset)
        deg = multiset_degrees(g, {eid: 1 for eid in chosen})
        if all(d == 2 for d in deg) and \
                all(len(chosen & c) >= 2 for c in targets):
            return chosen
    return None


def exhaustive_min_tjoin(g, weights, T):
    best = None
    ids = sorted(weights)
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            deg = multiset_degrees(g, {eid: 1 for eid in subset})
            if {v for v in range(g.n) if deg[v] % 2 == 1} == T:
                w = sum(weights[eid] for eid in subset)
                if best is None or w < best:
                    best = w
    return best


def test_criterion_5_oracle_equivalences(capsys):
    checks = 0
    try:
        for g in (k4(), k5(), k33(), prism(), c8_12()):
            assert solve_subtour(g).value == brute_force_subtour(g)
            checks += 1
        corpus = [k4(), k33(), prism(), petersen()]
        corpus += [random_cubic_3ec(10, s) for s in range(3)]
        corpus += [random_cubic_3ec(12, s) for s in range(2)]
        for g in corpus:
            res = find_covering_cycle_cover(g)
            brute = brute_force_two_factor(g)
            assert brute is not None
            deg = multiset_degrees(g, res.cover_multiset())
            assert all(d == 2 for d in deg)
            checks += 1
        for g in (k4(), k33(), prism(), petersen()):
            assert g.m <= 16
            weights = {e.id: F(e.id % 5 + 1, 4) for e in g.edges}
            for T in (set(), {0, 1}, {0, 1, 2, 3}):
                value, join = min_tjoin(g, weights, T)
                deg = multiset_degrees(g, join)
                assert {v for v in range(g.n) if deg[v] % 2 == 1} == T
                assert value == exhaustive_min_tjoin(g, weights, T)
                checks += 1
    except BaseException:
        report(capsys, 5, False, f"an oracle disagreed after {checks} checks")
        raise
    report(capsys, 5, True, f"{checks} oracle agreements (LP, 2-factor, T-join)")


def test_criterion_6_node_weight_identities(capsys):
    instances = 0
    try:
        corpus = [(k4(), 4), (petersen(), 10), (k33(), 6)]
        corpus += [(random_cubic_3ec(10, s), 10) for s in range(5)]
        for g, n in corpus:
            f = random_node_weights(n, n + instances)
            gw = f.induced_graph(g)
            z = 2 * f.total()
            assert solve_subtour(gw).value == z
            all_ids = set(gw.edge_ids())
            for matching in _perfect_matchings(gw):
                assert multiset_weight(gw, {eid: 1 for eid in matching}) == z / 2
                cover = {eid: 1 for eid in all_ids - set(matching)}
                assert multiset_weight(gw, cover) == z
            instances += 1
    except BaseException:
        report(capsys, 6, False, f"an identity failed after {instances} instances")
        raise
    report(capsys, 6, True, f"{instances} instances: z = 2*sum(f), covers z, matchings z/2")


def _mutated_certificates():
    bases = [("18/19", g) for g in (k4(), petersen(), prism())]
    bases += [("12/13", g) for g in (k33(), heawood(), mobius_kantor())]
    bases += [("15/17", k4()), ("15/17", petersen())]
    bases += [("8/9", k4()), ("8/9", petersen())]
    bases += [("7/8", k33()), ("7/8", heawood())]
    bases += [("3/4", k5()), ("3/4", c8_12())]
    other = {"18/19": "15/17", "12/13": "7/8", "15/17": "18/19",
             "8/9": "15/17", "7/8": "12/13", "3/4": "8/9"}
    for variant, g in bases:
        doc = serialize.certificate_to_json(g, uniform_cover(g, variant))

        def fresh():
            return serialize.loads(serialize.dumps(doc))

        d = fresh()
        d["combination"]["terms"][0]["lambda"] = serialize.frac_str(
            serialize.parse_frac(d["combination"]["terms"][0]["lambda"]) + F(1, 7))
        yield d
        d = fresh()
        d["combination"]["terms"][0]["lambda"] = serialize.frac_str(
            serialize.parse_frac(d["combination"]["terms"][0]["lambda"]) / 2)
        yield d
        d = fresh()
        d["alpha"] = serialize.frac_str(serialize.parse_frac(d["alpha"]) - F(1, 100))
        yield d
        d = fresh()
        d["variant"] = other[variant]
        yield d
        d = fresh()
        d["variant"] = "5/6"
        yield d
        d = fresh()
        d["object_class"] = ("twoec-multigraph"
                             if d["object_class"] == "tour" else "tour")
        yield d
        d = fresh()
        key = sorted(d["slack"])[0]
        d["slack"][key] = serialize.frac_str(
            serialize.parse_frac(d["slack"][key]) + F(1, 5))
        yield d
        d = fresh()
        d["combination"]["terms"][0]["edges"][0][1] += 1
        yield d
        d = fresh()
        del d["combination"]["terms"][0]["edges"][0]
        yield d
        d = fresh()
        d["combination"]["terms"][0]["classes"] = ["cycle-cover"]
        yield d
        d = fresh()
        d["max_multiplicity"] += 1
        yield d
        d = fresh()
        e = d["graph"]["edges"][0]
        e[1] = (e[1] + 1) % d["graph"]["n"]
        if e[1] == e[0]:
            e[1] = (e[1] + 1) % d["graph"]["n"]
        yield d


def _mutated_approx():
    f10 = NodeWeights((F(1),) * 10)
    docs = []
    g = f10.induced_graph(petersen())
    docs.append(serialize.approx_to_json(g, tsp_7_5_node_weighted(petersen(), f10)))
    docs.append(serialize.approx_to_json(g, twoec_13_10_node_weighted(petersen(), f10)))
    f6 = NodeWeights((F(1),) * 6)
    docs.append(serialize.approx_to_json(*approximate("bip43", k33(), f6)))
    f14 = NodeWeights((F(1),) * 14)
    docs.append(serialize.approx_to_json(*approximate("bip54", heawood(), f14)))
    for seed in range(2):
        g = random_subcubic_2ec(8, seed)
        fw = random_node_weights(g.n, seed + 3000)
        gw = fw.induced_graph(g)
        docs.append(serialize.approx_to_json(gw, twoec_beta(gw)))
        docs.append(serialize.approx_to_json(gw, tsp_beta(gw)))
    swap = {"tsp75": "twoec1310", "twoec1310": "tsp75", "bip43": "bip54",
            "bip54": "bip43", "twoecbeta": "tspbeta", "tspbeta": "twoecbeta"}
    for doc in docs:
        def fresh():
            return serialize.loads(serialize.dumps(doc))

        d = fresh()
        d["weight"] = serialize.frac_str(serialize.parse_frac(d["weight"]) + 1)
        yield d
        d = fresh()
        d["ratio"] = "2/1"
        yield d
        d = fresh()
        d["lower_bound"] = serialize.frac_str(
            serialize.parse_frac(d["lower_bound"]) + 1)
        yield d
        d = fresh()
        d["solution"][0][1] += 1
        yield d
        d = fresh()
        d["algorithm"] = swap[d["algorithm"]]
        yield d
        d = fresh()
        d["object_class"] = "perfect-matching"
        yield d
        if "beta" in doc:
            d = fresh()
            d["beta"] = serialize.frac_str(serialize.parse_frac(d["beta"]) + F(1, 3))
            yield d
        # Ids that are not edges of the graph.
        d = fresh()
        d["solution"].insert(0, [-1, 7])
        yield d
        d = fresh()
        d["solution"].append([999, 1])
        yield d


def _two_triangles():
    return make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 0)])


def _mutated_decompositions():
    two_triangles = _two_triangles()
    docs = [serialize.decomposition_to_json(
        g, decomposition(g, everywhere(g, F(2, 3)), "trees"), "trees")
        for g in (k4(), petersen(), prism())]
    for g in (k33(), two_triangles):
        x = solve_subtour(g).x
        docs.append(serialize.decomposition_to_json(g, decomposition(g, x, "connectors"),
                                                    "connectors"))
    x = solve_subtour(two_triangles).x
    docs.append(serialize.decomposition_to_json(
        two_triangles, decomposition(two_triangles, x, "even2cut"), "even2cut"))
    for doc in docs:
        def fresh():
            return serialize.loads(serialize.dumps(doc))

        d = fresh()
        terms = d["combination"]["terms"]
        terms[0]["lambda"] = serialize.frac_str(serialize.parse_frac(terms[0]["lambda"]) + F(1, 7))
        yield d
        d = fresh()
        terms = d["combination"]["terms"]
        terms[0]["lambda"] = serialize.frac_str(serialize.parse_frac(terms[0]["lambda"]) / 2)
        yield d
        d = fresh()
        d["combination"]["terms"].append(d["combination"]["terms"][0])
        yield d
        d = fresh()
        d["combination"]["terms"][0]["edges"][0][1] += 1
        yield d
        d = fresh()
        del d["combination"]["terms"][0]["edges"][0]
        yield d
        d = fresh()
        d["combination"]["terms"][0]["classes"] = ["cycle-cover"]
        yield d
        d = fresh()
        target = d["combination"]["target"]
        for eid in target:
            target[eid] = serialize.frac_str(serialize.parse_frac(target[eid]) / 2)
        yield d
        d = fresh()
        d["combination"]["relation"] = "contains"
        yield d
        if doc["kind"] != "trees":
            # Edge 999, not in the graph, in the target and in every term.
            d = fresh()
            d["combination"]["target"]["999"] = "1/1"
            for term in d["combination"]["terms"]:
                term["edges"].append([999, 1])
            yield d


def _mutated_lp_results():
    graphs = [k4(), petersen(), prism(), k33(), _two_triangles()]
    graphs += [random_node_weights(8, s + 3000).induced_graph(random_subcubic_2ec(8, s))
               for s in range(2)]
    for g in graphs:
        doc = serialize.lp_result_to_json(g, solve_subtour(g))

        def fresh():
            return serialize.loads(serialize.dumps(doc))

        d = fresh()
        d["value"] = serialize.frac_str(serialize.parse_frac(d["value"]) + 1)
        yield d
        d = fresh()
        eid = sorted(d["x"], key=int)[0]
        d["x"][eid] = serialize.frac_str(serialize.parse_frac(d["x"][eid]) + F(1, 3))
        yield d
        d = fresh()
        cut = next(c for c in d["cuts"] if serialize.parse_frac(c["y"]) > 0)
        cut["y"] = serialize.frac_str(serialize.parse_frac(cut["y"]) + 1)
        yield d
        d = fresh()
        d["separation_rounds"] += 1
        yield d
        d = fresh()
        del d["cuts"][-1]
        yield d
        d = fresh()
        d["cuts"][0]["shore"] = [2]
        yield d
        d = fresh()
        cut = d["cuts"][0]
        cut["edges"] = sorted(set(cut["edges"]) ^ {d["graph"]["edges"][-1][3]})
        yield d
        d = fresh()
        # Raise the weight of the edge that x loads most.
        heavy = max(d["x"], key=lambda k: (serialize.parse_frac(d["x"][k]), -int(k)))
        for e in d["graph"]["edges"]:
            if e[3] == int(heavy):
                e[2] = serialize.frac_str(serialize.parse_frac(e[2]) + 1)
        yield d


def _mutated_cycle_covers():
    graphs = [k4(), petersen(), prism(), k33(), heawood()]
    graphs += [random_cubic_3ec(10 + 2 * s, s) for s in range(3)]
    for g in graphs:
        doc = serialize.cycle_cover_to_json(g, find_covering_cycle_cover(g))

        def fresh():
            return serialize.loads(serialize.dumps(doc))

        d = fresh()
        del d["cover"][0]
        yield d
        d = fresh()
        d["matching"] = d["matching"][1:]
        yield d
        d = fresh()
        # On a cycle of length >= 4 (every graph here has one), swapping the
        # first two vertices steps along a chord.
        longest = max(d["cycles"], key=len)
        longest[0], longest[1] = longest[1], longest[0]
        yield d
        d = fresh()
        if d["cross_cycle"]:
            d["intra_cycle"] = sorted(d["intra_cycle"] + d["cross_cycle"][:1])
            d["cross_cycle"] = d["cross_cycle"][1:]
        else:
            d["cross_cycle"] = d["intra_cycle"][:1]
            d["intra_cycle"] = d["intra_cycle"][1:]
        yield d
        d = fresh()
        d["covered_cuts"][0][1] += 1
        yield d
        d = fresh()
        del d["covered_cuts"][-1]
        yield d
        d = fresh()
        e = next(e for e in d["graph"]["edges"] if e[3] == d["cover"][0])
        e[1] = (e[1] + 1) % d["graph"]["n"]
        if e[1] == e[0]:
            e[1] = (e[1] + 1) % d["graph"]["n"]
        yield d


def _drop_one_copy(g, d, required):
    """d with one copy of one edge of its first term dropped, the first edge
    whose loss costs the term the label `required`, and with the
    classifier's labels stored for what is left."""
    term = d["combination"]["terms"][0]
    for i, (eid, mult) in enumerate(term["edges"]):
        edges = [list(pair) for pair in term["edges"]]
        if mult == 1:
            del edges[i]
        else:
            edges[i][1] -= 1
        labels = classify(g, dict(map(tuple, edges)))
        if required not in labels:
            term["edges"], term["classes"] = edges, sorted(labels)
            return d
    raise AssertionError(f"no one copy of an edge of term 0 carries its {required} label")


def _mutations_with_messages():
    """(mutated document, the text its rejection must hold), one for each
    check that the other mutations leave unreached."""
    g = petersen()
    for variant, required in (("18/19", "tour"), ("8/9", "twoec-multigraph")):
        doc = serialize.certificate_to_json(g, uniform_cover(g, variant))
        yield _drop_one_copy(g, doc, required), f"is not a {required}"
    x = solve_subtour(g).x
    for kind in ("trees", "even2cut"):
        doc = serialize.decomposition_to_json(g, decomposition(g, x, kind), kind)
        yield _drop_one_copy(g, doc, "connector"), "is not a connector"
    doc = serialize.approx_to_json(*approximate("tsp75", g, NodeWeights((F(1),) * g.n)))
    used = {eid for eid, _ in doc["solution"]}
    doc["solution"].append([next(eid for eid in g.edge_ids() if eid not in used), 0])
    yield doc, "nonpositive multiplicity in the solution"
    doc = serialize.cycle_cover_to_json(g, find_covering_cycle_cover(g))
    for cover in (doc["cover"][::-1], doc["cover"] + [999]):
        yield {**doc, "cover": cover}, "stored cover is not a sorted set of edge ids"


def test_criterion_7_mutation_robustness(capsys):
    rejected = 0
    total = 0
    survivors, misnamed = [], []
    kinds = set()
    unnamed = itertools.chain(_mutated_certificates(), _mutated_approx(),
                              _mutated_decompositions(), _mutated_lp_results(),
                              _mutated_cycle_covers())
    for doc, message in itertools.chain(((doc, None) for doc in unnamed),
                                        _mutations_with_messages()):
        total += 1
        kinds.add(doc["type"])
        rep = verify_document(doc)
        if rep.ok:
            survivors.append((total, doc.get("type"), rep.detail))
        else:
            rejected += 1
            if message is not None and message not in rep.detail:
                misnamed.append((total, message, rep.detail))
    ok = total >= 200 and rejected == total and len(kinds) == 5 and not misnamed
    report(capsys, 7, ok, f"{rejected}/{total} mutations of {len(kinds)} document types rejected")
    assert total >= 200, f"only {total} mutations generated"
    assert len(kinds) == 5, f"mutations cover only {sorted(kinds)}"
    assert not survivors, f"mutations passed verification: {survivors}"
    assert not misnamed, f"mutations rejected by another check: {misnamed}"
