"""The benchmark's workloads: seeded instances, the timed operation, and the
harness's own exact re-check of every artifact.

An operation produces one artifact: one library call plus serialization to
JSON bytes, exactly what a ``unicover`` command writes.  The library is
handed only the generated graphs (and node weights).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from unicover import approx, covers, cyclecover, families, serialize

WORKLOADS = ("cover-matrix", "cubic-cuts", "subcubic-beta")

# Every third round of the three algorithms runs at the larger size, so the
# median op is an n = 16 one and the tail holds the n = 18 ones.
CUBIC_N = (16, 18)
CUBIC_KINDS = ("tsp75", "twoec1310", "cycle-cover")
SUBCUBIC_N = 10
SUBCUBIC_KINDS = ("twoecbeta", "tspbeta")
# cover-matrix's 18/19 ops on random graphs cycle through these sizes.
MATRIX_RANDOM_N = (8,)
MATRIX_RANDOM_COUNT = 20

# An untraced run times every op of its list once in each of PASSES fresh
# worker processes, and verifies the artifacts in VERIFY_PASSES fresh
# verifier processes; each op's time is its mean over the passes.
# cover-matrix's ops last up to 2 s, longer than a probe can follow the
# host, so it averages two passes; it is cheap to verify, so four.
PASSES = {"cover-matrix": 2, "cubic-cuts": 1, "subcubic-beta": 1}
VERIFY_PASSES = {"cover-matrix": 4, "cubic-cuts": 1, "subcubic-beta": 1}

# Distinct ops per second of --seconds in the lists of cubic-cuts and
# subcubic-beta, rounded up to whole rounds of their kinds.  Their times
# vary from graph to graph (verify times on cubic-cuts by 10x), so the
# cubic-cuts list is as long as the run budget allows.  subcubic-beta's op
# times have a heavy tail: with more than about 150 ops its tail metric
# (10 ops beyond it) moves into that tail and varies from seed to seed.
OPS_PER_SECOND = {"cubic-cuts": 2.25, "subcubic-beta": 7.5}

NODE_WEIGHTED_RATIO = {"tsp75": Fraction(7, 5), "twoec1310": Fraction(13, 10)}


@dataclass(frozen=True)
class Op:
    kind: str                                  # variant or algorithm
    graph: object                              # Multigraph handed to the library
    weights: Optional[object] = None           # NodeWeights, node-weighted ops only
    label: str = ""


def _named_matrix(rng: random.Random) -> List[Op]:
    """test_acceptance's criterion-1 matrix, cut to 34 uniform covers over all
    six variants: 12/13 on Moebius-Kantor is left out, and the 20 random
    graphs are all at n = 8, not n = 8...14.  The random graphs take their
    seeds from the workload seed."""
    named = {"k4": families.k4(), "k5": families.k5(), "petersen": families.petersen(),
             "prism": families.prism(), "k33": families.k33(),
             "heawood": families.heawood(), "mobius-kantor": families.mobius_kantor(),
             "c8-12": families.c8_12()}
    ops = [Op("18/19", named[g], label=g) for g in ("k4", "petersen", "prism")]
    for s in range(MATRIX_RANDOM_COUNT):
        n, gseed = MATRIX_RANDOM_N[s % len(MATRIX_RANDOM_N)], rng.randrange(2 ** 31)
        ops.append(Op("18/19", families.random_cubic_3ec(n, gseed),
                      label=f"random-cubic-3ec({n},{gseed})"))
    ops += [Op("12/13", named[g], label=g) for g in ("k33", "heawood")]
    ops += [Op("7/8", named[g], label=g) for g in ("k33", "heawood", "mobius-kantor")]
    for variant in ("15/17", "8/9"):
        ops += [Op(variant, named[g], label=g) for g in ("k4", "petersen")]
    ops += [Op("3/4", named[g], label=g) for g in ("k5", "c8-12")]
    return ops


def _graph_key(G, weights=None) -> Tuple:
    return (G.n, tuple((e.u, e.v, e.weight) for e in G.edges),
            None if weights is None else weights.f)


def _cubic_pool(rng: random.Random, size: int) -> List[Op]:
    ops: List[Op] = []
    seen = set()
    while len(ops) < size:
        rounds, slot = divmod(len(ops), len(CUBIC_KINDS))
        n = CUBIC_N[rounds % 3 == 2]
        gseed, wseed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        G = families.random_cubic_3ec(n, gseed)
        f = families.random_node_weights(n, wseed)
        key = _graph_key(G, f)
        if key in seen:
            continue
        seen.add(key)
        kind = CUBIC_KINDS[slot]
        label = f"random-cubic-3ec({n},{gseed}) weights {wseed}"
        if kind == "cycle-cover":
            ops.append(Op(kind, f.induced_graph(G), label=label))
        else:
            ops.append(Op(kind, G, f, label=label))
    return ops


def _subcubic_pool(rng: random.Random, size: int) -> List[Op]:
    ops: List[Op] = []
    seen = set()
    while len(ops) < size:
        gseed, wseed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        G = families.random_node_weights(SUBCUBIC_N, wseed).induced_graph(
            families.random_subcubic_2ec(SUBCUBIC_N, gseed))
        key = _graph_key(G)
        if key in seen:
            continue
        seen.add(key)
        kind = SUBCUBIC_KINDS[len(ops) % len(SUBCUBIC_KINDS)]
        ops.append(Op(kind, G, label=f"random-subcubic-2ec({SUBCUBIC_N},{gseed}) "
                                     f"weights {wseed}"))
    return ops


def build(workload: str, seed: int, seconds: int) -> List[Op]:
    """The op list of a run, in op order; the same seed and --seconds give
    the same list, and a larger --seconds only extends it."""
    rng = random.Random(seed)
    if workload == "cover-matrix":
        return _named_matrix(rng)
    size = pool_size(workload, seconds)
    if workload == "cubic-cuts":
        return _cubic_pool(rng, size)
    if workload == "subcubic-beta":
        return _subcubic_pool(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def pool_size(workload: str, seconds: int) -> int:
    """Ops in the list of cubic-cuts or subcubic-beta: whole rounds of their
    kinds, OPS_PER_SECOND per second of --seconds."""
    kinds = len(CUBIC_KINDS if workload == "cubic-cuts" else SUBCUBIC_KINDS)
    return kinds * max(1, math.ceil(OPS_PER_SECOND[workload] * seconds / kinds))


def produce(op: Op) -> bytes:
    """The timed operation: one artifact as JSON bytes."""
    G = op.graph
    if op.kind in covers.VARIANTS:
        doc = serialize.certificate_to_json(G, covers.uniform_cover(G, op.kind))
    elif op.kind == "tsp75":
        res = approx.tsp_7_5_node_weighted(G, op.weights)
        doc = serialize.approx_to_json(op.weights.induced_graph(G), res)
    elif op.kind == "twoec1310":
        res = approx.twoec_13_10_node_weighted(G, op.weights)
        doc = serialize.approx_to_json(op.weights.induced_graph(G), res)
    elif op.kind == "cycle-cover":
        doc = serialize.cycle_cover_to_json(G, cyclecover.find_covering_cycle_cover(G))
    elif op.kind == "twoecbeta":
        doc = serialize.approx_to_json(G, approx.twoec_beta(G))
    elif op.kind == "tspbeta":
        doc = serialize.approx_to_json(G, approx.tsp_beta(G))
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    return serialize.dumps(doc).encode("utf-8")


# ---------------------------------------------------------------------------
# Harness gate: exact re-checks from the JSON, independent of unicover.verify.


def _expected_graph(op: Op) -> Tuple[int, List[list]]:
    G = op.graph if op.weights is None else op.weights.induced_graph(op.graph)
    return G.n, [[e.u, e.v, e.weight, e.id] for e in sorted(G.edges, key=lambda e: e.id)]


def _multiset(pairs) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for eid, m in pairs:
        out[int(eid)] = out.get(int(eid), 0) + int(m)
    return out


def check(op: Op, data: bytes) -> Optional[str]:
    """None when the artifact passes; otherwise what failed."""
    doc = json.loads(data)
    n, edges = _expected_graph(op)
    got = doc["graph"]
    if got["n"] != n or [[u, v, Fraction(w), i] for u, v, w, i in got["edges"]] != edges:
        return "artifact graph differs from the input graph"
    weight_of = {i: w for _, _, w, i in edges}
    if op.kind in covers.VARIANTS:
        return _check_certificate(op, doc, weight_of)
    if op.kind == "cycle-cover":
        ends = {i: (u, v) for u, v, _, i in edges}
        deg = [0] * n
        for eid in doc["cover"]:
            if eid not in ends:
                return f"cycle cover uses unknown edge {eid}"
            for x in ends[eid]:
                deg[x] += 1
        if any(d != 2 for d in deg):
            return "cycle cover: a vertex does not have degree 2"
        return None
    return _check_approx(op, doc, weight_of)


def _check_certificate(op: Op, doc: dict, weight_of: Dict[int, Fraction]) -> Optional[str]:
    alpha = Fraction(doc["alpha"])
    if doc["variant"] != op.kind or alpha != Fraction(op.kind):
        return f"certificate is for {doc['variant']} alpha {alpha}, not {op.kind}"
    terms = doc["combination"]["terms"]
    lambdas = [Fraction(t["lambda"]) for t in terms]
    if any(lam <= 0 for lam in lambdas) or sum(lambdas) != 1:
        return "certificate: coefficients are not a convex combination"
    coverage = {eid: Fraction(0) for eid in weight_of}
    for lam, t in zip(lambdas, terms):
        for eid, m in _multiset(t["edges"]).items():
            if eid not in coverage:
                return f"certificate: term uses unknown edge {eid}"
            coverage[eid] += lam * m
    if any(alpha - c < 0 for c in coverage.values()):
        return "certificate: coverage exceeds alpha on an edge"
    return None


def _check_approx(op: Op, doc: dict, weight_of: Dict[int, Fraction]) -> Optional[str]:
    if doc["algorithm"] != op.kind:
        return f"approx artifact is {doc['algorithm']}, not {op.kind}"
    sol = _multiset(doc["solution"])
    if not set(sol) <= set(weight_of):
        return "approx: solution uses unknown edges"
    weight = sum((weight_of[eid] * m for eid, m in sol.items()), Fraction(0))
    if weight != Fraction(doc["weight"]):
        return "approx: stored weight differs from the solution's weight"
    ratio = Fraction(doc["ratio"])
    if op.kind in NODE_WEIGHTED_RATIO:
        want = NODE_WEIGHTED_RATIO[op.kind]
        bound = 2 * sum(op.weights.f, Fraction(0))
    else:
        bound = Fraction(doc["lower_bound"])
        beta = sum(weight_of.values(), Fraction(0)) / bound
        want = (1 + 2 * beta) / 3 if op.kind == "twoecbeta" else 1 + beta / 3
    if ratio != want:
        return f"approx: ratio {ratio} is not {want}"
    if weight > ratio * bound:
        return f"approx: weight {weight} exceeds {ratio} * {bound}"
    return None
