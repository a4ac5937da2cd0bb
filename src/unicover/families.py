"""Named graph families and seeded random instance generators.

All generators return unit edge weights; the library reweights a graph
only through NodeWeights.induced_graph.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence, Tuple

from .graph import Edge, GraphError, Multigraph, NodeWeights, validate_structure

ONE = Fraction(1)


def _graph(n: int, pairs: Sequence[Tuple[int, int]]) -> Multigraph:
    return Multigraph(n, tuple(
        Edge(u, v, ONE, i) for i, (u, v) in enumerate(pairs)))


def k4() -> Multigraph:
    return _graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def k5() -> Multigraph:
    return _graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def petersen() -> Multigraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _graph(10, outer + spokes + inner)


def k33() -> Multigraph:
    return _graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def prism() -> Multigraph:
    tri1 = [(0, 1), (1, 2), (2, 0)]
    tri2 = [(3, 4), (4, 5), (5, 3)]
    rungs = [(0, 3), (1, 4), (2, 5)]
    return _graph(6, tri1 + tri2 + rungs)


def _lcf(n: int, jumps: Sequence[int]) -> Multigraph:
    """LCF notation: Hamiltonian cycle 0..n-1 plus chords i -> i+jump[i]."""
    pairs = [(i, (i + 1) % n) for i in range(n)]
    seen = set()
    for i, jump in enumerate(jumps):
        a, b = i, (i + jump) % n
        key = frozenset((a, b))
        if key not in seen:
            seen.add(key)
            pairs.append((min(a, b), max(a, b)))
    return _graph(n, pairs)


def lcf_5(n: int) -> Multigraph:
    """LCF [5, -5]^(n/2), n even: bipartite and cubic."""
    return _lcf(n, [5 if i % 2 == 0 else -5 for i in range(n)])


def heawood() -> Multigraph:
    return lcf_5(14)


def mobius_kantor() -> Multigraph:
    return lcf_5(16)


def c8_12() -> Multigraph:
    """Circulant on 8 vertices with jumps 1 and 2 (4-regular, 4-edge-connected)."""
    pairs = [(i, (i + 1) % 8) for i in range(8)] + [(i, (i + 2) % 8) for i in range(8)]
    return _graph(8, [(min(a, b), max(a, b)) for a, b in pairs])


def random_cubic_3ec(n: int, seed: int) -> Multigraph:
    """Random cubic 3-edge-connected graph via rejection-sampled pairings."""
    if n % 2 == 1:
        raise GraphError("n must be even for a cubic graph")
    if not (4 <= n <= 32):
        raise GraphError("n must be between 4 and 32")
    rng = random.Random(seed)
    for _ in range(20000):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = []
        ok = True
        seen = set()
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or frozenset((a, b)) in seen:
                ok = False
                break
            seen.add(frozenset((a, b)))
            pairs.append((min(a, b), max(a, b)))
        if not ok:
            continue
        G = _graph(n, sorted(pairs))
        if validate_structure(G, "cubic-3ec").passed:
            return G
    raise GraphError("failed to sample a cubic 3-edge-connected graph")


def random_subcubic_2ec(n: int, seed: int) -> Multigraph:
    """Random 2-edge-connected subcubic graph: a cycle plus non-crossing
    degree-respecting chords."""
    if n < 3:
        raise GraphError("n must be at least 3")
    rng = random.Random(seed)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    degree = [2] * n
    existing = {frozenset(p) for p in pairs}
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if frozenset((u, v)) not in existing]
    rng.shuffle(candidates)
    extra = rng.randint(0, max(0, n // 2))
    for u, v in candidates:
        if extra == 0:
            break
        if degree[u] < 3 and degree[v] < 3:
            pairs.append((u, v))
            degree[u] += 1
            degree[v] += 1
            extra -= 1
    return _graph(n, sorted(pairs))


def random_node_weights(n: int, seed: int) -> NodeWeights:
    rng = random.Random(seed)
    return NodeWeights(tuple(
        Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(n)))


# Every family by its name, in the order `unicover gen --help` lists them.
# A random family takes (n, seed); a named graph takes no argument.
FAMILIES = {
    "k4": k4, "k5": k5, "petersen": petersen, "k33": k33, "prism": prism,
    "heawood": heawood, "mobius-kantor": mobius_kantor, "c8-12": c8_12,
    "random-cubic-3ec": random_cubic_3ec, "random-subcubic-2ec": random_subcubic_2ec,
}
FAMILY_NAMES = tuple(FAMILIES)


def named_family(name: str, n: int = 10, seed: int = 0) -> Multigraph:
    if name not in FAMILIES:
        raise GraphError(f"unknown family {name!r}")
    build = FAMILIES[name]
    return build(n, seed) if name.startswith("random-") else build()
