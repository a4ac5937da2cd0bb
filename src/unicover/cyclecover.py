"""Cycle covers of bridgeless cubic graphs that cross every 3-edge and 4-edge
cut at least twice, found by complete search over perfect matchings.

In a cubic graph a 2-factor is the complement of a perfect matching, so the
search enumerates perfect matchings in canonical edge-id order and returns the
first whose complement covers the 3- and 4-edge cuts (small_cuts).  The
enumeration walks per-vertex incidence lists, and each matching is tested
against the cuts as int bitmasks, one AND and one bit count a cut.  Those
cuts, the profile test (cubic-2ec: cubic and bridgeless) and
verify_contraction's check all come from the cycle-space labels of
graph.enumerate_cuts_upto.  build_cycle_cover is the one builder of a
result from its cover, for the search and for verify.

contracted_cycle_cover runs the search without find_covering_cycle_cover's
profile test, for callers that have tested a stronger profile already.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .graph import (EdgeMultiset, GraphError, Multigraph, contract, describe_cut,
                    enumerate_cuts_upto, is_bipartite, multiset_degrees,
                    require_profile)


class CycleCoverError(GraphError):
    pass


@dataclass(frozen=True)
class CycleCoverResult:
    cover: Tuple[int, ...]               # edge ids of the 2-factor C
    cycles: Tuple[Tuple[int, ...], ...]  # vertex sequences, one per cycle
    matching: Tuple[int, ...]            # E \ C (perfect matching)
    intra_cycle: Tuple[int, ...]         # M: matching edges within one cycle
    cross_cycle: Tuple[int, ...]         # matching edges surviving in G/C
    covered_cuts: Tuple[Tuple[FrozenSet[int], int], ...]  # (cut edges, |C ∩ cut|)

    def cover_multiset(self) -> EdgeMultiset:
        return {eid: 1 for eid in self.cover}


def _perfect_matchings(G: Multigraph):
    """All perfect matchings, in canonical order: the lowest unmatched
    vertex is matched first, along its edges in id order."""
    n = G.n
    incident: List[List[Tuple[int, int]]] = [[] for _ in range(n)]  # (edge id, other end)
    for e in sorted(G.edges, key=lambda e: e.id):
        incident[e.u].append((e.id, e.v))
        incident[e.v].append((e.id, e.u))
    used = [False] * n
    chosen: List[int] = []

    def rec(v: int):
        while v < n and used[v]:
            v += 1
        if v == n:
            yield tuple(chosen)
            return
        used[v] = True
        for eid, w in incident[v]:
            if not used[w]:
                used[w] = True
                chosen.append(eid)
                yield from rec(v + 1)
                chosen.pop()
                used[w] = False
        used[v] = False

    yield from rec(0)


def _cycles_of(G: Multigraph, cover: Set[int]) -> List[List[int]]:
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(G.n)}
    for e in G.edges:
        if e.id in cover:
            adj[e.u].append((e.v, e.id))
            adj[e.v].append((e.u, e.id))
    seen: Set[int] = set()
    cycles = []
    for s in range(G.n):
        if s in seen:
            continue
        cycle = [s]
        seen.add(s)
        prev_edge = -1
        v = s
        while True:
            nxt = next(((w, eid) for w, eid in adj[v] if eid != prev_edge and w not in seen), None)
            if nxt is None:
                break
            v, prev_edge = nxt
            seen.add(v)
            cycle.append(v)
        cycles.append(cycle)
    return cycles


def find_covering_cycle_cover(G: Multigraph) -> CycleCoverResult:
    """The first 2-factor of the bridgeless cubic G, in matching order, that
    crosses every 3- and 4-edge cut at least twice."""
    require_profile(G, "cubic-2ec", CycleCoverError)
    return _search(G)


def small_cuts(G: Multigraph) -> List[FrozenSet[int]]:
    """The 3- and 4-edge cuts of G, in enumeration order."""
    return [c for c in enumerate_cuts_upto(G, 4) if len(c) >= 3]


def _search(G: Multigraph) -> CycleCoverResult:
    """find_covering_cycle_cover without its profile test.  Cuts and
    matchings are bitmasks over edge positions in id order: the complement
    of the matching M crosses the cut c at least twice exactly when
    |c & M| <= |c| - 2.  The cut that failed last is tried first, since
    consecutive matchings differ in a few edges and tend to fail on it."""
    cuts = small_cuts(G)
    ids = sorted(G.edge_ids())
    bit = {eid: 1 << i for i, eid in enumerate(ids)}
    masks = [(sum(bit[eid] for eid in c), len(c) - 2) for c in cuts]
    for matching in _perfect_matchings(G):
        M = sum(map(bit.__getitem__, matching))
        failed = next((i for i, (c, most) in enumerate(masks) if (c & M).bit_count() > most),
                      None)
        if failed is None:
            return build_cycle_cover(G, set(ids) - set(matching), cuts)
        masks.insert(0, masks.pop(failed))
    raise CycleCoverError("no cycle cover found covering all 3- and 4-edge cuts")


def build_cycle_cover(G: Multigraph, cover: Set[int], cuts: List[FrozenSet[int]]
                      ) -> CycleCoverResult:
    """The result of the 2-factor `cover` of G: its cycles, the matching
    E - C split into edges within one cycle and edges between two, and
    (cut, |C ∩ cut|) for each of the cuts."""
    if any(d != 2 for d in multiset_degrees(G, {eid: 1 for eid in cover})):
        raise CycleCoverError("cover is not a 2-factor")
    cycles = _cycles_of(G, cover)
    cycle_of = {v: i for i, cycle in enumerate(cycles) for v in cycle}
    matching = sorted((e for e in G.edges if e.id not in cover), key=lambda e: e.id)
    return CycleCoverResult(
        cover=tuple(sorted(cover)),
        cycles=tuple(tuple(c) for c in cycles),
        matching=tuple(e.id for e in matching),
        intra_cycle=tuple(e.id for e in matching if cycle_of[e.u] == cycle_of[e.v]),
        cross_cycle=tuple(e.id for e in matching if cycle_of[e.u] != cycle_of[e.v]),
        covered_cuts=tuple((c, len(cover & c)) for c in cuts),
    )


def contraction_connectivity(bipartite: bool) -> int:
    """The edge-connectivity of G/C, for C a 2-factor of a cubic
    3-edge-connected G that crosses every 3- and 4-edge cut: 5, or 6 when G
    is bipartite.  A cut of G/C is a cut of G that C does not cross, so it
    has at least 5 edges.  When G is bipartite every cycle of C is even, so
    every degree of G/C is even, every cut of G/C is even, and so at least
    6.  verify_contraction checks both facts on each G/C it returns."""
    return 6 if bipartite else 5


def verify_contraction(G: Multigraph, result: CycleCoverResult) -> Multigraph:
    """G/C for the cover C of `result`, once it is checked: no cut below
    contraction_connectivity, and all degrees even when G is bipartite.
    Raises CycleCoverError otherwise."""
    H = contract(G, result.cover_multiset())
    if H.n == 1:
        return H
    small = enumerate_cuts_upto(H, contraction_connectivity(False) - 1)
    if small:
        raise CycleCoverError(f"bad contraction: {describe_cut(small[0])} in the contraction")
    if is_bipartite(G) and any(d % 2 for d in H.degrees()):
        raise CycleCoverError(
            "bad contraction: odd degree in the contraction of a bipartite input")
    return H


def contracted_cycle_cover(G: Multigraph) -> Tuple[CycleCoverResult, Multigraph]:
    """A covering cycle cover C of G, and G/C once verify_contraction passes.
    The caller has tested G's profile (cubic and 3-edge-connected), so the
    search runs without a second test."""
    cc = _search(G)
    return cc, verify_contraction(G, cc)
