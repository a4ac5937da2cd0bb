"""Multigraph representation, cut enumeration, contraction and structural classifiers.

Every small-cut question about a support (bridges, 2-edge cuts, odd
crossings, classify's labels) is read off its cycle-space labels here.

All arithmetic on weights is exact: weights are ints or fractions.Fraction
(a graph with any other weight, or a negative one, is rejected when it is
built, by the sign of the numerator), and sums of them (total weights,
multiset weights, node-induced edge weights) run in ints over the lcm of
the denominators (scale_to_ints), with one Fraction built for the result.
Graphs are immutable after construction; every operation returns new
values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple, Union)

EdgeMultiset = Dict[int, int]          # edge id -> multiplicity >= 0
EdgeVector = Dict[int, Fraction]       # edge id -> exact rational >= 0

class GraphError(ValueError):
    pass


def scale_to_ints(values: Iterable[Union[int, Fraction]]) -> Tuple[int, List[int]]:
    """(Q, [v·Q for each v]) with Q the lcm of the values' denominators (1
    for no values): exact rationals as ints over one common denominator."""
    values = list(values)
    Q = lcm(*(v.denominator for v in values))
    return Q, [v.numerator * (Q // v.denominator) for v in values]


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: Fraction
    id: int


@dataclass(frozen=True)
class Multigraph:
    n: int
    edges: Tuple[Edge, ...]

    def __post_init__(self):
        seen: Set[int] = set()
        for e in self.edges:
            if e.u == e.v:
                raise GraphError(f"self-loop on vertex {e.u} (edge e{e.id})")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise GraphError(f"edge e{e.id} endpoint out of range")
            if not isinstance(e.weight, (int, Fraction)):
                raise GraphError(f"edge e{e.id} has weight {e.weight!r}, "
                                 f"not an int or a Fraction")
            if e.weight.numerator < 0:
                raise GraphError(f"edge e{e.id} has negative weight")
            if e.id in seen:
                raise GraphError(f"duplicate edge id e{e.id}")
            seen.add(e.id)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> List[int]:
        return [e.id for e in self.edges]

    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """adj[v] = list of (neighbour, edge id)."""
        return _adjacency(self.n, self.edges)

    def degrees(self) -> List[int]:
        deg = [0] * self.n
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def total_weight(self) -> Fraction:
        Q, weights = scale_to_ints(e.weight for e in self.edges)
        return Fraction(sum(weights), Q)


def _adjacency(n: int, edges: Iterable[Edge]) -> List[List[Tuple[int, int]]]:
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for e in edges:
        adj[e.u].append((e.v, e.id))
        adj[e.v].append((e.u, e.id))
    return adj


@dataclass(frozen=True)
class NodeWeights:
    f: Tuple[Fraction, ...]

    def __post_init__(self):
        for i, w in enumerate(self.f):
            if w <= 0:
                raise GraphError(f"node weight of vertex {i} must be positive")

    def total(self) -> Fraction:
        L, a = scale_to_ints(self.f)
        return Fraction(sum(a), L)

    def induced_graph(self, G: Multigraph) -> Multigraph:
        """G weighted by w(uv) = f(u) + f(v), each a_u + a_v over L, with
        a = f·L and L the lcm of the denominators of f."""
        if len(self.f) != G.n:
            raise GraphError("node weight vector length mismatch")
        L, a = scale_to_ints(self.f)
        return Multigraph(G.n, tuple(Edge(e.u, e.v, Fraction(a[e.u] + a[e.v], L), e.id)
                                     for e in G.edges))


def node_weights_of(G: Multigraph, error: type) -> Tuple[Fraction, ...]:
    """An f >= 0 with w(uv) = f(u) + f(v) on every edge of the connected G;
    raises `error`, naming the edge or vertex at fault, when there is none.

    A walk over a spanning tree from vertex 0 writes f(v) = a(v) + s(v)·t,
    with s = ±1 and t = f(0).  An edge whose ends have equal s closes an odd
    cycle and fixes t; one whose ends have opposite s must weigh
    a(u) + a(v).  Without an odd cycle (G bipartite) t stays free, f >= 0
    leaves max(-a(v) : s(v) = 1) <= t <= min(a(v) : s(v) = -1), and the
    least such t is taken."""
    a: List[Optional[Fraction]] = [None] * G.n
    s = [0] * G.n
    a[0], s[0] = Fraction(0), 1
    weight = {e.id: e.weight for e in G.edges}
    adj = G.adjacency()
    stack = [0]
    while stack:
        u = stack.pop()
        for v, eid in adj[u]:
            if a[v] is None:
                a[v], s[v] = weight[eid] - a[u], -s[u]
                stack.append(v)
    if any(av is None for av in a):
        raise error("edge weights are not node-induced: the graph is disconnected")
    t: Optional[Fraction] = None
    for e in G.edges:
        rest = e.weight - a[e.u] - a[e.v]
        k = s[e.u] + s[e.v]            # ±2 on an edge closing an odd cycle, else 0
        if k and t is None:
            t = rest / k
        elif rest != (t * k if k else 0):
            raise error(f"edge weights are not node-induced: e{e.id} weighs {e.weight}, "
                        f"not f({e.u}) + f({e.v})")
    if t is None:
        t = max(-a[v] for v in range(G.n) if s[v] == 1)
    f = tuple(a[v] + s[v] * t for v in range(G.n))
    for v, fv in enumerate(f):
        if fv < 0:
            raise error(f"edge weights are not induced by node weights f >= 0: "
                        f"f({v}) = {fv} < 0")
    return f


@dataclass(frozen=True)
class Cut:
    shore: Tuple[int, ...]         # the side avoiding vertex 0
    edge_ids: FrozenSet[int]


def find(parent: List[int], a: int) -> int:
    """Root of a in the union-find forest `parent`, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def union(parent: List[int], a: int, b: int) -> bool:
    """Merge the classes of a and b; False when they were already one."""
    ra, rb = find(parent, a), find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


def kruskal(parent: List[int], order: Iterable[Edge]) -> List[Edge]:
    """Greedy forest: the edges of `order` that join two classes of the
    union-find `parent`, merged in as they are taken."""
    return [e for e in order if union(parent, e.u, e.v)]


def connected_components(n: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    parent = list(range(n))
    for u, v in edges:
        union(parent, u, v)
    comps: Dict[int, List[int]] = {}
    for v in range(n):
        comps.setdefault(find(parent, v), []).append(v)
    return sorted(comps.values())


def is_connected(G: Multigraph) -> bool:
    return len(connected_components(G.n, ((e.u, e.v) for e in G.edges))) == 1


def is_bipartite(G: Multigraph) -> bool:
    colour = [-1] * G.n
    adj = G.adjacency()
    for s in range(G.n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w, _ in adj[v]:
                if colour[w] == -1:
                    colour[w] = 1 - colour[v]
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def cut_edges(G: Multigraph, shore: Iterable[int]) -> FrozenSet[int]:
    side = set(shore)
    return frozenset(e.id for e in G.edges if (e.u in side) != (e.v in side))


def _cycle_space_labels(edges: Sequence[Edge], adj: List[List[Tuple[int, int]]]
                        ) -> Optional[Dict[int, int]]:
    """Edge id -> label, an int read as a vector over GF(2), for the graph
    on the vertices of adj with these edges; None when some vertex is not
    reached from vertex 0 (the graph is not connected).

    A spanning tree is grown from vertex 0; each non-tree edge gets its own
    bit, and each tree edge the XOR of the bits of the non-tree edges whose
    fundamental cycle passes through it.  Bit f of the XOR of an edge set's
    labels is its parity against the fundamental cycle of f, so the XOR is 0
    exactly when the set is orthogonal to the cycle space, that is, a cut.
    So an edge is a bridge exactly when its label is 0, and two edges that
    are not bridges form a 2-edge cut exactly when their labels are equal.
    adj is the edges' adjacency, as Multigraph.adjacency gives it.
    """
    n = len(adj)
    if n == 0:
        return None
    up = [-1] * n              # the tree edge from v towards vertex 0
    seen = [False] * n
    seen[0] = True
    order, stack = [], [0]     # order lists every vertex before its descendants
    while stack:
        v = stack.pop()
        order.append(v)
        for w, eid in adj[v]:
            if not seen[w]:
                seen[w] = True
                up[w] = eid
                stack.append(w)
    if len(order) < n:
        return None
    tree = set(up[1:])
    label: Dict[int, int] = {}
    for e in edges:
        if e.id not in tree:
            label[e.id] = 1 << len(label)
    # delta(v) is a cut, so the label of v's tree edge up is the XOR of the
    # labels of v's other edges, all known once v's descendants are done.
    for v in reversed(order[1:]):
        x = 0
        for _, eid in adj[v]:
            if eid != up[v]:
                x ^= label[eid]
        label[up[v]] = x
    return label


def _shore_of(adj: List[List[Tuple[int, int]]], cut: FrozenSet[int]) -> Tuple[int, ...]:
    """The side of the cut `cut` that avoids vertex 0: 2-colour the
    connected graph of adj from vertex 0, flipping colour across the cut's
    edges."""
    colour = [-1] * len(adj)
    colour[0] = 0
    stack = [0]
    while stack:
        v = stack.pop()
        for w, eid in adj[v]:
            if colour[w] == -1:
                colour[w] = colour[v] ^ (eid in cut)
                stack.append(w)
    return tuple(v for v, c in enumerate(colour) if c == 1)


def _cuts_upto(label: Dict[int, int], k: int) -> Tuple[FrozenSet[int], ...]:
    """The edge sets of at most k <= 4 edges whose labels XOR to 0, sorted
    by size, then by the tuple of their positions in id order.

    A 1-cut is an edge of label 0 and a 2-cut two edges of one label.
    Larger cuts come from one sweep over the positions c in ascending
    order, with a table `seen` from the XOR of each pair of positions
    a < b < c to its pairs: a 3-cut (a, b, c) is a pair seen at label[c],
    and a 4-cut (a, b, c, d) with d > c a pair seen at label[c] ^ label[d].
    Only then are the pairs (a, c) added.  So a zero-XOR 4-set
    p < q < r < s is met once, as the split (p, q | r, s) at c = r.  The
    cost is O(m) for k <= 2 and O(m^2) plus the output above."""
    ids = sorted(label)
    labels = [label[eid] for eid in ids]
    closing: Dict[int, List[int]] = {}     # label -> positions in ids, ascending
    for i, x in enumerate(labels):
        closing.setdefault(x, []).append(i)
    found: List[List[Tuple[int, ...]]] = [[(a,) for a in closing.get(0, ())], [], [], []]
    if k >= 2:
        found[1] = [(a, c) for a, x in enumerate(labels) for c in closing[x] if c > a]
    if k >= 3:
        threes, fours = found[2], found[3]
        seen: Dict[int, List[Tuple[int, int]]] = {}
        get = seen.get
        for c, lc in enumerate(labels):
            threes += [(a, b, c) for a, b in get(lc, ())]
            if k >= 4:
                for d in range(c + 1, len(labels)):
                    same = get(lc ^ labels[d])
                    if same:
                        fours += [(a, b, c, d) for a, b in same]
            for a in range(c):
                x = labels[a] ^ lc
                same = get(x)
                if same is None:
                    seen[x] = [(a, c)]
                else:
                    same.append((a, c))
        threes.sort()
        fours.sort()
    return tuple(frozenset(ids[i] for i in cut) for cuts in found[:k] for cut in cuts)


def enumerate_cuts_upto(G: Multigraph, k: int) -> Tuple[FrozenSet[int], ...]:
    """The edge set of every cut delta(S) with |delta(S)| <= k, each once,
    sorted by size, then by sorted edge ids.

    Works in the cycle space: an edge set is a cut exactly when the XOR of
    its labels (see _cycle_space_labels) is 0.  Cuts of 3 and 4 edges are
    met in the middle, in one sweep over the edges in id order that looks
    up a table of the pairs of edges before the current one (see
    _cuts_upto); each 4-edge cut is met once, at its third edge.  So the
    search costs O(m) dictionary lookups for k <= 2 and O(m^2) plus the
    output for k = 3 and 4.
    """
    if k > 4:
        raise GraphError("cut enumeration is limited to k <= 4")
    label = _cycle_space_labels(G.edges, G.adjacency())
    if label is None:
        raise GraphError("disconnected input")
    return _cuts_upto(label, k)


def describe_cut(edge_ids: Iterable[int]) -> str:
    """'k-edge cut {e..}', the edges in id order."""
    ids = sorted(edge_ids)
    return f"{len(ids)}-edge cut {{" + ",".join(f"e{i}" for i in ids) + "}"


def contract(G: Multigraph, F: EdgeMultiset) -> Multigraph:
    """G/F: contract the edges of F, drop self-loops, keep parallel edges.
    Surviving edges keep their ids."""
    ids = {e.id for e in G.edges}
    for eid in F:
        if eid not in ids:
            raise GraphError(f"edge e{eid} not in graph")
    shrink = [(e.u, e.v) for e in G.edges if F.get(e.id, 0) > 0]
    comps = connected_components(G.n, shrink)
    rep: Dict[int, int] = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            rep[v] = idx
    new_edges = tuple(
        Edge(rep[e.u], rep[e.v], e.weight, e.id)
        for e in G.edges if rep[e.u] != rep[e.v])
    return Multigraph(len(comps), new_edges)


def multiset_degrees(G: Multigraph, H: EdgeMultiset) -> List[int]:
    deg = [0] * G.n
    for e in G.edges:
        mult = H.get(e.id, 0)
        deg[e.u] += mult
        deg[e.v] += mult
    return deg


def odd_vertices(G: Multigraph, H: EdgeMultiset) -> Set[int]:
    return {v for v, d in enumerate(multiset_degrees(G, H)) if d % 2 == 1}


def multiset_weight(G: Multigraph, H: EdgeMultiset) -> Fraction:
    """sum(weight · multiplicity) over the edges of G that H uses, in ints
    over the lcm of their weights' denominators; ids of H not in G count
    for nothing."""
    used = [(e.weight, H[e.id]) for e in G.edges if H.get(e.id)]
    Q, weights = scale_to_ints(w for w, _ in used)
    return Fraction(sum(w * mult for w, (_, mult) in zip(weights, used)), Q)


def multiset_union(*parts: EdgeMultiset) -> EdgeMultiset:
    out: EdgeMultiset = {}
    for part in parts:
        for eid, mult in part.items():
            if mult:
                out[eid] = out.get(eid, 0) + mult
    return out


def support_labels(G: Multigraph, H: Union[EdgeMultiset, EdgeVector]
                   ) -> Optional[Dict[int, int]]:
    """The cycle-space labels (see _cycle_space_labels) of the support of H,
    the edges of G with H positive, each taken once; None when that support
    does not connect every vertex of G."""
    support = [e for e in G.edges if H.get(e.id, 0) > 0]
    return _cycle_space_labels(support, _adjacency(G.n, support))


def one_edge_cuts(G: Multigraph, F: EdgeMultiset) -> List[Tuple[Tuple[int, ...], int]]:
    """1-edge cuts of the connector F: list of (shore, bridge edge id), in
    edge-id order.

    A bridge is an edge used once whose label in the support of F is 0.  A
    shore is reported once per bridge, the side avoiding vertex 0.
    """
    label = support_labels(G, F)
    if label is None:
        raise GraphError("F is not connected")
    adj = _adjacency(G.n, (e for e in G.edges if e.id in label))
    return [(_shore_of(adj, frozenset((eid,))), eid)
            for eid in sorted(label) if label[eid] == 0 and F[eid] == 1]


def two_cut_groups(G: Multigraph, x: Union[EdgeMultiset, EdgeVector]) -> List[List[int]]:
    """The 2-edge cuts of the support of x, which must span G with no
    bridge (no label 0): its edges grouped by label, each group in id order,
    the groups of two or more edges ordered by least id.  Two edges form a
    2-edge cut exactly when they lie in one group."""
    label = support_labels(G, x)
    if label is None:
        raise GraphError("support is not spanning connected")
    if 0 in label.values():
        raise GraphError("support is not 2-edge-connected")
    groups: Dict[int, List[int]] = {}
    for eid in sorted(label):
        groups.setdefault(label[eid], []).append(eid)
    return [group for group in groups.values() if len(group) > 1]


def odd_two_cut(H: EdgeMultiset, groups: Iterable[Sequence[int]]) -> Optional[Tuple[int, int]]:
    """The least pair {a, b} in id order of one group of `groups` (from
    two_cut_groups), a 2-edge cut, that H crosses an odd number of times, or
    None.  H crosses a group's cuts evenly exactly when it uses all the
    group's edges with one parity."""
    for a, *rest in groups:
        parity = H.get(a, 0) % 2
        for b in rest:
            if H.get(b, 0) % 2 != parity:
                return a, b
    return None


# The labels classify gives, so the only ones a stored term may hold.
LABELS = ("tour", "twoec-multigraph", "connector", "cycle-cover")


def classify(G: Multigraph, H: EdgeMultiset) -> Set[str]:
    """Multi-label structural classification of an edge multiset.

    Labels: those of LABELS.  Empty set means no label applies.  An id of H
    that is not an edge of G raises GraphError."""
    ids = set(G.edge_ids())
    for eid, mult in H.items():
        if eid not in ids:
            raise GraphError(f"e{eid} is not an edge of the graph")
        if mult < 0:
            raise GraphError("negative multiplicity")
    active = {eid: m for eid, m in H.items() if m > 0}
    labels: Set[str] = set()
    if G.n == 1:
        if not active:
            return {"tour", "twoec-multigraph", "connector"}
    deg = multiset_degrees(G, active)
    label = support_labels(G, active)
    spanning = label is not None
    if spanning and all(d % 2 == 0 for d in deg):
        labels.add("tour")
    # A bridge of the support, used once, is a bridge of the multigraph.
    if spanning and all(label[e.id] for e in G.edges if active.get(e.id) == 1):
        labels.add("twoec-multigraph")
    if spanning and all(m <= 2 for m in active.values()):
        labels.add("connector")
    if all(m <= 1 for m in active.values()) and all(d == 2 for d in deg):
        labels.add("cycle-cover")
    return labels


# profile -> (allowed vertex degrees, edge connectivity needed).
# cubic-2ec is the bridgeless cubic input of find_covering_cycle_cover.
PROFILES: Dict[str, Tuple[range, int]] = {
    "cubic-3ec": (range(3, 4), 3),
    "cubic-2ec": (range(3, 4), 2),
    "subcubic-2ec": (range(4), 2),
    "bipartite-cubic-3ec": (range(3, 4), 3),
    "4regular-4ec": (range(4, 5), 4),
}


@dataclass(frozen=True)
class StructureReport:
    profile: str
    passed: bool
    violation: Optional[str] = None


def require_profile(G: Multigraph, profile: str, error: type) -> None:
    """Raise `error` unless G passes validate_structure for the profile."""
    report = validate_structure(G, profile)
    if not report.passed:
        raise error(f"profile {profile} fails: {report.violation}")


def validate_structure(G: Multigraph, profile: str) -> StructureReport:
    """G against the profile's degrees, edge connectivity and parity.

    Connectivity is read from the cycle-space labels (see
    _cycle_space_labels): a graph they do not span, or a single vertex, is a
    disconnected input, and otherwise the smallest cut below the profile's
    connectivity, the first that enumerate_cuts_upto lists, is named by its
    edges."""
    if profile not in PROFILES:
        raise GraphError(f"unknown profile {profile!r}")
    if G.n == 0:
        raise GraphError("empty graph")
    degrees, need = PROFILES[profile]

    def report(violation: Optional[str]) -> StructureReport:
        return StructureReport(profile, violation is None, violation)

    for v, d in enumerate(G.degrees()):
        if d not in degrees:
            return report(f"vertex {v} has degree {d}")
    label = _cycle_space_labels(G.edges, G.adjacency())
    if label is None or G.n == 1:
        return report("disconnected input")
    small = _cuts_upto(label, need - 1)
    if small:
        return report(describe_cut(small[0]))
    if profile == "bipartite-cubic-3ec" and not is_bipartite(G):
        return report("odd cycle found")
    return report(None)
