import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from unicover.cyclecover import CycleCoverError, build_cycle_cover
from unicover.decompose import DecompositionError, canonical, caratheodory_reduce
from unicover.graph import (Edge, Multigraph, _cycle_space_labels, connected_components,
                            cut_edges)
from unicover.lp import min_cut
from unicover.simplex import Tableau, solve_lp


# The most pivots that one optimize made over a tier-1 run, the hypothesis
# draws and the library's masters included, was 42.  A kernel fault that
# cycles under Bland's rule reaches the cap within seconds and fails the test
# that ran it, instead of hanging the session.
PIVOT_CAP = 1000


@pytest.fixture(autouse=True, scope="session")
def pivot_cap():
    """Every Tableau of the session, subclasses included, raises once more
    than PIVOT_CAP pivots follow the start of one optimize."""
    optimize, pivot = Tableau.optimize, Tableau._pivot

    def capped_optimize(self):
        self.optimize_pivots = 0
        optimize(self)

    def capped_pivot(self, row, alpha, red):
        self.optimize_pivots = getattr(self, "optimize_pivots", 0) + 1
        if self.optimize_pivots > PIVOT_CAP:
            raise AssertionError(f"one optimize made more than {PIVOT_CAP} pivots")
        pivot(self, row, alpha, red)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tableau, "optimize", capped_optimize)
        patch.setattr(Tableau, "_pivot", capped_pivot)
        yield


def make_graph(n, pairs, weight=1):
    return Multigraph(n, tuple(
        Edge(u, v, Fraction(weight), i) for i, (u, v) in enumerate(pairs)))


def reweighted(G, weights):
    """G's edges with new weights, each made a Fraction."""
    return Multigraph(G.n, tuple(Edge(e.u, e.v, Fraction(weights[e.id]), e.id)
                                 for e in G.edges))


def shores(n):
    """Every nonempty vertex set avoiding vertex 0, in bitmask order."""
    for mask in range(1, 1 << (n - 1)):
        yield tuple(v for v in range(1, n) if mask & (1 << (v - 1)))


def brute_force_min_cut(G, cap):
    """Reference oracle for min_cut: (value, shore) by exhaustive shore
    enumeration."""
    best, best_shore = None, ()
    for shore in shores(G.n):
        value = sum((cap.get(eid, Fraction(0)) for eid in cut_edges(G, shore)), Fraction(0))
        if best is None or value < best:
            best, best_shore = value, shore
    return best, best_shore


# Two K4-minus-an-edge blocks: joined by two edges, cubic with a 2-edge
# cut; each with its missing edge subdivided, and the two new vertices
# joined, cubic with a bridge.
BLOCK4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
TWO_CUT_CUBIC = make_graph(8, BLOCK4 + [(a + 4, b + 4) for a, b in BLOCK4] + [(2, 6), (3, 7)])
BRIDGED_CUBIC = make_graph(10, BLOCK4 + [(2, 4), (3, 4)]
                           + [(a + 5, b + 5) for a, b in BLOCK4 + [(2, 4), (3, 4)]] + [(4, 9)])


def dict_scan_min_cut(G, cap):
    """Reference oracle for min_cut's (value, shore): Stoer-Wagner over the
    capacities scaled to ints, each phase picking from a dict of keys the
    vertex of largest key, the lowest id on a tie, and adding the picked
    vertex's weights to every key left; the cut of the phase is summed
    over the active vertices."""
    n = G.n
    scale = lcm(*(Fraction(c).denominator for c in cap.values()))
    w = [[0] * n for _ in range(n)]
    for e in G.edges:
        c = int(cap.get(e.id, 0) * scale)
        w[e.u][e.v] += c
        w[e.v][e.u] += c
    groups = [[v] for v in range(n)]
    active = list(range(n))
    best_value, best_shore = None, ()
    while len(active) > 1:
        order = [active[0]]
        key = {v: w[active[0]][v] for v in active if v != active[0]}
        while key:
            pick = min(key, key=lambda v: (-key[v], v))
            order.append(pick)
            del key[pick]
            for v in key:
                key[v] += w[pick][v]
        t, s = order[-1], order[-2]
        phase_value = sum(w[t][v] for v in active if v != t)
        if best_value is None or phase_value < best_value:
            best_value, best_shore = phase_value, tuple(sorted(groups[t]))
        groups[s] = sorted(groups[s] + groups[t])
        for v in active:
            if v not in (s, t):
                w[s][v] += w[t][v]
                w[v][s] = w[s][v]
        active.remove(t)
    return Fraction(best_value, scale), best_shore


def unit_min_cut(G):
    """Edge connectivity by the Stoer-Wagner min cut with unit capacities;
    0 for a single vertex."""
    return int(min_cut(G, {e.id: 1 for e in G.edges})[0]) if G.n > 1 else 0


def shore_holding_zero(G, ids):
    """The side holding vertex 0 of the cut of the connected G whose edge
    set is `ids`: the vertices that a walk from 0 reaches after crossing
    `ids` an even number of times.  Checked to be a shore that G leaves
    through exactly `ids`."""
    adj = G.adjacency()
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        v, parity = stack.pop()
        for w, eid in adj[v]:
            state = (w, parity ^ (eid in ids))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    shore = tuple(sorted(v for v, parity in seen if parity == 0))
    assert len(shore) < G.n and cut_edges(G, shore) == ids
    return shore


@st.composite
def regular_multigraphs(draw, d):
    """A random pairing of d half-edges at each of up to 10 vertices,
    parallel edges kept and a pair at one vertex dropped: mostly d-regular,
    sometimes with a bridge, a small cut or several components."""
    n = draw(st.integers(1, 10).filter(lambda n: n * d % 2 == 0))
    ends = draw(st.permutations([v for v in range(n) for _ in range(d)]))
    return make_graph(n, [(u, v) for u, v in zip(ends[::2], ends[1::2]) if u != v])


def lp_over_cuts(G, family):
    """The value of min w.x over x >= 0 and x(delta(S)) >= 2 for each shore
    S of the family, by the two-phase solve_lp on its dual: max 2 * sum(y_S)
    over y >= 0 with no edge loaded beyond its weight, a row per edge and a
    column per cut."""
    crossing = [cut_edges(G, shore) for shore in family]
    rows = [([int(e.id in ids) for ids in crossing], "<=", e.weight)
            for e in sorted(G.edges, key=lambda e: e.id)]
    return -solve_lp([-2] * len(family), rows).value


def brute_force_subtour(G):
    """Reference oracle for solve_subtour's value: the LP over every
    distinct cut.  Exponential in n."""
    seen, family = set(), []
    for shore in shores(G.n):
        ids = cut_edges(G, shore)
        if ids not in seen:
            seen.add(ids)
            family.append(shore)
    return lp_over_cuts(G, family)


def exhaustive_one_cover(crossing, candidate_ids, weights):
    """Reference oracle for decompose._one_cover_price: (value, edges) of a
    cheapest candidate set meeting every crossing set, found by summing the
    Fraction weights over every subset of the candidates that meet one, with
    ties going to the lowest bitmask."""
    relevant = sorted(eid for eid in candidate_ids if any(eid in c for c in crossing))
    best, best_sub = None, 0
    for sub in range(1 << len(relevant)):
        chosen = {relevant[i] for i in range(len(relevant)) if sub >> i & 1}
        if all(chosen & c for c in crossing):
            w = sum((Fraction(weights.get(eid, 0)) for eid in chosen), Fraction(0))
            if best is None or w < best:
                best, best_sub = w, sub
    return best, {relevant[i]: 1 for i in range(len(relevant)) if best_sub >> i & 1}


def mask_scan_min_tjoin(G, weights, T):
    """Reference oracle for decompose.min_tjoin: the same shortest paths,
    run in full from every terminal, and the matching DP over all 2^|T|
    masks in increasing order, so its ties, and hence its join, are the
    ones min_tjoin must return."""
    if not T:
        return Fraction(0), {}
    scale = lcm(*(Fraction(w).denominator for w in weights.values()))
    iw = {eid: Fraction(w).numerator * (scale // Fraction(w).denominator)
          for eid, w in weights.items()}
    adj = [[] for _ in range(G.n)]
    for e in G.edges:
        if e.id in iw:
            adj[e.u].append((e.v, iw[e.id], e.id))
            adj[e.v].append((e.u, iw[e.id], e.id))
    terms = sorted(T)
    dist_rows, prev_rows = [], []
    for s in terms:
        dist, prev_edge = [None] * G.n, [None] * G.n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for w, cost, eid in adj[v]:
                nd = d + cost
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    prev_edge[w] = (v, eid)
                    heapq.heappush(heap, (nd, w))
        dist_rows.append([dist[t] for t in terms])
        prev_rows.append(prev_edge)
    t = len(terms)
    full = (1 << t) - 1
    dp = [None] * (1 << t)
    choice = [None] * (1 << t)
    dp[0] = 0
    for mask in range(1 << t):
        if dp[mask] is None or mask == full:
            continue
        free = ~mask & full
        i = (free & -free).bit_length() - 1
        for j in range(i + 1, t):
            d = dist_rows[i][j]
            if free >> j & 1 and d is not None:
                nm = mask | (1 << i) | (1 << j)
                if dp[nm] is None or dp[mask] + d < dp[nm]:
                    dp[nm] = dp[mask] + d
                    choice[nm] = (i, j)
    if dp[full] is None:
        raise DecompositionError("T vertices not connected in the support")
    join = {}
    mask = full
    while mask:
        i, j = choice[mask]
        v = terms[j]
        while v != terms[i]:
            v, eid = prev_rows[i][v]
            join[eid] = join.get(eid, 0) ^ 1
        mask &= ~(1 << i) & ~(1 << j)
    join = {eid: 1 for eid, m in join.items() if m}
    return Fraction(sum(iw[eid] for eid in join), scale), join


def triple_scan_cuts(label, k):
    """Reference oracle for graph._cuts_upto: the edge sets of at most k
    edges whose labels XOR to 0, found by letting every (j-1)-subset of
    positions, in lexicographic order, look up the edges of higher position
    whose label closes it, so 4-edge cuts cost a scan of all triples."""
    ids = sorted(label)
    labels = [label[eid] for eid in ids]
    closing = {}
    for i, x in enumerate(labels):
        closing.setdefault(x, []).append(i)
    cuts = []
    for j in range(1, k + 1):
        for head in itertools.combinations(range(len(ids)), j - 1):
            x = 0
            for i in head:
                x ^= labels[i]
            after = head[-1] if head else -1
            for last in closing.get(x, ()):
                if last > after:
                    cuts.append(frozenset(ids[i] for i in head + (last,)))
    return tuple(cuts)


def set_scan_matchings(G):
    """Reference oracle for cyclecover._perfect_matchings: every perfect
    matching, the lowest unmatched vertex matched first along the edges of
    a full scan in id order."""
    edges = sorted(G.edges, key=lambda e: e.id)

    def rec(used, chosen):
        if len(used) == G.n:
            yield tuple(chosen)
            return
        v = min(set(range(G.n)) - used)
        for e in edges:
            if v in (e.u, e.v) and e.u not in used and e.v not in used:
                chosen.append(e.id)
                yield from rec(used | {e.u, e.v}, chosen)
                chosen.pop()

    yield from rec(frozenset(), [])


def set_scan_search(G):
    """Reference oracle for cyclecover._search on a connected G: the first
    matching of set_scan_matchings whose complement, as a set, meets every
    3- and 4-edge cut of triple_scan_cuts in at least two edges."""
    cuts = [c for c in triple_scan_cuts(_cycle_space_labels(G.edges, G.adjacency()), 4)
            if len(c) >= 3]
    all_ids = set(G.edge_ids())
    for matching in set_scan_matchings(G):
        cover = all_ids - set(matching)
        if all(len(cover & c) >= 2 for c in cuts):
            return build_cycle_cover(G, cover, cuts)
    raise CycleCoverError("no cycle cover found covering all 3- and 4-edge cuts")


def kernel_vector(cols, nrows):
    """A vector d with sum_j d_j col_j = 0, or None if the integer columns
    are independent.

    Fraction-free elimination: each column is reduced against the earlier
    pivot columns by cross-multiplying with their pivot entry, and then it
    and its combination are divided by their gcd.  At the first dependent
    column j the kernel of columns 0..j is one-dimensional; d is scaled so
    that d_j = 1 and d_i = 0 for i > j."""
    k = len(cols)
    vecs, combos, pivots = [], [], []   # pivots: (row, index of the pivot column)
    for j in range(k):
        v = cols[j]
        cmb = [0] * k
        cmb[j] = 1
        for (prow, pj) in pivots:
            factor = v[prow]
            if factor:
                p = vecs[pj][prow]
                v = [p * a - factor * b for a, b in zip(v, vecs[pj])]
                cmb = [p * a - factor * b for a, b in zip(cmb, combos[pj])]
        pivot_row = next((r for r in range(nrows) if v[r]), None)
        if pivot_row is None:
            return [Fraction(c, cmb[j]) for c in cmb]
        g = gcd(*v, *cmb)
        vecs.append([a // g for a in v])
        combos.append([a // g for a in cmb])
        pivots.append((pivot_row, j))
    return None


def restart_caratheodory(terms, limit, steps=None):
    """Reference oracle for decompose.caratheodory_reduce: after each
    dropped term, rebuild the rows and columns of the terms left and find
    the kernel vector of their first dependent column from scratch.

    Each step's kind is appended to `steps`, if given: "new" when only the
    dependent column's own term drops, "earlier" when only one term before
    it drops, "several" when more than one drops."""
    merged = {}
    for coeff, obj in terms:
        if coeff < 0:
            raise DecompositionError(f"term {canonical(obj)} has coefficient {coeff} < 0")
        if coeff > 0:
            key = canonical(obj)
            merged[key] = merged.get(key, Fraction(0)) + coeff
    work = sorted(merged.items())
    while len(work) > limit:
        ids = sorted({eid for key, _ in work for eid, _ in key})
        rowindex = {eid: i for i, eid in enumerate(ids)}
        nrows = len(ids) + 1
        take = min(len(work), nrows + 1)
        cols = []
        for key, _ in work[:take]:
            col = [0] * nrows
            for eid, mult in key:
                col[rowindex[eid]] = mult
            col[-1] = 1
            cols.append(col)
        d = kernel_vector(cols, nrows)
        if d is None:
            raise DecompositionError(
                f"{len(work)} affinely independent terms cannot be reduced to {limit}")
        t_best = min(work[j][1] / dj for j, dj in enumerate(d) if dj > 0)
        new_work = []
        for j, (key, coeff) in enumerate(work):
            c = coeff - (t_best * d[j] if j < len(d) else 0)
            if c > 0:
                new_work.append((key, c))
        if len(new_work) >= len(work):
            raise DecompositionError("Caratheodory step dropped no term")
        if steps is not None:
            j = max(i for i, dj in enumerate(d) if dj)
            dropped = [i for i, dj in enumerate(d) if work[i][1] == t_best * dj]
            steps.append("several" if len(dropped) > 1 else
                         "new" if dropped == [j] else "earlier")
        work = new_work
    return [(coeff, dict(key)) for key, coeff in work]


def fraction_multiset_weight(G, H):
    """Reference oracle for graph.multiset_weight: one Fraction product and
    one Fraction addition per edge of G, multiplicity 0 for an id H lacks."""
    total = Fraction(0)
    for e in G.edges:
        total += e.weight * H.get(e.id, 0)
    return total


def fraction_sum(values):
    """Reference oracle for NodeWeights.total and Multigraph.total_weight:
    the values added one by one as Fractions."""
    return sum(values, Fraction(0))


def fraction_induced_weights(f, G):
    """Reference oracle for NodeWeights.induced_graph: edge id -> f(u) + f(v),
    added as Fractions."""
    return {e.id: Fraction(f[e.u] + f[e.v]) for e in G.edges}


def fraction_tableau_state(b, identity_costs):
    """Reference oracle for the state simplex.Tableau(b, identity_costs)
    starts from: (L, beta, icosts, cols), with b made Fractions and beta
    their products with L, and each identity column found by scanning a
    dense unit vector."""
    b = [Fraction(v) for v in b]
    L = lcm(*(v.denominator for v in b)) if b else 1
    beta = [int(v * L) for v in b]
    cols = []
    for i in range(len(b)):
        dense = [0] * len(b)
        dense[i] = 1
        cols.append([(k, v) for k, v in enumerate(dense) if v])
    return L, beta, list(identity_costs), cols


def fraction_frac_str(v):
    """Reference oracle for serialize.frac_str: every value made a Fraction
    first."""
    v = Fraction(v)
    return f"{v.numerator}/{v.denominator}"


def support_components(G, H, without=()):
    """Components of the support of H (the edges of G with H positive) less
    the edges `without`."""
    return connected_components(G.n, ((e.u, e.v) for e in G.edges
                                      if H.get(e.id, 0) > 0 and e.id not in without))


def support_bridges(G, H):
    """Reference oracle for the bridges of a spanning support: (shore, edge
    id) for each support edge, taken once whatever H holds on it, whose
    removal splits the support, in edge-id order, by removing it and
    recounting components.  The shore is the side avoiding vertex 0."""
    cuts = []
    for eid in sorted(e.id for e in G.edges if H.get(e.id, 0) > 0):
        comps = support_components(G, H, (eid,))
        if len(comps) == 2:
            cuts.append((tuple(next(c for c in comps if 0 not in c)), eid))
    return cuts


def one_edge_cuts_oracle(G, F):
    """Reference oracle for graph.one_edge_cuts on a spanning support: the
    support's bridges that F uses once."""
    return [(shore, eid) for shore, eid in support_bridges(G, F) if F[eid] == 1]


def two_edge_connected(G, H):
    """Reference oracle for classify's twoec-multigraph label: the support
    spans G and no edge used once is a bridge of it."""
    return len(support_components(G, H)) == 1 and not one_edge_cuts_oracle(G, H)


def two_cut_pairs_oracle(G, x):
    """Reference oracle for the 2-edge cuts of graph.two_cut_groups: the
    pairs of support edges, in the order of G's edges, whose removal splits
    the support."""
    support = [e.id for e in G.edges if x.get(e.id, 0) > 0]
    return [(a, b) for i, a in enumerate(support) for b in support[i + 1:]
            if len(support_components(G, x, (a, b))) > 1]


@pytest.fixture
def c4():
    return make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def two_triangles():
    """Two triangles joined by a pair of bridges: has a genuine 2-edge cut."""
    return make_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (2, 3), (5, 0)])


def fraction_normalize_connectors(terms, x, G):
    """Reference oracle for connectors.normalize_connectors: the same
    rebalance with Fraction coefficients, re-reduced by caratheodory_reduce."""
    limit = G.m + 1
    for eid in sorted(x):
        doubled = [(lam, f) for lam, f in terms if f.get(eid, 0) == 2]
        absent = [(lam, f) for lam, f in terms if f.get(eid, 0) == 0]
        keep = [(lam, f) for lam, f in terms if f.get(eid, 0) == 1]
        while doubled and absent:
            li, fi = doubled.pop()
            lj, fj = absent.pop()
            t = min(li, lj)
            keep += [(t, {**fi, eid: 1}), (t, {**fj, eid: 1})]
            if li > t:
                doubled.append((li - t, fi))
            if lj > t:
                absent.append((lj - t, fj))
        terms = keep + doubled + absent
        if len(terms) > limit:
            terms = caratheodory_reduce(terms, limit)
    return caratheodory_reduce(terms, limit)
