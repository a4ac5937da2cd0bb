"""Convex decomposition of edge vectors into combinatorial objects.

All decompositions run one kind of exact column generation, the packing
master _pack: a fraction-free simplex master over the generated objects plus
a pricing routine (minimum spanning tree, minimum T-join via shortest paths
and a matching DP, minimum 1-cover by a branch and bound on each call, and
the tour "tree plus parity join").  Connectors are spanning trees packed
under x clipped at 2 and topped up to it exactly, with no master of their
own.  The masters price with their undivided integer duals (π, s),
y = π / s, so the oracles get ints.  A packing master first prices each
round at smoothed duals, a convex combination of y and a centre floored to
ints (Wentges), whose object enters only if it prices out at y; otherwise
it prices again at y itself.  The smoothing only chooses which improving
column enters: pricing at y still decides when the master ends, so where
the pricing step is exact, its optimality at y proves optimality of the
master over the full object class, as before.  A packing master stops
pricing once its restricted master packs value 1, all that a cover needs,
and below 1 runs to its optimum.  It returns a Packing: the value sigma,
the terms and the final duals w.  At an optimum below 1 every object weighs
at least 1 under w and x weighs sigma, which puts x outside the class's
dominant.  `Packing.terms_of` is the one place that words that refusal.
The tour oracle is not exact, so the tour master never refuses:
wolsey_tours shows that it reaches value 1, and a stall below it is an
internal error.

Every stage returns Terms: at most |E| + 1 distinct (coefficient, multiset)
pairs in canonical order.  A master's terms are its basic solution, at most
one per master row, so they need no reducing; wolsey_tours' terms are its
master's.  make_combination and decompose_connectors reduce the terms they
combine by one fraction-free Caratheodory pass, run as basis exchanges on
the simplex kernel's packed adjugate (simplex.Adjugate); this module holds
no pivot code of its own.  make_combination labels a pipeline's terms once,
at its end, and verify_combination re-checks the result.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .graph import (EdgeMultiset, EdgeVector, GraphError, Multigraph,
                    classify, cut_edges, kruskal, multiset_union, odd_vertices,
                    one_edge_cuts, scale_to_ints)
from .lp import membership
from .simplex import Adjugate, SparseColumn, Tableau, dot_of

ZERO = Fraction(0)
ONE = Fraction(1)

CanonicalObject = Tuple[Tuple[int, int], ...]   # sorted ((edge id, multiplicity), ...)
Weights = Dict[int, Union[int, Fraction]]       # edge id -> weight
# A pricing oracle: an int weight per master row, in row order -> (the best
# object's weight, the object).
Oracle = Callable[[List[int]], Tuple[int, EdgeMultiset]]
# The T-join oracle: the same, for the set T of odd vertices it is handed.
JoinOracle = Callable[[List[int], Set[int]], Tuple[int, EdgeMultiset]]
OracleBuilder = Callable[[Dict[int, int]], Oracle]     # from edge id -> row
# At most |E| + 1 distinct (coefficient, multiset) pairs, in canonical order.
Terms = List[Tuple[Fraction, EdgeMultiset]]


class DecompositionError(GraphError):
    pass


def canonical(obj: EdgeMultiset) -> CanonicalObject:
    return tuple(sorted((eid, m) for eid, m in obj.items() if m > 0))


@dataclass(frozen=True)
class Term:
    coefficient: Fraction
    edges: CanonicalObject
    labels: FrozenSet[str]

    def multiset(self) -> EdgeMultiset:
        return dict(self.edges)


@dataclass(frozen=True)
class ConvexCombination:
    terms: Tuple[Term, ...]
    target: Tuple[Tuple[int, Fraction], ...]    # edge id -> target value, sorted
    relation: str                               # "equals" | "dominated-by"

    def target_vector(self) -> EdgeVector:
        return {eid: v for eid, v in self.target}

    def coverage(self) -> EdgeVector:
        return coverage_of([(t.coefficient, t.edges) for t in self.terms])


def coverage_of(terms: Sequence[Tuple[Fraction, Iterable[Tuple[int, int]]]]) -> EdgeVector:
    """sum(coefficient * multiplicity) per edge over (coefficient, (edge id,
    multiplicity) pairs) terms, summed in ints over the lcm Q of the
    coefficients' denominators and divided by Q once."""
    Q, coeffs = scale_to_ints(c for c, _ in terms)
    sums: Dict[int, int] = {}
    for c, (_, edges) in zip(coeffs, terms):
        for eid, mult in edges:
            sums[eid] = sums.get(eid, 0) + c * mult
    return {eid: Fraction(v, Q) for eid, v in sums.items()}


def make_combination(G: Multigraph, terms: Sequence[Tuple[Fraction, EdgeMultiset]],
                     target: EdgeVector, relation: str,
                     label: Optional[str] = None) -> ConvexCombination:
    """The terms, equal objects merged, reduced to at most |E| + 1 of them
    and labelled by the classifier.  A term with a zero coefficient is
    skipped; a negative coefficient raises DecompositionError.  With
    `label`, every term must carry it."""
    out = []
    for coeff, obj in caratheodory_reduce(terms, G.m + 1):
        key = canonical(obj)
        labels = frozenset(classify(G, obj))
        if label is not None and label not in labels:
            raise DecompositionError(f"term {key} is not a {label}")
        out.append(Term(coeff, key, labels))
    tgt = tuple(sorted((eid, Fraction(v)) for eid, v in target.items()))
    return ConvexCombination(tuple(out), tgt, relation)


def verify_combination(G: Multigraph, comb: ConvexCombination,
                       required_label: Optional[str] = None) -> EdgeVector:
    """Re-check a combination from its stored fields and return its coverage:
    at most |E| + 1 terms, positive coefficients summing to 1, a target on
    edges of G, the relation to it, and stored labels equal to the
    classifier's (holding `required_label`, if given)."""
    if comb.relation not in ("equals", "dominated-by"):
        raise DecompositionError(f"unknown relation {comb.relation!r}")
    if len(comb.terms) > G.m + 1:
        raise DecompositionError(
            f"{len(comb.terms)} terms exceed the Caratheodory bound {G.m + 1}")
    for t in comb.terms:
        if t.coefficient <= 0:
            raise DecompositionError(f"term {t.edges} has coefficient {t.coefficient} <= 0")
    total = sum((t.coefficient for t in comb.terms), ZERO)
    if total != 1:
        raise DecompositionError(f"coefficients sum to {total}, not 1")
    target = comb.target_vector()
    foreign = set(target).difference(G.edge_ids())
    if foreign:
        raise DecompositionError(f"target names e{min(foreign)}, not an edge of the graph")
    cover = comb.coverage()
    for eid in set(cover) | set(target):
        lhs = cover.get(eid, ZERO)
        rhs = target.get(eid, ZERO)
        if comb.relation == "equals" and lhs != rhs:
            raise DecompositionError(f"coverage {lhs} != target {rhs} on e{eid}")
        if comb.relation == "dominated-by" and lhs > rhs:
            raise DecompositionError(f"coverage {lhs} exceeds target {rhs} on e{eid}")
    for t in comb.terms:
        labels = frozenset(classify(G, t.multiset()))
        if labels != t.labels:
            raise DecompositionError(
                f"stored labels {sorted(t.labels)} of term {t.edges} are not "
                f"the classifier's {sorted(labels)}")
        if required_label is not None and required_label not in labels:
            raise DecompositionError(
                f"term {t.edges} is not a {required_label} (labels: {sorted(labels)})")
    return cover


# ---------------------------------------------------------------------------
# Caratheodory reduction


def caratheodory_reduce(terms: Sequence[Tuple[Fraction, EdgeMultiset]],
                        limit: int) -> Terms:
    """Reduce to at most `limit` terms, preserving the exact coverage vector
    and the coefficient sum.  Terms are a subset of the input objects.  A
    term with a zero coefficient is skipped.  Raises DecompositionError on a
    negative coefficient, and when more than `limit` of the terms are
    affinely independent.

    The coefficients are ints c over one common denominator Q, the lcm of
    all the input denominators, from the merge of equal objects on; a
    Fraction is built only for each returned coefficient.  The columns
    (chi, 1) of the sorted terms are taken in order.  Those independent of
    the columns before them, the prefix, form a basis together with unit
    columns, kept as an adjugate M = D·B⁻¹ (simplex.Adjugate).  A column is
    independent when its coordinates α = M·(chi, 1) are nonzero on a row
    that a unit column holds, and it is exchanged in there.  At the
    first dependent column j the kernel of the prefix and j is
    one-dimensional: its vector d is −α on the prefix (by the sign each
    prefix term entered with) and D > 0 on j.  It steps
    c_i -> c_i·d_k − c_k·d_i and Q -> Q·d_k, with k the least c_k / d_k over
    d_k > 0, found by cross-multiplying, ties going to j and then to the
    lowest index; the terms that reach 0 drop, and (Q, c) is reduced by its
    gcd.  If only j drops, the basis stays.  If one earlier term drops, j
    is exchanged into its row.  If several drop, unit columns are exchanged
    into their rows, and j, if kept, is taken next, as an independent
    column.  The kernel vector is unique up to scale, so the steps are
    those of restarting the elimination after every drop."""
    Q, scaled = scale_to_ints(coeff for coeff, _ in terms)
    Q, kept = reduce_int_terms(Q, [(a, obj) for a, (_, obj) in zip(scaled, terms)], limit)
    return [(Fraction(a, Q), dict(key)) for key, a in kept]


def reduce_int_terms(Q: int, terms: Sequence[Tuple[int, EdgeMultiset]], limit: int
                     ) -> Tuple[int, List[Tuple[CanonicalObject, int]]]:
    """The basis exchanges of caratheodory_reduce, on coefficients given as
    the ints a over one denominator Q: it returns the new denominator and
    the kept (canonical object, a) pairs.  No step depends on the scale of
    Q, so the same coefficients over a multiple of Q keep the same objects
    with the same values."""
    merged: Dict[CanonicalObject, int] = {}
    for a, obj in terms:
        if a < 0:
            raise DecompositionError(
                f"term {canonical(obj)} has coefficient {Fraction(a, Q)} < 0")
        if a:
            key = canonical(obj)
            merged[key] = merged.get(key, 0) + a
    keys = sorted(merged)
    c = [merged[key] for key in keys]
    if len(keys) <= limit:
        return Q, list(zip(keys, c))
    rowindex = {eid: i for i, eid in enumerate(sorted({e for key in keys for e, _ in key}))}
    rows = len(rowindex) + 1
    kernel = Adjugate(rows)         # the basis: the prefix, and unit columns
    held: List[Tuple[int, int]] = []    # each prefix term's basis row and sign
    free = [True] * rows            # the rows that unit columns hold
    j = 0
    while len(keys) > limit:
        if j == len(keys):
            raise DecompositionError(
                f"{len(keys)} affinely independent terms cannot be reduced to {limit}")
        alpha = kernel.express(dot_of([(rowindex[eid], mult) for eid, mult in keys[j]]
                                      + [(rows - 1, 1)]))
        row = next((r for r, a in enumerate(alpha) if a and free[r]), -1)
        if row >= 0:
            held.append(_enter(kernel, row, alpha))
            free[row] = False
            j += 1
            continue
        d = [-sign * alpha[r] for r, sign in held] + [kernel.D]
        k = j
        for i, di in enumerate(d):
            if di > 0 and c[i] * d[k] < c[k] * di:
                k = i
        ck, dk = c[k], d[k]
        c = [a * dk - ck * b for a, b in zip_longest(c, d, fillvalue=0)]
        Q *= dk
        g = gcd(Q, *c)
        if g > 1:
            Q //= g
            c = [a // g for a in c]
        dropped = [i for i in range(j + 1) if not c[i]]
        for i in reversed(dropped):
            del keys[i], c[i]
        earlier = [held.pop(i)[0] for i in reversed(dropped) if i < j]
        j -= len(earlier)
        if len(dropped) == 1 and earlier:
            held.append(_enter(kernel, earlier[0], alpha))
            j += 1
        else:
            # Unit columns take the rows of the terms that dropped; a kept
            # column j is next, and enters as an independent column.
            for r in earlier:
                kernel.release(r)
                free[r] = True
    return Q, list(zip(keys, c))


def _enter(kernel: Adjugate, row: int, alpha: Sequence[int]) -> Tuple[int, int]:
    """Exchange the column of coordinates alpha into the basis at `row`,
    negated when alpha[row] < 0 so that D stays positive; returns the row
    and the sign."""
    if alpha[row] > 0:
        kernel.exchange(row, alpha)
        return row, 1
    kernel.exchange(row, [-a for a in alpha])
    return row, -1


# ---------------------------------------------------------------------------
# Column generation masters


@dataclass(frozen=True)
class Packing:
    """A packing master's result.  sigma is the packing value reached: at
    least 1 when there are terms, and the largest packing value when it is
    below 1.  Only then is w a proof, by LP duality, that no packing does
    better; a master stopped at value 1 leaves the duals of its last basis."""
    sigma: Fraction             # the packing value reached, sum(lambda)
    terms: Terms                # lambda over its sum, a basic solution: at most one
                                # term per row, canonical order; [] when sigma < 1
    w: Dict[int, Fraction]      # the final duals -π / s, per edge id of x's support

    def terms_of(self, x: EdgeVector, what: str) -> Terms:
        """The terms, or, when sigma < 1, the DecompositionError naming w."""
        if self.sigma >= 1:
            return self.terms
        shown = ", ".join(f"e{eid}: {v}" for eid, v in self.w.items() if v)
        wx = sum((v * x[eid] for eid, v in self.w.items()), ZERO)
        raise DecompositionError(
            f"{what} packing value {self.sigma} < 1, so x is outside the dominant: "
            f"every {what} weighs at least 1 under w = {{{shown}}}, but w.x = {wx}")


SMOOTHING = Fraction(3, 4)     # the centre's share of each smoothed price
SMOOTH_BITS = 16                # smoothed weights are ints on the scale s·2^16


def _pack(G: Multigraph, x: EdgeVector, oracle: OracleBuilder) -> Packing:
    """The Packing of x by one class (sigma, terms and w), from the master
    max sum(lambda) s.t. sum(lambda * chi) <= x, a row per edge of x's
    support in ascending id order.  `oracle(index)` builds the pricing state
    once, from the map `index` of edge id to row; its price gets nonnegative
    int weights, one per row, and returns an object (weight, multiset): an
    exact minimum weight object, or for tours one that weighs at most
    (3/2)·w·x (see wolsey_tours).  λ is read undivided, divided once.

    Each round prices first at smoothed duals (Wentges): ỹ = α·ȳ + (1 − α)·y
    with α = SMOOTHING, y = -π / s the master's duals and ȳ the centre,
    which starts at 1 / sum(x) on every row and moves to ỹ after each round.
    ỹ is floored to ints on the scale s·2^SMOOTH_BITS, so the oracles still
    get ints.  Its object enters when it prices out at y, that is when its
    own weight under the ints -π is below s; at a restricted optimum every
    kept column weighs at least s, so it is a new one.  Otherwise the round
    is a mispricing, and prices again at y itself, whose object enters when
    the oracle weighs it below s.  So the loop still ends only when pricing
    at y finds nothing, or once the restricted master packs value 1.

    Pricing stops once the restricted master packs sum(lambda) = sigma >= 1.
    Its optimum is feasible for the full master, so lambda / sigma is
    dominated by x / sigma <= x, which is all the terms need.  Below 1 the
    master runs to its optimum, proved by an exact oracle at y, where w is
    the refusal's proof, as it would be without smoothing."""
    rows = sorted((eid, v) for eid, v in x.items() if v > 0)
    index = {eid: i for i, (eid, _) in enumerate(rows)}
    price = oracle(index)
    tab = Tableau([v for _, v in rows], [0] * len(rows))    # slacks
    objects: List[EdgeMultiset] = []
    num, den = SMOOTHING.numerator, SMOOTHING.denominator
    size = sum((v for _, v in rows), ZERO)
    centre, cscale = [size.denominator] * len(rows), size.numerator     # ȳ = centre / cscale

    def improving(pi: List[int], s: int) -> Optional[SparseColumn]:
        nonlocal centre, cscale
        # Each generated column costs -1, so sum(lambda) is -z over its scale.
        z, scale = tab.int_obj()
        if -z >= scale:
            return None
        w = [-p for p in pi]
        # ỹ·s·2^k = (α·ȳ·s + (1 − α)·w)·2^k, with α = num / den and
        # ȳ = centre / cscale, over the one denominator den·cscale.
        smoothed = [((num * c * s + (den - num) * cscale * v) << SMOOTH_BITS) // (den * cscale)
                    for c, v in zip(centre, w)]
        centre, cscale = smoothed, s << SMOOTH_BITS
        obj = price(smoothed)[1]
        if sum(w[index[eid]] * m for eid, m in obj.items()) >= s:
            value, obj = price(w)           # a mispricing: price at y
            if value >= s:
                return None
        objects.append(obj)
        return sorted((index[eid], m) for eid, m in obj.items())

    tab.generate(improving, -1)
    lam, scale = tab.int_solution()
    raw = [(v, obj) for v, obj in zip(lam[tab.rows:], objects) if v > 0]
    total = sum(v for v, _ in raw)
    # A basic solution has at most one nonzero column per master row, rows
    # <= |E|, and generate refuses a repeated column, so a Caratheodory pass
    # would find nothing to merge or reduce: the terms need only sorting.
    terms = sorted(((Fraction(v, total), obj) for v, obj in raw),
                   key=lambda term: canonical(term[1])) if total >= scale else []
    pi, s = tab.int_duals()
    return Packing(Fraction(total, scale), terms,
                   {eid: Fraction(-pi[i], s) for eid, i in index.items()})


# ---------------------------------------------------------------------------
# Pricing routines


def _mst_price(G: Multigraph, index: Dict[int, int]) -> Oracle:
    """Minimum spanning tree in the edges of `index`, ties going to the
    lower id; the oracle sorts the rows (in id order) by their weights."""
    edge_of = {index[e.id]: e for e in G.edges if e.id in index}
    rows = sorted(edge_of)

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        tree = kruskal(G.n, [edge_of[i] for i in sorted(rows, key=w.__getitem__)])
        if len(tree) != G.n - 1:
            raise DecompositionError("support does not contain a spanning tree")
        return sum(w[index[e.id]] for e in tree), {e.id: 1 for e in tree}

    return price


def min_tjoin(G: Multigraph, weights: Weights, T: Set[int]) -> Tuple[Fraction, EdgeMultiset]:
    """Exact minimum weight T-join (nonnegative int or Fraction weights) in
    the edges that `weights` lists: `_tjoin_price` once, over the weights
    scaled to ints, with a row per listed edge."""
    scale, ints = scale_to_ints(weights.values())
    value, join = _tjoin_price(G, {eid: i for i, eid in enumerate(weights)})(ints, T)
    return Fraction(value, scale), join


def _tjoin_price(G: Multigraph, index: Dict[int, int]) -> JoinOracle:
    """Exact minimum weight T-join in the edges of `index`, under a
    nonnegative int weight per row, for the T of each call: shortest paths
    between T-vertices plus an exact matching DP, symmetric difference.
    The adjacency, with the row of each edge, is built once, here; an odd
    |T| raises GraphError and a negative weight DecompositionError.

    The DP pairs the lowest unmatched terminal with each later one, so it
    reaches only the masks of such pairings (F(|T| + 1) of the 2^|T|, F the
    Fibonacci numbers).  It runs layer by layer, one pair per layer, each
    layer's masks in increasing order: every mask's predecessors lie in the
    layer before it, so ties break as in a scan of all masks in increasing
    order.  A terminal's search stops once every later terminal is settled;
    the last terminal is never the lower end of a pair and gets none."""
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in range(G.n)]   # (end, row, edge id)
    for e in G.edges:
        if e.id in index:
            adj[e.u].append((e.v, index[e.id], e.id))
            adj[e.v].append((e.u, index[e.id], e.id))

    def price(w: List[int], T: Set[int]) -> Tuple[int, EdgeMultiset]:
        if len(T) % 2 == 1:
            raise GraphError("odd |T|")
        if w and min(w) < 0:
            raise DecompositionError("T-join pricing needs nonnegative weights")
        terms = sorted(T)
        if not terms:
            return 0, {}
        dist_rows: List[List[Optional[int]]] = []    # None: not reached
        prev_rows: List[List[Optional[Tuple[int, int]]]] = []
        for i, s in enumerate(terms[:-1]):
            dist: List[Optional[int]] = [None] * G.n
            prev_edge: List[Optional[Tuple[int, int]]] = [None] * G.n
            dist[s] = 0
            heap = [(0, s)]
            later = set(terms[i + 1:])
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                later.discard(v)
                if not later:
                    break
                for u, row, eid in adj[v]:
                    nd = d + w[row]
                    if dist[u] is None or nd < dist[u]:
                        dist[u] = nd
                        prev_edge[u] = (v, eid)
                        heapq.heappush(heap, (nd, u))
            dist_rows.append([dist[t] for t in terms])
            prev_rows.append(prev_edge)
        t = len(terms)
        full = (1 << t) - 1
        layer: Dict[int, int] = {0: 0}
        choice: Dict[int, Tuple[int, int]] = {}
        for _ in range(t // 2):
            reached: Dict[int, int] = {}
            for mask in sorted(layer):
                base = layer[mask]
                free = ~mask & full
                i = (free & -free).bit_length() - 1
                row = dist_rows[i]
                j = free & ~(1 << i)
                while j:
                    jb = j & -j
                    jidx = jb.bit_length() - 1
                    d = row[jidx]
                    if d is not None:
                        nm = mask | (1 << i) | jb
                        nv = base + d
                        old = reached.get(nm)
                        if old is None or nv < old:
                            reached[nm] = nv
                            choice[nm] = (i, jidx)
                    j ^= jb
            layer = reached
        if full not in layer:
            raise DecompositionError("T vertices not connected in the support")
        join: Dict[int, int] = {}
        mask = full
        while mask:
            # The shortest path from terms[i] to terms[j], walked back from j.
            i, j = choice[mask]
            v = terms[j]
            while v != terms[i]:
                v, eid = prev_rows[i][v]
                join[eid] = join.get(eid, 0) ^ 1
            mask &= ~(1 << i) & ~(1 << j)
        join = {eid: 1 for eid, m in join.items() if m}
        return sum(w[index[eid]] for eid in join), join

    return price


def _tour_price(G: Multigraph, index: Dict[int, int]) -> Oracle:
    """Polyhedral Christofides as a pricing step: the minimum spanning tree
    under w (_mst_price) plus a minimum T-join of its odd vertices T
    (_tjoin_price), as a multiset, with its weight.  Not a minimum weight
    tour; wolsey_tours says why it prices well enough."""
    tree_price, join_price = _mst_price(G, index), _tjoin_price(G, index)

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        tree_weight, tree = tree_price(w)
        join_weight, join = join_price(w, odd_vertices(G, tree))
        return tree_weight + join_weight, multiset_union(tree, join)

    return price


def _one_cover_price(crossing: List[FrozenSet[int]], index: Dict[int, int]) -> Oracle:
    """Exact minimum 1-cover: a cheapest set of the candidate edges of
    `index` meeting each of the `crossing` edge sets (the 1-edge cuts of a
    connector, each of value at least 1 on the rows, so each meets a
    candidate), ties going to the lowest bitmask over the sorted candidates.

    A branch and bound in ints, run on each call.  A node branches on its
    uncovered set with the fewest candidates, taken in (weight, index)
    order, each branch barring those tried before it.  So every cover
    contains the chosen edges of a leaf, which under nonnegative weights
    weigh no more and have a lower bitmask.  A node is pruned when (its
    weight plus the largest cheapest-candidate weight over its uncovered
    sets, its bitmask) is not below the best found: a completion only adds
    weight and bits.  A crossing set that meets no candidate, or a negative
    weight, raises DecompositionError."""
    relevant: List[int] = sorted(eid for eid in index if any(eid in c for c in crossing))
    rows = [index[eid] for eid in relevant]
    # Set bits go fewest candidates first, so a node branches on its lowest
    # uncovered bit; hits[i]: the sets that candidate i meets.
    members = sorted(([i for i, eid in enumerate(relevant) if eid in c] for c in crossing), key=len)
    if [] in members:
        raise DecompositionError("1-cover pricing: a crossing set meets no candidate edge")
    hits = [sum(1 << bit for bit, m in enumerate(members) if i in m) for i in range(len(relevant))]
    full = (1 << len(members)) - 1

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        iw = [w[i] for i in rows]
        if any(v < 0 for v in iw):
            raise DecompositionError("1-cover pricing needs nonnegative weights")
        order = [sorted(m, key=lambda i: (iw[i], i)) for m in members]
        cheapest = sorted(((iw[o[0]], 1 << bit) for bit, o in enumerate(order)), reverse=True)
        best = (sum(iw) + 1, 0)             # heavier than every cover

        def search(covered: int, chosen: int, weight: int, barred: int) -> None:
            nonlocal best
            bound = next((c for c, bit in cheapest if not covered & bit), 0)
            if (weight + bound, chosen) >= best:
                return
            if covered == full:
                best = (weight, chosen)
                return
            for i in order[(~covered & (covered + 1)).bit_length() - 1]:
                if not barred >> i & 1:
                    search(covered | hits[i], chosen | 1 << i, weight + iw[i], barred)
                    barred |= 1 << i

        search(0, 0, 0, 0)
        return best[0], {relevant[i]: 1 for i in range(len(relevant)) if best[1] >> i & 1}

    return price


# ---------------------------------------------------------------------------
# Public decompositions


def require_subtour(G: Multigraph, x: EdgeVector) -> None:
    check = membership(G, x)
    if not check.inside:
        raise DecompositionError(f"input vector is outside subtour: {check.detail}")


def pack_spanning_trees(G: Multigraph, x: EdgeVector) -> Terms:
    """Spanning trees of the support of x, dominated by x; x is not tested."""
    return _pack(G, x, lambda index: _mst_price(G, index)).terms_of(x, "spanning tree")


def decompose_spanning_trees(G: Multigraph, x: EdgeVector) -> Terms:
    """pack_spanning_trees after a subtour test of x: the cover recipes hand
    in vectors that nothing else tests."""
    require_subtour(G, x)
    return pack_spanning_trees(G, x)


def decompose_tjoins(G: Multigraph, x: EdgeVector, T: Set[int]) -> Terms:
    """T-joins dominated by x, for x in the T-join dominant."""
    if not T:
        return [(ONE, {})]

    def oracle(index: Dict[int, int]) -> Oracle:
        price = _tjoin_price(G, index)
        return lambda w: price(w, T)

    return _pack(G, x, oracle).terms_of(x, "T-join")


def clip_at_two(x: EdgeVector) -> EdgeVector:
    """x capped at 2, on its support."""
    return {eid: min(v, Fraction(2)) for eid, v in x.items() if v > 0}


def decompose_connectors(G: Multigraph, x: EdgeVector) -> Terms:
    """Connectors of G summing exactly to x̄, x clipped at 2: spanning trees
    packed under x̄, topped up to it.  x must be in the subtour polytope;
    this stage does not test it.

    x̄(δ(S)) >= 2 for every S, so x̄ lies in the spanning tree dominant
    (Nash-Williams-Tutte) and the trees pack value 1.  Per edge e in id
    order, the deficit d = x̄_e - sum(lambda chi_e) >= 0 goes first as a
    first copy of e to the terms that lack it, then as a second copy,
    splitting at most one term per level; x̄_e <= 2 makes it fit.  Every term
    holds a spanning tree and each edge at most twice, so it is a connector.
    A second copy goes in only once no term lacks e, so no term holds two
    copies of an edge while another holds none.  The coefficients are ints
    a over one denominator Q, and one reduction to |E| + 1 terms, which
    keeps a subset of them, ends the stage."""
    xbar = clip_at_two(x)
    trees = pack_spanning_trees(G, xbar)
    ids = sorted(xbar)
    Q, ints = scale_to_ints([c for c, _ in trees] + [xbar[eid] for eid in ids])
    terms = [(a, dict(tree)) for a, (_, tree) in zip(ints, trees)]
    for eid, target in zip(ids, ints[len(trees):]):
        d = target - sum(a * f.get(eid, 0) for a, f in terms)
        for level in (0, 1):
            for i, (a, f) in enumerate(terms):
                if not d:
                    break
                if f.get(eid, 0) != level:
                    continue
                t = min(a, d)
                if t < a:
                    terms[i] = (a - t, f)
                    terms.append((t, {**f, eid: level + 1}))
                else:
                    f[eid] = level + 1
                d -= t
        if d:
            raise DecompositionError(
                f"a deficit of {Fraction(d, Q)} on e{eid} does not fit two copies")
    Q, kept = reduce_int_terms(Q, terms, G.m + 1)
    return [(Fraction(a, Q), dict(key)) for key, a in kept]


def decompose_one_covers(G: Multigraph, F: EdgeMultiset, y: EdgeVector,
                         alpha: Fraction) -> Terms:
    """1-covers of the connector F dominated by (2/(1+alpha)) * y."""
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise GraphError("alpha must be in (0, 1]")
    ids = set(G.edge_ids())
    for eid, v in y.items():
        if eid not in ids:
            raise DecompositionError(f"vector supported outside the graph (e{eid})")
        if v != 0 and v < alpha:
            raise DecompositionError(f"y_e{eid} = {v} violates the alpha threshold {alpha}")
    factor = Fraction(2, 1) / (1 + alpha)
    target = {eid: factor * v for eid, v in y.items() if v > 0}
    cuts = one_edge_cuts(G, F)
    crossing = [cut_edges(G, shore) for shore, _ in cuts]
    if not crossing:
        return [(ONE, {})]
    for (_, bridge), c in zip(cuts, crossing):
        value = sum((y.get(eid, ZERO) for eid in c), ZERO)
        if value < 1:
            raise DecompositionError(f"input vector is outside cover: 1-edge cut "
                                     f"of F at e{bridge} has value {value} < 1")
    packing = _pack(G, target, lambda index: _one_cover_price(crossing, index))
    return packing.terms_of(target, "1-cover")


def one_cover_completions(G: Multigraph, F: EdgeMultiset, alpha: Fraction
                          ) -> List[Tuple[Fraction, EdgeMultiset]]:
    """F plus each 1-cover drawn from the everywhere-alpha vector outside F,
    with the 1-cover's coefficient."""
    y = {e.id: alpha for e in G.edges if F.get(e.id, 0) == 0}
    return [(c, multiset_union(F, cover)) for c, cover in decompose_one_covers(G, F, y, alpha)]


def wolsey_tours(G: Multigraph, x: EdgeVector) -> Terms:
    """Tours dominated by (3/2) x, for x in the subtour polytope, which is
    tested first (polyhedral Christofides; Wolsey 1980).  One packing
    master, max sum(lambda) s.t. sum(lambda * chi) <= (3/2) x, priced by
    _tour_price: H_w, a minimum spanning tree under w plus a minimum join
    of its odd vertices.  Its terms are the master's basic solution.

    The oracle is not an exact minimum, yet the master reaches value 1.
    x lies in the spanning tree dominant, so the tree weighs at most w.x;
    x/2 lies in every T-join dominant, so the join weighs at most w.x / 2.
    So w(H_w) <= (3/2) w.x, for any w >= 0.  At a restricted optimum of
    value sigma < 1, with w the duals on their scale s, LP duality gives
    (3/2) w.x = sigma s < s: H_w prices out, and it is a new column, since
    every kept column weighs at least s there.  So a round whose smoothed
    weights misprice still finds a column at the duals themselves.  A
    master that ends below 1 has broken that bound, an internal error that
    no input can cause."""
    require_subtour(G, x)
    target = {eid: Fraction(3, 2) * v for eid, v in x.items()}
    packing = _pack(G, target, lambda index: _tour_price(G, index))
    if packing.sigma < 1:
        raise DecompositionError(
            f"tour packing value {packing.sigma} < 1 for x in the subtour polytope: "
            f"a tour that the pricing step returned broke Wolsey's bound "
            f"w(tree + join) <= (3/2) w.x")
    for _, tour in packing.terms:
        if "tour" not in classify(G, tour):
            raise DecompositionError(f"term {canonical(tour)} is not a tour")
    return packing.terms
