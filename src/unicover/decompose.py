"""Convex decomposition of edge vectors into combinatorial objects.

All decompositions run exact column generation: a fraction-free simplex master
over the generated objects plus an exact pricing routine (minimum spanning tree,
minimum T-join via shortest paths and a matching DP, maximum-weight connector,
minimum 1-cover over the minimal covers, listed once per connector).  The
masters price with their undivided integer duals (π, s), y = π / s: each
oracle's choices depend only on the order of the weights, which scaling by
s > 0 keeps, ties included.  Optimality of the pricing step proves
optimality of the master over the full object class.  A packing master
stops pricing once its restricted master packs value 1, all that a cover
needs, and below 1 runs to its optimum.  It returns a Packing: the value
sigma, the terms and the final duals w.  At an optimum below 1 every object
weighs at least 1 under w and x weighs sigma, which puts x outside the
class's dominant.  `Packing.terms_of` is the one place that words that
refusal.

Every stage returns Terms: at most |E| + 1 distinct (coefficient, multiset)
pairs in canonical order.  A master's terms are its basic solution, at most
one per master row, so they need no reducing.  make_combination,
wolsey_tours and normalize_connectors reduce the terms they combine by one
fraction-free Caratheodory pass, run as basis exchanges on the simplex
kernel's packed adjugate (simplex.Adjugate); this module holds no pivot
code of its own.  make_combination labels a pipeline's terms once, at its
end, and verify_combination re-checks the result.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .graph import (EdgeMultiset, EdgeVector, GraphError, Multigraph,
                    classify, cut_edges, find, kruskal, multiset_union, odd_vertices,
                    one_edge_cuts, scale_to_ints, union)
from .lp import membership
from .simplex import Adjugate, SparseColumn, Tableau, dot_of

ZERO = Fraction(0)
ONE = Fraction(1)

CanonicalObject = Tuple[Tuple[int, int], ...]   # sorted ((edge id, multiplicity), ...)
Weights = Dict[int, Union[int, Fraction]]       # edge id -> weight
# A pricing oracle: an int weight per master row, in row order -> (the best
# object's weight, the object).
Oracle = Callable[[List[int]], Tuple[int, EdgeMultiset]]
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


def _keep(objects: List[EdgeMultiset], index: Dict[int, int], rows: int,
          obj: EdgeMultiset) -> SparseColumn:
    """Keep obj and return its master column: its multiplicities on the edge
    rows of `index`, then 1 on each convexity row up to `rows`."""
    objects.append(obj)
    return sorted((index[eid], m) for eid, m in obj.items()) + [
        (i, 1) for i in range(len(index), rows)]


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


def _pack(G: Multigraph, x: EdgeVector, oracle: OracleBuilder) -> Packing:
    """The Packing of x by one class (sigma, terms and w), from the master
    max sum(lambda) s.t. sum(lambda * chi) <= x, a row per edge of x's
    support in ascending id order.  `oracle(index)` builds the pricing state
    once, from the map `index` of edge id to row; its price gets the
    nonnegative int weights -π, one per row, on the dual scale s, and
    returns an exact minimum weight object (weight, multiset), which prices
    out when it weighs less than s.  λ is read undivided, divided once.

    Pricing stops once the restricted master packs sum(lambda) = sigma >= 1.
    Its optimum is feasible for the full master, so lambda / sigma is
    dominated by x / sigma <= x, which is all the terms need.  Below 1 the
    master runs to its optimum, where w is the refusal's proof."""
    rows = sorted((eid, v) for eid, v in x.items() if v > 0)
    index = {eid: i for i, (eid, _) in enumerate(rows)}
    price = oracle(index)
    tab = Tableau([v for _, v in rows], [0] * len(rows))    # slacks
    objects: List[EdgeMultiset] = []

    def improving(pi: List[int], s: int) -> Optional[SparseColumn]:
        # Each generated column costs -1, so sum(lambda) is -z over its scale.
        z, scale = tab.int_obj()
        if -z >= scale:
            return None
        value, obj = price([-p for p in pi])
        return _keep(objects, index, tab.rows, obj) if value < s else None

    tab.generate(improving, -1)
    lam, scale = tab.int_solution()
    raw = [(v, obj) for v, obj in zip(lam[tab.rows:], objects) if v > 0]
    total = sum(v for v, _ in raw)
    terms = _basic_terms([(Fraction(v, total), obj) for v, obj in raw]) if total >= scale else []
    pi, s = tab.int_duals()
    return Packing(Fraction(total, scale), terms,
                   {eid: Fraction(-pi[i], s) for eid, i in index.items()})


def _basic_terms(terms: List[Tuple[Fraction, EdgeMultiset]]) -> Terms:
    """A master's positive basic variables, in canonical order.  A basic
    solution has at most one nonzero column per master row, and rows <=
    |E| + 1; generate refuses a repeated column.  So a Caratheodory pass
    would find nothing to merge or reduce."""
    return sorted(terms, key=lambda term: canonical(term[1]))


def _equality_master(target_rows: List[Tuple[int, Fraction]], oracle: OracleBuilder,
                     ) -> Optional[List[Tuple[Fraction, EdgeMultiset]]]:
    """Find lambda >= 0, sum = 1, sum(lambda * chi) = target; None if impossible.

    A phase 1 over the artificials: it stops at the first feasible lambda,
    where the objective is 0, read undivided.  `oracle` is built as in
    _pack; its price gets the arbitrary-sign int duals π of the edge rows,
    in the order of `target_rows`, and must return an exact maximum weight
    object of the class; it prices out when it weighs more than -π of the
    convexity row.
    """
    index = {eid: i for i, (eid, _) in enumerate(target_rows)}
    price_max = oracle(index)
    nrows = len(index) + 1             # + convexity row
    tab = Tableau([v for _, v in target_rows] + [ONE], [1] * nrows)   # artificials
    objects: List[EdgeMultiset] = []

    def improving(pi: List[int], s: int) -> Optional[SparseColumn]:
        # At objective 0 every artificial is 0, and a further pivot could
        # only be degenerate, so lambda is final.
        if not tab.int_obj()[0]:
            return None
        value, obj = price_max(pi[:-1])
        return _keep(objects, index, nrows, obj) if value > -pi[-1] else None

    tab.generate(improving, 0)
    if tab.int_obj()[0]:
        return None
    return [(lam, obj) for lam, obj in zip(tab.solution()[nrows:], objects) if lam > 0]


# ---------------------------------------------------------------------------
# Pricing routines


def _mst_price(G: Multigraph, index: Dict[int, int]) -> Oracle:
    """Minimum spanning tree in the edges of `index`, ties going to the
    lower id; the oracle sorts the rows (in id order) by their weights."""
    edge_of = {index[e.id]: e for e in G.edges if e.id in index}
    rows = sorted(edge_of)

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        tree = kruskal(list(range(G.n)), [edge_of[i] for i in sorted(rows, key=w.__getitem__)])
        if len(tree) != G.n - 1:
            raise DecompositionError("support does not contain a spanning tree")
        return sum(w[index[e.id]] for e in tree), {e.id: 1 for e in tree}

    return price


def min_tjoin(G: Multigraph, weights: Weights, T: Set[int]) -> Tuple[Fraction, EdgeMultiset]:
    """Exact minimum weight T-join (nonnegative int or Fraction weights) in
    the edges that `weights` lists: `_tjoin_price` once, over the weights
    scaled to ints, with a row per listed edge."""
    scale, ints = scale_to_ints(weights.values())
    value, join = _tjoin_price(G, {eid: i for i, eid in enumerate(weights)}, T)(ints)
    return Fraction(value, scale), join


def _tjoin_price(G: Multigraph, index: Dict[int, int], T: Set[int]) -> Oracle:
    """Exact minimum weight T-join in the edges of `index`, under a
    nonnegative int weight per row: shortest paths between T-vertices plus
    an exact matching DP, symmetric difference.  The adjacency, with the
    row of each edge, is built once, here; a negative weight raises
    DecompositionError.

    The DP pairs the lowest unmatched terminal with each later one, so it
    reaches only the masks of such pairings (F(|T| + 1) of the 2^|T|, F the
    Fibonacci numbers).  It runs layer by layer, one pair per layer, each
    layer's masks in increasing order: every mask's predecessors lie in the
    layer before it, so ties break as in a scan of all masks in increasing
    order.  A terminal's search stops once every later terminal is settled;
    the last terminal is never the lower end of a pair and gets none."""
    if len(T) % 2 == 1:
        raise GraphError("odd |T|")
    adj: List[List[Tuple[int, int, int]]] = [[] for _ in range(G.n)]   # (end, row, edge id)
    for e in G.edges:
        if e.id in index:
            adj[e.u].append((e.v, index[e.id], e.id))
            adj[e.v].append((e.u, index[e.id], e.id))
    terms = sorted(T)

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        if w and min(w) < 0:
            raise DecompositionError("T-join pricing needs nonnegative weights")
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


def _connector_price_max(G: Multigraph, index: Dict[int, int]) -> Oracle:
    """Maximum weight connector in the edges of `index`: every edge of
    positive weight twice, then a maximum weight forest over the rest, ties
    going to the lower id."""
    edges = [(index[e.id], e) for e in G.edges if e.id in index]

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        obj: EdgeMultiset = {}
        total = 0
        parent = list(range(G.n))
        for i, e in edges:
            if w[i] > 0:
                obj[e.id] = 2
                total += 2 * w[i]
                union(parent, e.u, e.v)
        # Connect the remaining components with a maximum weight forest.
        order = sorted(edges, key=lambda ie: (-w[ie[0]], ie[1].id))
        for e in kruskal(parent, [e for _, e in order]):
            obj[e.id] = obj.get(e.id, 0) + 1
            total += w[index[e.id]]
        roots = {find(parent, v) for v in range(G.n)}
        if len(roots) != 1:
            raise DecompositionError("graph is disconnected")
        return total, obj

    return price


def _one_cover_price(crossing: List[FrozenSet[int]], index: Dict[int, int]) -> Oracle:
    """Exact minimum 1-cover: a cheapest set of the candidate edges of
    `index` meeting each of the `crossing` edge sets (the 1-edge cuts of a
    connector, each of value at least 1 on the rows, so each meets a
    candidate), ties going to the lowest bitmask over the sorted candidates.

    The minimal covers are listed once, here; each call weighs only them.
    Under nonnegative weights every cover contains a minimal cover that
    weighs no more and has a lower bitmask, so this is the argmin over all
    covers.  A negative weight raises DecompositionError."""
    relevant: List[int] = sorted(eid for eid in index if any(eid in c for c in crossing))
    if len(relevant) > 22:
        raise DecompositionError("1-cover pricing capped at 22 candidate edges")
    rows = [index[eid] for eid in relevant]
    # hits[i]: the crossing sets that candidate i meets, as a bitmask.
    hits = [sum(1 << ci for ci, c in enumerate(crossing) if eid in c) for eid in relevant]
    covers = [tuple(i for i in range(len(relevant)) if sub >> i & 1)
              for sub in sorted(_minimal_covers(hits, (1 << len(crossing)) - 1))]

    def price(w: List[int]) -> Tuple[int, EdgeMultiset]:
        iw = [w[i] for i in rows]
        if any(v < 0 for v in iw):
            raise DecompositionError("1-cover pricing needs nonnegative weights")
        best = min(covers, key=lambda cover: sum(map(iw.__getitem__, cover)))
        return sum(map(iw.__getitem__, best)), {relevant[i]: 1 for i in best}

    return price


def _minimal_covers(hits: List[int], full: int) -> List[int]:
    """Every inclusion-minimal set of candidates (a bitmask) whose `hits`
    together make `full`.  Candidates are taken in index order; one is taken
    only if it meets a set not met yet, and the search stops at a cover.  A
    cover found is minimal when each candidate in it meets a set that no
    other candidate in it meets."""
    k = len(hits)
    reach = [0] * (k + 1)              # reach[i]: sets that candidates i.. meet
    for i in range(k - 1, -1, -1):
        reach[i] = reach[i + 1] | hits[i]
    out: List[int] = []

    def extend(i: int, sub: int, covered: int) -> None:
        if covered == full:
            once = twice = 0
            for j in range(k):
                if sub >> j & 1:
                    twice |= once & hits[j]
                    once |= hits[j]
            if all(hits[j] & ~twice for j in range(k) if sub >> j & 1):
                out.append(sub)
            return
        if covered | reach[i] != full:
            return
        if hits[i] & ~covered:
            extend(i + 1, sub | 1 << i, covered | hits[i])
        extend(i + 1, sub, covered)

    extend(0, 0, 0)
    return out


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
    return _pack(G, x, lambda index: _tjoin_price(G, index, T)).terms_of(x, "T-join")


def clip_at_two(x: EdgeVector) -> EdgeVector:
    """x capped at 2, on its support."""
    return {eid: min(v, Fraction(2)) for eid, v in x.items() if v > 0}


def decompose_connectors(G: Multigraph, x: EdgeVector) -> Terms:
    """Equality decomposition of x (clipped at 2) into connectors of G.  x
    must be in the subtour polytope; this stage does not test it."""
    raw = _equality_master(sorted(clip_at_two(x).items()),
                           lambda index: _connector_price_max(G, index))
    if raw is None:
        raise DecompositionError("x is not in the connector polytope")
    return _basic_terms(raw)


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
    """Tours dominated by (3/2) x: spanning trees of x, each completed with
    parity-fixing joins drawn from x/2 (polyhedral Christofides).
    decompose_spanning_trees tests x for subtour membership."""
    half = {eid: v / 2 for eid, v in x.items()}
    tours = caratheodory_reduce(
        [(tc * jc, multiset_union(tree, join))
         for tc, tree in decompose_spanning_trees(G, x)
         for jc, join in decompose_tjoins(G, half, odd_vertices(G, tree))], G.m + 1)
    for _, tour in tours:
        if "tour" not in classify(G, tour):
            raise DecompositionError(f"term {canonical(tour)} is not a tour")
    return tours
