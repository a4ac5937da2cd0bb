"""Exact fraction-free revised simplex (Bland's rule) with incremental columns.

There is no floating point anywhere, and no `fractions.Fraction` inside
the set-up, a pivot or a pricing step.  One `Tableau` serves every LP the
library builds.  It is built from b scaled to ints over the lcm L of its
denominators (graph.scale_to_ints), an identity basis of slacks or
artificials as sparse unit columns, and int costs.  Every producer hands it
columns in the one format it keeps, (row, nonzero int entry) pairs with the
rows ascending, each with an `operator.itemgetter` of its rows.  The basis
is one integer matrix M = D·B⁻¹, where D = det(B) > 0, so M is the
adjugate of B.  Each pivot is Edmonds' integer-preserving update (Bareiss
1968) on a positive entry p = α_r:

    M'_i = (p·M_i − α_i·M_r) / D  for i ≠ r,   M'_r = M_r,   D' = p,

with α = M·A_e for the entering column e; every division is exact.

`Adjugate` holds M, for the Tableau and for decompose's Carathéodory
reduction alike, as one Python int per column: M_ik is a signed lane of W
bits at bit W·i (Fisher and Dietz's SIMD within a register).  α is one
multiply-add per nonzero of A_e and one decode (`to_bytes`, then
`struct.unpack` at W = 64).  A pivot is one multiply-subtract-divide per
column, C_k ← (p·C_k − M_rk·Ã) / D, with Ã = α − D at row r so that row r
stays; at D = 1 nothing is divided.  A lane that does not divide can leave
its column divisible through carries, so the check is twofold: the packed
remainder is 0, and every lane of every quotient lies within ±2^T, one OR
and one AND per pivot.  With T + bits(D) ≤ W − 1 and every numerator lane
below 2^(W−1), which the bound on M's entries and the pivot's operands
show, an inexact lane cannot pass: a numerator's lanes are unique.  W is
never set: it starts at 64 and doubles, by repacking, before a step whose
operands could break the bound, once a tightened bound shows they still
would.

β and π stay int lists, each divided at once and checked by its sum:
floor remainders are nonnegative, so they are all zero exactly when
p·Σβ − ΣÃ·β_r = D·Σβ' (and likewise for π).  Reduced costs come from
π = c_B·M, the identity costs at construction (M = I) and kept by each
pivot, and the original columns, and α is formed only for the entering
column, so new columns cost nothing until they are priced.  `solution()`
is divided out when read; `int_solution()` and `int_duals()` are not.
`generate` is the library's one column generation loop: the subtour LP's
cutting planes in `lp` and both decomposition masters in `decompose` run
on it, each from its identity basis and pricing from the undivided duals
(`int_duals()`).

`solve_lp`, the two-phase solver for general rows, is a dense Fraction
tableau that shares no code with `Tableau` or `Adjugate`.  The library does not call it;
the tests keep it as their independent reference LP solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul
from struct import Struct
from typing import Callable, List, Optional, Sequence, Tuple

from .graph import scale_to_ints

ZERO = Fraction(0)

SparseColumn = List[Tuple[int, int]]     # (row, nonzero int entry), rows ascending
# A column's rows as an itemgetter, and its entries, or None when all are 1.
Dot = Tuple[Callable[[Sequence[int]], Sequence[int]], Optional[Tuple[int, ...]]]


def dot_of(col: SparseColumn) -> Dot:
    """A sparse column's rows as an itemgetter, and its entries (None when
    all are 1)."""
    rows = [i for i, _ in col]
    if len(rows) > 1:
        get = itemgetter(*rows)
    else:                       # one index would get a scalar, a slice gets a list
        get = itemgetter(slice(rows[0], rows[0] + 1) if rows else slice(0))
    vals = tuple(v for _, v in col)
    return get, None if vals.count(1) == len(vals) else vals


class LpError(RuntimeError):
    pass


class Infeasible(LpError):
    pass


class Unbounded(LpError):
    pass


class Adjugate:
    """M = D·B⁻¹ for a basis B of `rows` columns, D = det(B) > 0, packed one
    Python int per column: M_ik is the signed lane of `width` bits at bit
    width·i of column k.  It starts at B = I.  Every entry of M lies within
    ±`bound`.

    `express` forms α = M·A for a column A, `exchange` brings that column
    into the basis at a row, `release` brings a unit column in, and `widen`
    repacks at twice the width; `row`, `column` and `matrix` decode."""

    def __init__(self, rows: int):
        self.rows = rows
        self.D = 1
        self.bound = 1 if rows else 0
        self._set_width(64)
        self.cols = [1 << (self.width * k) for k in range(rows)]

    def _set_width(self, width: int) -> None:
        self.width = width
        self._ones = sum(1 << (width * i) for i in range(self.rows))
        self._top = self._ones << (width - 1)           # 2^(W-1) in every lane
        self._lanes = Struct(f"<{self.rows}q") if width == 64 else None

    def _decode(self, packed: int) -> Sequence[int]:
        # Adding 2^(W-1) to each lane leaves no borrows, and flipping each
        # lane's top bit then gives its two's complement.
        raw = ((packed + self._top) ^ self._top).to_bytes(self.rows * self.width // 8, "little")
        if self._lanes is not None:
            return self._lanes.unpack(raw)
        w = self.width // 8
        return [int.from_bytes(raw[i:i + w], "little", signed=True)
                for i in range(0, len(raw), w)]

    def _encode(self, lanes: Sequence[int]) -> int:
        if self._lanes is not None:
            raw = self._lanes.pack(*lanes)
        else:
            raw = b"".join(v.to_bytes(self.width // 8, "little", signed=True) for v in lanes)
        return (int.from_bytes(raw, "little") ^ self._top) - self._top

    def row(self, r: int) -> List[int]:
        shift, top, half = self.width * r, self._top, 1 << (self.width - 1)
        lane = 2 * half - 1
        return [((c + top) >> shift & lane) - half for c in self.cols]

    def column(self, k: int) -> Sequence[int]:
        return self._decode(self.cols[k])

    def matrix(self) -> List[List[int]]:
        """M decoded, as a list of rows."""
        return [list(r) for r in zip(*map(self._decode, self.cols))]

    def widen(self) -> None:
        """Repack every column at twice the lane width."""
        lanes = [self._decode(c) for c in self.cols]
        self._set_width(2 * self.width)
        self.cols = [self._encode(v) for v in lanes]

    def _fit(self) -> None:
        """Tighten `bound` to the largest entry of M, or, when it is tight
        already, widen."""
        bound = max((max(max(v), -min(v)) for v in map(self._decode, self.cols)), default=0)
        if bound < self.bound:
            self.bound = bound
        else:
            self.widen()

    def express(self, dot: Dot) -> Sequence[int]:
        """α = M·A for the column A given as its Dot: one multiply-add per
        nonzero of A, then one decode.  Each |α_i| is at most the sum of
        |A| times `bound`, which must be below 2^(W-1)."""
        get, vals = dot
        while True:
            cs = get(self.cols)
            norm = len(cs) if vals is None else sum(map(abs, vals))
            if not (norm * self.bound) >> (self.width - 1):
                break
            self._fit()
        return self._decode(sum(cs) if vals is None else sum(map(mul, cs, vals)))

    def exchange(self, r: int, alpha: Sequence[int]) -> List[int]:
        """The column of α = M·A enters the basis at row r, on p = α_r > 0;
        returns row r of M, which the exchange keeps.  `release` does not
        pass through here, so a wrapper of `exchange` sees exactly the
        columns that callers bring in."""
        return self._exchange(r, alpha)

    def release(self, r: int) -> None:
        """A unit column e_s enters the basis at row r, for the lowest s
        with M_rs != 0, negated when M_rs < 0."""
        s = next(k for k, v in enumerate(self.row(r)) if v)
        alpha = self.column(s)
        self._exchange(r, alpha if alpha[r] > 0 else [-a for a in alpha])

    def _exchange(self, r: int, alpha: Sequence[int]) -> List[int]:
        # Edmonds' update, per column: C_k <- (p·C_k - M_rk·Ã) / D with
        # Ã = α - D at row r, so that row r keeps its value.
        D, p = self.D, alpha[r]
        Mr = self.row(r)
        mr, amax = max(max(Mr), -min(Mr)), max(max(alpha), -min(alpha))
        while True:
            # Each lane of a numerator lies within ±nb, and each quotient
            # within ±bound' = nb // D < 2^T.
            nb = p * self.bound + (amax + D) * mr
            bound = nb // D
            T = bound.bit_length()
            if not nb >> (self.width - 1) and T + D.bit_length() < self.width:
                break
            self._fit()
        at = self._encode(alpha) - (D << (self.width * r))
        if D == 1:
            self.cols = [p * c - m * at for c, m in zip(self.cols, Mr)]
        else:
            # A lane that does not divide can leave its column divisible
            # through carries, but then some quotient lane lies outside
            # ±2^T: D·2^T < 2^(W-1) and the lanes of a numerator are unique.
            # Biased by 2^T, every lane of every quotient must fit T + 1 bits.
            ones, cols = self._ones, []
            bias, rem, acc = ones << T, 0, 0
            for c, m in zip(self.cols, Mr):
                if m or p != D:
                    c, x = divmod(p * c - m * at, D)
                    rem |= x
                    acc |= c + bias
                cols.append(c)
            if rem or acc & ~((ones << (T + 1)) - ones):
                raise LpError("inexact division in an integer pivot")
            self.cols = cols
        self.bound, self.D = bound, p
        return Mr


class Tableau:
    """min c.x  s.t.  A x = b (b >= 0), x >= 0, with A an integer matrix.

    Column i < rows is the unit vector e_i with cost `identity_costs[i]`; these
    columns form the initial basis.  Further columns are supplied one by one.
    Costs must be ints; b may hold ints or Fractions, and is scaled to ints
    over the lcm L of its denominators.
    """

    def __init__(self, b: Sequence[Fraction], identity_costs: Sequence[int]):
        self.rows = len(b)
        if len(identity_costs) != self.rows:
            raise LpError("one identity cost per row")
        if any(type(c) is not int for c in identity_costs):
            raise LpError("tableau costs must be integer")
        self.L, self.beta = scale_to_ints(b)   # β = M . b . L
        if any(v < 0 for v in self.beta):
            raise LpError("right-hand side must be nonnegative")
        self.cols: List[SparseColumn] = [[(i, 1)] for i in range(self.rows)]
        self.dots: List[Dot] = [(itemgetter(slice(i, i + 1)), None) for i in range(self.rows)]
        self.icosts: List[int] = list(identity_costs)
        self.basis = list(range(self.rows))
        self.kernel = Adjugate(self.rows)       # M = D·B⁻¹
        self._pi = list(identity_costs)         # π = c_B . M, kept by each pivot

    @property
    def D(self) -> int:
        return self.kernel.D

    @D.setter
    def D(self, value: int) -> None:
        self.kernel.D = value

    def add_column(self, col: SparseColumn, cost: int) -> int:
        """Add a column of (row, nonzero int entry) pairs, the rows rising
        inside [0, rows), at an int cost; returns its index.  Any other
        raises LpError."""
        last = -1
        for i, v in col:
            if type(v) is not int:
                raise LpError("tableau columns must be integer")
            if not v or type(i) is not int or not last < i < self.rows:
                raise LpError("a column is nonzero entries on rising rows of the tableau")
            last = i
        if type(cost) is not int:
            raise LpError("tableau costs must be integer")
        self.cols.append(col)
        self.dots.append(dot_of(col))
        self.icosts.append(cost)
        return len(self.cols) - 1

    def generate(self, price: Callable[[List[int], int], Optional[SparseColumn]],
                 cost: int) -> None:
        """Column generation: optimize, hand the undivided duals (π, s) to
        `price` and add the sparse column it returns at `cost`, until it
        returns None.  A column added before the call is known, an identity
        column is not; pricing a known column raises LpError.

        A column is added at an optimum, where no column prices below zero,
        and adding it moves neither the basis nor the duals.  So every old
        column still prices at zero or above, under any entering rule, and
        only the new column needs pricing: the simplex goes on from it if it
        enters.  Every optimum that `price` sees was proved by a full scan at
        the same basis."""
        known = {tuple(col) for col in self.cols[self.rows:]}
        self.optimize()
        while True:
            col = price(*self.int_duals())
            if col is None:
                return
            key = tuple(col)
            if key in known:
                raise LpError("pricing returned a known column; solver bug")
            known.add(key)
            enter = self.add_column(col, cost)
            red = self._reduced_cost(enter)
            if red < 0:
                self._enter(enter, red)
                self.optimize()

    def _reduced_cost(self, j: int) -> int:
        """Column j's reduced cost times D, (D·c_j − π·A_j) with π = c_B·M."""
        get, vals = self.dots[j]
        pi = self._pi
        return self.D * self.icosts[j] - (sum(get(pi)) if vals is None
                                          else sum(map(mul, get(pi), vals)))

    def _entering(self) -> Tuple[int, int]:
        """Bland's rule: the lowest nonbasic column of negative reduced cost,
        with that cost times D; (-1, 0) at an optimum."""
        pi = self._pi
        D, icosts = self.D, self.icosts
        basic = set(self.basis)
        for j, (get, vals) in enumerate(self.dots):
            if j in basic:
                continue
            # _reduced_cost(j), inlined, as this loop prices every column.
            r = D * icosts[j] - (sum(get(pi)) if vals is None
                                 else sum(map(mul, get(pi), vals)))
            if r < 0:
                return j, r
        return -1, 0

    def _pivot(self, row: int, alpha: Sequence[int], red: int) -> None:
        """The kernel's exchange on the positive entry p = alpha[row], and
        Edmonds' update on β and π; a division by D that is not exact
        raises LpError.  `red` is the entering column's reduced cost times
        D: π' = (p·π + red·M_r) / D."""
        D, p, beta, pi = self.D, alpha[row], self.beta, self._pi
        Mr = self.kernel.exchange(row, alpha)
        at = list(alpha)
        at[row] -= D                            # so that β_r stays
        br = beta[row]
        if D == 1:
            self.beta = [p * b - a * br for b, a in zip(beta, at)]
            self._pi = [p * u + red * v for u, v in zip(pi, Mr)]
            return
        new_beta = [(p * b - a * br) // D for b, a in zip(beta, at)]
        new_pi = [(p * u + red * v) // D for u, v in zip(pi, Mr)]
        # Floor division leaves remainders in [0, D), so a list is exact
        # exactly when its sum is.
        if (D * sum(new_beta) != p * sum(beta) - sum(at) * br
                or D * sum(new_pi) != p * sum(pi) + red * sum(Mr)):
            raise LpError("inexact division in an integer pivot")
        self.beta, self._pi = new_beta, new_pi

    def _enter(self, enter: int, red: int) -> None:
        """One simplex step: column `enter`, of reduced cost `red` (times D)
        below zero, enters the basis."""
        alpha = self.kernel.express(self.dots[enter])
        beta, basis = self.beta, self.basis
        # Ratio test on β_i / α_i over α_i > 0 (D > 0 cancels), by
        # cross-multiplying; ties go to the lower basis index.
        leave_row = -1
        for i, a in enumerate(alpha):
            if a > 0:
                if leave_row < 0:
                    leave_row = i
                    continue
                lhs = beta[i] * alpha[leave_row]
                rhs = beta[leave_row] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave_row]):
                    leave_row = i
        if leave_row < 0:
            raise Unbounded("unbounded LP")
        self._pivot(leave_row, alpha, red)
        basis[leave_row] = enter

    def optimize(self) -> None:
        """Primal simplex with Bland's rule."""
        while True:
            enter, red = self._entering()
            if enter < 0:
                return
            self._enter(enter, red)

    def int_obj(self) -> Tuple[int, int]:
        """c_B . x_B undivided: (z, s) with the objective z / s and s = D·L > 0."""
        total = sum(self.icosts[j] * self.beta[i] for i, j in enumerate(self.basis))
        return total, self.D * self.L

    def int_solution(self) -> Tuple[List[int], int]:
        """The basic solution undivided: (x, s) with column j at x[j] / s
        and s = D·L > 0."""
        x = [0] * len(self.cols)
        for i, j in enumerate(self.basis):
            x[j] = self.beta[i]
        return x, self.D * self.L

    def solution(self) -> List[Fraction]:
        """The value of every column in the current basic solution."""
        x, s = self.int_solution()
        return [Fraction(v, s) if v else ZERO for v in x]

    def int_duals(self) -> Tuple[List[int], int]:
        """The duals y = c_B B⁻¹, one per row, undivided: (π, s) with
        y = π / s and s = D > 0."""
        return list(self._pi), self.D


@dataclass
class LpSolution:
    value: Fraction
    x: List[Fraction]
    duals: List[Fraction]


def solve_lp(c: Sequence[Fraction],
             rows: Sequence[Tuple[Sequence[Fraction], str, Fraction]]) -> LpSolution:
    """min c.x  s.t.  each row (a, sense, rhs) with sense in <=, >=, =; x >= 0.

    Two-phase simplex on a dense Fraction tableau that stores every column
    as B⁻¹A_j, with the kernel's rules (Bland's entering column, ratio ties
    to the lower basis index) but none of its code.  A row of negative rhs
    is negated; it starts with a slack if it reads <=, else an artificial,
    and a >= row has a surplus column after the structural ones.  In phase 2
    no artificial enters, and one basic at zero leaves on a negative entry
    rather than rise.  Duals are per input row: the reduced cost of column j
    is c_j - sum_i y_i a_ij.
    """
    m, nvars = len(rows), len(c)
    A, b, senses, signs = [], [], [], []
    for a, sense, rhs in rows:
        sign = -1 if rhs < 0 else 1
        A.append([sign * Fraction(v) for v in a])
        b.append(sign * Fraction(rhs))
        senses.append({"<=": ">=", ">=": "<="}.get(sense, sense) if sign < 0 else sense)
        signs.append(sign)
    surplus = [i for i in range(m) if senses[i] == ">="]
    cols = ([[Fraction(int(i == k)) for k in range(m)] for i in range(m)]
            + [[A[k][j] for k in range(m)] for j in range(nvars)]
            + [[Fraction(-int(i == k)) for k in range(m)] for i in surplus])
    basis = list(range(m))
    artificials = {i for i in range(m) if senses[i] != "<="}

    def optimize(costs: List[Fraction], forbidden: set) -> None:
        while True:
            red = [costs[j] - sum(costs[basis[i]] * col[i] for i in range(m))
                   for j, col in enumerate(cols)]
            enter = next((j for j in range(len(cols)) if j not in forbidden and red[j] < 0),
                         None)
            if enter is None:
                return
            col = cols[enter]
            pos = [i for i in range(m) if col[i] > 0]
            leave = min(pos, key=lambda i: (b[i] / col[i], basis[i]), default=None)
            stuck = [i for i in range(m) if col[i] < 0 and b[i] == 0 and basis[i] in forbidden]
            if stuck and (leave is None or b[leave] > 0):
                leave = min(stuck, key=lambda i: basis[i])
            if leave is None:
                raise Unbounded("unbounded LP")
            piv = col[leave]
            for other in cols:
                other[leave] /= piv
            b[leave] /= piv
            for i in range(m):
                f = col[i]
                if i != leave and f:
                    for other in cols:
                        other[i] -= f * other[leave]
                    b[i] -= f * b[leave]
            basis[leave] = enter

    def value(costs: List[Fraction]) -> Fraction:
        return sum((costs[basis[i]] * b[i] for i in range(m)), ZERO)

    phase1 = [Fraction(int(i in artificials)) for i in range(m)] + [ZERO] * (len(cols) - m)
    optimize(phase1, set())
    if value(phase1) != 0:
        raise Infeasible("infeasible LP")
    costs = [ZERO] * m + [Fraction(v) for v in c] + [ZERO] * len(surplus)
    optimize(costs, artificials)
    x = [ZERO] * len(cols)
    for i, j in enumerate(basis):
        x[j] = b[i]
    duals = [signs[i] * sum((costs[basis[k]] * cols[i][k] for k in range(m)), ZERO)
             for i in range(m)]
    return LpSolution(value=value(costs), x=x[m:m + nvars], duals=duals)
