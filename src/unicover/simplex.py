"""Exact fraction-free revised simplex (Bland's rule) with incremental columns.

There is no floating point anywhere, and no `fractions.Fraction` inside
the set-up, a pivot or a pricing step.  One `Tableau` serves every LP.  It
is built from b scaled to ints over the lcm L of its denominators
(graph.scale_to_ints), its identity basis as sparse unit columns, and the
costs as ints over their common denominator C.  Every producer hands it
columns in the one format it keeps, (row, nonzero int entry) pairs with
the rows ascending, each with an `operator.itemgetter` of its rows.  The
basis is one integer matrix M = D·B⁻¹, where D = det(B) > 0, so M is the
adjugate of B.  Each pivot is Edmonds' integer-preserving update
(Bareiss 1968):

    M'_i = (p·M_i − α_i·M_r) / D  for i ≠ r,   M'_r = M_r,   D' = p,

with α = M·A_e for the entering column e and p = α_r; every division is
exact.  At D = 1 there is no division.  Otherwise each row is formed once,
by floor division, and checked as a whole: floor remainders are
nonnegative, so they are all zero exactly when p·ΣM_i − α_i·ΣM_r = D·ΣM'_i
(and likewise for π).  The sums ΣM_i are kept with M, so each row is summed
once, when it is formed.  Reduced costs come from π = C·c_B·M and the
original columns, and α is formed only for the entering column, so new
columns cost nothing until they are priced.  The values `obj`,
`solution()` and `duals()` are divided out once, when they are read; their
`int_` forms are not divided.  `generate` is the library's one column
generation loop: the subtour LP's cutting planes in `lp` and both
decomposition masters in `decompose` run on it.  Each starts from its
identity basis and prices from the undivided duals (`int_duals()`), so
pricing and separation build no Fraction.  `solve_lp`, the two-phase solver
for general rows, scales rows to ints first; the library does not call it,
and the tests keep it as their reference LP solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul
from typing import Callable, List, Optional, Sequence, Tuple

from .graph import scale_to_ints

ZERO = Fraction(0)

SparseColumn = List[Tuple[int, int]]     # (row, nonzero int entry), rows ascending
# A column's rows as an itemgetter, and its entries, or None when all are 1.
Dot = Tuple[Callable[[Sequence[int]], Sequence[int]], Optional[Tuple[int, ...]]]


def _dot_of(col: SparseColumn) -> Dot:
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


class Tableau:
    """min c.x  s.t.  A x = b (b >= 0), x >= 0, with A an integer matrix.

    Column i < rows is the unit vector e_i with cost `identity_costs[i]`; these
    columns form the initial basis.  Further columns are supplied one by one.
    Costs and b may be ints or Fractions; b is scaled to ints over the lcm L
    of its denominators, and the costs over their own common denominator C.
    """

    def __init__(self, b: Sequence[Fraction], identity_costs: Sequence[Fraction]):
        self.rows = len(b)
        if len(identity_costs) != self.rows:
            raise LpError("one identity cost per row")
        self.L, self.beta = scale_to_ints(b)   # β = M . b . L
        if any(v < 0 for v in self.beta):
            raise LpError("right-hand side must be nonnegative")
        self.cols: List[SparseColumn] = [[(i, 1)] for i in range(self.rows)]
        self.dots: List[Dot] = [(itemgetter(slice(i, i + 1)), None) for i in range(self.rows)]
        self.icosts: List[int] = []            # C * cost of each column, ints
        self.C = 1                             # common denominator of the costs
        self.basis = list(range(self.rows))
        self.D = 1
        self.M = [[int(i == k) for k in range(self.rows)] for i in range(self.rows)]
        self.msum = [1] * self.rows             # the sum of each row of M
        self._pi: Optional[List[int]] = None    # C . c_B . M, once priced
        for cost in identity_costs:
            self._append_cost(cost)

    def add_column(self, col: SparseColumn, cost: Fraction) -> int:
        """Add a column of (row, nonzero int entry) pairs, the rows rising
        inside [0, rows); returns its index.  Any other raises LpError."""
        last = -1
        for i, v in col:
            if type(v) is not int:
                raise LpError("tableau columns must be integer")
            if not v or type(i) is not int or not last < i < self.rows:
                raise LpError("a column is nonzero entries on rising rows of the tableau")
            last = i
        self.cols.append(col)
        self.dots.append(_dot_of(col))
        self._append_cost(cost)
        return len(self.cols) - 1

    def generate(self, price: Callable[[List[int], int], Optional[SparseColumn]],
                 cost: Fraction) -> None:
        """Column generation: optimize, hand the undivided duals (π, s) to
        `price` and add the sparse column it returns at `cost`, until it
        returns None.  A column added before the call is known, an identity
        column is not; pricing a known column raises LpError.

        A column is added at an optimum, where no column prices below zero,
        and adding it moves neither the basis nor the duals (a rise of C
        rescales every reduced cost by the same factor).  So Bland's rule
        could pick only the new column: it alone is priced, and the simplex
        goes on from it if it enters.  Every optimum that `price` sees was
        proved by a full scan at the same basis."""
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
                self._enter(enter, red, set())
                self.optimize()

    def set_costs(self, costs: Sequence[Fraction]) -> None:
        """Replace the cost of every column."""
        if len(costs) != len(self.cols):
            raise LpError("one cost per column")
        self.icosts, self.C, self._pi = [], 1, None
        for cost in costs:
            self._append_cost(cost)

    def _append_cost(self, cost: Fraction) -> None:
        """Append an int or Fraction cost as an int over C, raising C to the
        lcm with the cost's denominator when it does not divide it."""
        den = cost.denominator
        if self.C % den:
            factor = lcm(self.C, den) // self.C
            self.C *= factor
            self.icosts = [c * factor for c in self.icosts]
            self._pi = None
        self.icosts.append(cost.numerator * (self.C // den))

    def _prices(self) -> List[int]:
        """π = C·c_B·M, so the reduced cost of column j is
        (D·C·c_j − π·A_j) / (D·C)."""
        if self._pi is None:
            pi = [0] * self.rows
            for i, j in enumerate(self.basis):
                c = self.icosts[j]
                if c:
                    pi = [p + c * m for p, m in zip(pi, self.M[i])]
            self._pi = pi
        return self._pi

    def _reduced_cost(self, j: int) -> int:
        """Column j's reduced cost times D·C."""
        get, vals = self.dots[j]
        pi = self._prices()
        return self.D * self.icosts[j] - (sum(get(pi)) if vals is None
                                          else sum(map(mul, get(pi), vals)))

    def _entering(self, forbidden: set) -> Tuple[int, int]:
        """Bland's rule: the lowest non-forbidden column of negative reduced
        cost, with that cost times D·C; (-1, 0) at an optimum."""
        pi = self._prices()
        D, icosts = self.D, self.icosts
        skip = forbidden.union(self.basis)
        for j, (get, vals) in enumerate(self.dots):
            if j in skip:
                continue
            # _reduced_cost(j), inlined, as this loop prices every column.
            r = D * icosts[j] - (sum(get(pi)) if vals is None
                                 else sum(map(mul, get(pi), vals)))
            if r < 0:
                return j, r
        return -1, 0

    def _pivot(self, row: int, alpha: List[int], red: int) -> None:
        """Edmonds' update on M, its row sums, β and π; every division by D
        must be exact, or LpError is raised.  `red` is the entering column's
        reduced cost times D·C, so that π' = (p·π + red·M_r) / D."""
        D, M, msum, beta, p = self.D, self.M, self.msum, self.beta, alpha[row]
        Mr, br, sr = M[row], beta[row], msum[row]
        pi = self._pi
        for i, a in enumerate(alpha):
            if i == row or (not a and p == D):
                continue
            Mi = M[i]
            if D == 1:
                M[i] = [p * u - a * v for u, v in zip(Mi, Mr)]
                msum[i] = p * msum[i] - a * sr
                beta[i] = p * beta[i] - a * br
                continue
            new = [(p * u - a * v) // D for u, v in zip(Mi, Mr)]
            total = sum(new)
            b_new, b_rem = divmod(p * beta[i] - a * br, D)
            # Floor division leaves nonnegative remainders (D > 0), so they
            # are all zero exactly when the row's sums agree.
            if p * msum[i] - a * sr != D * total or b_rem:
                raise LpError("inexact division in an integer pivot")
            M[i], msum[i], beta[i] = new, total, b_new
        if D == 1:
            pi = [p * u + red * v for u, v in zip(pi, Mr)]
        else:
            new = [(p * u + red * v) // D for u, v in zip(pi, Mr)]
            if sum(new) * D != p * sum(pi) + red * sr:
                raise LpError("inexact division in an integer pivot")
            pi = new
        self._pi = pi
        if p < 0:
            # Keep D = |det B| > 0 by negating M, its sums, β and π with it.
            self.M = [[-u for u in Mi] for Mi in M]
            self.msum = [-u for u in msum]
            self.beta = [-b for b in beta]
            self._pi = [-u for u in pi]
            p = -p
        self.D = p

    def _enter(self, enter: int, red: int, forbidden: set) -> None:
        """One simplex step: column `enter`, of reduced cost `red` (times
        D·C) below zero, enters the basis.

        A forbidden column that is basic at zero (an artificial after phase
        1) stays at zero: a step that would raise it makes it leave instead,
        in a degenerate pivot on its negative entry."""
        get, vals = self.dots[enter]
        if vals is None:
            alpha = [sum(get(Mi)) for Mi in self.M]
        else:
            alpha = [sum(map(mul, get(Mi), vals)) for Mi in self.M]
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
        if forbidden and (leave_row < 0 or beta[leave_row]):
            stuck = [i for i, a in enumerate(alpha) if a < 0 and not beta[i]
                     and basis[i] in forbidden]
            if stuck:
                leave_row = min(stuck, key=lambda i: basis[i])
        if leave_row < 0:
            raise Unbounded("unbounded LP")
        self._pivot(leave_row, alpha, red)
        basis[leave_row] = enter

    def optimize(self, forbidden: Optional[set] = None) -> None:
        """Primal simplex with Bland's rule; `forbidden` columns never enter,
        and one basic at zero stays at zero (see `_enter`)."""
        forbidden = forbidden or set()
        while True:
            enter, red = self._entering(forbidden)
            if enter < 0:
                return
            self._enter(enter, red, forbidden)

    def int_obj(self) -> Tuple[int, int]:
        """c_B . x_B undivided: (z, s) with the objective z / s and s = C·D·L > 0."""
        total = sum(self.icosts[j] * self.beta[i] for i, j in enumerate(self.basis))
        return total, self.C * self.D * self.L

    @property
    def obj(self) -> Fraction:
        """c_B . x_B of the current basic solution."""
        return Fraction(*self.int_obj())

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

    def duals(self) -> List[Fraction]:
        """y = c_B B⁻¹, one per row."""
        pi, s = self.int_duals()
        return [Fraction(p, s) for p in pi]

    def int_duals(self) -> Tuple[List[int], int]:
        """The duals undivided: (π, s) with y = π / s and s = C·D > 0."""
        return list(self._prices()), self.C * self.D


@dataclass
class LpSolution:
    value: Fraction
    x: List[Fraction]
    duals: List[Fraction]


def solve_lp(c: Sequence[Fraction],
             rows: Sequence[Tuple[Sequence[Fraction], str, Fraction]]) -> LpSolution:
    """min c.x  s.t.  each row (a, sense, rhs) with sense in <=, >=, =; x >= 0.

    Two-phase simplex; duals are reported per input row (sign convention:
    reduced cost of original column j is c_j - sum_i y_i a_ij).
    """
    nvars = len(c)
    m = len(rows)
    # Normalize to a_i . x (+ slack) = b_i with b_i >= 0 and a_i integer: a
    # row with fractional coefficients is multiplied by their common
    # denominator s, its dual divided by s.
    norm = []
    for a, sense, rhs in rows:
        rhs = Fraction(rhs)
        sign = 1
        if rhs < 0:
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
            sign = -1
        s, ints = scale_to_ints(a)                           # ints or Fractions
        norm.append(([sign * v for v in ints], sense, rhs * (sign * s), sign, s))

    # Identity block: slack where possible, artificial (phase 1 cost)
    # otherwise.  The artificial of a row scaled by s stands for s times the
    # unscaled one, so it costs 1/s.
    tab = Tableau([rhs for _, _, rhs, _, _ in norm],
                  [ZERO if sense == "<=" else Fraction(1, s) for _, sense, _, _, s in norm])
    artificials = {i for i, (_, sense, _, _, _) in enumerate(norm) if sense != "<="}
    for j in range(nvars):
        tab.add_column([(i, a[j]) for i, (a, _, _, _, _) in enumerate(norm) if a[j]], ZERO)
    for i, (_, sense, _, _, s) in enumerate(norm):
        if sense == ">=":
            tab.add_column([(i, -s)], ZERO)
    tab.optimize()
    if tab.obj != 0:
        raise Infeasible("infeasible LP")
    # Phase 2: the true objective on the structural columns, zero elsewhere.
    tab.set_costs([ZERO] * m + list(c) + [ZERO] * (len(tab.cols) - m - nvars))
    tab.optimize(forbidden=artificials)
    y = [sign * s * v for (_, _, _, sign, s), v in zip(norm, tab.duals())]
    return LpSolution(value=tab.obj, x=tab.solution()[m:m + nvars], duals=y)
