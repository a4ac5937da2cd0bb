"""Exact rational simplex (Bland's rule) with incremental column addition.

Everything is a fractions.Fraction; there is no floating point anywhere.
One `Tableau` serves every LP: it is built on its identity basis (a slack or
an artificial per row) and keeps that block, so the basis inverse is always
available for pricing new columns and reading off duals.  `set_costs`
reprices every column (phase 2 of `solve_lp`); the column generation loop of
`decompose` adds columns to the same tableau.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

ZERO = Fraction(0)
ONE = Fraction(1)


class LpError(RuntimeError):
    pass


class Infeasible(LpError):
    pass


class Unbounded(LpError):
    pass


class Tableau:
    """min c.x  s.t.  A x = b (b >= 0), x >= 0.

    Column i < rows is the unit vector e_i with cost `identity_costs[i]`; these
    columns form the initial basis.  Further columns are supplied one by one.
    """

    def __init__(self, b: Sequence[Fraction], identity_costs: Sequence[Fraction]):
        self.rows = len(b)
        self.b = [Fraction(v) for v in b]
        if any(v < 0 for v in self.b):
            raise LpError("right-hand side must be nonnegative")
        self.cols: List[List[Fraction]] = []   # tableau representation B^-1 A_j
        self.costs: List[Fraction] = []
        self.red: List[Fraction] = []          # reduced costs
        self.basis: List[int] = []
        self.obj = ZERO
        for i, cost in enumerate(identity_costs):
            col = [ZERO] * self.rows
            col[i] = ONE
            self.add_column(col, cost)
        self.basis = list(range(self.rows))
        self.set_costs(self.costs)

    def add_column(self, col: Sequence[Fraction], cost: Fraction) -> int:
        """Add a column given in ORIGINAL coordinates; returns its index."""
        if self.basis:
            rep = self._apply_basis_inverse(col)
        else:                                  # the identity block, in __init__
            rep = [Fraction(v) for v in col]
        self.cols.append(rep)
        self.costs.append(Fraction(cost))
        self.red.append(self._reduced_cost(self.costs[-1], rep))
        return len(self.cols) - 1

    def set_costs(self, costs: Sequence[Fraction]) -> None:
        """Replace the cost of every column and reprice against the basis."""
        if len(costs) != len(self.cols):
            raise LpError("one cost per column")
        self.costs = [Fraction(c) for c in costs]
        self.red = [self._reduced_cost(c, rep) for c, rep in zip(self.costs, self.cols)]
        self.obj = sum((self.costs[j] * self.b[i] for i, j in enumerate(self.basis)), ZERO)

    def _reduced_cost(self, cost: Fraction, rep: Sequence[Fraction]) -> Fraction:
        # c_j - c_B . B^-1 A_j
        r = cost
        for i, bi in enumerate(self.basis):
            r -= self.costs[bi] * rep[i]
        return r

    def _apply_basis_inverse(self, col: Sequence[Fraction]) -> List[Fraction]:
        # The first `rows` columns started as the identity, so their current
        # tableau entries are B^-1.
        out = [ZERO] * self.rows
        for j, v in enumerate(col):
            if v:
                inv_col = self.cols[j]
                for i in range(self.rows):
                    if inv_col[i]:
                        out[i] += v * inv_col[i]
        return out

    def _pivot(self, row: int, col: int) -> None:
        piv = self.cols[col][row]
        if piv == 0:
            raise LpError("zero pivot")
        inv = ONE / piv
        for c in self.cols:
            c[row] *= inv
        self.b[row] *= inv
        pivot_row_cols = [j for j in range(len(self.cols)) if self.cols[j][row]]
        for i in range(self.rows):
            if i == row:
                continue
            factor = self.cols[col][i]
            if factor:
                for j in pivot_row_cols:
                    self.cols[j][i] -= factor * self.cols[j][row]
                self.b[i] -= factor * self.b[row]
        rfac = self.red[col]
        if rfac:
            for j in pivot_row_cols:
                self.red[j] -= rfac * self.cols[j][row]
            self.obj += rfac * self.b[row]
        self.basis[row] = col

    def optimize(self, forbidden: Optional[set] = None) -> None:
        """Primal simplex with Bland's rule; `forbidden` columns never enter."""
        forbidden = forbidden or set()
        while True:
            enter = -1
            for j in range(len(self.cols)):
                if j in forbidden:
                    continue
                if self.red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave_row = -1
            best: Optional[Fraction] = None
            for i in range(self.rows):
                a = self.cols[enter][i]
                if a > 0:
                    ratio = self.b[i] / a
                    if best is None or ratio < best or (
                            ratio == best and self.basis[i] < self.basis[leave_row]):
                        best = ratio
                        leave_row = i
            if leave_row < 0:
                raise Unbounded("unbounded LP")
            self._pivot(leave_row, enter)

    def solution(self) -> List[Fraction]:
        """The value of every column in the current basic solution."""
        x = [ZERO] * len(self.cols)
        for i, j in enumerate(self.basis):
            x[j] = self.b[i]
        return x

    def duals(self) -> List[Fraction]:
        """y_i from the reduced cost of the identity column e_i of row i."""
        # r_i = c_i - y . e_i
        return [self.costs[i] - self.red[i] for i in range(self.rows)]


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
    # Normalize to a_i . x (+ slack) = b_i with b_i >= 0.
    norm = []
    for a, sense, rhs in rows:
        a = [Fraction(v) for v in a]
        rhs = Fraction(rhs)
        sign = 1
        if rhs < 0:
            a = [-v for v in a]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
            sign = -1
        norm.append((a, sense, rhs, sign))

    # Identity block: slack where possible, artificial (phase 1 cost) otherwise.
    tab = Tableau([rhs for _, _, rhs, _ in norm],
                  [ZERO if sense == "<=" else ONE for _, sense, _, _ in norm])
    artificials = {i for i, (_, sense, _, _) in enumerate(norm) if sense != "<="}
    for j in range(nvars):
        tab.add_column([a[j] for a, _, _, _ in norm], ZERO)
    for i, (_, sense, _, _) in enumerate(norm):
        if sense == ">=":
            col = [ZERO] * m
            col[i] = -ONE
            tab.add_column(col, ZERO)
    tab.optimize()
    if tab.obj != 0:
        raise Infeasible("infeasible LP")
    # Phase 2: the true objective on the structural columns, zero elsewhere.
    tab.set_costs([ZERO] * m + list(c) + [ZERO] * (len(tab.cols) - m - nvars))
    tab.optimize(forbidden=artificials)
    y = [sign * v for (_, _, _, sign), v in zip(norm, tab.duals())]
    return LpSolution(value=tab.obj, x=tab.solution()[m:m + nvars], duals=y)
