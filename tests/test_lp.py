from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unicover.families import (k4, k5, k33, petersen, prism, random_cubic_3ec,
                               random_node_weights, random_subcubic_2ec)
from unicover.graph import GraphError, NodeWeights, cut_edges, one_edge_cuts
from unicover.lp import (LpInputError, everywhere, initial_shores, membership, min_cut,
                         solve_subtour)
from unicover import decompose, serialize
from unicover import lp as lp_layer
from unicover.covers import uniform_cover
from unicover.simplex import Infeasible, LpError, Tableau, Unbounded, solve_lp
from unicover.verify import verify_document

import test_golden as golden
from conftest import (PIVOT_CAP, brute_force_min_cut, brute_force_subtour,
                      dict_scan_min_cut, fraction_tableau_state, lp_over_cuts, make_graph,
                      reweighted)

F = Fraction


class TestSimplex:
    def test_basic_minimum(self):
        sol = solve_lp([F(1), F(1)], [([F(1), F(1)], ">=", F(2))])
        assert sol.value == 2

    def test_equality_and_inequality(self):
        sol = solve_lp([F(2), F(3)],
                       [([F(1), F(1)], "=", F(5)), ([F(1), F(-1)], ">=", F(1))])
        assert sol.value == 10
        assert sol.x == [F(5), F(0)]

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([F(1)], [([F(1)], "<=", F(1)), ([F(1)], ">=", F(2))])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([F(-1)], [([F(-1)], "<=", F(0))])

    def test_duals_certify_optimum(self):
        rows = [([F(1), F(2)], ">=", F(4)), ([F(3), F(1)], ">=", F(6))]
        c = [F(5), F(4)]
        sol = solve_lp(c, rows)
        # Weak duality at equality: y >= 0 for >= rows and y.b == value.
        assert all(y >= 0 for y in sol.duals)
        assert sum(y * r[2] for y, r in zip(sol.duals, rows)) == sol.value

    def test_mixed_senses_and_negative_rhs(self):
        # The first row is stored negated (x1 + x2 >= 2), so its dual comes
        # back with the sign flipped.
        rows = [([F(-1), F(-1)], "<=", F(-2)), ([F(1), F(0)], "<=", F(3)),
                ([F(0), F(1)], "=", F(1))]
        sol = solve_lp([F(1), F(2)], rows)
        assert sol.value == 3
        assert sol.x == [F(1), F(1)]
        assert sol.duals == [F(-1), F(0), F(1)]
        assert sum(y * r[2] for y, r in zip(sol.duals, rows)) == sol.value


    def test_artificial_basic_at_zero_stays_at_zero(self):
        # Phase 1 leaves the artificial of x >= 1 basic at zero; leaving x
        # for the slack in phase 2 would raise it to 1.
        sol = solve_lp([F(1)], [([F(1)], "<=", F(1)), ([F(1)], ">=", F(1))])
        assert sol.value == 1 and sol.x == [F(1)]

    def test_rejects_fractional_tableau_column(self):
        tab = Tableau([F(1)], [0])
        with pytest.raises(LpError, match="integer"):
            tab.add_column([(0, F(1, 2))], -1)

    @pytest.mark.parametrize("cost", [F(1), F(1, 2), True, 1.0])
    def test_rejects_a_cost_that_is_not_an_int(self, cost):
        with pytest.raises(LpError, match="tableau costs must be integer"):
            Tableau([F(1), F(1)], [0, cost])
        tab = Tableau([F(1), F(1)], [0, 0])
        with pytest.raises(LpError, match="tableau costs must be integer"):
            tab.add_column([(0, 1)], cost)
        with pytest.raises(LpError, match="tableau costs must be integer"):
            tab.generate(_pricer([(0, 1)]), cost)
        assert len(tab.cols) == len(tab.icosts) == 2

    @pytest.mark.parametrize("col", [
        [(2, 1)],                   # a row past the last, once a late IndexError
        [(0, 1), (0, 1)],           # a repeated row
        [(1, 1), (0, 1)],           # descending rows
        [(-1, 1)],                  # a row before the first
        [(0, 0)],                   # a zero entry
        [(0, 1), (1, 0)],
        [(0.5, 1)],                 # a row that is not an int
        [(0, 1), (1, 2), (2, 1)],   # a dense column of one entry per row, and more
    ])
    def test_rejects_a_column_outside_the_sparse_format(self, col):
        tab = Tableau([F(1), F(1)], [0, 0])
        with pytest.raises(LpError, match="rising rows"):
            tab.add_column(col, -1)
        assert len(tab.cols) == 2

    @pytest.mark.parametrize("entry", [F(2), True, 1.0])
    def test_rejects_an_entry_that_is_not_an_int(self, entry):
        tab = Tableau([F(1), F(1)], [0, 0])
        with pytest.raises(LpError, match="tableau columns must be integer"):
            tab.add_column([(0, 1), (1, entry)], -1)

    def test_pivot_rejects_an_inexact_row_update(self):
        # With D = 2 tampered in, row 1 becomes (M_1 - M_0) / 2 = (-1, 1) / 2:
        # both floor remainders are 1, though the numerators sum to 0, so a
        # divisibility test of that sum alone would pass.  The π update,
        # (π + 0·M_0) / 2 = 0, would be exact.
        tab = Tableau([F(1), F(1)], [0, 0])
        tab.D = 2
        with pytest.raises(LpError, match="inexact division"):
            tab._pivot(0, [1, 1], 0)

    def test_pivot_rejects_a_lane_that_divides_only_through_carries(self):
        # One pivot on p = 2 leaves D = 2 and M = ((1, 0), (-1, 2)).  The
        # column (1, 1) then has α = (1, 1), and a pivot on its row 0
        # divides both columns of M by D.  Column 1's numerator is
        # 1·(0, 2) − M_01·Ã = (0, 2), as M_01 = 0.  Adding 1 to M_11 makes
        # its lane 1 odd, but lane 0 stays 0, so the packed numerator
        # 3·2^W is still even: only the bound on the quotient's lanes can
        # catch it.
        def after_one_pivot():
            tab = Tableau([F(1), F(1)], [0, 0])
            tab.add_column([(0, 2), (1, 1)], -1)
            tab.optimize()
            assert (tab.D, tab.kernel.matrix()) == (2, [[1, 0], [-1, 2]])
            return tab, tab.add_column([(0, 1), (1, 1)], -1)

        tab, j = after_one_pivot()
        tab._pivot(0, [1, 1], tab._reduced_cost(j))
        assert (tab.D, tab.kernel.matrix()) == (1, [[1, 0], [-1, 1]])
        tab, j = after_one_pivot()
        tab.kernel.cols[1] += 1 << tab.kernel.width
        assert tab.kernel.matrix() == [[1, 0], [-1, 3]]
        assert tab.kernel.cols[1] % tab.D == 0
        with pytest.raises(LpError, match="inexact division"):
            tab._pivot(0, [1, 1], tab._reduced_cost(j))

    def test_pivot_rejects_an_inexact_dual_update(self):
        # One row, so no row update; with D = 2 tampered in, π becomes
        # (2·0 + 1·1) / 2.
        tab = Tableau([F(1)], [0])
        tab.D = 2
        with pytest.raises(LpError, match="inexact division"):
            tab._pivot(0, [2], 1)


    def test_one_identity_cost_per_row(self):
        with pytest.raises(LpError, match="one identity cost per row"):
            Tableau([F(1), F(2)], [0])

    def test_rejects_a_negative_right_hand_side(self):
        with pytest.raises(LpError, match="nonnegative"):
            Tableau([F(1), F(-1, 3)], [0, 0])


def _pricer(*columns):
    """A pricing step that returns the columns in turn, then None."""
    queue = list(columns)
    return lambda pi, s: queue.pop(0) if queue else None


class TestGenerate:
    """Tableau.generate on max y1 + y2 s.t. y <= (1, 1), in slack form."""

    def test_a_repeated_column_raises(self):
        tab = Tableau([F(1), F(1)], [0, 0])
        with pytest.raises(LpError, match="pricing returned a known column"):
            tab.generate(_pricer([(0, 1), (1, 1)], [(0, 1), (1, 1)]), -1)

    def test_a_column_equal_to_an_identity_column_is_accepted(self):
        # A one-edge T-join has the column of its edge row's slack.
        tab = Tableau([F(1), F(1)], [0, 0])
        tab.generate(_pricer([(0, 1)], [(1, 1)]), -1)
        assert tab.cols[2:] == [[(0, 1)], [(1, 1)]]
        assert F(*tab.int_obj()) == -2 and tab.solution()[2:] == [1, 1]

    def test_a_column_added_before_the_loop_is_known(self):
        tab = Tableau([F(1), F(1)], [0, 0])
        tab.add_column([(0, 1), (1, 1)], -1)
        with pytest.raises(LpError, match="pricing returned a known column"):
            tab.generate(_pricer([(0, 1), (1, 1)]), -1)


@given(st.lists(st.one_of(st.builds(F, st.integers(0, 30), st.integers(1, 12)),
                          st.integers(0, 30)), max_size=8), st.data())
@settings(max_examples=300, deadline=None)
def test_tableau_starts_from_the_fraction_state(b, data):
    # b mixes ints and Fractions over denominators 1-12.
    costs = data.draw(st.lists(st.integers(-30, 30), min_size=len(b), max_size=len(b)))
    tab = Tableau(b, costs)
    assert (tab.L, tab.beta, tab.icosts, tab.cols) == fraction_tableau_state(b, costs)
    # M = I, so π = c_B·M is the identity costs before any pivot.
    assert tab._pi == costs
    assert all(type(v) is int for v in [tab.L, *tab.beta, *tab.icosts])


def fraction_inverse(B):
    """B⁻¹ of a square Fraction matrix, by Gauss-Jordan elimination."""
    m = len(B)
    A = [[F(v) for v in row] + [F(int(i == k)) for k in range(m)] for i, row in enumerate(B)]
    for c in range(m):
        r = next(r for r in range(c, m) if A[r][c])
        A[c], A[r] = A[r], A[c]
        A[c] = [v / A[c][c] for v in A[c]]
        for r in range(m):
            if r != c and A[r][c]:
                A[r] = [v - A[r][c] * w for v, w in zip(A[r], A[c])]
    return [row[m:] for row in A]


@given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6), min_size=1,
                max_size=5), st.data())
@settings(max_examples=200, deadline=None)
def test_a_d1_pivot_is_the_fraction_update(b, data):
    # From the identity basis (D = 1) one pivot on a positive entry forms
    # its rows with no division.  Against the Fraction state: D' = det B'
    # and M' = D'·B'⁻¹, with β' = M'·(L·b) and π' = c_B'·M'.
    m = len(b)
    costs = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    col = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)
                    .filter(lambda c: max(c) > 0))
    row = data.draw(st.sampled_from([i for i, v in enumerate(col) if v > 0]))
    cost = data.draw(st.integers(-5, 5))
    L, beta, icosts, _ = fraction_tableau_state(b, costs)
    tab = Tableau(b, costs)
    j = tab.add_column([(i, v) for i, v in enumerate(col) if v], cost)
    tab._pivot(row, list(col), tab._reduced_cost(j))
    tab.basis[row] = j
    B = [[F(int(i == k)) for k in range(m)] for i in range(m)]
    for i in range(m):
        B[i][row] = F(col[i])
    D = col[row]
    M = [[D * v for v in r] for r in fraction_inverse(B)]
    basic_costs = icosts[:row] + [cost] + icosts[row + 1:]
    assert tab.D == D
    assert tab.kernel.matrix() == M
    assert tab.beta == [sum(v * w for v, w in zip(r, beta)) for r in M]
    assert tab._pi == [sum(c * r[k] for c, r in zip(basic_costs, M)) for k in range(m)]


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def feasible_bounded_lp(draw):
    """Rows of mixed sense built around a point x0 >= 0 that meets them all,
    plus sum(x) <= U, so the LP has an optimum whatever the sign of c."""
    nvars = draw(st.integers(1, 4))
    x0 = [draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
          for _ in range(nvars)]
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        a = [draw(small_fraction) for _ in range(nvars)]
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        slack = draw(st.fractions(min_value=0, max_value=2, max_denominator=5))
        ax = sum((ai * xi for ai, xi in zip(a, x0)), F(0))
        rows.append((a, sense, ax + {"<=": slack, ">=": -slack, "=": 0}[sense]))
    rows.insert(draw(st.integers(0, len(rows))),
                ([F(1)] * nvars, "<=", sum(x0, F(0)) + draw(st.integers(0, 2))))
    c = [draw(small_fraction) for _ in range(nvars)]
    return c, rows


@given(feasible_bounded_lp())
@settings(max_examples=300, deadline=None)
def test_solve_lp_certifies_its_optimum(lp):
    c, rows = lp
    sol = solve_lp(c, rows)
    # Primal feasibility.
    assert all(v >= 0 for v in sol.x)
    for a, sense, rhs in rows:
        ax = sum((ai * xi for ai, xi in zip(a, sol.x)), F(0))
        assert {"<=": ax <= rhs, ">=": ax >= rhs, "=": ax == rhs}[sense]
    assert sum((ci * xi for ci, xi in zip(c, sol.x)), F(0)) == sol.value
    # Dual feasibility: y_i <= 0 on <= rows, >= 0 on >= rows, and every
    # reduced cost c_j - sum_i y_i a_ij is nonnegative.
    for y, (_, sense, _) in zip(sol.duals, rows):
        assert {"<=": y <= 0, ">=": y >= 0, "=": True}[sense]
    for j, cj in enumerate(c):
        assert cj - sum((y * a[j] for y, (a, _, _) in zip(sol.duals, rows)), F(0)) >= 0
    # Strong duality, which with the two above proves optimality.
    assert sum((y * rhs for y, (_, _, rhs) in zip(sol.duals, rows)), F(0)) == sol.value


@st.composite
def kernel_lp(draw):
    """An LP of one of the two shapes the library builds, over random
    distinct int columns: "<=" rows over a slack basis with int costs, or
    "=" rows over an artificial basis with zero column costs.  b >= 0, and
    is often 0, so degenerate pivots are common.  The columns from index
    `split` on share one cost, so `run_kernel` can generate them.  Returns
    (shape, b, columns, costs, split), each column dense."""
    m = draw(st.integers(1, 4))
    b = draw(st.lists(st.one_of(st.just(F(0)), st.fractions(0, 4, max_denominator=4)),
                      min_size=m, max_size=m))
    cols = draw(st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                         min_size=1, max_size=6, unique_by=tuple))
    split = draw(st.integers(0, len(cols)))
    shape = draw(st.sampled_from(["slack", "artificial"]))
    if shape == "slack":
        costs = draw(st.lists(st.integers(-4, 4), min_size=split, max_size=split))
        costs += [draw(st.integers(-4, 0))] * (len(cols) - split)
    else:
        costs = [0] * len(cols)
    return shape, b, cols, costs, split


def _sparse(col):
    return [(i, v) for i, v in enumerate(col) if v]


def run_kernel(cls, shape, b, cols, costs, split):
    """A `cls` Tableau of the kernel_lp: the columns before `split` added,
    the rest handed to `generate` in turn at their shared cost."""
    tab = cls(b, [0 if shape == "slack" else 1] * len(b))
    for col, cost in zip(cols[:split], costs[:split]):
        tab.add_column(_sparse(col), cost)
    tab.generate(_pricer(*map(_sparse, cols[split:])), costs[-1] if costs[split:] else 0)
    return tab


def reference_lp(shape, b, cols, costs):
    """The same LP for solve_lp: the rows as "<=" or "=", and the costs."""
    sense = "<=" if shape == "slack" else "="
    return costs, [([col[i] for col in cols], sense, b[i]) for i in range(len(b))]


def assert_kernel_optimum(tab, shape, b, cols, costs):
    """tab is at the optimum solve_lp finds: the same value for a slack
    basis, and for an artificial basis a zero phase 1 value exactly when
    the rows are feasible."""
    try:
        want = solve_lp(*reference_lp(shape, b, cols, costs))
    except Infeasible:
        assert shape == "artificial" and tab.int_obj()[0] > 0
        return
    if shape == "slack":
        assert F(*tab.int_obj()) == want.value
    else:
        assert tab.int_obj()[0] == 0


class CheckedTableau(Tableau):
    """A Tableau that checks its undivided duals after every optimize: π
    prices every basic column at its cost and no column below it (s = D,
    so s·c_j = D·c_j)."""
    checked = 0

    def optimize(self):
        super().optimize()
        pi, s = self.int_duals()
        assert s > 0 and all(type(p) is int for p in pi)
        for j, col in enumerate(self.cols):
            priced = sum(pi[i] * v for i, v in col)
            if j in self.basis:
                assert priced == self.D * self.icosts[j]
            else:
                assert priced <= self.D * self.icosts[j]
        CheckedTableau.checked += 1


@given(kernel_lp())
@settings(max_examples=200, deadline=None)
def test_int_duals_undivided_equal_duals(lp):
    before = CheckedTableau.checked
    try:
        tab = run_kernel(CheckedTableau, *lp)
    except Unbounded:
        with pytest.raises(Unbounded):
            solve_lp(*reference_lp(*lp[:4]))
        return
    assert CheckedTableau.checked > before
    assert_kernel_optimum(tab, *lp[:4])


@given(kernel_lp())
@settings(max_examples=300, deadline=None)
def test_tableau_follows_solve_lp(lp):
    # Degenerate LPs with several optimal vertices are common here, so the
    # returned vertex pins the pivot path, not just the optimum.  With every
    # column added before the simplex runs, the kernel's columns are
    # solve_lp's in the same order, and on these shapes phase 1 of solve_lp
    # is the kernel's run (artificial basis) or makes no pivot (slack basis).
    shape, b, cols, costs, _ = lp
    assert_follows_solve_lp(Tableau, shape, b, cols, costs)


def assert_follows_solve_lp(cls, shape, b, cols, costs):
    """A `cls` Tableau with every column added before the simplex runs
    returns solve_lp's vertex, value and duals, or its exception."""
    lp = shape, b, cols, costs, len(cols)
    try:
        want = solve_lp(*reference_lp(shape, b, cols, costs))
    except Unbounded:
        with pytest.raises(Unbounded):
            run_kernel(cls, *lp)
        return
    except Infeasible:
        want = None
    tab = run_kernel(cls, *lp)
    if want is None:
        assert shape == "artificial" and tab.int_obj()[0] > 0
    elif shape == "slack":
        pi, s = tab.int_duals()
        assert (tab.solution()[tab.rows:], F(*tab.int_obj()), [F(p, s) for p in pi]) == (
            want.x, want.value, want.duals)
    else:
        assert (tab.solution()[tab.rows:], tab.int_obj()[0]) == (want.x, 0)


class KernelCheckedTableau(Tableau):
    """A Tableau that checks the state it keeps: after every pivot,
    M·B = D·I for the basis columns B, π = c_B·M, and every entry of M lies
    within the kernel's bound; and each one-column entering check of
    `generate` returns what a full Bland scan would."""
    pivots = 0
    column_checks = 0

    def _enter(self, enter, red):
        super()._enter(enter, red)
        M, D = self.kernel.matrix(), self.D
        for k, j in enumerate(self.basis):
            assert [sum(Mi[r] * v for r, v in self.cols[j]) for Mi in M] == [
                D * (i == k) for i in range(self.rows)]
        assert self._pi == [sum(self.icosts[j] * M[i][k] for i, j in enumerate(self.basis))
                            for k in range(self.rows)]
        assert all(abs(v) <= self.kernel.bound for Mi in M for v in Mi)
        KernelCheckedTableau.pivots += 1

    def _reduced_cost(self, j):
        red = super()._reduced_cost(j)
        assert self._entering() == ((j, red) if red < 0 else (-1, 0))
        KernelCheckedTableau.column_checks += 1
        return red


@given(kernel_lp())
@settings(max_examples=200, deadline=None)
def test_kernel_state_follows_the_basis_on_random_lps(lp):
    try:
        tab = run_kernel(KernelCheckedTableau, *lp)
    except Unbounded:
        with pytest.raises(Unbounded):
            solve_lp(*reference_lp(*lp[:4]))
        return
    assert_kernel_optimum(tab, *lp[:4])


@pytest.mark.parametrize("scale, bits", [(2 ** 16, 30), (2 ** 32, 62)])
def test_wide_adjugate_entries_follow_solve_lp(scale, bits):
    # B = ((s, 0, 1), (1, s, 0), (0, 1, s)) has det s³ + 1 and adjugate
    # entries up to s², past 2^bits; every column enters.  So the lanes
    # widen, the second time past 128 bits.
    b, cols = [F(1)] * 3, [[scale, 1, 0], [0, scale, 1], [1, 0, scale]]
    tab = run_kernel(KernelCheckedTableau, "slack", b, cols, [-1] * 3, 3)
    assert tab.basis == [3, 4, 5]
    assert max(abs(v) for row in tab.kernel.matrix() for v in row) > 2 ** bits
    assert tab.kernel.width > 64
    want = solve_lp(*reference_lp("slack", b, cols, [-1] * 3))
    pi, s = tab.int_duals()
    assert (tab.solution()[3:], F(*tab.int_obj()), [F(p, s) for p in pi]) == (
        want.x, want.value, want.duals)


@given(kernel_lp(), st.data())
@settings(max_examples=200, deadline=None)
def test_tableau_follows_solve_lp_on_wide_columns(lp, data):
    # test_tableau_follows_solve_lp with each column scaled by up to 2^70,
    # so that D and the entries of M outgrow 64-bit lanes; the kernel's
    # state is checked after every pivot.
    shape, b, cols, costs, _ = lp
    scales = data.draw(st.lists(st.integers(1, 2 ** 70), min_size=len(cols),
                                max_size=len(cols)))
    cols = [[v * k for v in col] for col, k in zip(cols, scales)]
    assert_follows_solve_lp(KernelCheckedTableau, shape, b, cols, costs)


def test_a_cycling_optimize_fails_at_the_session_pivot_cap():
    # An entering rule that always offers the nonbasic one of two equal
    # columns pivots forever; conftest's cap turns that into a failure.
    class Cycling(Tableau):
        def _entering(self):
            return (2 if self.basis[0] == 1 else 1), -1

    tab = Cycling([F(1)], [0])
    tab.add_column([(0, 1)], -1)
    tab.add_column([(0, 1)], -1)
    with pytest.raises(AssertionError, match=f"more than {PIVOT_CAP} pivots"):
        tab.optimize()


def test_kept_state_holds_on_the_golden_masters(monkeypatch):
    # Every master of the golden corpus: the covers (their spanning tree,
    # tour and 1-cover packings), the golden T-join packing, the beta rows'
    # connector masters and the subtour LPs under all of them, with the
    # digests unchanged.
    for module in (lp_layer, decompose):
        monkeypatch.setattr(module, "Tableau", KernelCheckedTableau)
    pivots, checks = KernelCheckedTableau.pivots, KernelCheckedTableau.column_checks
    for variant, family, sha in golden.COVERS:
        G = family()
        assert golden.digest(serialize.certificate_to_json(G, uniform_cover(G, variant))) == sha
    assert golden.tjoin_packing()
    for _, build, sha in golden.APPROX:
        assert golden.digest(build()) == sha
    assert KernelCheckedTableau.pivots > pivots
    assert KernelCheckedTableau.column_checks > checks


class TestMinCut:
    def test_k4_fractional(self):
        value, shore = min_cut(k4(), everywhere(k4(), F(2, 3)))
        assert value == 2 and len(shore) in (1, 3)

    def test_c4_all_ones(self, c4):
        value, _ = min_cut(c4, everywhere(c4, F(1)))
        assert value == 2

    def test_petersen_two_fifths(self):
        value, _ = min_cut(petersen(), everywhere(petersen(), F(2, 5)))
        assert value == F(6, 5)

    def test_matches_brute_force_on_corpus(self, two_triangles):
        for g in [k4(), k33(), prism(), two_triangles, k5()]:
            cap = {e.id: F(1 + (e.id % 3), 2) for e in g.edges}
            assert min_cut(g, cap)[0] == brute_force_min_cut(g, cap)[0]

    def test_int_capacities_give_a_fraction(self, two_triangles):
        for g in [k4(), petersen(), prism(), two_triangles, random_cubic_3ec(12, 4)]:
            cap = {e.id: 1 + e.id % 3 for e in g.edges}
            value, shore = min_cut(g, cap)
            assert type(value) is Fraction
            assert value == brute_force_min_cut(g, cap)[0]
            assert value == sum(cap[eid] for eid in cut_edges(g, shore))

    def test_rejects_negative_capacity(self):
        with pytest.raises(LpInputError):
            min_cut(k4(), {0: F(-1)})


class TestMembership:
    def test_violated_cut_reported(self):
        g = petersen()
        res = membership(g, everywhere(g, F(1, 2)))
        assert not res.inside and res.value == F(3, 2) and res.shore

    def test_cover_of_spanning_tree(self):
        # y = 1/2 off the star at vertex 0 of K4 meets each of the star's
        # three 1-edge cuts with exactly 1.
        g = k4()
        tree = {e.id: 1 for e in g.edges if 0 in (e.u, e.v)}
        y = {e.id: F(1, 2) for e in g.edges if e.id not in tree}
        cuts = one_edge_cuts(g, tree)
        assert sorted(bridge for _, bridge in cuts) == sorted(tree)
        for shore, bridge in cuts:
            crossing = cut_edges(g, shore)
            assert crossing & set(tree) == {bridge}
            assert sum(y.get(eid, F(0)) for eid in crossing) == 1

    def test_one_edge_cuts_reject_a_disconnected_connector(self):
        # A triangle 0-1-2 and the edge 3-4, with e4 = 2-3 unused: no edge of
        # F is a bridge of a connected F, so none may be listed.
        g = make_graph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (2, 3)])
        with pytest.raises(GraphError, match="F is not connected"):
            one_edge_cuts(g, {0: 1, 1: 1, 2: 1, 3: 2})

    def test_negative_entry_rejected(self):
        res = membership(k4(), {0: F(-1)})
        assert not res.inside and "negative" in res.detail


class TestSolveSubtour:
    def test_k4_unit(self):
        res = solve_subtour(k4())
        assert res.value == 4
        assert membership(k4(), res.x).inside

    def test_c4_forced_integral(self, c4):
        res = solve_subtour(c4)
        assert res.value == 4
        assert res.x == everywhere(c4, F(1))

    def test_matches_brute_force_small(self, two_triangles):
        for g in [k4(), k33(), prism(), k5(), two_triangles]:
            assert solve_subtour(g).value == brute_force_subtour(g)

    def test_node_weighted_identity(self):
        for seed in range(3):
            g = random_cubic_3ec(8, seed)
            f = NodeWeights(tuple(F(seed + i + 1, 2) for i in range(8)))
            gw = f.induced_graph(g)
            assert solve_subtour(gw).value == 2 * f.total()

    def test_scaling_invariance(self):
        g = prism()
        base = solve_subtour(g).value
        scaled = reweighted(g, {e.id: e.weight * F(7, 3) for e in g.edges})
        assert solve_subtour(scaled).value == base * F(7, 3)

    def test_rejects_small_and_disconnected(self):
        with pytest.raises(LpInputError):
            solve_subtour(make_graph(2, [(0, 1)]))
        with pytest.raises(LpInputError, match="disconnected"):
            solve_subtour(make_graph(4, [(0, 1), (2, 3)]))


def _subtour_inputs():
    """Node-weighted random subcubic graphs at n = 6..12, and the same
    graphs at n = 6..8 with every third edge weighing 0, whose rows start
    degenerate (b = 0)."""
    for n in range(6, 13):
        for seed in range(1, 4):
            g = random_node_weights(n, seed).induced_graph(random_subcubic_2ec(n, seed))
            yield g
            if n <= 8:
                yield reweighted(g, {e.id: 0 if e.id % 3 == 0 else e.weight
                                     for e in g.edges})


@pytest.mark.parametrize("g", list(_subtour_inputs()))
def test_solve_subtour_matches_the_two_phase_reference(g):
    res = solve_subtour(g)
    shores = [c.shore for c in res.cuts]
    assert shores[:g.n] == initial_shores(g.n)
    assert len({c.edge_ids for c in res.cuts}) == len(res.cuts)
    assert res.separation_rounds == len(res.cuts) - g.n
    # The optimum over the returned pool is the two-phase reference's, and
    # over every cut when n is small.
    assert res.value == lp_over_cuts(g, shores)
    if g.n <= 8:
        assert res.value == brute_force_subtour(g)
    assert verify_document(serialize.lp_result_to_json(g, res)).ok


@st.composite
def capacitated_graphs(draw):
    """A multigraph on 2-9 vertices, maybe disconnected, with small
    capacities (zero and missing ones included), so that equal keys and
    equal phase cuts are common."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u, v in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16)) if u != v]
    g = make_graph(n, pairs)
    cap = {e.id: F(draw(st.integers(0, 4)), draw(st.sampled_from([1, 2, 3])))
           for e in g.edges if draw(st.booleans()) or e.id % 3}
    return g, cap


@given(capacitated_graphs())
@settings(max_examples=300, deadline=None)
def test_min_cut_follows_the_dict_scan(drawn):
    """The same (value, shore) as the dict-scan Stoer-Wagner, ties included."""
    g, cap = drawn
    value, shore = min_cut(g, cap)
    assert (value, shore) == dict_scan_min_cut(g, cap)
    assert 0 not in shore


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_min_cut_matches_brute_force_random(seed):
    g = random_cubic_3ec(8, seed)
    cap = {e.id: F((seed + e.id) % 5 + 1, 3) for e in g.edges}
    assert min_cut(g, cap)[0] == brute_force_min_cut(g, cap)[0]
