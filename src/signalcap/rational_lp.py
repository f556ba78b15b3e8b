"""Exact linear algebra and linear programming over the rationals.

Fraction-free (Bareiss) square solves and rank selection on integerised
rows, and a dense simplex with Bland's rule on Fraction tableaus: no
tolerances, every answer is exact.  Sized for the small systems that show
up here (a dozen variables, a few dozen constraints).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def int_scale_row(coeffs, rhs):
    """Multiply a rational row by the lcm of its denominators.

    Returns (int list, int), a fresh list.  Python ints pass through
    without a Fraction round trip, so a row integerised once is cheap to
    hand in again.
    """
    vals = [v if type(v) in (int, Fraction) else Fraction(v) for v in (*coeffs, rhs)]
    scale = lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (scale // v.denominator) for v in vals]
    return ints[:-1], ints[-1]


def solve_square_exact(rows, rhs):
    """Solve an n x n rational system exactly; None when singular.

    Rows are integer-scaled and eliminated fraction-free (Bareiss).  The last
    pivot D is the determinant of the row-permuted matrix, so D * x is an
    integer vector (Cramer) and back substitution divides exactly.
    """
    n = len(rows)
    m = []
    for coeffs, b in zip(rows, rhs):
        ints, bi = int_scale_row(coeffs, b)
        m.append(ints + [bi])
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            mik = mi[k]
            mkk = mk[k]
            for j in range(k + 1, n + 1):
                mi[j] = (mi[j] * mkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = m[k][k]
    det = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = det * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return tuple(Fraction(v, det) for v in y)


def rank_select(rows):
    """Indices of a maximal linearly independent subset of rational rows,
    the first independent ones in the given order (fraction-free)."""
    selected = []
    basis = []
    for idx, row in enumerate(rows):
        if basis and len(basis) == len(row):
            break          # full rank: no later row can be independent
        vec, _ = int_scale_row(row, 0)
        for piv_col, piv_vec in basis:
            f = vec[piv_col]
            if f:
                p = piv_vec[piv_col]
                vec = [a * p - f * b for a, b in zip(vec, piv_vec)]
        piv_col = next((j for j, v in enumerate(vec) if v != 0), None)
        if piv_col is not None:
            g = gcd(*vec)
            basis.append((piv_col, [v // g for v in vec]))
            selected.append(idx)
    return selected


# ---------------------------------------------------------------------------
# simplex

@dataclass
class LPResult:
    status: str          # "optimal" | "infeasible" | "unbounded"
    x: "tuple | None"
    value: "Fraction | None"


class _Tableau:
    def __init__(self, rows, rhs, basis):
        self.rows = rows          # list of lists of Fraction
        self.rhs = rhs            # list of Fraction, >= 0
        self.basis = basis        # basic column per row

    def pivot(self, r, col):
        piv = self.rows[r][col]
        inv = 1 / piv
        self.rows[r] = [v * inv for v in self.rows[r]]
        self.rhs[r] *= inv
        row_r = self.rows[r]
        rhs_r = self.rhs[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][col]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(self.rows[i], row_r)]
                self.rhs[i] -= f * rhs_r
        self.basis[r] = col

    def reduced_costs(self, cost):
        ncols = len(self.rows[0])
        red = list(cost)
        value = Fraction(0)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                value += cb * self.rhs[r]
                row = self.rows[r]
                for j in range(ncols):
                    if row[j]:
                        red[j] -= cb * row[j]
        return red, value

    def run(self, cost):
        """Minimize cost over the tableau with Bland's rule; returns status."""
        while True:
            red, _ = self.reduced_costs(cost)
            enter = next((j for j, rc in enumerate(red) if rc < 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if best is None or ratio < best or \
                       (ratio == best and self.basis[r] < self.basis[leave]):
                        best, leave = ratio, r
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)


def linprog_exact(c, A_ub=(), b_ub=(), A_eq=(), b_eq=(), nonneg=False) -> LPResult:
    """Minimize c . x subject to A_ub x <= b_ub and A_eq x = b_eq, exactly.

    Variables are free unless nonneg is set (then x >= 0 and no variable
    split is performed).  Bland's rule guarantees termination.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    ub = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(A_ub, b_ub)]
    eq = [([Fraction(v) for v in row], Fraction(b)) for row, b in zip(A_eq, b_eq)]

    width = n if nonneg else 2 * n
    nslack = len(ub)

    def expand(row):
        if nonneg:
            return list(row)
        out = []
        for v in row:
            out += [v, -v]
        return out

    rows, rhs, kinds = [], [], []
    for row, b in ub:
        rows.append(expand(row))
        rhs.append(b)
        kinds.append("ub")
    for row, b in eq:
        rows.append(expand(row))
        rhs.append(b)
        kinds.append("eq")

    m = len(rows)
    slack_col = {}
    for i in range(m):
        rows[i] = rows[i] + [Fraction(0)] * nslack
    si = 0
    for i, kind in enumerate(kinds):
        if kind == "ub":
            rows[i][width + si] = Fraction(1)
            slack_col[i] = width + si
            si += 1
    # normalize rhs >= 0
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            if i in slack_col:
                del slack_col[i]   # slack coefficient is now -1, unusable as basis

    # artificials wherever no slack can start basic
    basis = [None] * m
    art_cols = []
    ncols = width + nslack
    for i in range(m):
        if i in slack_col:
            basis[i] = slack_col[i]
    for i in range(m):
        if basis[i] is None:
            for r in range(m):
                rows[r].append(Fraction(1) if r == i else Fraction(0))
            basis[i] = ncols
            art_cols.append(ncols)
            ncols += 1

    tab = _Tableau(rows, rhs, basis)

    if art_cols:
        phase1 = [Fraction(0)] * ncols
        for j in art_cols:
            phase1[j] = Fraction(1)
        # start from a canonical tableau for the artificial basis
        tab.run(phase1)
        _, value = tab.reduced_costs(phase1)
        if value > 0:
            return LPResult("infeasible", None, None)
        # drive any leftover zero-valued artificials out of the basis
        art_set = set(art_cols)
        drop_rows = []
        for r in range(m):
            if tab.basis[r] in art_set:
                col = next((j for j in range(width + nslack)
                            if tab.rows[r][j] != 0), None)
                if col is None:
                    drop_rows.append(r)
                else:
                    tab.pivot(r, col)
        for r in sorted(drop_rows, reverse=True):
            del tab.rows[r], tab.rhs[r], tab.basis[r]
        # freeze artificials at zero
        for row in tab.rows:
            for j in art_set:
                row[j] = Fraction(0)

    cost = [Fraction(0)] * ncols
    for j in range(n):
        if nonneg:
            cost[j] = c[j]
        else:
            cost[2 * j] = c[j]
            cost[2 * j + 1] = -c[j]
    status = tab.run(cost)
    if status == "unbounded":
        return LPResult("unbounded", None, None)

    full = [Fraction(0)] * ncols
    for r, b in enumerate(tab.basis):
        full[b] = tab.rhs[r]
    if nonneg:
        x = tuple(full[j] for j in range(n))
    else:
        x = tuple(full[2 * j] - full[2 * j + 1] for j in range(n))
    _, value = tab.reduced_costs(cost)
    return LPResult("optimal", x, value)


@dataclass
class LPFeasibility:
    feasible: bool
    witness: "tuple | None"


def lp_feasible(equalities=(), inequalities=(), dim=None, nonneg=False) -> LPFeasibility:
    """Rational feasible point for A_eq x = b_eq, A_ub x <= b_ub, or a
    verified infeasibility flag (phase-1 simplex optimum stays positive)."""
    eqs = list(equalities)
    ubs = list(inequalities)
    if dim is None:
        sample = (eqs + ubs)[0][0]
        dim = len(sample)
    res = linprog_exact([Fraction(0)] * dim,
                        A_ub=[r for r, _ in ubs], b_ub=[b for _, b in ubs],
                        A_eq=[r for r, _ in eqs], b_eq=[b for _, b in eqs],
                        nonneg=nonneg)
    if res.status == "optimal":
        return LPFeasibility(True, res.x)
    return LPFeasibility(False, None)
