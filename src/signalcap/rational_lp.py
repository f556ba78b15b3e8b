"""Exact linear algebra and linear programming over the rationals.

Fraction-free (Bareiss) square solves and rank selection on integerised
rows, and an integer double description of polyhedra, which also decides
linear programs: no tolerances, every answer is exact.  Sized for the
small systems that show up here (a dozen variables, a few dozen
constraints).
"""

from __future__ import annotations

import itertools
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


def _reduced(y):
    """A nonzero integer vector divided by the gcd of its entries, as a tuple."""
    g = gcd(*y)
    return tuple(v // g for v in y)


def double_description(dim, equalities=(), inequalities=()):
    """Generators of the cone {(x, t) : a . x <= b t, e . x = f t, t >= 0}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) in
    integers.  The rational rows (a, b) and (e, f) are integerised row by
    row, and the cone is built up from the whole space (the lines e_0 ..
    e_dim): equalities first, then the inequalities in order, then t >= 0.
    A line the new row does not vanish on is the pivot: the other
    generators are projected onto the row along it, and for an inequality
    it turns into a ray.  Otherwise rays on the row are kept, rays strictly
    inside an inequality are kept, and each adjacent pair on opposite sides
    is combined into a ray on the row.  Adjacency is decided by zero sets:
    the rows both rays lie on, which no third ray may also lie on.  Nothing
    is rounded, so nothing needs checking afterwards.

    Returns (rays, lines): the cone is every nonnegative combination of the
    rays plus every combination of the lines, each a gcd-reduced integer
    tuple (x, t).  Leftover lines have t = 0.  The polyhedron is the convex
    hull of the rays with t > 0, scaled to t = 1, plus the cone of its
    recession directions: the rays with t = 0 and the lines.
    """
    n = dim + 1
    rows = [(False, *int_scale_row(a, b)) for a, b in equalities]
    rows += [(True, *int_scale_row(a, b)) for a, b in inequalities]
    rows.append((True, [0] * dim, 1))                # t >= 0
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays = []                                        # (ray, zero set as a bit mask)
    for k, (inequality, a, b) in enumerate(rows):
        r = [-v for v in a] + [b]                    # r . (x, t) >= 0, or = 0

        def at(y):
            return sum(c * v for c, v in zip(r, y))

        cut = next((i for i, line in enumerate(lines) if at(line)), None)
        if cut is not None:
            pivot = lines.pop(cut)
            s = at(pivot)
            if s < 0:
                pivot, s = tuple(-v for v in pivot), -s

            def project(y):
                return _reduced([s * u - at(y) * p for u, p in zip(y, pivot)])

            lines = [project(line) for line in lines]
            rays = [(project(y), z | 1 << k) for y, z in rays]
            if inequality:
                rays.append((pivot, (1 << k) - 1))
            continue
        side = [at(y) for y, _ in rays]
        plus = [i for i, v in enumerate(side) if v > 0]
        minus = [i for i, v in enumerate(side) if v < 0]
        kept = [(y, z | 1 << k) for (y, z), v in zip(rays, side) if v == 0]
        if inequality:
            kept += [rays[i] for i in plus]
        least = n - len(lines) - 2                   # fewest rows adjacent rays share
        for i, j in itertools.product(plus, minus):
            common = rays[i][1] & rays[j][1]
            if common.bit_count() < least or any(
                    h != i and h != j and common & z == common
                    for h, (_, z) in enumerate(rays)):
                continue
            y = [side[i] * u - side[j] * v for u, v in zip(rays[j][0], rays[i][0])]
            kept.append((_reduced(y), common | 1 << k))
        rays = kept
    return [y for y, _ in rays], lines


# ---------------------------------------------------------------------------
# linear programs over the double description

@dataclass
class LPResult:
    status: str          # "optimal" | "infeasible" | "unbounded"
    x: "tuple | None"
    value: "Fraction | None"


def linprog_exact(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LPResult:
    """Minimize c . x over free x with A_ub x <= b_ub, A_eq x = b_eq, exactly.

    The feasible set is read off its double description: empty when no ray
    has t > 0, unbounded below when c falls along a ray with t = 0 or is not
    constant along a line, and otherwise minimized at a ray with t > 0 (the
    first in generator order on a tie).
    """
    rays, lines = double_description(len(c), zip(A_eq, b_eq), zip(A_ub, b_ub))
    cost, _ = int_scale_row(c, 0)

    def at(y):
        return sum(a * v for a, v in zip(cost, y))

    points = [y for y in rays if y[-1]]
    if not points:
        return LPResult("infeasible", None, None)
    if any(at(y) < 0 for y in rays if not y[-1]) or any(at(line) for line in lines):
        return LPResult("unbounded", None, None)
    best = min(points, key=lambda y: Fraction(at(y), y[-1]))
    x = tuple(Fraction(v, best[-1]) for v in best[:-1])
    return LPResult("optimal", x, sum(Fraction(a) * v for a, v in zip(c, x)))


@dataclass
class LPFeasibility:
    feasible: bool
    witness: "tuple | None"


def lp_feasible(equalities=(), inequalities=(), dim=None) -> LPFeasibility:
    """Rational feasible point for A_eq x = b_eq, A_ub x <= b_ub, or a
    verified infeasibility flag (no point in the double description)."""
    eqs = list(equalities)
    ubs = list(inequalities)
    if dim is None:
        if not eqs + ubs:
            raise ValueError("dim is required when there are no rows")
        dim = len((eqs + ubs)[0][0])
    res = linprog_exact([Fraction(0)] * dim,
                        A_ub=[r for r, _ in ubs], b_ub=[b for _, b in ubs],
                        A_eq=[r for r, _ in eqs], b_eq=[b for _, b in eqs])
    if res.status == "optimal":
        return LPFeasibility(True, res.x)
    return LPFeasibility(False, None)
