"""Exact-rational polytopes over correlator space.

H-representations of the constraint polytopes for boxes exceeding the
monogamy bound, complete vertex enumeration by an integer double
description, and the consistency check that every inequality-polytope
vertex is realized by an actual box (so the inequality description is not
too loose).

Vertex enumeration and box preimages are integer arithmetic throughout.
The one exact engine behind both is the integer double description of
rational_lp: it lists the vertices, and it decides every box LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import boxes, monogamy
# lp_feasible decides box_preimage.  linprog_exact, rank_select and
# solve_square_exact are imported only so that perfbench/tracer.py can wrap
# all four here.
from .rational_lp import (double_description, int_scale_row, linprog_exact, lp_feasible,
                          rank_select, solve_square_exact)


class UnboundedPolytope(Exception):
    pass


@dataclass(frozen=True)
class HPolytope:
    """a . x <= b rows plus exact equalities, all rational."""

    dim: int
    inequalities: tuple   # of (coeffs tuple, rhs)
    equalities: tuple = ()

    def __post_init__(self):
        for coeffs, _ in tuple(self.inequalities) + tuple(self.equalities):
            if len(coeffs) != self.dim:
                raise ValueError("constraint length does not match dimension")


def _rationalize(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x).limit_denominator(10 ** 6)


def _bounds_rows(dim, lo=-1, hi=1):
    rows = []
    for i in range(dim):
        e = [Fraction(0)] * dim
        e[i] = Fraction(1)
        rows.append((tuple(e), Fraction(hi)))
        e = [Fraction(0)] * dim
        e[i] = Fraction(-1)
        rows.append((tuple(e), Fraction(-lo)))
    return rows


def build_q_delta(m: int, delta, relaxed: bool = False) -> HPolytope:
    """Correlator polytope of boxes exceeding the monogamy bound by delta.

    4^(m-1) summed violation constraints (stored as <=) plus [-1, 1] bounds
    per coordinate.  In relaxed mode (m = 2) the two extra coordinates
    (x_A^0, y_A^0) join with box bounds only.
    """
    if not 0 <= delta <= 2:     # before _rationalize, which fails on inf and nan
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    d = _rationalize(delta)
    dim = len(boxes.correlator_layout(m, relaxed))
    rows = []
    for summed in monogamy.all_summed_constraints(m):
        coeffs = [Fraction(-int(v)) for v in summed] + [Fraction(0)] * (dim - len(summed))
        rows.append((tuple(coeffs), -d))
    rows += _bounds_rows(dim)
    return HPolytope(dim, tuple(rows))


def build_q_v() -> HPolytope:
    """Seven-dimensional union polytope: (c, delta) with delta in [0, 2].

    The violation constraints read coeffs . c >= delta, so delta enters each
    row with coefficient +1 on the <= side.
    """
    rows = []
    for summed in monogamy.all_summed_constraints(2):
        coeffs = [Fraction(-int(v)) for v in summed] + [Fraction(1)]
        rows.append((tuple(coeffs), Fraction(0)))
    for coeffs, b in _bounds_rows(6):
        rows.append((tuple(list(coeffs) + [Fraction(0)]), b))
    up = [Fraction(0)] * 6 + [Fraction(1)]
    rows.append((tuple(up), Fraction(2)))
    down = [Fraction(0)] * 6 + [Fraction(-1)]
    rows.append((tuple(down), Fraction(0)))
    return HPolytope(7, tuple(rows))


# ---------------------------------------------------------------------------
# vertex enumeration

def enumerate_vertices(poly: HPolytope) -> list:
    """All vertices of a bounded H-polytope, exactly.

    The vertices are the rays with t > 0 of the polytope's homogenised cone
    {(x, t) : a . x <= b t, t >= 0}, from rational_lp.double_description in
    integers.  Nothing is rounded, so nothing needs checking afterwards.

    Raises UnboundedPolytope for a nonempty polytope with a recession
    direction (a ray with t = 0 or a line left over).
    """
    rays, lines = double_description(poly.dim, poly.equalities, poly.inequalities)
    vertices = sorted(tuple(Fraction(v, y[-1]) for v in y[:-1]) for y in rays if y[-1])
    if vertices and (lines or len(vertices) < len(rays)):
        raise UnboundedPolytope("the polytope has a recession direction")
    return vertices


# ---------------------------------------------------------------------------
# the twelve-correlator box polytope (m = 2)
#
# coordinate order: AB00 AB01 AB10 AB11 | AE00 AE01 AE10 AE11 | BE00 BE01 BE10 BE11
# with ABij = <A_i B_j>_E, AEij = <A_i E>_{B_j}, BEij = <B_j E>_{A_i}.

AB = {(i, j): 2 * i + j for i in range(2) for j in range(2)}
AE = {(i, j): 4 + 2 * i + j for i in range(2) for j in range(2)}
BE = {(i, j): 8 + 2 * i + j for i in range(2) for j in range(2)}

# phi: twelve correlators -> the correlator vector (x_A^1, y_A^1, x_B^0, y_B^0, x_B^1, y_B^1)
PHI_INDICES = tuple({"ae": AE, "be": BE}[table][(i, j)]
                    for _, table, i, j in boxes.correlator_layout(2))

# monogamy functional M(p) = I_AB + 2 <B_0 E>_{A_0}
_M_ROW = [Fraction(0)] * 12
for idx, coef in ((AB[(0, 0)], 1), (AB[(1, 0)], 1), (AB[(1, 1)], 1), (AB[(0, 1)], -1),
                  (BE[(0, 0)], 2)):
    _M_ROW[idx] = Fraction(coef)
M_ROW = tuple(_M_ROW)


def box_polytope_inequalities():
    """The 32 probability-nonnegativity rows of the (1/8)(1 + ...) expansion."""
    rows = []
    for i, j in itertools.product(range(2), repeat=2):
        for sa, sb, se in itertools.product((1, -1), repeat=3):
            coeffs = [Fraction(0)] * 12
            coeffs[AB[(i, j)]] = Fraction(-sa * sb)
            coeffs[AE[(i, j)]] = Fraction(-sa * se)
            coeffs[BE[(i, j)]] = Fraction(-sb * se)
            rows.append((tuple(coeffs), Fraction(1)))
    return rows


def box_polytope_equalities():
    """Equal <B_0 E> conditionals: BE00 = BE10."""
    row = [Fraction(0)] * 12
    row[BE[(0, 0)]] = Fraction(1)
    row[BE[(1, 0)]] = Fraction(-1)
    return [(tuple(row), Fraction(0))]


def build_box_polytope() -> HPolytope:
    """Boxes with vanishing singles/triples whose monogamy value lies in [4, 6]."""
    rows = box_polytope_inequalities()
    rows.append((M_ROW, Fraction(6)))
    rows.append((tuple(-c for c in M_ROW), Fraction(-4)))
    return HPolytope(12, tuple(rows), tuple(box_polytope_equalities()))


def phi(p12) -> tuple:
    return tuple(p12[k] for k in PHI_INDICES)


def monogamy_functional(p12):
    return sum(c * v for c, v in zip(M_ROW, p12))


# The box LP of box_preimage in integers.  Only the right-hand sides of the
# equalities depend on the query: (0, c6, 4 + delta).
_EQ_ROWS = [int_scale_row(c, 0)[0] for c, _ in box_polytope_equalities()]
_EQ_ROWS += [[int(k == pos) for k in range(12)] for pos in PHI_INDICES]
_EQ_ROWS.append(int_scale_row(M_ROW, 0)[0])
_POS_ROWS = [int_scale_row(c, b) for c, b in box_polytope_inequalities()]


def box_preimage(c6, delta):
    """Exact-rational box realizing the six correlators with violation delta.

    Returns (found, witness) where the witness is the twelve-correlator
    vector: 32 positivity rows, equal <B_0 E> conditionals, phi = c6 and
    monogamy value 4 + delta, all exactly; (False, None) when no box has
    them.

    The exact LP (lp_feasible, over the integer double description of
    rational_lp) decides on the equality and positivity rows; the
    positivity rows imply the [-1, 1] bounds.  Nothing is rounded, so
    either verdict is exact.
    """
    c6 = [_rationalize(v) for v in c6]
    d = _rationalize(delta)
    eq_rhs = [Fraction(0), *c6, Fraction(4) + d]
    res = lp_feasible(list(zip(_EQ_ROWS, eq_rhs)), _POS_ROWS, dim=12)
    return res.feasible, res.witness


@dataclass
class CharacterizationReport:
    q_vertices_in_slices: bool
    all_preimages_found: bool
    vertex_count: int
    slice_counts: dict
    interior_vertices: list
    missing_preimages: list


def verify_characterization() -> CharacterizationReport:
    """Vertex-level equality check between the two descriptions of the
    reachable correlator set.

    (a) every vertex of the 7-dimensional inequality polytope lies in the
    delta = 0 or delta = 2 slice; (b) every vertex admits an exact box
    preimage with matching violation.  Together with the (proved) forward
    inclusion this pins the two polytopes equal.
    """
    verts = enumerate_vertices(build_q_v())
    slice_counts = {"0": 0, "2": 0, "interior": 0}
    interior = []
    missing = []
    for v in verts:
        d = v[6]
        if d == 0:
            slice_counts["0"] += 1
        elif d == 2:
            slice_counts["2"] += 1
        else:
            slice_counts["interior"] += 1
            interior.append(v)
    for v in verts:
        found, _ = box_preimage(v[:6], v[6])
        if not found:
            missing.append(v)
    return CharacterizationReport(
        q_vertices_in_slices=not interior,
        all_preimages_found=not missing,
        vertex_count=len(verts),
        slice_counts=slice_counts,
        interior_vertices=interior,
        missing_preimages=missing,
    )


# ---------------------------------------------------------------------------
# float views and dumps

def polytope_float(poly: HPolytope):
    A_ub = np.array([[float(v) for v in c] for c, _ in poly.inequalities], dtype=float)
    b_ub = np.array([float(b) for _, b in poly.inequalities], dtype=float)
    if poly.equalities:
        A_eq = np.array([[float(v) for v in c] for c, _ in poly.equalities], dtype=float)
        b_eq = np.array([float(b) for _, b in poly.equalities], dtype=float)
    else:
        A_eq = np.zeros((0, poly.dim))
        b_eq = np.zeros(0)
    return A_ub, b_ub, A_eq, b_eq


def dump_h_representation(poly: HPolytope) -> str:
    """Plain-text rows: rational coefficients, relation, bound."""
    lines = [f"# dim {poly.dim}"]
    for coeffs, b in poly.inequalities:
        lines.append(" ".join(str(c) for c in coeffs) + f" <= {b}")
    for coeffs, b in poly.equalities:
        lines.append(" ".join(str(c) for c in coeffs) + f" = {b}")
    return "\n".join(lines) + "\n"


def dump_v_representation(vertices) -> str:
    lines = [f"# vertices {len(vertices)}"]
    for v in vertices:
        lines.append(" ".join(str(c) for c in v))
    return "\n".join(lines) + "\n"
