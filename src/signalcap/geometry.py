"""Exact-rational polytopes over correlator space.

H-representations of the constraint polytopes for boxes exceeding the
monogamy bound, complete vertex enumeration by basic-solution search, and
the consistency check that every inequality-polytope vertex is realized by
an actual box (so the inequality description is not too loose).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import boxes, monogamy
from .rational_lp import lp_feasible, linprog_exact, rank_select, solve_square_exact


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
    d = _rationalize(delta)
    if not 0 <= d <= 2:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
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

def _has_explicit_bounds(poly: HPolytope) -> bool:
    seen = set()
    for coeffs, _ in poly.inequalities:
        nz = [(i, c) for i, c in enumerate(coeffs) if c != 0]
        if len(nz) == 1:
            i, c = nz[0]
            seen.add((i, c > 0))
    return all((i, s) in seen for i in range(poly.dim) for s in (True, False))


def _check_bounded(poly: HPolytope):
    if _has_explicit_bounds(poly):
        return
    A_ub = [c for c, _ in poly.inequalities]
    b_ub = [b for _, b in poly.inequalities]
    A_eq = [c for c, _ in poly.equalities]
    b_eq = [b for _, b in poly.equalities]
    for i in range(poly.dim):
        for sign in (1, -1):
            c = [Fraction(0)] * poly.dim
            c[i] = Fraction(sign)
            res = linprog_exact(c, A_ub, b_ub, A_eq, b_eq)
            if res.status == "unbounded":
                raise UnboundedPolytope(f"coordinate {i} unbounded")


def enumerate_vertices(poly: HPolytope) -> list:
    """All vertices of a bounded H-polytope, exactly.

    Every subset of dim constraints (equalities always included) is solved;
    solutions satisfying all constraints are vertices.  Complete because a
    vertex always has dim linearly independent active constraints.
    """
    _check_bounded(poly)
    dim = poly.dim
    eq_rows = [list(c) for c, _ in poly.equalities]
    eq_rhs = [b for _, b in poly.equalities]
    keep = rank_select(eq_rows)
    eq_rows = [eq_rows[i] for i in keep]
    eq_rhs = [eq_rhs[i] for i in keep]
    need = dim - len(eq_rows)
    if need < 0:
        raise ValueError("more independent equalities than dimensions")

    ineqs = list(poly.inequalities)
    a_float = np.array([[float(v) for v in c] for c, _ in ineqs])
    b_float = np.array([float(b) for _, b in ineqs])

    found = {}
    for combo in itertools.combinations(range(len(ineqs)), need):
        rows = eq_rows + [list(ineqs[k][0]) for k in combo]
        rhs = eq_rhs + [ineqs[k][1] for k in combo]
        x = solve_square_exact(rows, rhs)
        if x is None:
            continue
        xf = np.array([float(v) for v in x])
        if (a_float @ xf - b_float).max() > 1e-9:
            continue
        if x in found:
            continue
        ok = all(sum(c * v for c, v in zip(coeffs, x)) <= b for coeffs, b in ineqs)
        if ok:
            found[x] = True
    return sorted(found.keys())


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


def box_preimage(c6, delta):
    """Exact-rational box realizing the six correlators with violation delta.

    Returns (found, witness) where the witness is the twelve-correlator
    vector; solved as a feasibility LP over the box polytope shifted to
    nonnegative variables.
    """
    c6 = [_rationalize(v) for v in c6]
    d = _rationalize(delta)
    eqs = list(box_polytope_equalities())
    for pos, val in zip(PHI_INDICES, c6):
        row = [Fraction(0)] * 12
        row[pos] = Fraction(1)
        eqs.append((tuple(row), val))
    eqs.append((M_ROW, Fraction(4) + d))
    ineqs = box_polytope_inequalities()

    # shift x = y - 1 so variables are nonnegative (all correlators lie in [-1, 1])
    def shift(rows):
        out = []
        for coeffs, b in rows:
            out.append((coeffs, b + sum(coeffs)))
        return out

    res = lp_feasible(shift(eqs), shift(ineqs), dim=12, nonneg=True)
    if not res.feasible:
        return False, None
    witness = tuple(v - 1 for v in res.witness)
    return True, witness


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
