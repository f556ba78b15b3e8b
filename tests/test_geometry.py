import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from signalcap import boxes, geometry, monogamy
from signalcap.geometry import HPolytope, UnboundedPolytope, build_q_delta, enumerate_vertices
from signalcap.rational_lp import (int_scale_row, linprog_exact, lp_feasible, rank_select,
                                   solve_square_exact)

F = Fraction
Q_V_VERTICES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "q_v_vertices.txt"


def phi(p12):
    """The six correlators (x_A^1, y_A^1, x_B^0, y_B^0, x_B^1, y_B^1) of a
    twelve-correlator vector."""
    return tuple(p12[k] for k in geometry.PHI_INDICES)


def monogamy_value(p12):
    """I_AB + 2 <B_0 E>_{A_0} of a twelve-correlator vector."""
    return sum(c * v for c, v in zip(geometry.M_ROW, p12))


def det2(a, b, c, d):
    return a * d - b * c


def cramer_vertices(ineqs, dim):
    """Independent vertex oracle: Cramer-rule candidate solve, dims <= 3."""
    out = set()
    for combo in itertools.combinations(ineqs, dim):
        rows = [list(c) for c, _ in combo]
        rhs = [b for _, b in combo]
        if dim == 2:
            d = det2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
            if d == 0:
                continue
            x = (det2(rhs[0], rows[0][1], rhs[1], rows[1][1]) / d,
                 det2(rows[0][0], rhs[0], rows[1][0], rhs[1]) / d)
        else:
            import numpy.linalg as la
            a = np.array([[float(v) for v in r] for r in rows])
            if abs(la.det(a)) < 1e-12:
                continue
            sol = la.solve(a, np.array([float(b) for b in rhs]))
            x = tuple(F(v).limit_denominator(10**6) for v in sol)
        if all(sum(c * v for c, v in zip(coeffs, x)) <= b for coeffs, b in ineqs):
            out.add(tuple(F(v) for v in x))
    return sorted(out)


def reference_vertices(poly):
    """Subset-by-subset exact enumeration: every subset of rows (independent
    equalities always included) is solved exactly, and each distinct
    solution is checked against every inequality and every equality row."""
    ineqs = [int_scale_row(c, b) for c, b in poly.inequalities]
    all_eqs = [int_scale_row(c, b) for c, b in poly.equalities]
    eqs = [all_eqs[i] for i in rank_select([c for c, _ in poly.equalities])]
    verdict = {}
    for combo in itertools.combinations(ineqs, poly.dim - len(eqs)):
        rows = eqs + list(combo)
        x = solve_square_exact([c for c, _ in rows], [b for _, b in rows])
        if x is not None and x not in verdict:
            verdict[x] = (all(sum(c * v for c, v in zip(coeffs, x)) <= b
                              for coeffs, b in ineqs)
                          and all(sum(c * v for c, v in zip(coeffs, x)) == b
                                  for coeffs, b in all_eqs))
    return sorted(x for x, ok in verdict.items() if ok)


def gauss_solve(rows, rhs):
    """Textbook Fraction elimination, independent of rational_lp."""
    n = len(rows)
    m = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k] != 0), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def fractional_polytope(rng, dim, extra, denominators=(3, 7)):
    """The cube [-1, 1]^dim cut by rows with k/3 and k/7 coefficients."""
    rows = list(geometry._bounds_rows(dim))
    while len(rows) < 2 * dim + extra:
        coeffs = tuple(F(int(k), int(rng.choice(denominators)))
                       for k in rng.integers(-6, 7, dim))
        if any(coeffs):
            rows.append((coeffs, F(int(rng.integers(1, 8)), int(rng.choice(denominators)))))
    return rows


def nonneg_rows(n):
    """The rows -x_i <= 0, i = 0..n-1, that make every variable nonnegative."""
    return [tuple(F(-int(i == j)) for j in range(n)) for i in range(n)]


class TestExactLP:
    def test_feasible_with_witness(self):
        res = lp_feasible(equalities=[((F(1),), F(0))],
                          inequalities=[((F(1),), F(1)), ((F(-1),), F(1))])
        assert res.feasible and res.witness == (0,)

    def test_infeasible(self):
        res = lp_feasible(inequalities=[((F(1),), F(-1)), ((F(-1),), F(-1))])
        assert not res.feasible and res.witness is None

    def test_optimization(self):
        # min -x - y over the triangle x, y >= 0, x + y <= 1
        res = linprog_exact([F(-1), F(-1)],
                            A_ub=[(F(1), F(1)), (F(-1), F(0)), (F(0), F(-1))],
                            b_ub=[F(1), F(0), F(0)])
        assert res.status == "optimal"
        assert res.value == -1

    def test_unbounded(self):
        res = linprog_exact([F(-1)], A_ub=[( F(-1),)], b_ub=[F(0)])
        assert res.status == "unbounded"

    def test_no_rows_left(self):
        # no constraint, or only 0 = 0: every point is feasible
        assert linprog_exact([F(1)]).status == "unbounded"
        res = lp_feasible(equalities=[((F(0),), F(0))])
        assert res.feasible and res.witness == (0,)
        with pytest.raises(ValueError, match="dim is required"):
            lp_feasible()

    def test_degenerate_vertex(self):
        # classic degenerate vertex (Beale's cycling example), x >= 0 as rows
        res = linprog_exact([F(-3, 4), F(150), F(-1, 50), F(6)],
                            A_ub=[(F(1, 4), F(-60), F(-1, 25), F(9)),
                                  (F(1, 2), F(-90), F(-1, 50), F(3)),
                                  (F(0), F(0), F(1), F(0))] + nonneg_rows(4),
                            b_ub=[F(0), F(0), F(1)] + [F(0)] * 4)
        assert res.status == "optimal"
        assert res.value == F(-1, 20)

    def test_matches_highs_on_random_lps(self):
        # HiGHS is the independent oracle.  Verdicts are compared, not raw
        # statuses: HiGHS's presolve may call an unbounded LP infeasible.
        rng = np.random.default_rng(1)

        def row(n):
            return [F(int(k), 3) for k in rng.integers(-6, 7, n)]

        def floats(rows):
            return np.array([[float(v) for v in r] for r in rows]) if rows else None

        statuses = []
        for _ in range(300):
            n = int(rng.integers(1, 5))
            c = row(n)
            ub = [(row(n), F(int(rng.integers(-6, 7)), 3)) for _ in range(rng.integers(0, 6))]
            eq = [(row(n), F(int(rng.integers(-6, 7)), 3)) for _ in range(rng.integers(0, 2))]
            nonneg = bool(rng.integers(2))
            signs = nonneg_rows(n) if nonneg else []
            res = linprog_exact(c, A_ub=[r for r, _ in ub] + signs,
                                b_ub=[b for _, b in ub] + [F(0)] * len(signs),
                                A_eq=[r for r, _ in eq], b_eq=[b for _, b in eq])
            statuses.append(res.status)

            def highs(cost):
                return linprog(cost, A_ub=floats([r for r, _ in ub]),
                               b_ub=[float(b) for _, b in ub] or None,
                               A_eq=floats([r for r, _ in eq]),
                               b_eq=[float(b) for _, b in eq] or None,
                               bounds=(0, None) if nonneg else (None, None), method="highs")

            assert (highs(np.zeros(n)).status == 0) == (res.status != "infeasible")
            if res.status == "optimal":
                x = res.x
                assert all(sum(a * v for a, v in zip(r, x)) <= b for r, b in ub)
                assert all(sum(a * v for a, v in zip(r, x)) == b for r, b in eq)
                assert not nonneg or min(x) >= 0
                assert res.value == sum(a * v for a, v in zip(c, x))
                opt = highs([float(v) for v in c])
                assert opt.status == 0 and abs(opt.fun - float(res.value)) < 1e-9
            elif res.status == "unbounded":
                assert highs([float(v) for v in c]).status != 0
        assert set(statuses) == {"optimal", "infeasible", "unbounded"}

    def test_solve_square_exact(self):
        rows = [[F(2), F(1)], [F(1), F(-1)]]
        assert solve_square_exact(rows, [F(3), F(0)]) == (F(1), F(1))
        assert solve_square_exact([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None

    def test_solve_square_exact_matches_gauss(self):
        # integer back substitution after Bareiss against Fraction elimination,
        # on fractional, integer and singular systems
        rng = np.random.default_rng(3)
        for n in (1, 2, 4, 7):
            for _ in range(15):
                rows = [[F(int(k), int(rng.integers(1, 8))) for k in rng.integers(-5, 6, n)]
                        for _ in range(n)]
                if rng.uniform() < 0.3:
                    rows[-1] = [2 * v for v in rows[0]]          # singular
                rhs = [F(int(k), int(rng.integers(1, 5))) for k in rng.integers(-9, 10, n)]
                assert solve_square_exact(rows, rhs) == gauss_solve(rows, rhs)
                ints = [int_scale_row(r, b) for r, b in zip(rows, rhs)]
                assert solve_square_exact([r for r, _ in ints], [b for _, b in ints]) == \
                    gauss_solve(rows, rhs)

    def test_rank_select_keeps_first_independent_rows(self):
        rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(1, 2), F(0), F(1)],
                [F(0), F(0), F(1)], [F(1), F(1), F(1)]]
        assert rank_select(rows) == [0, 2, 3]
        assert rank_select([[0, 0], [0, 0]]) == []


class TestEnumerateVertices:
    def test_square(self):
        poly = HPolytope(2, tuple(geometry._bounds_rows(2)))
        verts = enumerate_vertices(poly)
        assert verts == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_matches_cramer_oracle_on_random_2d_polytopes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ineqs = list(geometry._bounds_rows(2))
            for _ in range(3):
                coeffs = tuple(F(int(v), 4) for v in rng.integers(-8, 9, 2))
                if all(c == 0 for c in coeffs):
                    continue
                ineqs.append((coeffs, F(int(rng.integers(1, 9)), 4)))
            poly = HPolytope(2, tuple(ineqs))
            assert enumerate_vertices(poly) == cramer_vertices(ineqs, 2)

    def test_simplex_3d_with_equality(self):
        # x + y + z = 1 over the nonnegative octant, bounded by unit cube rows
        ineqs = [(tuple(F(-1) if k == i else F(0) for k in range(3)), F(0))
                 for i in range(3)]
        ineqs += [(tuple(F(1) if k == i else F(0) for k in range(3)), F(1))
                  for i in range(3)]
        eqs = [((F(1), F(1), F(1)), F(1))]
        poly = HPolytope(3, tuple(ineqs), tuple(eqs))
        verts = enumerate_vertices(poly)
        assert verts == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    @pytest.mark.parametrize("delta", [F(0), F(1, 3), F(3, 7), F(1, 2), F(1), F(3, 2), F(2)])
    def test_matches_reference_on_slices(self, delta):
        poly = build_q_delta(2, delta)
        assert enumerate_vertices(poly) == reference_vertices(poly)

    def test_matches_reference_with_fractional_rows(self):
        rng = np.random.default_rng(7)
        for dim, extra in ((2, 4), (3, 4), (3, 6), (4, 3)):
            poly = HPolytope(dim, tuple(fractional_polytope(rng, dim, extra)))
            assert enumerate_vertices(poly) == reference_vertices(poly)

    def test_matches_reference_with_equalities(self):
        # x1 + x2 + x3 + x4 = 1 twice over (the copy is dependent), plus a
        # fractional equality, inside the cube cut by fractional rows
        rng = np.random.default_rng(11)
        ineqs = fractional_polytope(rng, 4, 3)
        eqs = [((F(1),) * 4, F(1)), ((F(2),) * 4, F(2)),
               ((F(1, 3), F(-1, 7), F(0), F(1, 2)), F(1, 21))]
        poly = HPolytope(4, tuple(ineqs), tuple(eqs))
        verts = enumerate_vertices(poly)
        assert verts and verts == reference_vertices(poly)
        for v in verts:
            assert sum(v) == 1

    def test_inconsistent_dependent_equalities(self):
        # x + y = 0 and 2x + 2y = 1 are dependent but contradict each other
        eqs = (((F(1), F(1)), F(0)), ((F(2), F(2)), F(1)))
        poly = HPolytope(2, tuple(geometry._bounds_rows(2)), eqs)
        assert enumerate_vertices(poly) == [] == reference_vertices(poly)

    def test_flat_polytopes_keep_their_vertices(self):
        # each vertex lies on a pair of opposite rows, an equality written as
        # two inequalities
        third = [((F(3),), F(1)), ((F(-3),), F(-1))]
        poly = HPolytope(1, tuple(third + list(geometry._bounds_rows(1))))
        assert enumerate_vertices(poly) == [(F(1, 3),)]
        slab = [((F(1, 3), F(1, 7)), F(1, 5)), ((F(-1, 3), F(-1, 7)), F(-1, 5))]
        poly = HPolytope(2, tuple(slab + list(geometry._bounds_rows(2))))
        verts = enumerate_vertices(poly)
        assert len(verts) == 2 and verts == reference_vertices(poly)

    def test_large_coefficients(self):
        # two rows with coefficients near 1e7 meet at (1, -1) with determinant
        # 1; a float determinant cannot tell these pairs apart
        big = 10 ** 7
        near = [((F(big), F(big + 1)), F(-1)), ((F(big - 1), F(big)), F(-1))]
        same = [((F(big), F(big + 1)), F(-1)), ((F(2 * big), F(2 * big + 2)), F(-2))]
        for rows in (near, same):
            poly = HPolytope(2, tuple(rows + list(geometry._bounds_rows(2, -2, 2))))
            assert enumerate_vertices(poly) == reference_vertices(poly)
        assert (F(1), F(-1)) in enumerate_vertices(
            HPolytope(2, tuple(near + list(geometry._bounds_rows(2, -2, 2)))))
        # 10^20 + 1 has no exact float
        huge = HPolytope(2, (((F(10 ** 20 + 1), F(1)), F(10 ** 19)),)
                         + tuple(geometry._bounds_rows(2)))
        assert enumerate_vertices(huge) == reference_vertices(huge)
        assert len(reference_vertices(huge)) == 4

    def test_q_v_vertices(self, monkeypatch):
        # the 24 vertices of the (c, delta) polytope, with no square solve:
        # the double description needs none of the C(18, 7) = 31 824 subsets
        with open(Q_V_VERTICES) as fh:
            expected = sorted(tuple(F(t) for t in line.split())
                              for line in fh if line.strip() and not line.startswith("#"))
        solves = []
        real = geometry.solve_square_exact

        def counted(rows, rhs):
            solves.append(1)
            return real(rows, rhs)

        monkeypatch.setattr(geometry, "solve_square_exact", counted)
        assert enumerate_vertices(geometry.build_q_v()) == expected
        assert len(expected) == 24 and not solves

    @pytest.mark.parametrize("rows", [
        [((F(1), F(0)), F(1)), ((F(0), F(1)), F(1))],
        [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1))],      # the second coordinate is free
    ], ids=["orthant", "free-coordinate"])
    def test_unbounded_raises(self, rows):
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(HPolytope(2, tuple(rows)))

    def test_empty_without_bounds(self):
        # x <= -1 and x >= 1, y free: empty, so there is nothing unbounded
        poly = HPolytope(2, (((F(1), F(0)), F(-1)), ((F(-1), F(0)), F(-1))))
        assert enumerate_vertices(poly) == []

    @pytest.mark.parametrize("delta, count",
                             [(F(0), 112), (F(1, 2), 176), (F(1), 176), (F(2), 16)])
    def test_m3_slices(self, delta, count):
        poly = build_q_delta(3, delta)
        verts = enumerate_vertices(poly)
        assert len(verts) == count
        for v in verts:
            lhs = [sum(c * x for c, x in zip(coeffs, v)) for coeffs, _ in poly.inequalities]
            assert all(s <= b for s, (_, b) in zip(lhs, poly.inequalities))
            active = [coeffs for s, (coeffs, b) in zip(lhs, poly.inequalities) if s == b]
            assert len(rank_select(active)) == 10
        # HiGHS's optimum of random objectives is attained at a vertex
        a_ub, b_ub, _, _ = geometry.polytope_float(poly)
        points = np.array(verts, dtype=float)
        rng = np.random.default_rng(5)
        for c in rng.normal(size=(200, poly.dim)):
            res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
            assert res.status == 0
            assert abs(res.fun - (points @ c).min()) <= 1e-9


class TestQDelta:
    def test_q0_contains_origin(self):
        poly = build_q_delta(2, 0)
        zero = [F(0)] * 6
        assert all(sum(c * v for c, v in zip(coeffs, zero)) <= b
                   for coeffs, b in poly.inequalities)

    def test_constraint_counts_m2(self):
        poly = build_q_delta(2, 1)
        assert poly.dim == 6 and len(poly.inequalities) == 4 + 12

    def test_constraint_counts_m3(self):
        poly = build_q_delta(3, 1)
        assert poly.dim == 10 and len(poly.inequalities) == 16 + 20

    def test_relaxed_adds_two_coordinates(self):
        poly = build_q_delta(2, 1, relaxed=True)
        assert poly.dim == 8 and len(poly.inequalities) == 4 + 16

    @pytest.mark.parametrize("m, relaxed", [(2, False), (3, False), (4, False), (2, True)])
    @pytest.mark.parametrize("delta", [0, 0.37, 0.123456789, 1e-7, 2])
    def test_float_rows_equal_the_rational_rows(self, m, relaxed, delta):
        # the summed rows lead build_q_delta's rows, and its box rows follow.
        # The relaxed pair (x_A^0, y_A^0) is in no summed row, so the relaxed
        # polytope's summed rows are the strict ones, zero-padded
        A, b = geometry.q_delta_float(m, delta)
        k, dim = A.shape
        assert k == 4 ** (m - 1)
        A_full, b_full, _, _ = geometry.polytope_float(build_q_delta(m, delta, relaxed))
        assert A_full.shape[1] == dim + 2 * relaxed and not A_full[:k, dim:].any()
        for fast, slow in ((A, A_full[:k, :dim]), (b, b_full[:k])):
            assert fast.shape == slow.shape and fast.dtype == slow.dtype
            assert fast.tobytes() == slow.tobytes()      # +0.0 stays +0.0
        assert not A.flags.writeable
        assert geometry.q_delta_float(m, 1.5)[0] is A

    def test_float_rows_take_delta_as_given(self):
        # 10/81 is the nearest short fraction to 0.123456789 but not the
        # fraction it is the float of, so both paths keep the float's value
        assert build_q_delta(2, 0.123456789).inequalities[0][1] == -F(0.123456789)
        b = geometry.q_delta_float(2, 0.123456789)[1]
        assert b.tobytes() == np.full(4, -0.123456789).tobytes()

    @pytest.mark.parametrize("x, want", [(0.37, F(37, 100)), (1 / 3, F(1, 3)),
                                         (0.7, F(7, 10)), (2, F(2)), (F(1, 7), F(1, 7)),
                                         (1e-7, F(1e-7)), (1.0000004, F(1.0000004))])
    def test_rationalize_keeps_the_float_it_was_given(self, x, want):
        # a short fraction is kept only when x is its float
        assert geometry._rationalize(x) == want

    @pytest.mark.parametrize("delta", [-0.1, 2.5, float("nan")])
    def test_float_rows_reject_delta_outside_range(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 2\]"):
            geometry.q_delta_float(2, delta)

    def test_q2_vertices_pin_xb_to_one(self):
        verts = enumerate_vertices(build_q_delta(2, 2))
        assert len(verts) == 4   # golden from first verified run
        for v in verts:
            # (x_A^1, y_A^1, x_B^0, y_B^0, x_B^1, y_B^1)
            assert v[2] == 1 and v[4] == 1
            assert v[0] == v[5] and v[1] == -v[3]

    def test_q1_vertex_count_golden(self):
        assert len(enumerate_vertices(build_q_delta(2, 1))) == 28

    def test_nesting(self):
        # Q_{delta'} is inside Q_delta for delta <= delta'
        small = build_q_delta(2, F(3, 2))
        for v in enumerate_vertices(small):
            for coeffs, b in build_q_delta(2, 1).inequalities:
                assert sum(c * x for c, x in zip(coeffs, v)) <= b

    def test_family_witness_is_member(self):
        from signalcap import strength
        for delta in np.arange(0.0, 2.0001, 0.05):
            arr = strength.optimal_family(float(delta)).witness.as_array()
            rows = np.array([[float(v) for v in c] for c, _ in
                             build_q_delta(2, float(delta)).inequalities])
            rhs = np.array([float(b) for _, b in
                            build_q_delta(2, float(delta)).inequalities])
            assert (rows @ arr - rhs).max() <= 1e-9

    def test_delta_out_of_range(self):
        with pytest.raises(ValueError):
            build_q_delta(2, 2.5)


class TestBoxPolytope:
    def test_phi_is_linear_on_mixtures(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b1 = boxes.symmetrize(boxes.random_nonsignaling(2, rng.integers(0, 2**63)))
            b2 = boxes.symmetrize(boxes.random_nonsignaling(2, rng.integers(0, 2**63)))
            lam = rng.uniform()
            mix = boxes.make_box(2, lam * b1.table + (1 - lam) * b2.table)
            c_mix = boxes.correlator_vector(mix).as_array()
            c_lin = (lam * boxes.correlator_vector(b1).as_array()
                     + (1 - lam) * boxes.correlator_vector(b2).as_array())
            assert np.allclose(c_mix, c_lin, atol=1e-12)

    def test_preimage_of_family_point(self):
        found, witness = geometry.box_preimage(
            [F(1, 5), F(-1, 5), F(1, 2), F(1, 5), F(1, 2), F(1, 5)], F(1))
        assert found
        # the witness must be an actual box with the requested correlators
        ab = np.array([[float(witness[geometry.AB[(i, j)]]) for j in range(2)]
                       for i in range(2)])
        ae = np.array([[float(witness[geometry.AE[(i, j)]]) for j in range(2)]
                       for i in range(2)])
        be_t = np.array([[float(witness[geometry.BE[(i, j)]]) for j in range(2)]
                         for i in range(2)])
        box = boxes.from_correlators(2, ab, ae, be_t)
        vec = boxes.correlator_vector(box).as_array()
        assert np.allclose(vec, [0.2, -0.2, 0.5, 0.2, 0.5, 0.2], atol=1e-12)

    def test_preimage_rejects_outside_point(self):
        # x_B^0 = x_B^1 = 1 is forced at delta = 2; ask for the opposite
        found, _ = geometry.box_preimage([F(0)] * 6, F(2))
        assert not found

    def test_preimage_rejects_a_correlator_past_one(self):
        # 1.0000004 is not the float of a short fraction; it once rounded to 1
        assert geometry.box_preimage([0, 0, 1, 0, 1, 0], 0)[0]
        assert geometry.box_preimage([0, 0, 1.0000004, 0, 1, 0], 0) == (False, None)

    def test_box_polytope_membership(self):
        # the twelve correlators of any symmetrized box with monogamy value
        # in [4, 6] satisfy the positivity rows and the equal <B_0 E>
        # conditionals, and their monogamy value lies in [4, 6]
        box = boxes.reference_box(1.5, 0.3)
        ab, ae, be = boxes.two_body_tables(box)
        p12 = [F(0)] * 12
        for (i, j), k in geometry.AB.items():
            p12[k] = F(ab[i, j]).limit_denominator(10**9)
        for (i, j), k in geometry.AE.items():
            p12[k] = F(ae[i, j]).limit_denominator(10**9)
        for (i, j), k in geometry.BE.items():
            p12[k] = F(be[i, j]).limit_denominator(10**9)
        for coeffs, b in geometry.box_polytope_inequalities():
            assert sum(c * v for c, v in zip(coeffs, p12)) <= b
        for coeffs, b in geometry.box_polytope_equalities():
            assert sum(c * v for c, v in zip(coeffs, p12)) == b
        assert 4 <= monogamy_value(p12) <= 6

    def test_monogamy_functional_matches_box_value(self):
        box = boxes.reference_box(1.0, 0.25)
        ab, ae, be = boxes.two_body_tables(box)
        p12 = [F(0)] * 12
        for (i, j), k in geometry.AB.items():
            p12[k] = F(ab[i, j]).limit_denominator(10**9)
        for (i, j), k in geometry.AE.items():
            p12[k] = F(ae[i, j]).limit_denominator(10**9)
        for (i, j), k in geometry.BE.items():
            p12[k] = F(be[i, j]).limit_denominator(10**9)   # be[i, j] = <B_j E>_{A_i}
        assert monogamy_value(p12) == 5


class TestBoxLPRows:
    def test_m2_tables_pinned(self):
        # the twelve-correlator tables as first written out by hand
        assert geometry.AB == {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
        assert geometry.AE == {(0, 0): 4, (0, 1): 5, (1, 0): 6, (1, 1): 7}
        assert geometry.BE == {(0, 0): 8, (0, 1): 9, (1, 0): 10, (1, 1): 11}
        assert geometry.PHI_INDICES == (11, 9, 4, 5, 6, 7)
        m_row = [1, -1, 1, 1, 0, 0, 0, 0, 2, 0, 0, 0]
        assert geometry.M_ROW == tuple(F(v) for v in m_row)
        assert all(type(v) is F for v in geometry.M_ROW)
        units = [[int(k == pos) for k in range(12)] for pos in (11, 9, 4, 5, 6, 7)]
        assert geometry._EQ_ROWS == [[0] * 8 + [1, 0, -1, 0], *units, m_row]
        pos_rows = []
        for i, j in itertools.product(range(2), repeat=2):
            for sa, sb, se in itertools.product((1, -1), repeat=3):
                row = [0] * 12
                row[2 * i + j] = -sa * sb
                row[4 + 2 * i + j] = -sa * se
                row[8 + 2 * i + j] = -sb * se
                pos_rows.append((row, 1))
        assert geometry._POS_ROWS == pos_rows
        assert geometry.box_polytope_inequalities() == [
            (tuple(F(v) for v in row), F(b)) for row, b in pos_rows]
        assert geometry.box_polytope_equalities() == [
            (tuple(F(v) for v in [0] * 8 + [1, 0, -1, 0]), F(0))]

    def test_m3_rows_hold_on_nonsignaling_boxes(self):
        (ab_idx, ae_idx, be_idx), pos, eqs, phi, m_row = geometry._box_lp(3)
        assert (len(pos), len(eqs), len(phi), len(m_row)) == (72, 2, 10, 27)
        assert ab_idx[(2, 1)] == 7 and ae_idx[(0, 0)] == 9 and be_idx[(2, 2)] == 26
        A_pos = np.array([[float(v) for v in c] for c, _ in pos])
        b_pos = np.array([float(b) for _, b in pos])
        A_eq = np.array([[float(v) for v in c] for c, _ in eqs])
        m_vec = np.array([float(v) for v in m_row])
        for seed in range(20):
            box = boxes.random_nonsignaling(3, seed)
            ab, ae, be = boxes.two_body_tables(box)
            p27 = np.concatenate([ab.ravel(), ae.ravel(), be.ravel()])
            assert (A_pos @ p27 <= b_pos + 1e-12).all()
            assert np.abs(A_eq @ p27).max() <= 1e-12
            assert np.array_equal(p27[list(phi)], boxes.correlator_vector(box).values)
            assert abs(m_vec @ p27 - (boxes.chained_bell_value(box) + 2 * be[0, 0])) <= 1e-12


class TestCharacterization:
    def test_full_report(self, characterization):
        rep, _ = characterization
        assert rep.q_vertices_in_slices
        assert rep.all_preimages_found
        # golden counts from the first verified run
        assert rep.vertex_count == 24
        assert rep.slice_counts == {"0": 20, "2": 4, "interior": 0}

    def test_every_fixed_delta_vertex_has_a_preimage(self):
        # the slice polytope at delta = 1/2: every vertex is realized by an
        # actual box with monogamy value 4 + 1/2
        delta = F(1, 2)
        verts = enumerate_vertices(build_q_delta(2, delta))
        assert verts
        for v in verts:
            found, witness = geometry.box_preimage(v, delta)
            assert found
            assert monogamy_value(witness) == 4 + delta
            assert phi(witness) == tuple(v)

    def test_negative_control_dropped_constraint(self):
        # removing one violation constraint admits vertices with no box
        # preimage, demonstrating the check's sensitivity
        q2 = build_q_delta(2, 2)
        dropped = HPolytope(6, q2.inequalities[1:])
        verts = enumerate_vertices(dropped)
        assert len(verts) == 5
        missing = [v for v in verts if not geometry.box_preimage(v, 2)[0]]
        assert len(missing) == 1


def assert_exact_box(witness, c6, delta):
    """The witness is exactly a box with correlators c6 and violation delta."""
    assert len(witness) == 12 and all(isinstance(v, Fraction) for v in witness)
    for coeffs, b in geometry.box_polytope_inequalities():
        assert sum(c * v for c, v in zip(coeffs, witness)) <= b
    for coeffs, b in geometry.box_polytope_equalities():
        assert sum(c * v for c, v in zip(coeffs, witness)) == b
    assert phi(witness) == tuple(c6)
    assert monogamy_value(witness) == 4 + delta


def highs_box_feasible(c6, delta):
    """HiGHS's float verdict on the box LP that box_preimage solves exactly."""
    eq_rhs = [0.0, *map(float, c6), 4.0 + float(delta)]
    res = linprog(np.zeros(12), A_ub=np.array([r for r, _ in geometry._POS_ROWS], float),
                  b_ub=np.array([b for _, b in geometry._POS_ROWS], float),
                  A_eq=np.array(geometry._EQ_ROWS, float), b_eq=eq_rhs,
                  bounds=(None, None), method="highs")
    return res.status == 0


class TestPreimageCertificates:
    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []
        real = geometry.lp_feasible

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "lp_feasible", counted)
        return calls

    @pytest.mark.parametrize("mode", ["highs", "forced"])
    def test_vertices_found_without_fallback(self, mode, exact_calls):
        # box_preimage has no fallback: one exact LP decides each query, and
        # a found witness is checked row by row (the certificate).  forced:
        # the exact verdicts alone; highs: HiGHS, outside the path, solves the
        # same LP in floats as an independent oracle and must agree with each.
        points = [(v[:6], v[6]) for v in enumerate_vertices(geometry.build_q_v())]
        points += [(v, F(1, 2)) for v in enumerate_vertices(build_q_delta(2, F(1, 2)))]
        assert len(points) == 24 + 28
        q2 = build_q_delta(2, 2)
        dropped = enumerate_vertices(HPolytope(6, q2.inequalities[1:]))
        assert len(dropped) == 5
        verdicts = []
        for c6, delta in points + [(v, F(2)) for v in dropped]:
            found, witness = geometry.box_preimage(c6, delta)
            if found:
                assert_exact_box(witness, c6, delta)
            verdicts.append(found)
            if mode == "highs":
                assert highs_box_feasible(c6, delta) == found
        assert all(verdicts[:len(points)])
        assert verdicts[len(points):].count(False) == 1
        assert len(exact_calls) == len(points) + len(dropped)

    def test_convex_combinations_found_and_pushed_past_rejected(self):
        # a point of Q_V has a box, and so do its correlators at the largest
        # violation the summed rows allow (coeffs . c >= delta); one step past
        # it they have none
        summed = [[int(k) for k in row] for row in monogamy.all_summed_constraints(2)]
        verts = enumerate_vertices(geometry.build_q_v())
        rng = np.random.default_rng(17)
        cases = [([F(0)] * 6, F(2))]
        for _ in range(12):
            picks = rng.choice(len(verts), size=int(rng.integers(2, 5)), replace=False)
            weights = [F(int(w)) for w in rng.integers(1, 10, len(picks))]
            weights = [w / sum(weights) for w in weights]
            point = [sum(w * verts[i][k] for w, i in zip(weights, picks)) for k in range(7)]
            c6, delta = point[:6], point[6]
            found, witness = geometry.box_preimage(c6, delta)
            assert found
            assert_exact_box(witness, c6, delta)
            largest = min(sum(a * v for a, v in zip(row, c6)) for row in summed)
            assert delta <= largest <= 2
            assert geometry.box_preimage(c6, largest)[0]
            cases.append((c6, largest + F(1, 1000)))
        for c6, delta in cases:
            assert geometry.box_preimage(c6, delta) == (False, None)


class TestDumps:
    def test_h_and_v_roundtrip_text(self):
        poly = build_q_delta(2, F(1, 2))
        h = geometry.dump_h_representation(poly)
        assert h.startswith("# dim 6")
        assert "<= -1/2" in h
        v = geometry.dump_v_representation(enumerate_vertices(build_q_delta(2, 2)))
        assert v.splitlines()[0] == "# vertices 4"
        assert all(len(line.split()) == 6 for line in v.splitlines()[1:])
