import itertools
from fractions import Fraction

import numpy as np
import pytest

from signalcap import boxes, geometry
from signalcap.geometry import HPolytope, UnboundedPolytope, build_q_delta, enumerate_vertices
from signalcap.rational_lp import linprog_exact, lp_feasible, solve_square_exact

F = Fraction


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

    def test_degenerate_cycling_guard(self):
        # classic degenerate vertex; Bland's rule must terminate
        res = linprog_exact([F(-3, 4), F(150), F(-1, 50), F(6)],
                            A_ub=[(F(1, 4), F(-60), F(-1, 25), F(9)),
                                  (F(1, 2), F(-90), F(-1, 50), F(3)),
                                  (F(0), F(0), F(1), F(0))],
                            b_ub=[F(0), F(0), F(1)],
                            nonneg=True)
        assert res.status == "optimal"
        assert res.value == F(-1, 20)

    def test_solve_square_exact(self):
        rows = [[F(2), F(1)], [F(1), F(-1)]]
        assert solve_square_exact(rows, [F(3), F(0)]) == (F(1), F(1))
        assert solve_square_exact([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None


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

    def test_unbounded_raises(self):
        poly = HPolytope(2, ((tuple([F(1), F(0)]), F(1)),
                             (tuple([F(0), F(1)]), F(1))))
        with pytest.raises(UnboundedPolytope):
            enumerate_vertices(poly)


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

    def test_box_polytope_membership(self):
        # the twelve correlators of any symmetrized box with monogamy value
        # in [4, 6] satisfy every constraint of the twelve-dimensional polytope
        poly = geometry.build_box_polytope()
        assert poly.dim == 12
        assert len(poly.inequalities) == 34 and len(poly.equalities) == 1
        box = boxes.reference_box(1.5, 0.3)
        ab, ae, be = boxes.two_body_tables(box)
        p12 = [F(0)] * 12
        for (i, j), k in geometry.AB.items():
            p12[k] = F(ab[i, j]).limit_denominator(10**9)
        for (i, j), k in geometry.AE.items():
            p12[k] = F(ae[i, j]).limit_denominator(10**9)
        for (i, j), k in geometry.BE.items():
            p12[k] = F(be[i, j]).limit_denominator(10**9)
        for coeffs, b in poly.inequalities:
            assert sum(c * v for c, v in zip(coeffs, p12)) <= b
        for coeffs, b in poly.equalities:
            assert sum(c * v for c, v in zip(coeffs, p12)) == b

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
        assert geometry.monogamy_functional(p12) == 5


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
            assert geometry.monogamy_functional(witness) == 4 + delta
            assert geometry.phi(witness) == tuple(v)

    def test_negative_control_dropped_constraint(self):
        # removing one violation constraint admits vertices with no box
        # preimage, demonstrating the check's sensitivity
        q2 = build_q_delta(2, 2)
        dropped = HPolytope(6, q2.inequalities[1:])
        verts = enumerate_vertices(dropped)
        assert len(verts) == 5
        missing = [v for v in verts if not geometry.box_preimage(v, 2)[0]]
        assert len(missing) == 1


class TestDumps:
    def test_h_and_v_roundtrip_text(self):
        poly = build_q_delta(2, F(1, 2))
        h = geometry.dump_h_representation(poly)
        assert h.startswith("# dim 6")
        assert "<= -1/2" in h
        v = geometry.dump_v_representation(enumerate_vertices(build_q_delta(2, 2)))
        assert v.splitlines()[0] == "# vertices 4"
        assert all(len(line.split()) == 6 for line in v.splitlines()[1:])
