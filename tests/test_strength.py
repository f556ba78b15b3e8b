import itertools

import numpy as np
import pytest

from signalcap import boxes, channels, geometry, strength
from signalcap.strength import (
    c2_analytic,
    c_delta,
    chained_polytope_bound,
    curve,
    gava_bound,
    grid_oracle,
    optimal_family,
)


def brute_force_grid_min(delta, step):
    """Naive full-grid reference for the factored global scan."""
    n = int(round(2.0 / step))
    g = -1.0 + step * np.arange(n + 1)
    A_ub, b_ub, _, _ = geometry.polytope_float(geometry.build_q_delta(2, delta))
    pts = np.array(list(itertools.product(g, repeat=6)))
    feas = (A_ub @ pts.T - b_ub[:, None]).max(axis=0) <= 1e-12
    pts = pts[feas]
    if not len(pts):
        return np.inf
    p = (1.0 + pts) / 2.0
    f = np.maximum(channels.capacity_array(p[:, 2], p[:, 3]),
                   np.maximum(channels.capacity_array(p[:, 4], p[:, 5]),
                              channels.capacity_array(p[:, 0], p[:, 1])))
    return float(f.min())


class TestGavaBound:
    def test_zero_at_zero(self):
        assert gava_bound(2, 0.0) == 0.0

    def test_m2_maximal(self):
        # 1 - H(2/3) = 0.0817042
        assert gava_bound(2, 2.0) == pytest.approx(0.0817, abs=1e-4)

    def test_m3_maximal(self):
        # 1 - H(0.6) = 0.0290494
        assert gava_bound(3, 2.0) == pytest.approx(0.0290, abs=1e-4)

    def test_decreases_with_m(self):
        for delta in (0.5, 1.0, 2.0):
            assert gava_bound(3, delta) < gava_bound(2, delta)

    def test_domain(self):
        with pytest.raises(ValueError):
            gava_bound(2, 3.0)
        with pytest.raises(ValueError):
            gava_bound(1, 1.0)


class TestOptimalFamily:
    def test_delta_zero(self):
        fam = optimal_family(0.0)
        assert fam.x_star == 0.0 and fam.value == 0.0

    def test_maximal_violation_root(self):
        # bisection root of C(1, (1+x)/2) = C((1+x)/2, (1-x)/2):
        # x* = 0.4589374, common value 0.1577740
        fam = optimal_family(2.0)
        assert fam.x_star == pytest.approx(0.4589374, abs=1e-5)
        assert fam.value == pytest.approx(0.1577740, abs=1e-6)
        assert fam.value == pytest.approx(0.158, abs=2e-3)

    def test_residual_below_1e10(self):
        for delta in (0.3, 1.0, 1.9):
            fam = optimal_family(delta)
            p0 = (1.0 + delta / 2.0) / 2.0
            lhs = channels._capacity_pq(p0, (1.0 + fam.x_star) / 2.0)
            rhs = channels._capacity_pq((1.0 + fam.x_star) / 2.0,
                                        (1.0 - fam.x_star) / 2.0)
            assert abs(lhs - rhs) < 1e-10

    def test_witness_channels_are_equalized(self):
        fam = optimal_family(1.0)
        caps = list(channels.channels_from_correlators(fam.witness).capacities().values())
        assert max(caps) == pytest.approx(fam.value, abs=1e-10)

    def test_matches_committed_grid_values(self, golden_c_delta):
        for delta, want in golden_c_delta.items():
            assert optimal_family(delta).value == pytest.approx(want, abs=1e-3)


class TestC2Analytic:
    def test_report(self):
        rep = c2_analytic()
        assert rep.subregion_value == pytest.approx(0.322, abs=1e-3)
        assert rep.c2 == pytest.approx(0.158, abs=2e-3)
        assert rep.c2 == pytest.approx(0.1577740, abs=1e-6)
        assert rep.alpha_star == pytest.approx(0.4589374, abs=1e-5)
        assert rep.c2 <= rep.subregion_value

    def test_alpha_star_reference_from_high_precision_root(self):
        """The reference root 0.459 of C(1,(1+a)/2) = C((1+a)/2,(1-a)/2),
        recomputed at 40 digits without signalcap's capacity code.

        The recorded value 0.469 is not a root: there the equation's residual
        is about -0.0105 bits."""
        mp = pytest.importorskip("mpmath").mp

        def h(x):
            return -sum(t * mp.log(t, 2) for t in (x, 1 - x) if t > 0)

        def cap(p, q):
            # the capacity-achieving output law r = P(out = 1) solves
            # H'(r) (p - q) = H(p) - H(q); the input weight on p follows
            r = 1 / (1 + mp.power(2, (h(p) - h(q)) / (p - q)))
            lam = (r - q) / (p - q)
            return h(r) - lam * h(p) - (1 - lam) * h(q)

        def residual(a):
            return cap(mp.mpf(1), (1 + a) / 2) - cap((1 + a) / 2, (1 - a) / 2)

        with mp.workdps(40):
            root = mp.findroot(residual, (mp.mpf("0.44"), mp.mpf("0.48")),
                               solver="anderson")
            assert abs(residual(root)) < mp.mpf(10) ** -30
            c2 = float(cap(mp.mpf(1), (1 + root) / 2))
            root_f = float(root)
            residual_469 = float(residual(mp.mpf("0.469")))
        assert root_f == pytest.approx(0.458937363555, abs=1e-9)
        assert c2 == pytest.approx(0.157773988319, abs=1e-12)
        assert root_f == pytest.approx(c2_analytic().alpha_star, abs=1e-6)
        assert abs(root_f - 0.459) <= 0.002 < abs(0.469 - root_f)
        assert residual_469 < -0.01


class TestMinimaxSolver:
    def test_delta_zero_is_free(self):
        res = c_delta(0.0)
        assert res.value == pytest.approx(0.0, abs=1e-6)

    def test_maximal_violation(self):
        res = c_delta(2.0)
        assert res.value == pytest.approx(0.1577740, abs=2e-4)
        assert res.value == pytest.approx(0.158, abs=2e-3)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
    def test_matches_grid_fixture(self, delta, golden_c_delta):
        res = c_delta(delta)
        assert res.value == pytest.approx(golden_c_delta[delta], abs=1e-3)

    def test_witness_is_feasible_and_attains_value(self):
        res = c_delta(1.0)
        arr = res.witness.as_array()
        A_ub, b_ub, _, _ = geometry.polytope_float(geometry.build_q_delta(2, 1.0))
        assert (A_ub @ arr - b_ub).max() <= 1e-9
        fam = channels.channels_from_correlators(res.witness)
        assert fam.max_capacity() == pytest.approx(res.value, abs=1e-12)

    def test_deterministic(self):
        a = c_delta(0.7)
        b = c_delta(0.7)
        assert a.value == b.value
        assert np.array_equal(a.witness.as_array(), b.witness.as_array())

    def test_relaxed_mode_matches_strict(self, golden_c_delta):
        for delta in (0.5, 1.0, 1.5, 2.0):
            res = c_delta(delta, relaxed=True)
            assert res.value == pytest.approx(golden_c_delta[delta], abs=1e-3)
            arr = res.witness.as_array()
            assert abs(arr[6] - arr[7]) <= 1e-9   # <B_0E>_{A_0} = <B_0E>_{A_1}

    def test_nonconvergence_reports_budget(self):
        poly = geometry.build_q_delta(2, 1.0)
        pairs = channels.family_index_pairs(2)
        with pytest.raises(channels.NoConvergence):
            strength.minimax_capacity(poly, pairs, tol=1e-12, max_iter=2)


class TestGridOracle:
    def test_factored_scan_equals_naive_brute_force(self):
        for delta, step in [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (2.0, 0.5),
                            (0.3, 0.25), (1.7, 0.25)]:
            fast, _ = strength._global_grid_scan(delta, step)
            assert fast == pytest.approx(brute_force_grid_min(delta, step), abs=1e-12)

    def test_delta_zero(self):
        assert grid_oracle(0.0) == 0.0

    def test_matches_family_at_step_005(self):
        for delta in (1.0, 2.0):
            assert grid_oracle(delta, step=0.05) == pytest.approx(
                optimal_family(delta).value, abs=1e-3)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(1.0, step=0.2)

    def test_refine_to_is_keyword_only(self):
        # a positional third argument once meant m; it must not set refine_to
        with pytest.raises(TypeError):
            grid_oracle(1.0, 0.05, 2)

    def test_fixture_spot_check(self, golden_c_delta):
        assert grid_oracle(1.0, step=0.05) == pytest.approx(golden_c_delta[1.0], abs=2e-4)


class TestChainedBound:
    def test_m2_reduces_to_c_delta(self, golden_c_delta):
        for delta in (0.5, 1.5):
            res = chained_polytope_bound(2, delta)
            assert res.label == "exact"
            assert res.value == pytest.approx(golden_c_delta[delta], abs=1e-3)

    def test_m3_zero_at_zero(self):
        assert chained_polytope_bound(3, 0.0).value == pytest.approx(0.0, abs=1e-6)

    def test_m3_dominates_gava(self):
        for delta in (0.5, 1.0, 2.0):
            res = chained_polytope_bound(3, delta)
            assert res.label == "conjectured lower bound"
            assert res.value >= gava_bound(3, delta) - 1e-6

    def test_m3_maximal_golden(self):
        # regression value from the first verified run
        res = chained_polytope_bound(3, 2.0)
        assert res.value == pytest.approx(0.06184, abs=5e-4)

    def test_m4_supported(self):
        res = chained_polytope_bound(4, 2.0)
        assert res.label == "conjectured lower bound"
        assert res.value >= gava_bound(4, 2.0) - 1e-6
        assert res.value == pytest.approx(0.032784, abs=5e-4)   # first-run golden

    def test_m_cap(self):
        with pytest.raises(ValueError):
            chained_polytope_bound(5, 1.0)


class TestCurve:
    def test_single_point(self):
        result = curve(2, [0.0])
        assert len(result.rows) == 1
        assert result.rows[0].c_delta == pytest.approx(0.0, abs=1e-6)

    def test_five_point_grid(self, golden_c_delta):
        result = curve(2, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert result.monotone and result.ok
        assert result.rows[-1].c_delta == pytest.approx(0.158, abs=2e-3)
        for row in result.rows:
            assert row.c_delta >= gava_bound(2, row.delta) - 1e-6
            assert row.c_delta == pytest.approx(golden_c_delta[row.delta], abs=1e-3)
            assert row.family_value == pytest.approx(row.c_delta, abs=1e-3)

    def test_m3_rows_labeled_conjectured(self):
        result = curve(3, [0.0, 1.0])
        for row in result.rows:
            assert row.label == "conjectured lower bound"
            assert row.gava_m3 == pytest.approx(gava_bound(3, row.delta), abs=1e-12)

    def test_csv_shape_and_determinism(self):
        result = curve(2, [0.0, 1.0, 2.0])
        text = result.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].split(",")[:5] == ["delta", "c_delta", "family_value",
                                           "gava_m2", "gava_m3"]
        assert len(lines) == 4
        again = curve(2, [0.0, 1.0, 2.0]).to_csv()
        assert again == text

    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            curve(2, [1.0, 0.5])

    def test_solver_failure_recorded_per_row(self, monkeypatch):
        real = strength.chained_polytope_bound

        def flaky(m, delta, tol=1e-4):
            if delta == 1.0:
                raise channels.NoConvergence(1)
            return real(m, delta, tol)

        monkeypatch.setattr(strength, "chained_polytope_bound", flaky)
        result = curve(2, [0.0, 1.0, 2.0])
        assert not result.ok
        assert result.rows[1].error is not None
        assert result.rows[0].error is None and result.rows[2].error is None
        lines = result.to_csv().strip().splitlines()
        assert len(lines) == 3   # header + the two completed rows


class TestIsotonic:
    def test_solver_curve_nondecreasing_on_fixture_grid(self, golden_c_delta):
        deltas = sorted(golden_c_delta)
        vals = [golden_c_delta[d] for d in deltas]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_gava_sandwich(self, golden_c_delta):
        for delta, val in golden_c_delta.items():
            assert gava_bound(2, delta) <= val + 1e-6
