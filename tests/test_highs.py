"""The master-LP adapter against scipy.optimize.linprog, its reference.

signalcap._highs.linprog builds the model and options linprog(method="highs")
builds and applies the same acceptance rule, so every master LP of a sweep
must come back with the same success flag, the same x and the same objective
to the last bit.
"""
import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.optimize._highspy import _core

from signalcap import _highs, channels, geometry, strength


def _record_master_lps(monkeypatch, solves):
    """Run the solves with strength.linprog wrapped; return every
    (arguments, result) pair the Kelley loop saw."""
    seen = []

    def recording(*args):
        res = _highs.linprog(*args)
        seen.append((args, res))
        return res

    monkeypatch.setattr(strength, "linprog", recording)
    for solve in solves:
        solve()
    return seen


def _dense(c, A_ub, b_ub):
    """The dense matrix of the row-wise (start, index, value) rows."""
    start, index, value = A_ub
    return scipy.sparse.csr_array((value, index, start), shape=(len(b_ub), len(c))).toarray()


def test_master_lps_match_scipy_linprog_bitwise(monkeypatch):
    solves = ([lambda d=d: strength.c_delta(d) for d in (0.0, 0.35, 0.9, 1.45, 2.0)]
              + [lambda d=d: strength.chained_polytope_bound(3, d) for d in (0.5, 1.5)]
              + [lambda d=d: strength.c_delta(d, relaxed=True) for d in (0.7, 1.8)])
    seen = _record_master_lps(monkeypatch, solves)
    assert len(seen) > 100
    for (c, A_ub, b_ub, bounds), res in seen:
        # scipy takes the dense matrix and finds its nonzeros itself
        ref = scipy.optimize.linprog(c, A_ub=_dense(c, A_ub, b_ub), b_ub=b_ub,
                                     bounds=np.column_stack(bounds), method="highs")
        assert res.success is bool(ref.success)
        assert np.array_equal(res.x, ref.x)
        assert res.fun == ref.fun


@pytest.mark.parametrize("m, delta, relaxed",
                         [(2, d, False) for d in (0.0, 0.35, 0.9, 1.45, 2.0)]
                         + [(3, d, False) for d in (0.0, 0.5, 1.1, 1.5, 2.0)]
                         + [(4, 1.0, False), (2, 0.7, True), (2, 1.8, True)])
def test_summed_rows_solve_as_the_full_polytope(monkeypatch, m, delta, relaxed):
    # q_delta_float leaves the [-1, 1] box to the column bounds; a Kelley
    # solve over build_q_delta's rows, box rows included, is the reference.
    # Relaxed mode solves the strict master LPs
    pairs = channels.family_index_pairs(m)
    A, b = geometry.q_delta_float(m, delta)
    full = geometry.polytope_float(geometry.build_q_delta(m, delta))[:2]
    value, x, gap, iterations = strength.minimax_capacity(full, pairs)
    out = []
    seen = _record_master_lps(
        monkeypatch, [lambda: out.append(strength.c_delta(delta, relaxed=True) if relaxed
                                         else strength.chained_polytope_bound(m, delta))])
    res, = out
    assert (res.value, res.gap, res.iterations) == (value, gap, iterations)
    assert res.witness.values[:x.size].tobytes() == x.tobytes()
    # each master LP: the summed rows with a zero t column, then cuts
    assert len(seen) == iterations
    k = len(b)
    assert k == 4 ** (m - 1)
    for (c, rows, b_ub, _), _ in seen:
        # int32 rows of nonzeros, each in column order
        start, index, value = rows
        assert start.dtype == index.dtype == np.int32 and start[0] == 0
        assert value.all() and len(value) == start[-1]
        assert all(np.all(np.diff(index[i:j]) > 0) for i, j in zip(start[:-1], start[1:]))
        A_ub = _dense(c, rows, b_ub)
        assert A_ub[:k, :-1].tobytes() == A.tobytes() and not A_ub[:k, -1].any()
        assert b_ub[:k].tobytes() == b.tobytes()
        assert np.all(A_ub[k:, -1] == -1.0)


# x0 <= -1 and x0 >= 1
INFEASIBLE = (np.array([1.0]),
              (np.array([0, 1, 2], dtype=np.int32), np.zeros(2, dtype=np.int32),
               np.array([1.0, -1.0])),
              np.array([-1.0, -1.0]), (np.array([-2.0]), np.array([2.0])))


def _master_lps(monkeypatch, delta):
    """The arguments of every master LP of c_delta(delta), in order."""
    return [args for args, _ in
            _record_master_lps(monkeypatch, [lambda: strength.c_delta(delta)])]


def _fresh_solve(monkeypatch, args):
    """linprog on a new HiGHS object: its result and the object."""
    highs = _core._Highs()
    assert highs.passOptions(_highs._OPTIONS) == _core.HighsStatus.kOk
    with monkeypatch.context() as patch:
        patch.setattr(_highs, "_HIGHS", highs)
        return _highs.linprog(*args), highs


def _assert_solves_as_fresh(monkeypatch, args):
    """A solve on the module's one object equals a solve on a new object, bit
    for bit, in as many simplex iterations (so it started cold); returns
    that count."""
    ref, highs = _fresh_solve(monkeypatch, args)
    res = _highs.linprog(*args)
    assert (res.success, res.message) == (ref.success, ref.message)
    assert (res.x is None and ref.x is None) or np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    iterations = highs.getInfo().simplex_iteration_count
    assert _highs._HIGHS.getInfo().simplex_iteration_count == iterations
    return iterations


def test_a_warm_start_shows_in_the_iteration_count(monkeypatch):
    # run() again without passing the model restarts from the last basis;
    # so equal counts in the tests below rule a warm start out
    args = _master_lps(monkeypatch, 1.0)[-1]
    _, highs = _fresh_solve(monkeypatch, args)
    cold = highs.getInfo().simplex_iteration_count
    assert highs.run() == _core.HighsStatus.kOk
    assert highs.getInfo().simplex_iteration_count < cold


def test_same_lp_three_times_solves_cold(monkeypatch):
    args = _master_lps(monkeypatch, 1.0)[-1]
    counts = [_assert_solves_as_fresh(monkeypatch, args) for _ in range(3)]
    assert counts[0] > 0


@pytest.mark.parametrize("k", [0, 2])
def test_master_lps_of_one_shape_back_to_back(monkeypatch, k):
    # the k-th master LP of each delta: the polytope and k rounds of cuts
    lps = [_master_lps(monkeypatch, d)[k] for d in (0.3, 0.9, 1.5, 2.0)]
    assert len({len(args[2]) for args in lps}) == 1
    assert sum(_assert_solves_as_fresh(monkeypatch, args) for args in lps) > 0


def test_feasible_lp_after_an_infeasible_one(monkeypatch):
    args = _master_lps(monkeypatch, 0.9)[-1]
    _assert_solves_as_fresh(monkeypatch, INFEASIBLE)
    assert _assert_solves_as_fresh(monkeypatch, args) > 0


def test_infeasible_lp_fails_with_highs_status():
    res = _highs.linprog(*INFEASIBLE)
    assert res.success is False
    assert res.x is None
    status = _core._Highs().modelStatusToString(_core.HighsModelStatus.kInfeasible)
    assert status in res.message


class TestFeasibilityCheck:
    X = np.array([0.5, 0.25])
    LB, UB = np.zeros(2), np.ones(2)

    def test_accepts_point_within_tolerance(self):
        assert _highs.feasible(self.X, 0.0, np.array([0.0, -0.5 * _highs.FEAS_TOL]),
                               self.LB, self.UB)

    @pytest.mark.parametrize("x, slack", [
        (X, np.array([0.1, -1e-3])),                # an inequality row
        (np.array([0.5, 1.001]), np.zeros(1)),      # a column bound
    ])
    def test_rejects_point_off_by_1e_3(self, x, slack):
        assert not _highs.feasible(x, 0.0, slack, self.LB, self.UB)

    @pytest.mark.parametrize("where", ["x", "fun", "slack"])
    def test_rejects_nan(self, where):
        parts = {"x": self.X.copy(), "fun": 0.0, "slack": np.zeros(1)}
        if where == "fun":
            parts["fun"] = np.nan
        else:
            parts[where][0] = np.nan
        assert not _highs.feasible(parts["x"], parts["fun"], parts["slack"],
                                   self.LB, self.UB)


def test_pinned_highs_core_api():
    """Every name of the bundled HiGHS core the adapter uses, and every option
    it sets, so a scipy upgrade that moves one fails here first."""
    for name in ("HighsDebugLevel", "HighsModelStatus", "HighsOptions", "HighsStatus",
                 "MatrixFormat", "ObjSense", "_Highs", "kHighsInf", "simplex_constants"):
        assert hasattr(_core, name), name
    highs = _core._Highs()
    for method in ("passOptions", "passModel", "run", "getModelStatus", "modelStatusToString",
                   "getSolution", "getObjectiveValue", "getInfo", "getOptionType"):
        assert callable(getattr(highs, method)), method
    for name in _highs.OPTIONS:
        status, _ = highs.getOptionType(name)
        assert status == _core.HighsStatus.kOk, name
    assert highs.passOptions(_highs._OPTIONS) == _core.HighsStatus.kOk
    # passModel's array overload: num_col, num_row, num_nz, format, sense,
    # offset, cost, column bounds, row bounds, row-wise arrays, integrality
    one = np.ones(1)
    status = highs.passModel(1, 1, 1, int(_core.MatrixFormat.kRowwise),
                             int(_core.ObjSense.kMinimize), 0.0, one, -one, one, -one, one,
                             np.array([0, 1], dtype=np.int32), np.zeros(1, dtype=np.int32),
                             one, np.zeros(1, dtype=np.int32))
    assert status == _core.HighsStatus.kOk
    assert highs.run() == _core.HighsStatus.kOk
    assert highs.getInfo().objective_function_value == highs.getObjectiveValue() == -1.0
