"""One LP solve on the HiGHS core that scipy bundles.

``linprog`` builds the model that ``scipy.optimize.linprog(method="highs")``
builds, sets the options it sets and applies its acceptance rule, so it
returns the same ``x`` and ``fun`` bit for bit.  It skips scipy's per-call
wrapper: option validation, sparse conversion and input cleaning cost about
three times HiGHS's own solve on the small master LPs of ``strength``.

Each call solves on a fresh HiGHS object: no warm start, no persistent model.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core

# the options linprog(method="highs") sets with its defaults; the rest keep
# HiGHS's defaults
OPTIONS = {
    "presolve": "on",
    "highs_debug_level": int(_core.HighsDebugLevel.kHighsDebugLevelNone),
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
}
_OPTIONS = _core.HighsOptions()
for _name, _value in OPTIONS.items():
    setattr(_OPTIONS, _name, _value)

# linprog's acceptance tolerance, 10 * sqrt(tol) at its default tol = 1e-9
FEAS_TOL = 10.0 * np.sqrt(1e-9)


class HighsResult(NamedTuple):
    success: bool
    x: "np.ndarray | None"
    fun: "float | None"
    message: str


def _csc(A: np.ndarray):
    """Column-wise (start, index, value) of the nonzeros of a dense matrix,
    rows ascending within each column."""
    cols, rows = np.nonzero(A.T)
    start = np.zeros(A.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=A.shape[1]), out=start[1:])
    return start, rows.astype(np.int32), A[rows, cols]


def feasible(x, fun, slack, con, lb, ub) -> bool:
    """linprog's check of a reported optimum: nothing NaN, and the bounds,
    the inequality slacks and the equality residuals hold within FEAS_TOL."""
    if np.isnan(fun) or np.isnan(x).any() or np.isnan(slack).any() or np.isnan(con).any():
        return False
    return bool(np.all((x >= lb - FEAS_TOL) & (x <= ub + FEAS_TOL))
                and not (slack < -FEAS_TOL).any()
                and not (np.abs(con) > FEAS_TOL).any())


def linprog(c, A_ub, b_ub, A_eq, b_eq, bounds) -> HighsResult:
    """Minimize c.x subject to A_ub x <= b_ub, A_eq x = b_eq and the column
    bounds, given as an (n, 2) array of (lower, upper).  Dense float inputs;
    A_eq may have no rows."""
    A = np.vstack([A_ub, A_eq])
    lb, ub = np.asarray(bounds, dtype=float).T
    start, index, value = _csc(A)
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = A.shape[1]
    lp.num_row_ = lp.a_matrix_.num_row_ = A.shape[0]
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.concatenate([np.full(len(b_ub), -_core.kHighsInf), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value

    highs = _core._Highs()
    error = _core.HighsStatus.kError
    if highs.passOptions(_OPTIONS) == error or highs.passModel(lp) == error:
        return HighsResult(False, None, None, "HiGHS rejected the model")
    run_failed = highs.run() == error
    status = highs.getModelStatus()
    if run_failed or status != _core.HighsModelStatus.kOptimal:
        return HighsResult(False, None, None,
                           f"HiGHS model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    rows = np.array(solution.row_value)
    slack = b_ub - rows[:len(b_ub)]
    con = b_eq - rows[len(b_ub):]
    if not feasible(x, fun, slack, con, lb, ub):
        return HighsResult(False, x, fun, "HiGHS optimum violates the constraints "
                           f"by more than {FEAS_TOL:.2e}")
    return HighsResult(True, x, fun, "optimal")
