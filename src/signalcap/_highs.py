"""One LP solve on the HiGHS core that scipy bundles.

``linprog`` builds the model that ``scipy.optimize.linprog(method="highs")``
builds, sets the options it sets and applies its acceptance rule, so it
returns the same ``x`` and ``fun`` bit for bit.  It skips scipy's per-call
wrapper: option validation, sparse conversion and input cleaning cost about
three times HiGHS's own solve on the small master LPs of ``strength``.

Every call solves on one module-level HiGHS object, made with the options
once.  A call passes the whole model anew, which drops the last basis, so
each solve starts cold: no warm start, no persistent model.  The one object
makes the adapter single-threaded.
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
_HIGHS = _core._Highs()
if _HIGHS.passOptions(_OPTIONS) != _core.HighsStatus.kOk:
    raise RuntimeError("HiGHS rejected the options")
_COLWISE = int(_core.MatrixFormat.kColwise)
_MINIMIZE = int(_core.ObjSense.kMinimize)

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


def feasible(x, fun, slack, lb, ub) -> bool:
    """linprog's check of a reported optimum: nothing NaN, and the bounds and
    the inequality slacks hold within FEAS_TOL."""
    if np.isnan(fun) or np.isnan(x).any() or np.isnan(slack).any():
        return False
    return bool(np.all((x >= lb - FEAS_TOL) & (x <= ub + FEAS_TOL))
                and not (slack < -FEAS_TOL).any())


def linprog(c, A_ub, b_ub, bounds) -> HighsResult:
    """Minimize c.x subject to A_ub x <= b_ub and the column bounds, given as
    an (n, 2) array of (lower, upper).  Dense float inputs.  Solves cold on
    the module's one HiGHS object, so calls must not overlap: the adapter is
    single-threaded."""
    lb, ub = np.asarray(bounds, dtype=float).T
    start, index, value = _csc(A_ub)
    row_lower = np.full(len(b_ub), -_core.kHighsInf)
    # the array overload of passModel: an LP has all columns continuous (0)
    if _HIGHS.passModel(A_ub.shape[1], A_ub.shape[0], len(value), _COLWISE, _MINIMIZE, 0.0,
                        c, lb, ub, row_lower, b_ub, start, index, value,
                        np.zeros(A_ub.shape[1], dtype=np.int32)) == _core.HighsStatus.kError:
        return HighsResult(False, None, None, "HiGHS rejected the model")
    run_failed = _HIGHS.run() == _core.HighsStatus.kError
    status = _HIGHS.getModelStatus()
    if run_failed or status != _core.HighsModelStatus.kOptimal:
        return HighsResult(False, None, None,
                           f"HiGHS model status {_HIGHS.modelStatusToString(status)}")
    solution = _HIGHS.getSolution()
    x = np.array(solution.col_value)
    fun = _HIGHS.getInfo().objective_function_value
    slack = b_ub - np.array(solution.row_value)
    if not feasible(x, fun, slack, lb, ub):
        return HighsResult(False, x, fun, "HiGHS optimum violates the constraints "
                           f"by more than {FEAS_TOL:.2e}")
    return HighsResult(True, x, fun, "optimal")
