"""One LP solve on the HiGHS core that scipy bundles.

``linprog`` builds the model that ``scipy.optimize.linprog(method="highs")``
builds, sets the options it sets and applies its acceptance rule, so it
returns the same ``x`` and ``fun`` bit for bit.  It skips scipy's per-call
wrapper: option validation, sparse conversion and input cleaning cost about
three times HiGHS's own solve on the small master LPs of ``strength``.

The inequality rows come row-wise, as the (start, index, value) arrays of
their nonzeros, and go to HiGHS as they are.  HiGHS builds its column-wise
copy with the row indices ascending in each column, which is the model
scipy passes, so a caller that appends rows to its arrays in place need not
rebuild or re-scan a dense matrix.

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
_ROWWISE = int(_core.MatrixFormat.kRowwise)
_MINIMIZE = int(_core.ObjSense.kMinimize)

# linprog's acceptance tolerance, 10 * sqrt(tol) at its default tol = 1e-9
FEAS_TOL = 10.0 * np.sqrt(1e-9)


class HighsResult(NamedTuple):
    success: bool
    x: "np.ndarray | None"
    fun: "float | None"
    message: str


def feasible(x, fun, slack, lb, ub) -> bool:
    """linprog's check of a reported optimum: nothing NaN, and the bounds and
    the inequality slacks hold within FEAS_TOL.  A NaN fails every
    comparison, so the checks below reject it."""
    return bool(fun == fun and ((x >= lb - FEAS_TOL) & (x <= ub + FEAS_TOL)).all()
                and (slack >= -FEAS_TOL).all())


def linprog(c, A_ub, b_ub, bounds) -> HighsResult:
    """Minimize c.x subject to A_ub x <= b_ub and lb <= x <= ub, given
    bounds = (lb, ub).  A_ub is row-wise, (start, index, value): row i has
    the entries value[start[i]:start[i + 1]] in the columns
    index[start[i]:start[i + 1]], with int32 start and index.  Float
    arrays.  Solves cold on the module's one HiGHS object, so calls must
    not overlap: the adapter is single-threaded."""
    lb, ub = bounds
    start, index, value = A_ub
    # the array overload of passModel: an LP has all columns continuous (0)
    if _HIGHS.passModel(len(c), len(b_ub), len(value), _ROWWISE, _MINIMIZE, 0.0,
                        c, lb, ub, np.full(len(b_ub), -_core.kHighsInf), b_ub,
                        start, index, value,
                        np.zeros(len(c), dtype=np.int32)) == _core.HighsStatus.kError:
        return HighsResult(False, None, None, "HiGHS rejected the model")
    run_failed = _HIGHS.run() == _core.HighsStatus.kError
    status = _HIGHS.getModelStatus()
    if run_failed or status != _core.HighsModelStatus.kOptimal:
        return HighsResult(False, None, None,
                           f"HiGHS model status {_HIGHS.modelStatusToString(status)}")
    solution = _HIGHS.getSolution()
    x = np.array(solution.col_value)
    fun = _HIGHS.getObjectiveValue()
    slack = b_ub - np.array(solution.row_value)
    if not feasible(x, fun, slack, lb, ub):
        return HighsResult(False, x, fun, "HiGHS optimum violates the constraints "
                           f"by more than {FEAS_TOL:.2e}")
    return HighsResult(True, x, fun, "optimal")
