"""The Kelley loop against a frozen copy of its dense form.

The reference below is the loop as it stood before the master LP went
row-wise: a dense (rows + max_iter * len(pairs)) x (d + 1) matrix re-scanned
into column-wise arrays for every master LP, and two closed-form calls per
channel and iteration (the capacity at x, the tangent at the nudged x).
strength.minimax_capacity must reproduce it bit for bit: value, gap,
iterations, witness bytes and the error of the known entropy-domain
failures.
"""
import numpy as np
import pytest
from scipy.optimize._highspy import _core

from signalcap import _highs, channels, geometry, strength
from signalcap.channels import NoConvergence

_HIGHS = _core._Highs()
assert _HIGHS.passOptions(_highs._OPTIONS) == _core.HighsStatus.kOk


def _csc(A):
    """Column-wise (start, index, value) of the nonzeros of a dense matrix,
    rows ascending within each column."""
    cols, rows = np.nonzero(A.T)
    start = np.zeros(A.shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=A.shape[1]), out=start[1:])
    return start, rows.astype(np.int32), A[rows, cols]


def _linprog(c, A_ub, b_ub, bounds):
    """The dense master-LP adapter: success, x and objective."""
    lb, ub = np.asarray(bounds, dtype=float).T
    start, index, value = _csc(A_ub)
    status = _HIGHS.passModel(A_ub.shape[1], A_ub.shape[0], len(value),
                              int(_core.MatrixFormat.kColwise), int(_core.ObjSense.kMinimize),
                              0.0, c, lb, ub, np.full(len(b_ub), -_core.kHighsInf), b_ub,
                              start, index, value, np.zeros(A_ub.shape[1], dtype=np.int32))
    assert status != _core.HighsStatus.kError
    if (_HIGHS.run() == _core.HighsStatus.kError
            or _HIGHS.getModelStatus() != _core.HighsModelStatus.kOptimal):
        return False, None, None
    solution = _HIGHS.getSolution()
    x = np.array(solution.col_value)
    fun = _HIGHS.getInfo().objective_function_value
    slack = b_ub - np.array(solution.row_value)
    ok = not (np.isnan(fun) or np.isnan(x).any() or np.isnan(slack).any())
    ok = ok and bool(np.all((x >= lb - _highs.FEAS_TOL) & (x <= ub + _highs.FEAS_TOL))
                     and not (slack < -_highs.FEAS_TOL).any())
    return ok, x, fun


def _family_eval(x, pairs):
    """Capacities at x and the dense tangent cuts C(c) >= G[k].c + off[k]."""
    x = np.asarray(x, dtype=float)
    xn = np.clip(x, -1.0 + 2e-9, 1.0 - 2e-9)
    caps = np.empty(len(pairs))
    G = np.zeros((len(pairs), x.size))
    off = np.empty(len(pairs))
    for k, (_, ix, iy) in enumerate(pairs):
        caps[k] = channels._capacity_pq((1.0 + x[ix]) / 2.0, (1.0 + x[iy]) / 2.0)
        cn, gp, gq = channels.capacity_gradient(
            channels.BinaryChannel((1.0 + xn[ix]) / 2.0, (1.0 + xn[iy]) / 2.0))
        G[k, ix] = gp / 2.0
        G[k, iy] = gq / 2.0
        off[k] = cn - G[k] @ xn
    return caps, G, off


def _minimax_capacity(rows, pairs, tol=1e-4, max_iter=800):
    A_ub, b_ub = rows
    dim = A_ub.shape[1]
    c_obj = np.zeros(dim + 1)
    c_obj[-1] = 1.0
    bounds = np.array([(-1.0, 1.0)] * dim + [(0.0, 1.0)])
    rows = len(b_ub)
    A = np.zeros((rows + max_iter * len(pairs), dim + 1))
    A[:rows, :dim] = A_ub
    A[rows:, -1] = -1.0
    b = np.concatenate([b_ub, np.zeros(max_iter * len(pairs))])
    best_val, best_x, lower = np.inf, None, 0.0
    for it in range(1, max_iter + 1):
        ok, x, fun = _linprog(c_obj, A[:rows], b[:rows], bounds)
        if not ok:
            raise NoConvergence(it, message="master LP failed")
        x = x[:dim].copy()
        lower = max(lower, float(fun))
        caps, G, off = _family_eval(x, pairs)
        f = float(caps.max())
        if f < best_val:
            best_val, best_x = f, x
        if best_val - lower <= tol:
            return best_val, best_x, best_val - lower, it
        A[rows:rows + len(off), :dim] = G
        b[rows:rows + len(off)] = -off
        rows += len(off)
    raise NoConvergence(max_iter)


CASES = ([(2, round(k * 0.05, 10), False) for k in range(41)]
         + [(2, round(k * 0.05, 10), True) for k in range(41)]
         + [(3, round(k * 0.1, 10), False) for k in range(21)]
         + [(4, d, False) for d in (0.0, 1.0, 2.0)])


@pytest.mark.parametrize("m, delta, relaxed", CASES)
def test_loop_matches_the_dense_reference(m, delta, relaxed):
    want = _minimax_capacity(geometry.q_delta_float(m, delta), channels.family_index_pairs(m))
    res = (strength.c_delta(delta, relaxed=True) if relaxed
           else strength.chained_polytope_bound(m, delta))
    value, x, gap, iterations = want
    assert (res.value, res.gap, res.iterations) == (value, gap, iterations)
    witness = res.witness.values
    assert witness[:x.size].tobytes() == x.tobytes()
    assert witness[x.size:].tolist() == ([-1.0, -1.0] if relaxed else [])


@pytest.mark.parametrize("m, delta", [(2, 0.06), (3, 0.02)])
def test_entropy_domain_failures_unchanged(m, delta):
    # the known failures: an iterate just past 1 leaves the entropy domain
    with pytest.raises(ValueError) as want:
        _minimax_capacity(geometry.q_delta_float(m, delta), channels.family_index_pairs(m))
    assert "entropy argument must lie in [0, 1], got 1.00000000" in str(want.value)
    with pytest.raises(ValueError) as got:
        strength.chained_polytope_bound(m, delta)
    assert str(got.value) == str(want.value)


def _count_calls(monkeypatch):
    calls = {"_capacity_pq": 0, "capacity_gradient": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(channels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(channels, name, counting)
    return calls


@pytest.mark.parametrize("x, nudged", [
    ([0.3, -0.2, 0.5, 0.1, 0.7, 0.2], 0),
    # coordinates at +-1, as at the master LP's vertices: the tangent is
    # taken 1e-9 inside the box and the capacity at x is a second call
    ([1.0, -1.0, 0.5, 0.1, 0.7, 0.2], 1),
    ([0.0, 0.25, 1.0, 1.0, 1.0, -1.0], 2),
    ([-1.0, 1.0, -1.0, 1.0, -0.999999999, 0.9999999995], 3),
    ([0.1, 0.1, 1.0, 0.5, -0.4, -0.4], 1),   # p = q: a zero gradient
])
def test_family_eval_matches_the_dense_reference(monkeypatch, x, nudged):
    pairs = channels.family_index_pairs(2)
    x = np.array(x)
    caps_want, G, off_want = _family_eval(x, pairs)
    calls = _count_calls(monkeypatch)
    caps, g, off = strength._family_eval(x, pairs)
    assert calls == {"_capacity_pq": nudged, "capacity_gradient": len(pairs)}
    assert np.array(caps).tobytes() == caps_want.tobytes()
    assert off.tobytes() == off_want.tobytes()
    for (_, ix, iy), gk, row in zip(pairs, g, G):
        dense = np.zeros(x.size)
        dense[[ix, iy]] = gk
        assert dense.tobytes() == row.tobytes()
