"""Worst-case channel capacity of boxes at a given monogamy violation.

The quantity of interest is the minimum over the violation-delta correlator
polytope of the largest capacity among the induced channels.  Capacity is
convex in the transition probabilities and a pointwise max of convex
functions is convex, so the minimization is a convex program over a
polytope; it is solved with a cutting-plane scheme certified by a
lower/upper bound gap, and cross-checked by an independent grid search and
by the one-parameter optimal family.  Each master LP of the cutting-plane
loop goes to ``_highs.linprog``, which solves on scipy's bundled HiGHS core
exactly what ``scipy.optimize.linprog(method="highs")`` would, minus its
per-call wrapper.  It solves every LP cold on one module-level HiGHS object,
so the solver is single-threaded.  The polytope's rows are the summed rows
of ``geometry.q_delta_float``, whose matrix is built once per m; its
[-1, 1] box is the master LP's column bounds.  A solve keeps the master
LP's rows row-wise, as the arrays of their nonzeros: the polytope's are
written once, and each iteration appends its cut rows in place, one
tangent per channel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import boxes, channels, geometry
from ._highs import linprog
from .channels import NoConvergence


class NoRoot(Exception):
    pass


@dataclass(frozen=True)
class StrengthResult:
    delta: float
    value: float
    witness: "boxes.CorrelatorVector | None"
    label: str = "exact"    # "conjectured lower bound" for chained m >= 3
    gap: float = 0.0
    iterations: int = 0


# ---------------------------------------------------------------------------
# cutting-plane minimax solver

# the box the tangents are taken in, 1e-9 inside [-1, 1] in probability
_NUDGE_LO, _NUDGE_HI = -1.0 + 2e-9, 1.0 - 2e-9


def _family_eval(x, pairs):
    """Capacities of every channel at x, and one tangent cut per channel:
    C(c) >= g[k].c + off[k] in coordinate space, where g[k] is 0 but for
    g[k][0] at pairs[k]'s x index and g[k][1] at its y index.

    The tangents are taken at a point nudged 1e-9 inside the box so the cuts
    stay finite at correlator values +-1; a cut then under-estimates the
    true max everywhere, which is all the lower bound needs.  Each channel
    takes one tangent; only where the nudge moved one of its coordinates is
    its capacity at x a second, value-only call.
    """
    xs = x.tolist()
    caps, g, at, tangent = [], [], [], []
    for _, ix, iy in pairs:
        u, v = xs[ix], xs[iy]
        un = min(max(u, _NUDGE_LO), _NUDGE_HI)
        vn = min(max(v, _NUDGE_LO), _NUDGE_HI)
        cn, gp, gq = channels.capacity_gradient(
            channels.BinaryChannel((1.0 + un) / 2.0, (1.0 + vn) / 2.0))
        caps.append(cn if (un, vn) == (u, v)
                    else channels._capacity_pq((1.0 + u) / 2.0, (1.0 + v) / 2.0))
        g.append((gp / 2.0, gq / 2.0))
        at.append((un, vn))
        tangent.append(cn)
    # off = C - g.xn as BLAS ddot forms g.xn, which the dense row product
    # g @ xn called; over a row's two nonzeros np.vecdot makes the same call
    off = np.array(tangent) - np.vecdot(np.array(g), np.array(at))
    return caps, g, off


def minimax_capacity(rows, pairs, tol: float = 1e-4, max_iter: int = 800):
    """Minimize the max channel capacity over the polytope A_ub x <= b_ub
    inside the box [-1, 1]^d, given as rows = (A_ub, b_ub), for example
    geometry.q_delta_float's summed rows.  Each pair's x index precedes its
    y index, as in channels.family_index_pairs.

    Kelley cutting planes: the master LP minimizes t over the polytope
    subject to all accumulated tangent cuts t >= g.c + off; its optimum is a
    certified lower bound, the best evaluated iterate an upper bound.  Stops
    when the bracket closes below tol.  Deterministic.
    """
    A_ub, b_ub = rows
    dim = A_ub.shape[1]
    c_obj = np.zeros(dim + 1)    # coordinates plus epigraph variable t
    c_obj[-1] = 1.0
    bounds = (np.append(np.full(dim, -1.0), 0.0), np.ones(dim + 1))

    # the master LP's rows, row-wise: the polytope's nonzeros, then room for
    # every cut row (g, -1) <= -off, whose nonzeros are appended in place;
    # the master LP reads the first `rows` rows
    rows = len(b_ub)
    cap_rows = rows + max_iter * len(pairs)
    r, col = np.nonzero(A_ub)
    start = np.zeros(cap_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(r, minlength=rows), out=start[1:rows + 1])
    index = np.empty(len(r) + 3 * max_iter * len(pairs), dtype=np.int32)
    value = np.empty(len(index))
    index[:len(r)] = col
    value[:len(r)] = A_ub[r, col]
    b = np.empty(cap_rows)
    b[:rows] = b_ub
    nnz = len(r)
    best_val = np.inf
    best_x = None
    lower = 0.0
    for it in range(1, max_iter + 1):
        res = linprog(c_obj, (start[:rows + 1], index[:nnz], value[:nnz]), b[:rows], bounds)
        if not res.success:
            raise NoConvergence(it, best=(best_val, best_x),
                                message=f"master LP failed: {res.message}")
        x = res.x[:dim].copy()
        lower = max(lower, float(res.fun))
        caps, g, off = _family_eval(x, pairs)
        f = max(caps)
        if f < best_val:
            best_val, best_x = f, x
        if best_val - lower <= tol:
            return best_val, best_x, best_val - lower, it
        # a cut row's nonzeros in column order; exact zeros are left out
        for (_, ix, iy), (gx, gy) in zip(pairs, g):
            for j, gj in ((ix, gx), (iy, gy), (dim, -1.0)):
                if gj != 0.0:
                    index[nnz] = j
                    value[nnz] = gj
                    nnz += 1
            rows += 1
            start[rows] = nnz
        b[rows - len(off):rows] = -off
    raise NoConvergence(max_iter, best=(best_val, best_x))


def chained_polytope_bound(m: int, delta: float, tol: float = 1e-4) -> StrengthResult:
    """Min-max capacity over the m-setting constraint family.

    For m = 2 the constraint description is exactly the reachable correlator
    set, so this is the exact strength; for m >= 3 exactness rests on an
    unproved conjecture and the value is labeled a conjectured lower bound.
    """
    m = boxes._layout_settings(m)
    if m > 4:
        raise ValueError("constraint count 4^(m-1) kept tractable: m <= 4")
    rows = geometry.q_delta_float(m, delta)
    pairs = channels.family_index_pairs(m)
    value, witness, gap, it = minimax_capacity(rows, pairs, tol)
    label = "exact" if m == 2 else "conjectured lower bound"
    return StrengthResult(float(delta), value, boxes.CorrelatorVector(m, witness),
                          label, gap, it)


def c_delta(delta: float, tol: float = 1e-4, relaxed: bool = False) -> StrengthResult:
    """Min-max capacity over the two-setting violation polytope.

    Relaxed mode adds the pair (x_A^0, y_A^0) = (<B_0 E>_{A_0}, <B_0 E>_{A_1})
    and its channel S^0_{A->BE}.  Q_delta bounds that pair by the [-1, 1] box
    alone and C(p, p) = 0, so the relaxed strength is the strict one, with
    (-1, -1) appended to the witness.
    """
    res = chained_polytope_bound(2, delta, tol)
    if not relaxed:
        return res
    witness = np.append(res.witness.values, (-1.0, -1.0))
    return replace(res, witness=boxes.CorrelatorVector(2, witness, relaxed=True))


# ---------------------------------------------------------------------------
# closed-form pieces

def gava_bound(m: int, delta: float) -> float:
    """Symmetric-channel lower bound 1 - H((1 + delta/(4m-2))/2)."""
    m = boxes._settings_count(m)
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    return 1.0 - channels.binary_entropy((1.0 + delta / (4.0 * m - 2.0)) / 2.0)


@dataclass(frozen=True)
class OptimalFamily:
    delta: float
    x_star: float
    value: float
    witness: boxes.CorrelatorVector


def optimal_family(delta: float) -> OptimalFamily:
    """One-parameter family x_B^0 = x_B^1 = delta/2, x_A^1 = -y_A^1 = y_B^0
    = y_B^1 = x, with x fixed by equality of the two distinct capacities.

    C((1+delta/2)/2, (1+x)/2) falls and C((1+x)/2, (1-x)/2) grows on
    [0, delta/2], so bisection brackets the unique crossing; residual is
    driven below 1e-10.  Below delta of about 1e-5 the closed form cannot
    resolve channels that close to p = q and may read a bracket end as 0;
    the bisection then stops at the first midpoint, where the returned value,
    like the true one, is below about 1e-10.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError("delta must lie in [0, 2]")
    if delta == 0.0:
        witness = boxes.CorrelatorVector(2, np.zeros(6))
        return OptimalFamily(0.0, 0.0, 0.0, witness)
    p0 = (1.0 + delta / 2.0) / 2.0

    def balance(x):
        return (channels._capacity_pq(p0, (1.0 + x) / 2.0)
                - channels._capacity_pq((1.0 + x) / 2.0, (1.0 - x) / 2.0))

    lo, hi = 0.0, delta / 2.0
    if balance(lo) < 0 or balance(hi) > 0:
        raise NoRoot(f"no sign change on [0, {hi}] at delta={delta}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = balance(mid)
        if abs(val) < 1e-10:
            lo = hi = mid
            break
        if val > 0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    value = channels._capacity_pq((1.0 + x) / 2.0, (1.0 - x) / 2.0)
    arr = np.array([x, -x, delta / 2.0, x, delta / 2.0, x])
    return OptimalFamily(float(delta), float(x), float(value),
                         boxes.CorrelatorVector(2, arr))


@dataclass(frozen=True)
class C2Report:
    alpha_star: float
    c2: float
    subregion_value: float


def c2_analytic() -> C2Report:
    """Maximal-violation strength by the two-region reduction.

    At delta = 2 the polytope forces x_B^0 = x_B^1 = 1 and leaves two free
    parameters (alpha, beta).  Outside the positive quadrant one channel
    with p = 1 dominates and the optimum is C(1, 1/2); inside, symmetry
    reduces to the equalization C(1, (1+a)/2) = C((1+a)/2, (1-a)/2) solved
    by bisection.  The strength is the smaller of the two.
    """
    # region alpha <= 0 or beta <= 0: C(1, (1+a)/2) falls as a rises to 0
    subregion = channels._capacity_pq(1.0, 0.5)
    fam = optimal_family(2.0)
    return C2Report(fam.x_star, min(fam.value, subregion), subregion)


# ---------------------------------------------------------------------------
# independent grid oracle (m = 2)

# Elements (pair0 rows times pair1 columns) that the global scan evaluates
# per block of pair0 rows: enough rows to spread the per-block Python work
# over, few enough that a block's temporaries stay small.  A temporary is
# 8 bytes an element, 64 KiB here.  At 1 << 14 it was 128 KiB, glibc
# malloc's default mmap threshold, so each one was mapped and faulted in
# afresh: 40 scans alone took about 7 700 minor page faults against about
# 1 here, and 240 oracles mixed with boxes and capacity-oracle ops 50 000
# to 75 000 against about 700.  With the faults gone (a large free lifts
# the threshold), a scan at step 0.05 averaged over delta = 0.05, ..., 2
# still took 1.78-1.91 ms here against 1.86-2.01 ms at 1 << 14 and
# 2.05-2.16 ms at 1 << 12 (medians of 15 alternating rounds in each of
# three processes; 2 cores, Python 3.11.7, numpy 2.4.6).
_SCAN_BLOCK_ELEMS = 1 << 13

# The local refine halves its step while the step exceeds this.
REFINE_TO = 5e-5


def _grid_refine(centers, rows, step):
    """Shrinking local scans around each of a stack of feasible incumbents;
    returns a list with each centre's best value and point, in stack order.

    Each level scans, for each centre c, the 5^6 tensor grid whose axis k is
    c[k] + {-1, -1/2, 0, 1/2, 1} * cur clipped to [-1, 1], with cur halving
    from step while it exceeds REFINE_TO.  A grid point's value is
    f = max(C_A, C_B^0, C_B^1), where each channel reads two adjacent axes:
    the A channel axes 0 and 1, the B channels 2, 3 and 4, 5.  A grid point
    is feasible when no summed row of rows = geometry.q_delta_float(2,
    delta), its left-hand side added up over the axes in the order k = 0..5,
    exceeds its bound by more than 1e-12; the [-1, 1] box holds exactly on
    the clipped axes.  Ties go to the first point in row-major order (that of
    meshgrid(indexing="ij")), and a centre moves only on a strict
    improvement.

    A level tests only the points that can beat its centre.  When the centre
    passes the float test, the level's first minimum has f <= theta =
    f(centre), so it lies in the sublevel set {f <= theta}: the product of
    each channel's 25-point set {C <= theta}.  When the centre fails,
    theta = inf keeps every point.  The product in row-major order of the
    channels' sets is the grid's row-major order, so it keeps the first
    minimum, and each row's left-hand side is added up channel by channel,
    x term then y term, which is the order k = 0..5.  Every value, verdict
    and point is therefore the full level's.

    The centres go through a level in lockstep: the clipped axes, one
    capacity_array call on every centre's channel tables, the row terms,
    the centres' left-hand sides and each centre's theta and sublevel masks
    are computed for the whole stack, and each centre then takes its own
    sets, product, verdict and next centre from its own slice.  Every one
    of those stacked operations works element by element or along one
    centre's own slice (its left-hand side is a sequential np.add.accumulate
    along its own row, its theta a max over its own row), and
    capacity_array's entries do not depend on the array they come in, so a
    centre's result is the one it gets alone in a stack of one, whatever
    else is stacked with it.

    The sublevel set holds about 2 900 of the 15 625 points on average.  At
    step 0.05 (10 levels), averaged over delta = 0.05, 0.1, ..., 2, the grid
    oracle's two centres took 2.2-2.3 ms as one stack of two, against
    2.7 ms as two stacks of one and 3.0-3.1 ms for two one-centre refines
    with the two-pass capacity_array; the whole oracle took 4.5-4.6 ms
    against 5.5 ms (2 cores, Python 3.11.7, numpy 2.4.6).
    """
    A, b = rows
    # (x, y) axes of each channel, in axis order
    axes_of = sorted((i, j) for _, i, j in channels.family_index_pairs(2))
    ix = [i for i, _ in axes_of]
    iy = [j for _, j in axes_of]
    on_x, on_y = divmod(np.arange(25), 5)          # a table entry's index on x and y
    c = np.array(centers, dtype=float)             # c[s]: centre s
    best = [(np.inf, None)] * len(c)
    cur = step
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    while cur > REFINE_TO:
        axes = np.clip(c[:, :, None] + offsets * cur, -1.0, 1.0)   # axes[s, k]: axis k of centre s
        p = (1.0 + axes) / 2.0
        caps = channels.capacity_array(p[:, ix, :, None], p[:, iy, None, :]).reshape(len(c), -1, 25)
        terms = A[:, :, None] * axes[:, None]        # terms[s, r, k]: row r's term on axis k
        # the centre is entry 12 of every table; accumulate adds left to right
        centre_lhs = np.add.accumulate(terms[:, :, :, 2], axis=2)[:, :, -1]
        theta = np.where((centre_lhs - b).max(axis=1) > 1e-12, np.inf, caps[:, :, 12].max(axis=1))
        below = caps <= theta[:, None, None]
        for s in range(len(c)):
            sets = [row.nonzero()[0] for row in below[s]]
            ts = terms[s]
            # rows x the product of the sets, flat in row-major order; it
            # starts at the first channel's x term plus its y term, which is
            # what adding them to -0.0, the additive identity, gives
            (i, j), kept = axes_of[0], sets[0]
            f = caps[s, 0, kept]
            lhs = ts[:, i, on_x[kept]] + ts[:, j, on_y[kept]]
            for (i, j), cap, kept in zip(axes_of[1:], caps[s, 1:], sets[1:]):
                f = np.maximum(f[:, None], cap[kept]).ravel()
                lhs = lhs.repeat(kept.size, axis=1)
                grid = lhs.reshape(len(A), -1, kept.size)     # a view: += adds in place
                grid += ts[:, i, on_x[kept]][:, None, :]
                grid += ts[:, j, on_y[kept]][:, None, :]
            lhs -= b[:, None]
            f[functools.reduce(np.maximum, lhs) > 1e-12] = np.inf
            k = int(f.argmin())
            if f[k] < best[s][0]:
                idx = np.empty(6, dtype=int)
                for (i, j), kept, n in zip(axes_of, sets,
                                           np.unravel_index(k, [kept.size for kept in sets])):
                    idx[i], idx[j] = on_x[kept[n]], on_y[kept[n]]
                best[s] = (float(f[k]), axes[s, np.arange(6), idx])
                c[s] = best[s][1]
        cur *= 0.5
    return best


def _box_min(ca, lu, hu, lv, hv):
    """Vectorized min of the rotated capacity lattice ca over the index
    boxes [lu, hu] x [lv, hv]: the lattice cells of each box nearest the
    centre (n, n), read by four gathers."""
    n = ca.shape[0] // 2
    cu = np.minimum(np.maximum(lu, n), hu)     # np.clip costs twice as much
    cv = np.minimum(np.maximum(lv, n), hv)

    def nearest(u):
        """Least of the lattice cells of row u nearest column cv."""
        off = (u + cv + n) & 1
        return np.minimum(ca[u, np.maximum(cv - off, lv)], ca[u, np.minimum(cv + off, hv)])

    # IU = n + k and n - k hold equal values, so the row past the centre
    # stands in for the one before it
    return np.minimum(nearest(cu), nearest(np.where(cu < hu, cu + 1, np.maximum(cu - 1, lu))))


def _global_grid_scan(delta: float, step: float):
    """Exhaustive scan of the six-dimensional correlator grid.

    Returns (value, point) of the best feasible grid tuple, or
    (inf, None) when no grid point is feasible.  The grid is factored
    through the exact identity
        min max(C0, C1, CA) = min_B max(C0, C1, min_{A feasible} CA)
    and pairs are skipped only when max(C0, C1) already exceeds the running
    grid incumbent, which cannot change the minimum.

    The feasible A-channels of a B-pair form a box on the lattice rotated
    by 45 degrees.  Capacity is convex in (p, q) and symmetric under
    p <-> q and under (p, q) -> (1 - q, 1 - p), the reflections of the
    rotated lattice in its centre lines IU = n and IV = n, so along every
    lattice line it never rises toward the centre; capacity_array keeps
    both facts bit for bit.  A box's minimum is therefore at its lattice
    cells nearest the centre (_box_min), and the scan needs O(n^2) memory
    for n = 2 / step.  Each looked-up cell lies in its box, so the value is
    always that of a feasible grid point.

    Reach: the two summed rows of Q_delta(2) whose A-terms cancel add up
    to x_B^0 + x_B^1 >= delta.  The box bounds below say the same in grid
    units: lu <= hu, and likewise lv <= hv, needs ix0 + ix1 >= n + du - eps
    up to the rounding of the bounds' float sums, a few ulp of 3n (about
    1e-12 at n = 2000, far below eps).  As neither ix exceeds n, a B-pair
    with ix < du - 2 * eps has no feasible partner in either role, so it is
    left out of the pair0 rows and the pair1 columns before the scan.

    Ties: the returned tuple is the first whose value equals the minimum in
    the order (rank of pair0 by C0, equal C0 by index; index of pair1).
    Pair0 rows go in blocks of about _SCAN_BLOCK_ELEMS elements, pruned by
    the incumbent from before the block, and pair1 columns with C1 >= that
    incumbent are left out.  The stale incumbent lets in only pairs no
    better than the final minimum, and a tie with an earlier pair loses, so
    the first minimum of a block in row-major order is the one a row-by-row
    scan would keep.  The dropped pairs never give a candidate and the kept
    ones keep their order, so that first minimum is the same one.
    """
    n = int(round(2.0 / step))
    step = 2.0 / n
    g = -1.0 + step * np.arange(n + 1)
    prob = (1.0 + g) / 2.0
    cap2d = channels.capacity_array(prob[:, None], prob[None, :])   # C[(ix, iy)]

    # the A-channel capacities on the rotated integer lattice
    #   IU = ix - iy + n in [0, 2n], IV = ix + iy in [0, 2n];
    # cells with IU + IV - n odd, or outside the grid, are no grid points
    ca = np.full((2 * n + 1, 2 * n + 1), np.inf)
    ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    ca[(ix - iy + n).ravel(), (ix + iy).ravel()] = cap2d.ravel()

    # B-pair bookkeeping: for pair (ix, iy), d = ix - iy, s = ix + iy - n in
    # units of step; constraints on the A-pair in rotated units read
    #   u >= du - d0 - d1,  u <= s0 + s1 - du,  v >= du - s0 - d1,  v <= d0 + s1 - du
    du = delta / step
    pair_ix, pair_iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    pair_ix = pair_ix.ravel()
    pair_iy = pair_iy.ravel()
    dvals = pair_ix - pair_iy
    svals = pair_ix + pair_iy - n
    cvals = cap2d.ravel()
    eps = 1e-9
    reach = pair_ix >= du - 2 * eps
    order0 = np.argsort(cvals, kind="stable")
    order0 = order0[reach[order0]]

    incumbent = np.inf
    inc = None  # (pair0 flat index, pair1 flat index, A-box in ca's indices)
    start = 0
    while start < order0.size and cvals[order0[start]] < incumbent:
        # a pair1 with C1 >= incumbent fails m01 < incumbent in every row
        cols = np.flatnonzero(reach & (cvals < incumbent))
        block = order0[start: start + max(1, _SCAN_BLOCK_ELEMS // cols.size)]
        start += block.size
        c0, d0, s0 = cvals[block, None], dvals[block, None], svals[block, None]
        d1, s1 = dvals[cols], svals[cols]
        lu = np.maximum(np.ceil(du - d0 - d1 - eps), -n)
        hu = np.minimum(np.floor(s0 + s1 - du + eps), n)
        lv = np.maximum(np.ceil(du - s0 - d1 - eps), -n)
        hv = np.minimum(np.floor(d0 + s1 - du + eps), n)
        m01 = np.maximum(c0, cvals[cols])
        cand = (lu <= hu) & (lv <= hv) & (m01 < incumbent)
        if not cand.any():
            continue
        amin = _box_min(ca, *(v[cand].astype(int) + n for v in (lu, hu, lv, hv)))
        f = np.maximum(m01[cand], amin)
        k = int(f.argmin())
        if f[k] < incumbent:
            incumbent = float(f[k])
            flat = int(np.flatnonzero(cand)[k])
            row, col = divmod(flat, cols.size)
            inc = (int(block[row]), int(cols[col]),
                   [int(v.flat[flat]) + n for v in (lu, hu, lv, hv)])

    # recover the incumbent's A-pair: the first least cell of its box
    if inc is None:
        return np.inf, None
    flat0, flat1, (lu, hu, lv, hv) = inc
    cells = ca[lu: hu + 1, lv: hv + 1]
    au, av = np.unravel_index(int(np.argmin(cells)), cells.shape)
    iu, iv = lu + au, lv + av
    a_ix, a_iy = (iu + iv - n) // 2, (iv - iu + n) // 2
    point = np.array([g[a_ix], g[a_iy],
                      g[pair_ix[flat0]], g[pair_iy[flat0]],
                      g[pair_ix[flat1]], g[pair_iy[flat1]]])
    return float(incumbent), point


def grid_oracle(delta: float, step: float = 0.05) -> float:
    """Brute-force upper-bounding estimate of the two-setting strength.

    Scans the full six-dimensional correlator grid at the given step,
    restricted to polytope members, then refines locally around the grid
    incumbent and around the optimal family's witness, one stack of two
    centres, with shrinking steps down to REFINE_TO.  Only feasible points
    can win, so the result upper-bounds the true minimum and converges to
    it as step -> 0.
    The family's witness makes the result depend on the family: at every
    nonzero delta of the 0.1 grid (step 0.05) its refine ends lowest.

    step must lie in [0.001, 0.05]: the scan's O(n^2) memory for n = 2 / step
    peaks at 374 MiB at step 0.001 (tracemalloc, delta 2), and a smaller step
    would take the process down in the scan instead of raising.  The range
    bounds memory, not time.  At mid delta the scan's reachable B-pair rows
    times columns grow as n^4: at delta 1 the oracle took 1.2 s at step 0.01,
    26 s at 0.005 and more than 600 s at 0.002 and 0.001 (2 cores, Python
    3.11.7, numpy 2.4.6); at delta 2 the scan took 0.97 s at step 0.001.
    """
    if not 0.001 <= step <= 0.05 + 1e-12:
        raise ValueError(f"step must lie in [0.001, 0.05], got {step}")
    if not 0.0 <= delta <= 2.0:
        raise ValueError("delta must lie in [0, 2]")
    incumbent, point = _global_grid_scan(delta, step)
    seeds = []
    if point is not None:
        seeds.append(point)
    seeds.append(optimal_family(delta).witness.as_array())
    refined = _grid_refine(seeds, geometry.q_delta_float(2, delta), step)
    return float(min([incumbent] + [val for val, _ in refined]))


# ---------------------------------------------------------------------------
# strength curves

@dataclass(frozen=True)
class CurveRow:
    delta: float
    c_delta: float
    family_value: "float | None"
    gava_m2: float
    gava_m3: float
    witness: tuple
    label: str
    error: "str | None" = None


@dataclass(frozen=True)
class StrengthCurve:
    m: int
    rows: tuple

    @property
    def monotone(self) -> bool:
        vals = [r.c_delta for r in self.rows if r.error is None]
        return all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))

    @property
    def ok(self) -> bool:
        return all(r.error is None for r in self.rows)

    def witness_names(self):
        return [f"witness_{name.replace('^', '')}" for name in
                boxes.component_names(self.m)]

    def to_csv(self) -> str:
        header = ["delta", "c_delta", "family_value", "gava_m2", "gava_m3"]
        header += self.witness_names()
        lines = [",".join(header)]
        for r in self.rows:
            if r.error is not None:
                continue
            cells = [f"{r.delta:.6f}", f"{r.c_delta:.6f}",
                     "" if r.family_value is None else f"{r.family_value:.6f}",
                     f"{r.gava_m2:.6f}", f"{r.gava_m3:.6f}"]
            cells += [f"{w:.6f}" for w in r.witness]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def curve(m: int, deltas, tol: float = 1e-4) -> StrengthCurve:
    """Strength values over an ascending delta grid, with the closed-form
    bounds alongside.  Solver failures are recorded per row and do not stop
    the remaining rows."""
    deltas = [float(d) for d in deltas]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be ascending")
    m = boxes._layout_settings(m)
    rows = []
    for d in deltas:
        g2, g3 = gava_bound(2, d), gava_bound(3, d)
        try:
            res = chained_polytope_bound(m, d, tol)
            fam = optimal_family(d).value if m == 2 else None
            rows.append(CurveRow(d, res.value, fam, g2, g3,
                                 tuple(res.witness.values),
                                 res.label))
        except NoConvergence as err:
            rows.append(CurveRow(d, float("nan"), None, g2, g3, (),
                                 "failed", error=str(err)))
    return StrengthCurve(m, tuple(rows))
