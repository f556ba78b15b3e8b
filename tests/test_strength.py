import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from signalcap import boxes, channels, geometry, monogamy, strength
from signalcap.strength import (
    c2_analytic,
    c_delta,
    chained_polytope_bound,
    curve,
    gava_bound,
    grid_oracle,
    optimal_family,
)


def grid_max_capacity(pts):
    """Largest of the three channel capacities at correlator points."""
    p = (1.0 + np.asarray(pts)) / 2.0
    return np.maximum(channels.capacity_array(p[..., 2], p[..., 3]),
                      np.maximum(channels.capacity_array(p[..., 4], p[..., 5]),
                                 channels.capacity_array(p[..., 0], p[..., 1])))


def rotated_lattice(n):
    """The grid's channel capacities C(p, q), p and q on -1 + 2k/n mapped to
    [0, 1], and the same values at (ix - iy + n, ix + iy) of a
    (2n + 1)^2 table whose other cells hold inf."""
    prob = (1.0 + (-1.0 + (2.0 / n) * np.arange(n + 1))) / 2.0
    cap2d = channels.capacity_array(prob[:, None], prob[None, :])
    ca = np.full((2 * n + 1, 2 * n + 1), np.inf)
    ix, iy = np.indices((n + 1, n + 1))
    ca[ix - iy + n, ix + iy] = cap2d
    return cap2d, ca


def brute_force_grid_min(delta, step, below=np.inf):
    """Naive full-grid reference for the factored global scan: the least
    max-capacity over the feasible grid points whose three channels each have
    capacity <= below.

    With below = v the result is exactly v when v is the grid minimum, the
    smaller true minimum when v is above it, and inf when v is below it, so
    below = the scan's value keeps the comparison exact while the enumeration
    shrinks to the channels that can matter.
    """
    n = int(round(2.0 / step))
    g = -1.0 + step * np.arange(n + 1)
    A_ub, b_ub, _, _ = geometry.polytope_float(geometry.build_q_delta(2, delta))
    pairs = np.array(list(itertools.product(g, repeat=2)))
    p = (1.0 + pairs) / 2.0
    caps = channels.capacity_array(p[:, 0], p[:, 1])
    pairs, caps = pairs[caps <= below], caps[caps <= below]
    b0, b1 = (idx.ravel() for idx in np.indices((len(pairs), len(pairs))))
    best = np.inf
    for a_pair, a_cap in zip(pairs, caps):          # channel (0, 1), one at a time
        pts = np.hstack([np.broadcast_to(a_pair, (b0.size, 2)), pairs[b0], pairs[b1]])
        feas = (A_ub @ pts.T - b_ub[:, None]).max(axis=0) <= 1e-12
        f = np.maximum(a_cap, np.maximum(caps[b0], caps[b1]))[feas]
        if f.size:
            best = min(best, float(f.min()))
    return best


def reference_grid_refine(center, delta, step, refine_to):
    """The refine as first written: every level stacks all 5^6 grid points
    and tests them against every row of Q_delta, box rows included, at the
    float delta's exact value (build_q_delta keeps a Fraction as it is)."""
    rows = geometry.polytope_float(geometry.build_q_delta(2, Fraction(delta)))[0:2]
    A_ub, b_ub = rows
    pairs = channels.family_index_pairs(2)
    best_val, best_pt = np.inf, None
    c = np.asarray(center, dtype=float)
    cur = step
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    while cur > refine_to:
        axes = [np.clip(c[k] + offsets * cur, -1.0, 1.0) for k in range(6)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        feas = (A_ub @ pts.T - b_ub[:, None]).max(axis=0) <= 1e-12
        pts = pts[feas]
        if pts.size:
            p = (1.0 + pts) / 2.0
            f = np.max([channels.capacity_array(p[:, ix], p[:, iy])
                        for _, ix, iy in pairs], axis=0)
            k = int(f.argmin())
            if f[k] < best_val:
                best_val, best_pt = float(f[k]), pts[k]
                c = pts[k]
        cur *= 0.5
    return best_val, best_pt


# optimal-family witnesses with one coordinate moved by about 1e-12, so that a
# summed row's residual lies within rounding of the 1e-12 feasibility
# threshold: the verdict on the centre depends on the order in which the row's
# six terms are added (the reference's matmul adds them for k = 0..5)
BOUNDARY_CENTRES = [
    (0.5, ["0x1.58946c0000000p-4", "-0x1.58946c001197bp-4", "0x1.0000000000000p-2",
           "0x1.58946c0000000p-4", "0x1.0000000000000p-2", "0x1.58946c0000000p-4"]),
    (1.0, ["0x1.63864de000000p-3", "-0x1.63864de000000p-3", "0x1.fffffffffb9a2p-2",
           "0x1.63864de000000p-3", "0x1.0000000000000p-1", "0x1.63864de000000p-3"]),
    (1.5, ["0x1.1cf040b400000p-2", "-0x1.1cf040b400000p-2", "0x1.8000000000000p-1",
           "0x1.1cf040b3fb9a3p-2", "0x1.8000000000000p-1", "0x1.1cf040b400000p-2"]),
    (2.0, ["0x1.d5f3ad1bfb9a3p-2", "-0x1.d5f3ad1c00000p-2", "0x1.0000000000000p+0",
           "0x1.d5f3ad1c00000p-2", "0x1.0000000000000p+0", "0x1.d5f3ad1c00000p-2"]),
    (0.8, ["0x1.180484cccccccp-3", "-0x1.180484cccccccp-3", "0x1.999999999999ap-2",
           "0x1.180484cccccccp-3", "0x1.999999999999ap-2", "0x1.180484ccc400fp-3"]),
]

# grid_oracle(delta, step=0.05).hex() as recorded before the tensor-product
# refine and the blocked scan
ORACLE_BITS = {
    0.05: "0x1.a44c601db0000p-15",
    0.5: "0x1.4ef6ab5eba300p-8",
    1.0: "0x1.65f843e203520p-6",
    1.45: "0x1.a8ea37ec91ce0p-5",
    2.0: "0x1.431f0240e3290p-3",
}

# _global_grid_scan(delta, step) as (value.hex(), [x.hex() for x in point]),
# recorded before the scan left out the B-pairs that cannot reach Q_delta.
# The cases leave out a fraction du / (n + 1) of the pairs, du = delta / step:
# about 15% (0.3), half (1.0) or nearly all (1.9 to 2.0); du lands on an
# integer (1.0, 2.0), within rounding of one (0.3 at 0.05 is
# 5.999999999999999) or between two (1.95 at 0.1 is 19.5)
SCAN_BITS = {
    (0.3, 0.05): ("0x1.ddba692bef800p-10",
                  ["0x1.99999999999a0p-5", "-0x1.9999999999990p-5", "0x1.3333333333338p-3",
                   "0x1.99999999999a0p-5", "0x1.3333333333338p-3", "0x1.99999999999a0p-5"]),
    (0.3, 0.1): ("0x1.e3da38464e800p-10",
                 ["0x1.99999999999a0p-4", "0x0.0p+0", "0x1.99999999999a0p-4",
                  "0x0.0p+0", "0x1.99999999999a0p-3", "0x1.99999999999a0p-4"]),
    (0.3, 2 / 45): ("0x1.a486f76cc0200p-9",
                    ["0x1.1111111111110p-4", "-0x1.1111111111110p-4", "0x1.3e93e93e93e98p-3",
                     "0x1.1111111111110p-4", "0x1.3e93e93e93e98p-3", "0x1.1111111111110p-4"]),
    (1.0, 0.05): ("0x1.77abc9f97d640p-6",
                  ["0x0.0p+0", "-0x1.6666666666666p-2", "0x1.4cccccccccccep-1",
                   "0x1.6666666666668p-2", "0x1.6666666666668p-2", "0x0.0p+0"]),
    (1.0, 0.1): ("0x1.dbf209b244a80p-6",
                 ["0x1.99999999999a0p-3", "-0x1.9999999999998p-3", "0x1.0000000000000p-1",
                  "0x1.99999999999a0p-3", "0x1.0000000000000p-1", "0x1.99999999999a0p-3"]),
    (1.0, 2 / 45): ("0x1.87af5dc6d4a00p-6",
                    ["0x1.6c16c16c16c40p-6", "-0x1.5555555555554p-2", "0x1.49f49f49f49f6p-1",
                     "0x1.5555555555558p-2", "0x1.82d82d82d82d8p-2", "0x1.6c16c16c16c40p-6"]),
    (1.5, 0.05): ("0x1.dd92d64cc8c80p-5",
                  ["0x1.99999999999a0p-3", "-0x1.6666666666666p-2", "0x1.999999999999ap-1",
                   "0x1.6666666666668p-2", "0x1.6666666666668p-1", "0x1.99999999999a0p-3"]),
    (1.5, 0.1): ("0x1.110b5aad5ca70p-4",
                 ["0x1.99999999999a0p-3", "-0x1.9999999999998p-2", "0x1.999999999999ap-1",
                  "0x1.999999999999cp-2", "0x1.6666666666668p-1", "0x1.99999999999a0p-3"]),
    (1.5, 2 / 45): ("0x1.f55825b4e3f60p-5",
                    ["0x1.f49f49f49f4a0p-3", "-0x1.5555555555554p-2", "0x1.8e38e38e38e3ap-1",
                     "0x1.5555555555558p-2", "0x1.7777777777778p-1", "0x1.f49f49f49f4a0p-3"]),
    (1.9, 0.05): ("0x1.e63b8398aafb8p-4",
                  ["0x1.999999999999cp-2", "-0x1.9999999999998p-2", "0x1.e666666666668p-1",
                   "0x1.999999999999cp-2", "0x1.e666666666668p-1", "0x1.999999999999cp-2"]),
    (1.9, 0.1): ("0x1.235909c4b2da0p-3",
                 ["0x1.99999999999a0p-3", "-0x1.3333333333333p-1", "0x1.0000000000000p+0",
                  "0x1.3333333333334p-1", "0x1.ccccccccccccep-1", "0x1.99999999999a0p-3"]),
    (1.9, 2 / 45): ("0x1.0775710a31080p-3",
                    ["0x1.82d82d82d82d8p-2", "-0x1.b05b05b05b05ap-2", "0x1.e93e93e93e940p-1",
                     "0x1.b05b05b05b05cp-2", "0x1.e93e93e93e940p-1", "0x1.82d82d82d82d8p-2"]),
    (1.95, 0.05): ("0x1.284294b07a640p-3",
                   ["0x1.0000000000000p-1", "-0x1.6666666666666p-2", "0x1.e666666666668p-1",
                    "0x1.6666666666668p-2", "0x1.0000000000000p+0", "0x1.0000000000000p-1"]),
    (1.95, 0.1): ("0x1.6a792b5968c20p-3",
                  ["0x1.999999999999cp-2", "-0x1.0000000000000p-1", "0x1.0000000000000p+0",
                   "0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.999999999999cp-2"]),
    (1.95, 2 / 45): ("0x1.232cbd298ef00p-3",
                     ["0x1.5555555555558p-2", "-0x1.05b05b05b05b0p-1", "0x1.0000000000000p+0",
                      "0x1.05b05b05b05b0p-1", "0x1.e93e93e93e940p-1", "0x1.5555555555558p-2"]),
    (2.0, 0.05): ("0x1.4906ecd9d19a0p-3",
                  ["0x1.cccccccccccd0p-2", "-0x1.cccccccccccccp-2", "0x1.0000000000000p+0",
                   "0x1.cccccccccccd0p-2", "0x1.0000000000000p+0", "0x1.cccccccccccd0p-2"]),
    (2.0, 0.1): ("0x1.6a792b5968c20p-3",
                 ["0x1.999999999999cp-2", "-0x1.0000000000000p-1", "0x1.0000000000000p+0",
                  "0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.999999999999cp-2"]),
    (2.0, 2 / 45): ("0x1.4e8f4c76e4600p-3",
                    ["0x1.ddddddddddde0p-2", "-0x1.ddddddddddddep-2", "0x1.0000000000000p+0",
                     "0x1.ddddddddddde0p-2", "0x1.0000000000000p+0", "0x1.ddddddddddde0p-2"]),
}


# the one-centre refine, _grid_refine([centre], q_delta_float(2, delta),
# step)[0], keyed by (delta, step, the centre's .hex()), as (value.hex(),
# [x.hex() for x in point]), recorded before each level tested only the
# points that can beat its centre
REFINE_BITS = {
    # scan points; at delta 2 two coordinates lie at +1
    (0.3, 0.05, ("0x1.99999999999a0p-5", "-0x1.9999999999990p-5", "0x1.3333333333338p-3",
                 "0x1.99999999999a0p-5", "0x1.3333333333338p-3", "0x1.99999999999a0p-5")):
        ("0x1.dc54d28defc00p-10",
         ["0x1.9a6666666666dp-5", "-0x1.9b9999999998fp-5", "0x1.334ccccccccd3p-3",
          "0x1.9b9999999999fp-5", "0x1.331999999999dp-3", "0x1.9a6666666666dp-5"]),
    (1.0, 0.05, ("0x0.0p+0", "-0x1.6666666666666p-2", "0x1.4cccccccccccep-1",
                 "0x1.6666666666668p-2", "0x1.6666666666668p-2", "0x0.0p+0")):
        ("0x1.70d0eef4aa940p-6",
         ["0x1.94ccccccccccep-7", "-0x1.574ccccccccccp-2", "0x1.487999999999cp-1",
          "0x1.574cccccccccep-2", "0x1.6f0cccccccccep-2", "0x1.94ccccccccccep-7"]),
    (1.5, 0.1, ("0x1.99999999999a0p-3", "-0x1.9999999999998p-2", "0x1.999999999999ap-1",
                "0x1.999999999999cp-2", "0x1.6666666666668p-1", "0x1.99999999999a0p-3")):
        ("0x1.d0f8f4106d540p-5",
         ["0x1.dd9999999999fp-3", "-0x1.4b3ffffffffffp-2", "0x1.900cccccccccdp-1",
          "0x1.4b40000000003p-2", "0x1.6ff3333333335p-1", "0x1.dd9999999999fp-3"]),
    (2.0, 0.05, ("0x1.cccccccccccd0p-2", "-0x1.cccccccccccccp-2", "0x1.0000000000000p+0",
                 "0x1.cccccccccccd0p-2", "0x1.0000000000000p+0", "0x1.cccccccccccd0p-2")):
        ("0x1.431f50c7ed9c0p-3",
         ["0x1.d5f3333333336p-2", "-0x1.d5f3333333333p-2", "0x1.0000000000000p+0",
          "0x1.d5f3333333337p-2", "0x1.0000000000000p+0", "0x1.d5f3333333336p-2"]),
    (1.9, 2 / 45, ("0x1.82d82d82d82d8p-2", "-0x1.b05b05b05b05ap-2", "0x1.e93e93e93e940p-1",
                   "0x1.b05b05b05b05cp-2", "0x1.e93e93e93e940p-1", "0x1.82d82d82d82d8p-2")):
        ("0x1.e331fd431c860p-4",
         ["0x1.985b05b05b05bp-2", "-0x1.985b05b05b05bp-2", "0x1.e666666666668p-1",
          "0x1.985b05b05b05dp-2", "0x1.e666666666668p-1", "0x1.985b05b05b05bp-2"]),
    # optimal-family witnesses
    (0.05, 0.05, ("0x1.1117800000000p-7", "-0x1.1117800000000p-7", "0x1.999999999999ap-6",
                  "0x1.1117800000000p-7", "0x1.999999999999ap-6", "0x1.1117800000000p-7")):
        ("0x1.a44c601db0000p-15",
         ["0x1.1117800000000p-7", "-0x1.1117800000000p-7", "0x1.999999999999ap-6",
          "0x1.1117800000000p-7", "0x1.999999999999ap-6", "0x1.1117800000000p-7"]),
    (1.0, 0.05, ("0x1.63864de000000p-3", "-0x1.63864de000000p-3", "0x1.0000000000000p-1",
                 "0x1.63864de000000p-3", "0x1.0000000000000p-1", "0x1.63864de000000p-3")):
        ("0x1.65f843e203520p-6",
         ["0x1.63864de000000p-3", "-0x1.63864de000000p-3", "0x1.0000000000000p-1",
          "0x1.63864de000000p-3", "0x1.0000000000000p-1", "0x1.63864de000000p-3"]),
    (2.0, 0.25, ("0x1.d5f3ad1c00000p-2", "-0x1.d5f3ad1c00000p-2", "0x1.0000000000000p+0",
                 "0x1.d5f3ad1c00000p-2", "0x1.0000000000000p+0", "0x1.d5f3ad1c00000p-2")):
        ("0x1.431f0240e3290p-3",
         ["0x1.d5f3ad1c00000p-2", "-0x1.d5f3ad1c00000p-2", "0x1.0000000000000p+0",
          "0x1.d5f3ad1c00000p-2", "0x1.0000000000000p+0", "0x1.d5f3ad1c00000p-2"]),
    # feasible centres with coordinates at -1 and +1
    (0.2, 0.05, ("-0x1.0000000000000p+0", "-0x1.1373f68eaaf40p-4", "0x1.0000000000000p+0",
                 "-0x1.bd073c37bd3bap-1", "0x1.0000000000000p+0", "-0x1.39b01c558bfcep-2")):
        ("0x1.316c5a18b22bfp-1",
         ["-0x1.0000000000000p+0", "-0x1.565394e0ef13ap-3", "0x1.ccd9999999999p-1",
          "-0x1.89e0d5d156d53p-1", "0x1.ccd9999999999p-1", "-0x1.9ffce92258c9bp-2"]),
    (0.8, 0.1, ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.2be94e0700bdap-1",
                "-0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0")):
        ("0x1.2961eeb63427ep-2",
         ["0x1.99a6666666666p-1", "0x1.99a6666666666p-1", "0x1.8b1f68dace481p-2",
          "-0x1.99a6666666666p-1", "0x1.99a6666666666p-1", "0x1.99a6666666666p-1"]),
    # centres that fail the float test, so every point may beat them: the
    # optimal-family witnesses at delta 1.96 and 1.0
    (2.0, 0.05, ("0x1.b674606666666p-2", "-0x1.b674606666666p-2", "0x1.f5c28f5c28f5cp-1",
                 "0x1.b674606666666p-2", "0x1.f5c28f5c28f5cp-1", "0x1.b674606666666p-2")):
        ("0x1.432002d0dc634p-3",
         ["0x1.d5f4606666666p-2", "-0x1.d5f4606666666p-2", "0x1.0000000000000p+0",
          "0x1.d5f4606666666p-2", "0x1.0000000000000p+0", "0x1.d5f4606666666p-2"]),
    (1.04, 0.05, ("0x1.63864de000000p-3", "-0x1.63864de000000p-3", "0x1.0000000000000p-1",
                  "0x1.63864de000000p-3", "0x1.0000000000000p-1", "0x1.63864de000000p-3")):
        ("0x1.869259d280bc0p-6",
         ["0x1.a5b9811333332p-3", "-0x1.40864de000000p-3", "0x1.fe7ffffffffffp-2",
          "0x1.40864de000000p-3", "0x1.1540000000000p-1", "0x1.a5b9811333332p-3"]),
}


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

    def test_settings_count_is_make_boxs_rule(self):
        # an integer-valued m of any type reads the same bits as the int
        for m in (3.0, np.int64(3)):
            assert gava_bound(m, 1.0).hex() == gava_bound(3, 1.0).hex()
        assert gava_bound(2, 1.0).hex() == "0x1.49d48df3e9540p-6"
        assert gava_bound(3, 1.0).hex() == "0x1.d9888bd16f700p-8"
        # a check of m < 2 alone let 2.5 return 0.0113, nan return nan and inf 0.0
        for m in (2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="^need an integer number of settings m >= 2"):
                gava_bound(m, 1.0)


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

    @pytest.mark.parametrize("delta", [1e-8, 8.387908e-06])
    def test_tiny_delta_has_a_value(self, delta):
        # the closed form reads C((1+x)/2, (1-x)/2) as 0 for x <= delta/2
        # here, so the bracket end balances to 0; that once raised NoRoot
        fam = optimal_family(delta)
        assert 0.0 <= fam.value <= (delta / 2) ** 2 and 0.0 <= fam.x_star <= delta / 2

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

    @pytest.mark.parametrize("tol", [1e-4, 1e-6])
    @pytest.mark.parametrize("delta", [0.2, 0.7, 1.0, 1.8, 2.0])
    def test_relaxed_is_the_strict_solve_plus_an_equal_pair(self, delta, tol):
        # Q_delta bounds (x_A^0, y_A^0) by the box alone and C(p, p) = 0, so
        # the relaxed strength is the strict one, read off the strict solve
        strict = c_delta(delta, tol)
        relaxed = c_delta(delta, tol, relaxed=True)
        assert (relaxed.value, relaxed.gap, relaxed.iterations) == (
            strict.value, strict.gap, strict.iterations)
        assert relaxed.witness.relaxed and relaxed.witness.values.shape == (8,)
        assert relaxed.witness.values[:6].tobytes() == strict.witness.values.tobytes()
        assert relaxed.witness.values[6:].tolist() == [-1.0, -1.0]
        label, ix, iy = channels.family_index_pairs(2, relaxed=True)[-1]
        p, q = (1.0 + relaxed.witness.values[[ix, iy]]) / 2.0
        assert label == "S^0_{A->BE}" and channels._capacity_pq(p, q) == 0.0
        # an independent reference: Kelley over the full relaxed polytope,
        # the pair's two columns free and unprojected
        rows = geometry.polytope_float(geometry.build_q_delta(2, delta, relaxed=True))[:2]
        value, _, _, _ = strength.minimax_capacity(
            rows, channels.family_index_pairs(2, relaxed=True), tol)
        assert abs(value - strict.value) <= tol

    def test_nonconvergence_reports_budget(self):
        rows = geometry.q_delta_float(2, 1.0)
        pairs = channels.family_index_pairs(2)
        with pytest.raises(channels.NoConvergence):
            strength.minimax_capacity(rows, pairs, tol=1e-12, max_iter=2)


class TestGridOracle:
    def test_factored_scan_equals_naive_brute_force(self):
        # (0.7, 0.1) and (1.3, 0.1) take more than one block of pair0 rows;
        # steps 2/5 and 2/9 give odd n, whose lattice centre is no grid point;
        # from (1.9, 0.1) on, most B-pairs cannot reach Q_delta, and the
        # reference enumerates them all
        for delta, step in [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (2.0, 0.5),
                            (0.3, 0.25), (1.7, 0.25), (0.7, 0.1), (1.3, 0.1),
                            (0.6, 2 / 5), (1.2, 2 / 5), (0.9, 2 / 9), (1.6, 2 / 9),
                            (1.9, 0.1), (2.0, 0.1), (1.55, 2 / 9), (1.8, 0.25)]:
            fast, point = strength._global_grid_scan(delta, step)
            assert fast == brute_force_grid_min(delta, step, below=fast)
            A_ub, b_ub, _, _ = geometry.polytope_float(geometry.build_q_delta(2, delta))
            assert (A_ub @ point - b_ub).max() <= 1e-12
            assert grid_max_capacity(point) == fast

    @pytest.mark.parametrize("d", [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(19, 10),
                                   Fraction(2)])
    def test_two_summed_rows_bound_the_b_pairs(self, d):
        # the fact the scan's reach rule rests on: the summed rows of
        # Q_delta(2) whose A-terms cancel add up to 2 (x_B^0 + x_B^1) >= 2 d
        names = [name for name, *_ in boxes.correlator_layout(2)]
        summed = geometry.build_q_delta(2, d).inequalities[:4]    # the box rows follow
        want = (tuple(Fraction(-2 if name in ("x_B^0", "x_B^1") else 0) for name in names),
                -2 * d)
        sums = [(tuple(a + b for a, b in zip(ra, rb)), ba + bb)
                for (ra, ba), (rb, bb) in itertools.combinations(summed, 2)]
        cancel = [s for s in sums
                  if all(c == 0 for c, name in zip(s[0], names) if "_A^" in name)]
        assert cancel == [want, want]

    @pytest.mark.parametrize("delta, step", list(SCAN_BITS))
    def test_scan_pinned_bits(self, delta, step):
        value, point = strength._global_grid_scan(delta, step)
        assert (value.hex(), [x.hex() for x in point]) == SCAN_BITS[delta, step]

    @pytest.mark.parametrize("delta, step", [(0.7, 0.1), (1.3, 0.1), (0.45, 0.05), (1.9, 0.05),
                                             (1.1, 2 / 45)])
    def test_blocked_scan_equals_row_by_row(self, delta, step, monkeypatch):
        blocked = strength._global_grid_scan(delta, step)
        monkeypatch.setattr(strength, "_SCAN_BLOCK_ELEMS", 1)   # one pair0 row per block
        value, point = strength._global_grid_scan(delta, step)
        assert value == blocked[0]
        assert np.array_equal(point, blocked[1])

    @pytest.mark.parametrize("block", [1 << 6, 1 << 13, 1 << 16])
    def test_bits_do_not_depend_on_the_scan_block(self, block, monkeypatch):
        # the stale-incumbent argument of the scan's docstring holds for any
        # block size: 64 elements is one pair0 row or less, 1 << 16 takes
        # every row of these scans in a block or two
        monkeypatch.setattr(strength, "_SCAN_BLOCK_ELEMS", block)
        for (delta, step), bits in SCAN_BITS.items():
            value, point = strength._global_grid_scan(delta, step)
            assert (value.hex(), [x.hex() for x in point]) == bits
        for delta, bits in ORACLE_BITS.items():
            assert grid_oracle(delta, step=0.05).hex() == bits

    @pytest.mark.parametrize("n", [4, 5, 8, 20, 21, 40, 45, 100])
    def test_lattice_facts_behind_the_box_minimum(self, n):
        # the scan reads a box minimum off the cells nearest the centre of the
        # rotated lattice; that is exact only while both facts hold bit for bit
        cap2d, ca = rotated_lattice(n)
        assert np.array_equal(cap2d, cap2d.T)
        for line in [*ca, *ca.T]:
            idx = np.flatnonzero(np.isfinite(line))
            vals = line[idx]
            before, after = vals[idx <= n], vals[idx >= n]
            assert np.all(np.diff(before) <= 0)
            assert np.all(np.diff(after) >= 0)

    @pytest.mark.parametrize("n", [4, 5, 8, 9])
    def test_box_min_equals_min_over_the_box(self, n):
        _, ca = rotated_lattice(n)
        lo, hi = np.triu_indices(2 * n + 1)          # every index range lo <= hi
        r, c = (k.ravel() for k in np.indices((lo.size, lo.size)))
        lu, hu, lv, hv = lo[r], hi[r], lo[c], hi[c]
        fast = strength._box_min(ca, lu, hu, lv, hv)
        slow = [ca[a: b + 1, e: f + 1].min() for a, b, e, f in zip(lu, hu, lv, hv)]
        assert np.array_equal(fast, slow)

    def test_scan_memory_stays_quadratic_in_n(self):
        # the scan holds O(n^2) doubles (about 2.5 MiB here); range-minimum
        # tables of O(n^2 log^2 n) doubles would need 16.5 MiB
        tracemalloc.start()
        try:
            strength._global_grid_scan(1.0, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("step", [0.05, 0.1, 0.25])
    @pytest.mark.parametrize("delta", [0.0, 2.0, *np.random.default_rng(16).uniform(0, 2, 2)])
    def test_refine_equals_reference_bit_for_bit(self, delta, step):
        rng = np.random.default_rng([16, int(delta * 1e6), int(step * 100)])
        centers = [strength._global_grid_scan(delta, step)[1],
                   optimal_family(delta).witness.as_array(),
                   np.clip(rng.uniform(-1.3, 1.3, 6), -1.0, 1.0)]   # some coordinates at +-1
        rows = geometry.q_delta_float(2, delta)
        for center in centers:
            [(value, point)] = strength._grid_refine([center], rows, step)
            ref_value, ref_point = reference_grid_refine(center, delta, step, 5e-5)
            assert value == ref_value
            assert np.array_equal(point, ref_point)

    @pytest.mark.parametrize("delta, center", BOUNDARY_CENTRES)
    def test_refine_on_the_feasibility_threshold(self, delta, center):
        center = np.array([float.fromhex(v) for v in center])
        [(value, point)] = strength._grid_refine([center], geometry.q_delta_float(2, delta), 0.05)
        ref_value, ref_point = reference_grid_refine(center, delta, 0.05, 5e-5)
        assert value == ref_value
        assert np.array_equal(point, ref_point)

    @pytest.mark.parametrize("delta, step, center", list(REFINE_BITS))
    def test_refine_pinned_bits(self, delta, step, center):
        [(value, point)] = strength._grid_refine([[float.fromhex(v) for v in center]],
                                                 geometry.q_delta_float(2, delta), step)
        assert (value.hex(), [x.hex() for x in point]) == REFINE_BITS[delta, step, center]

    @pytest.mark.parametrize("delta, step, center", [
        (2.0, 0.05, np.zeros(6)),
        (0.6, 0.25, np.zeros(6)),
        (1.9, 0.05, np.array([0.35, -0.86, 0.14, -0.84, 0.02, -0.41])),
    ])
    def test_refine_without_a_feasible_point(self, delta, step, center):
        # every level's grid misses Q_delta: x_B^0 + x_B^1 >= delta is out of reach
        rows = geometry.q_delta_float(2, delta)
        assert strength._grid_refine([center], rows, step) == [(np.inf, None)]
        assert reference_grid_refine(center, delta, step, 5e-5) == (np.inf, None)

    @pytest.mark.parametrize("delta, step, centres", [
        # a centre that passes the float test (theta finite) stacked with the
        # family witness of 1.96, which fails it at delta 2 (theta = inf)
        (2.0, 0.05, lambda: [strength._global_grid_scan(2.0, 0.05)[1],
                             optimal_family(1.96).witness.as_array()]),
        # a centre with no feasible point at any level next to one with one
        (2.0, 0.05, lambda: [np.zeros(6), strength._global_grid_scan(2.0, 0.05)[1]]),
        (2.0, 0.05, lambda: [strength._global_grid_scan(2.0, 0.05)[1], np.zeros(6)]),
        # two equal centres
        (1.0, 0.05, lambda: [optimal_family(1.0).witness.as_array()] * 2),
        # stacks of one and of three
        (0.05, 0.05, lambda: [optimal_family(0.05).witness.as_array()]),
        (1.9, 2 / 45, lambda: [strength._global_grid_scan(1.9, 2 / 45)[1],
                               optimal_family(1.9).witness.as_array(),
                               np.array([0.35, -0.86, 0.14, -0.84, 0.02, -0.41])]),
    ], ids=["passes-fails", "none-feasible", "feasible-none", "equal", "one", "three"])
    def test_stacked_refine_equals_each_centre_alone(self, delta, step, centres):
        centres = centres()
        given = [c.copy() for c in centres]
        rows = geometry.q_delta_float(2, delta)
        stacked = strength._grid_refine(centres, rows, step)
        assert len(stacked) == len(centres)
        for (value, point), centre, before in zip(stacked, centres, given):
            assert np.array_equal(centre, before)          # the caller's centres stay
            [(alone, alone_point)] = strength._grid_refine([centre], rows, step)
            assert value.hex() == alone.hex()
            if alone_point is None:
                assert point is None
            else:
                assert point.tobytes() == alone_point.tobytes()

    def test_stack_mixes_both_kinds_of_centre(self):
        # the first case above does stack a centre that passes the float test
        # with one that fails it, and the second one with no feasible point
        A, b = geometry.q_delta_float(2, 2.0)
        passes = strength._global_grid_scan(2.0, 0.05)[1]
        fails = optimal_family(1.96).witness.as_array()
        assert (A @ passes - b).max() <= 1e-12
        assert (A @ fails - b).max() > 1e-3
        none, some = strength._grid_refine([np.zeros(6), passes], (A, b), 0.05)
        assert none == (np.inf, None)
        assert np.isfinite(some[0])

    def test_pinned_bits(self):
        for delta, bits in ORACLE_BITS.items():
            assert grid_oracle(delta, step=0.05).hex() == bits

    @pytest.mark.parametrize("delta", [-0.1, 2.5, float("nan"), float("inf")])
    def test_delta_checked_before_any_work(self, delta, monkeypatch):
        def scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(strength, "_global_grid_scan", scan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"delta must lie in \[0, 2\]"):
                grid_oracle(delta)

    def test_delta_zero(self):
        assert grid_oracle(0.0) == 0.0

    def test_matches_family_at_step_005(self):
        for delta in (1.0, 2.0):
            assert grid_oracle(delta, step=0.05) == pytest.approx(
                optimal_family(delta).value, abs=1e-3)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            grid_oracle(1.0, step=0.2)

    @pytest.mark.parametrize("step", [1e-4, 0.000999, 0.0, -0.01, float("nan")])
    def test_step_checked_before_any_work(self, step, monkeypatch):
        # a step below 0.001 would need the scan's O(n^2) memory at
        # n = 2 / step > 2000: about 37 GiB at 1e-4
        def scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(strength, "_global_grid_scan", scan)
        with pytest.raises(ValueError, match=r"step must lie in \[0.001, 0.05\]"):
            grid_oracle(1.0, step=step)

    def test_no_third_argument(self):
        # a positional third argument once meant m; the refine's floor is the
        # module constant REFINE_TO, not an argument
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


class TestSettingsCount:
    # correlator_layout and its callers read m by make_box's rule after their
    # own m < 2 check; a non-integer m once raised range()'s TypeError

    CALLS = {
        "correlator_layout": boxes.correlator_layout,
        "family_index_pairs": channels.family_index_pairs,
        "q_delta_float": lambda m: geometry.q_delta_float(m, 1.0),
        "chained_polytope_bound": lambda m: chained_polytope_bound(m, 1.0),
        "curve": lambda m: curve(m, [1.0]),
    }

    @pytest.mark.parametrize("m", [3.0, np.int64(3)])
    def test_integer_valued_m_reads_the_int_bits(self, m):
        assert boxes.correlator_layout(m) == boxes.correlator_layout(3)
        assert channels.family_index_pairs(m) == channels.family_index_pairs(3)
        for got, want in zip(geometry.q_delta_float(m, 0.5), geometry.q_delta_float(3, 0.5)):
            assert got.tobytes() == want.tobytes()
        res, ref = chained_polytope_bound(m, 0.5), chained_polytope_bound(3, 0.5)
        assert res.value.hex() == ref.value.hex()
        assert res.witness.values.tobytes() == ref.witness.values.tobytes()
        assert type(res.witness.m) is int and res.witness.m == 3
        got, want = curve(m, [0.5]), curve(3, [0.5])
        assert type(got.m) is int and got.m == 3
        assert got.to_csv() == want.to_csv()
        assert [x.hex() for x in got.rows[0].witness] == [x.hex() for x in want.rows[0].witness]

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("m", [2.5, np.nan, np.inf])
    def test_non_integer_m_gets_make_boxs_message(self, name, m):
        with pytest.raises(ValueError, match="^need an integer number of settings m >= 2, got "):
            self.CALLS[name](m)

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("m", [0, 1, 1.5, -np.inf])
    def test_m_below_2_keeps_its_message(self, name, m):
        with pytest.raises(ValueError, match=f"^need m >= 2, got {m}$"):
            self.CALLS[name](m)


    # functions outside the layout's callers read m by the same rule, with no
    # m < 2 check of their own: an integer m keeps its old outcome
    EXTRA_CALLS = {
        "verify_minimal_set": monogamy.verify_minimal_set,
        "all_summed_constraints": monogamy.all_summed_constraints,
        "generate_inequality_set": monogamy.generate_inequality_set,
        "chained_bell_terms": boxes.chained_bell_terms,
        "pr_times_coin": boxes.pr_times_coin,
        "build_q_delta": lambda m: geometry.build_q_delta(m, 1),
        "CorrelatorVector": lambda m: boxes.CorrelatorVector(m, np.zeros(10)),
    }

    @pytest.mark.parametrize("m", [3.0, np.int64(3)])
    def test_integer_valued_m_elsewhere_reads_the_int_bits(self, m):
        # a fresh cache, so that chained_bell_terms reads m itself
        boxes.chained_bell_terms.cache_clear()
        got = boxes.chained_bell_terms(m)
        assert got == boxes.chained_bell_terms(3)
        assert all(type(i) is int and type(j) is int for (i, j), _ in got)
        assert monogamy.verify_minimal_set(m) == monogamy.verify_minimal_set(3) == 1
        assert monogamy.verify_minimal_set(m, 5) == 0
        got, want = monogamy.all_summed_constraints(m), monogamy.all_summed_constraints(3)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = monogamy.generate_inequality_set(m), monogamy.generate_inequality_set(3)
        assert type(got.m) is int and got.m == 3 and got.members == want.members
        assert got.summed.tobytes() == want.summed.tobytes()
        box, ref = boxes.pr_times_coin(m), boxes.pr_times_coin(3)
        assert type(box.m) is int and box.m == 3
        assert box.table.tobytes() == ref.table.tobytes()
        assert geometry.build_q_delta(m, 1) == geometry.build_q_delta(3, 1)
        vec = boxes.CorrelatorVector(m, np.arange(10) / 10)
        assert type(vec.m) is int and vec.m == 3
        assert vec.names == boxes.CorrelatorVector(3, np.arange(10) / 10).names

    @pytest.mark.parametrize("name", list(EXTRA_CALLS))
    @pytest.mark.parametrize("m", [2.5, np.nan, np.inf])
    def test_non_integer_m_elsewhere_gets_make_boxs_message(self, name, m):
        with pytest.raises(ValueError, match="^need an integer number of settings m >= 2, got "):
            self.EXTRA_CALLS[name](m)

    @pytest.mark.parametrize("call, message", [
        (lambda: monogamy.verify_minimal_set(1), "exhaustive search supported for 2 <= m <= 4"),
        (lambda: monogamy.verify_minimal_set(5), "exhaustive search supported for 2 <= m <= 4"),
        (lambda: monogamy.all_summed_constraints(1), "need m >= 2"),
        (lambda: boxes.pr_times_coin(1), "need an integer number of settings m >= 2, got 1"),
        (lambda: geometry.build_q_delta(1, 1), "need m >= 2, got 1"),
        (lambda: boxes.CorrelatorVector(1, []), "need m >= 2, got 1"),
    ])
    def test_integer_m_elsewhere_keeps_its_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_chained_bell_terms_of_one_setting_unchanged(self):
        assert boxes.chained_bell_terms(1) == (((0, 0), 1), ((0, 0), -1))
        assert boxes.chained_bell_terms(1.0) == boxes.chained_bell_terms(1)
        assert boxes.chained_bell_terms(0) == ()


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
