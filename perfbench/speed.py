"""Host speed calibration.

The benchmark host's speed drifts by up to +-30% over minutes (noisy
neighbours on a shared 2-vCPU VM), which moves every raw timing together.
Before each op the benchmark times a fixed kernel of its own and scales
the op's latency by REFERENCE_S / (median kernel time of the 2 * WINDOW + 1
samples around the op).  A scaled time is the time the op would take on a
host where the kernel takes REFERENCE_S.  The kernel is part of the
benchmark, so a change to signalcap never moves it.  Over ten
exact_geometry runs the quartile spread of ops_per_s, op_p50_ms and
op_p90_ms was 10.2%, 12.9% and 12.5% unscaled, 8.5%, 5.2% and 5.0% with
one factor per run, and 7.3%, 4.2% and 3.2% with these per-op factors.

The kernel does both kinds of work signalcap's ops do, because the host's
drift slows them by different amounts: interpreted Python (integer loops,
Fraction arithmetic, small numpy operations), which box preimages and the
capacity oracle mostly are, and small HiGHS solves through scipy's linprog,
which the Kelley solver and the grid oracle mostly are.  Over 100 s of
interleaved samples, in 4.5-s blocks, the Python half alone left a
coefficient of variation of 0.052 in solver sweeps and 0.054 in grid
oracles, the linprog half alone 0.068 in capacity-oracle batches and 0.071
in box preimages; the two together left at most 0.058 in all five kinds
of op (raw: 0.073 to 0.105).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 6e-3     # kernel time on the 2-vCPU VM at its fastest, Python 3.11
WINDOW = 10            # samples on each side of an op that set its scale

_rng = np.random.default_rng(1)
_LP = {"c": _rng.uniform(-1, 1, 10), "A_ub": _rng.uniform(-1, 1, (30, 10)),
       "b_ub": np.ones(30), "bounds": (-1, 1), "method": "highs"}


def sample() -> float:
    """Seconds one run of the calibration kernel takes now.  The collector
    is paused so that the program's heap does not add to the kernel time."""
    gc.disable()
    try:
        return _kernel()
    finally:
        gc.enable()


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(16000):
        acc += i * i
    frac = Fraction(1, 3)
    for i in range(1, 150):
        frac = (frac * Fraction(i, i + 1) + Fraction(1, 7)) / 2
    x = np.arange(8.0)
    for _ in range(500):
        x = np.sqrt(x * x + 1.0)
    for _ in range(2):
        linprog(**_LP)
    return time.perf_counter() - start


def factor(kernel_s) -> float:
    """Scale for a time measured while the kernel took kernel_s."""
    return REFERENCE_S / kernel_s


def scaled(values, samples) -> list:
    """Each value scaled by the factor for the median kernel time of the
    samples around it; samples[i] is the one taken before values[i]."""
    return [v * factor(statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1]))
            for i, v in enumerate(values)]
