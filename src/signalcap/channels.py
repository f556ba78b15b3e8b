"""Binary channels induced by signaling correlations, and their capacities.

Whenever a pair of conditional correlators that must coincide for any
nonsignaling box actually differ, the remote party's setting choice is
readable from the local outcome statistics: a binary asymmetric channel
with transition probabilities p = P(Y=1|X=0) and q = P(Y=1|X=1), where
p = (1+x)/2 and q = (1+y)/2 for the correlator pair (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxes

EPS_CAP = 1e-12   # below this |p - q| the channel is treated as useless


class NoConvergence(Exception):
    def __init__(self, iters, best=None, message=None):
        self.iters = int(iters)
        self.best = best
        super().__init__(message or f"no convergence within {self.iters} iterations")


def binary_entropy(p: float) -> float:
    """Shannon entropy of a coin in bits, with 0 log 0 = 0."""
    if p < -1e-12 or p > 1.0 + 1e-12:
        raise ValueError(f"entropy argument must lie in [0, 1], got {p}")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass(frozen=True)
class BinaryChannel:
    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"transition probability {name}={v} outside [0, 1]")


def _tangent(p: float, q: float):
    """C(p, q) and (dC/dp, dC/dq) from one entropy pair and one chord slope,
    with the zero subgradient at the kink p = q.  Works on Python floats
    (faster than numpy scalars, same bits) with Python's ``**`` (libm
    ``pow``): numpy's array ``exp2`` rounds differently."""
    p, q = float(p), float(q)
    if abs(p - q) < EPS_CAP:
        return 0.0, 0.0, 0.0
    hp, hq = binary_entropy(p), binary_entropy(q)
    d = q - p
    s = (hp - hq) / d
    val = (p * hq - q * hp) / d + np.log2(1.0 + 2.0 ** s)
    q1 = 1.0 / (1.0 + 2.0 ** -s)            # optimal output P(Y=1)
    pi = min(max((q1 - p) / d, 0.0), 1.0)   # optimal input P(X=1)
    # log-odds log2((1 - u) / u), with u kept off 0 and 1
    l1, lp, lq = [np.log2((1.0 - u) / u)
                  for u in (min(max(v, 1e-300), 1.0 - 1e-16) for v in (q1, p, q))]
    cap = float(min(max(val, 0.0), 1.0))
    return cap, float((1.0 - pi) * (l1 - lp)), float(pi * (l1 - lq))


def _capacity_pq(p: float, q: float) -> float:
    return _tangent(p, q)[0]


def capacity(ch: BinaryChannel) -> float:
    """Closed-form capacity of a binary asymmetric channel, in bits."""
    return _capacity_pq(ch.p, ch.q)


def capacity_array(p, q):
    """Vectorized capacity for numpy arrays of transition probabilities."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        hp = -p * np.log2(np.where(p > 0, p, 1.0)) \
             - (1 - p) * np.log2(np.where(p < 1, 1 - p, 1.0))
        hq = -q * np.log2(np.where(q > 0, q, 1.0)) \
             - (1 - q) * np.log2(np.where(q < 1, 1 - q, 1.0))
        d = np.where(np.abs(q - p) < EPS_CAP, 1.0, q - p)
        val = (p * hq - q * hp) / d + np.log2(1.0 + np.exp2((hp - hq) / d))
    val = np.where(np.abs(q - p) < EPS_CAP, 0.0, val)
    return np.clip(val, 0.0, 1.0)


def capacity_gradient(ch: BinaryChannel):
    """Tangent (C, dC/dp, dC/dq) of the capacity at the channel."""
    return _tangent(ch.p, ch.q)


def capacity_oracle(ch: BinaryChannel, iters: int = 200_000, tol: float = 1e-8) -> float:
    """Capacity by alternating maximization of the mutual information.

    Independent of the closed form: iterates the input distribution and stops
    once the standard lower/upper capacity bracket is narrower than tol, so
    the returned midpoint is within tol of the true capacity.  Convergence is
    slow for nearly useless channels (p close to q), hence the generous
    iteration budget.
    """
    p, q = ch.p, ch.q
    log2 = np.log2
    r0 = r1 = 0.5
    lower = 0.0
    for _ in range(iters):
        o1 = r0 * p + r1 * q
        o0 = 1.0 - o1
        d0 = 0.0
        if p > 0.0:
            d0 += p * log2(p / o1)
        if p < 1.0:
            d0 += (1.0 - p) * log2((1.0 - p) / o0)
        d1 = 0.0
        if q > 0.0:
            d1 += q * log2(q / o1)
        if q < 1.0:
            d1 += (1.0 - q) * log2((1.0 - q) / o0)
        lower = r0 * d0 + r1 * d1
        upper = max(d0, d1)
        if upper - lower < tol:
            return max(0.5 * (lower + upper), 0.0)
        w0 = r0 * 2.0 ** d0
        w1 = r1 * 2.0 ** d1
        r0, r1 = w0 / (w0 + w1), w1 / (w0 + w1)
    raise NoConvergence(iters, best=lower)


# ---------------------------------------------------------------------------
# channel families

def correlator_to_probability(x: float) -> float:
    """Affine map [-1, 1] -> [0, 1] taking a correlator to P(product = +1)."""
    return (1.0 + x) / 2.0


def family_index_pairs(m: int, relaxed: bool = False):
    """Channel labels with the component indices (into the canonical
    correlator-vector order) of their (x, y) correlator pair."""
    index = {name: k for k, (name, _, _, _) in
             enumerate(boxes.correlator_layout(m, relaxed))}
    arms = [("B", "AE", i) for i in range(m)] + [("A", "BE", i) for i in range(1, m)]
    if relaxed:
        arms.append(("A", "BE", 0))
    return [(f"S^{i}_{{{sender}->{rest}}}", index[f"x_{sender}^{i}"], index[f"y_{sender}^{i}"])
            for sender, rest, i in arms]


@dataclass(frozen=True)
class ChannelFamily:
    m: int
    relaxed: bool
    channels: tuple   # of (label, BinaryChannel)

    def capacities(self) -> dict:
        return {label: capacity(ch) for label, ch in self.channels}

    def max_capacity(self) -> float:
        return max(capacity(ch) for _, ch in self.channels)

    def __len__(self):
        return len(self.channels)


def channels_from_correlators(c: boxes.CorrelatorVector, relaxed: bool = False) -> ChannelFamily:
    """One channel per signaling pair: 2m-1 of them, 2m in relaxed mode."""
    if relaxed and not c.relaxed:
        raise ValueError("correlator vector lacks the relaxed-mode pair (x_A^0, y_A^0)")
    arr = c.as_array()
    chans = []
    for label, ix, iy in family_index_pairs(c.m, relaxed):
        ch = BinaryChannel(correlator_to_probability(arr[ix]),
                           correlator_to_probability(arr[iy]))
        chans.append((label, ch))
    return ChannelFamily(c.m, relaxed, tuple(chans))


def channels_from_box(box: boxes.TripartiteBox, relaxed: bool = False) -> ChannelFamily:
    return channels_from_correlators(boxes.correlator_vector(box, relaxed), relaxed)
