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


def _value(p: float, q: float):
    """C(p, q) and the chord slope s = (H(p) - H(q)) / (q - p) of the entropy,
    from one entropy pair; s is None at the kink p = q, where C is 0.  Works
    on Python floats (faster than numpy scalars, same bits) with Python's
    ``**`` (libm ``pow``): numpy's array ``exp2`` rounds differently."""
    if abs(p - q) < EPS_CAP:
        return 0.0, None
    hp, hq = binary_entropy(p), binary_entropy(q)
    d = q - p
    s = (hp - hq) / d
    val = (p * hq - q * hp) / d + np.log2(1.0 + 2.0 ** s)
    return float(min(max(val, 0.0), 1.0)), s


def _tangent(p: float, q: float):
    """C(p, q) and (dC/dp, dC/dq): ``_value`` and the gradient read off its
    chord slope, with the zero subgradient at the kink p = q."""
    p, q = float(p), float(q)
    cap, s = _value(p, q)
    if s is None:
        return 0.0, 0.0, 0.0
    d = q - p
    q1 = 1.0 / (1.0 + 2.0 ** -s)            # optimal output P(Y=1)
    pi = min(max((q1 - p) / d, 0.0), 1.0)   # optimal input P(X=1)
    # log-odds log2((1 - u) / u), with u kept off 0 and 1
    l1, lp, lq = [np.log2((1.0 - u) / u)
                  for u in (min(max(v, 1e-300), 1.0 - 1e-16) for v in (q1, p, q))]
    return cap, float((1.0 - pi) * (l1 - lp)), float(pi * (l1 - lq))


def _capacity_pq(p: float, q: float) -> float:
    return _value(float(p), float(q))[0]


def capacity(ch: BinaryChannel) -> float:
    """Closed-form capacity of a binary asymmetric channel, in bits."""
    return _capacity_pq(ch.p, ch.q)


def capacity_array(p, q):
    """Vectorized capacity for numpy arrays of transition probabilities;
    p and q broadcast, and the result has their broadcast shape.

    Both entropies come from one pass over p's and q's entries laid end to
    end, H(u) = -u log2 u - (1 - u) log2(1 - u) with 0 log 0 = 0: every
    numpy call here works element by element, and numpy's array log2 and
    exp2 round an element the same wherever it sits in an array, so an
    entry of H gets the bits it gets in a pass over p or q alone, and a
    capacity does not depend on the array it comes in.  q - p and its
    EPS_CAP mask are formed once.  The clip to [0, 1] is np.maximum then
    np.minimum, which differ from np.clip on -0.0 alone, and no value is
    -0.0: the masked ones are +0.0, and a sum x + log2(1 + 2^s) is -0.0
    only if log2(...) is, which it never is.  tests/test_channels.py holds
    the function to its two-pass, np.clip form byte for byte."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    u = np.concatenate([p.ravel(), q.ravel()])
    v = 1.0 - u
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -u * np.log2(np.where(u > 0, u, 1.0)) - v * np.log2(np.where(u < 1, v, 1.0))
        hp, hq = h[:p.size].reshape(p.shape), h[p.size:].reshape(q.shape)
        d = q - p
        useless = np.abs(d) < EPS_CAP
        d = np.where(useless, 1.0, d)
        val = (p * hq - q * hp) / d + np.log2(1.0 + np.exp2((hp - hq) / d))
    val = np.where(useless, 0.0, val)
    return np.minimum(np.maximum(val, 0.0), 1.0)


def capacity_gradient(ch: BinaryChannel):
    """Tangent (C, dC/dp, dC/dq) of the capacity at the channel."""
    return _tangent(ch.p, ch.q)


def capacity_oracle_array(p, q, iters: int = 200, tol: float = 1e-8):
    """Capacities of the channels (p[k], q[k]) by bisection on the input law,
    independent of the closed form.

    The mutual information I(pi) of input law pi = P(X=1) is concave with
    slope D(W_1 || o_pi) - D(W_0 || o_pi), where o_pi is the output law and
    W_x the row of input x, so each channel bisects pi on the sign of that
    slope.  Every evaluated pi certifies I(pi) <= C <= max_x D(W_x || o_pi);
    a channel keeps its best such bracket and stops at the first step where
    the bracket is narrower than tol, returning its midpoint (clipped at 0),
    which is then within tol of C.  Channels never mix, so a channel's result
    does not depend on the batch it comes in.  Arrays broadcast; the result
    has their shape.

    Raises ValueError naming the first entry of p or q that is NaN or lies
    outside [0, 1], and NoConvergence when a channel's bracket is still as
    wide as tol after iters bisection steps; its ``best`` holds each
    converged channel's result and each other channel's certified lower
    bound.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    shape = p.shape
    for name, v in (("p", p), ("q", q)):
        bad = np.argwhere(~((v >= 0.0) & (v <= 1.0)))
        if len(bad):
            k = tuple(int(i) for i in bad[0])
            entry = name + (f"[{', '.join(map(str, k))}]" if k else "")
            raise ValueError(f"transition probability {entry}={v[k]} outside [0, 1]")
    ones = np.stack([p.ravel(), q.ravel()])    # P(Y=1 | X=x), one row per x
    zeros = 1.0 - ones                         # P(Y=0 | X=x)
    n = ones.shape[1]
    out = np.empty(n)
    todo = np.arange(n)                        # channels still bisecting
    pi = np.full(n, 0.5)                       # dyadic, so every step is exact
    lower, upper = np.zeros(n), np.full(n, np.inf)
    step = 0.5
    # 0 log 0 = 0: the masked terms may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters):
            if not n:
                break
            # both output probabilities as mixtures, so neither loses its
            # small value to 1 - o
            o1 = (1.0 - pi) * ones[0] + pi * ones[1]
            o0 = (1.0 - pi) * zeros[0] + pi * zeros[1]
            d0, d1 = (np.where(ones > 0.0, ones * np.log2(ones / o1), 0.0)
                      + np.where(zeros > 0.0, zeros * np.log2(zeros / o0), 0.0))
            lower = np.maximum(lower, (1.0 - pi) * d0 + pi * d1)
            upper = np.minimum(upper, np.maximum(d0, d1))
            done = upper - lower < tol
            step *= 0.5
            pi = pi + np.where(d1 > d0, step, -step)
            if done.any():
                out[todo[done]] = np.maximum(0.5 * (lower[done] + upper[done]), 0.0)
                left = ~done
                todo, pi, lower, upper = (a[left] for a in (todo, pi, lower, upper))
                ones, zeros = ones[:, left], zeros[:, left]
                n = todo.size
    if n:
        out[todo] = lower
        raise NoConvergence(iters, best=out.reshape(shape))
    return out.reshape(shape)


def capacity_oracle(ch: BinaryChannel, iters: int = 200, tol: float = 1e-8) -> float:
    """Capacity of one channel by the bisection of ``capacity_oracle_array``,
    within tol of the true capacity; iters counts bisection steps.

    It has its own body on Python floats, because on one channel the array
    loop's numpy calls on one-entry arrays cost more than its arithmetic.
    The body does every floating-point operation of that loop in the same
    order, so a channel gets the same bits from either, and NoConvergence's
    ``best`` is the 0-d array the array path gives.  The four logarithms of
    a step come from one call of numpy's array ``log2``, which rounds an
    entry the same in any array; ``math.log2`` rounds some arguments
    differently, so it would move bits.  numpy's maximum and minimum return
    their second operand on a tie, and so do the comparisons here (0.0
    against -0.0).
    """
    p, q = float(ch.p), float(ch.q)
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"transition probability {name}={v} outside [0, 1]")
    p0, q0 = 1.0 - p, 1.0 - q
    pi = 0.5
    lower, upper = 0.0, np.inf
    step = 0.5
    # 0 log 0 = 0: a zero x's log2(x / o) is -inf (inf if o is 0 too), and
    # its term is dropped
    with np.errstate(divide="ignore"):
        for _ in range(iters):
            o1 = (1.0 - pi) * p + pi * q
            o0 = (1.0 - pi) * p0 + pi * q0
            try:
                ratios = [p / o1, q / o1, p0 / o0, q0 / o0]
            except ZeroDivisionError:   # numpy's x / 0 is inf for x > 0
                ratios = [x / o if o else np.inf
                          for x, o in ((p, o1), (q, o1), (p0, o0), (q0, o0))]
            lp, lq, lp0, lq0 = np.log2(ratios).tolist()
            d0 = (p * lp if p > 0.0 else 0.0) + (p0 * lp0 if p0 > 0.0 else 0.0)
            d1 = (q * lq if q > 0.0 else 0.0) + (q0 * lq0 if q0 > 0.0 else 0.0)
            mix = (1.0 - pi) * d0 + pi * d1
            lower = lower if lower > mix else mix
            top = d0 if d0 > d1 else d1
            upper = upper if upper < top else top
            if upper - lower < tol:
                mid = 0.5 * (lower + upper)
                return mid if mid > 0.0 else 0.0
            step *= 0.5
            pi += step if d1 > d0 else -step
    raise NoConvergence(iters, best=np.array(lower))


# ---------------------------------------------------------------------------
# channel families

def correlator_to_probability(x: float) -> float:
    """Affine map [-1, 1] -> [0, 1] taking a correlator to P(product = +1),
    clipped to [0, 1], since a CorrelatorVector admits |x| <= 1 + 1e-9."""
    return min(max((1.0 + x) / 2.0, 0.0), 1.0)


def family_index_pairs(m: int, relaxed: bool = False):
    """Channel labels with the component indices (into the canonical
    correlator-vector order) of their (x, y) correlator pair."""
    m = boxes._layout_settings(m)
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
