"""Tripartite boxes: probability tables, correlators, no-signaling tests.

A box stores the full conditional distribution p(a, b, e | A_i, B_j) for a
Bell-type experiment in which parties A and B each choose among M binary
observables and an external party E measures a single binary observable.
Outcomes are signs {+1, -1}.  Tables are indexed (i, j, a, b, e) with
outcome index 0 meaning +1 and 1 meaning -1; the JSON format uses the same
0/1 encoding.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

PROB_TOL = 1e-12     # entries may undershoot zero by at most this
NORM_TOL = 1e-9      # per-setting normalization slack

SIGNS = np.array([1.0, -1.0])


class BoxError(Exception):
    """Base class for box construction and IO failures."""


class NegativeProbability(BoxError):
    def __init__(self, index, value):
        self.index = tuple(int(k) for k in index)
        self.value = float(value)
        super().__init__(
            f"table entry {self.index} is {self.value:.6e}, below -{PROB_TOL:g}")


class NotNormalized(BoxError):
    def __init__(self, i, j, total):
        self.i, self.j, self.total = int(i), int(j), float(total)
        super().__init__(
            f"p(.|A_{self.i}, B_{self.j}) sums to {self.total!r}, not 1")


class BoxFormatError(BoxError):
    """JSON reader error.  Its message names no file; check-box prefixes
    the file's path."""


@dataclass(frozen=True, eq=False)
class TripartiteBox:
    """Two parties with m binary settings each plus a single-setting third party."""

    m: int
    table: np.ndarray


def _integer_settings(m) -> int:
    """m as an int, or make_box's error if it is no integer, so that 3.0 and
    np.int64(3) read as 3 and a caller's own checks of an integer m run as
    they do on the int."""
    try:
        k = int(m)
    except (ValueError, OverflowError):   # nan, inf
        k = None
    if k is None or m != k:
        raise ValueError(f"need an integer number of settings m >= 2, got {m!r}")
    return k


def _settings_count(m) -> int:
    """m as an int, or make_box's error if it is no integer >= 2."""
    k = _integer_settings(m)
    if k < 2:
        raise ValueError(f"need an integer number of settings m >= 2, got {m!r}")
    return k


def _layout_settings(m) -> int:
    """m as an int, checked as correlator_layout checks it: m < 2 with its
    own message first, then make_box's rule."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return _settings_count(m)


def make_box(m, table) -> TripartiteBox:
    """Validate a probability table of shape (m, m, 2, 2, 2) and wrap it."""
    m = _settings_count(m)
    t = np.asarray(table, dtype=float)
    want = (m, m, 2, 2, 2)
    if t.shape != want:
        raise BoxFormatError(f"table: expected shape {want}, got {t.shape}")
    _check_tables(t)
    t = t.copy()
    t.flags.writeable = False
    return TripartiteBox(m, t)


def _check_tables(t) -> None:
    """Raise make_box's error if a table of the stack t, shaped
    (..., m, m, 2, 2, 2), is invalid.

    The checks run over the whole stack in turn: the first entry (C order)
    that is not finite, then the most negative entry if it is below
    -PROB_TOL, then the first setting pair whose entries do not sum to 1
    within NORM_TOL.  Indices name the entry or pair within its table.
    """
    finite = np.isfinite(t)
    if not finite.all():
        idx = tuple(int(k) for k in np.argwhere(~finite)[0])
        raise BoxError(f"table entry {idx[-5:]} is {t[idx]}, not a finite number")
    if t.min() < -PROB_TOL:
        idx = np.unravel_index(int(t.argmin()), t.shape)
        raise NegativeProbability(idx[-5:], t[idx])
    sums = t.sum(axis=(-3, -2, -1))
    bad = np.abs(sums - 1.0) > NORM_TOL
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        raise NotNormalized(idx[-2], idx[-1], sums[idx])


# ---------------------------------------------------------------------------
# correlators

def correlator(box: TripartiteBox, pair: str, setting_pair, conditioning=0) -> float:
    """Conditional two-body expectation value.

    pair selects which two parties are correlated ("AB", "AE" or "BE");
    setting_pair gives their measurement settings (E always has setting 0)
    and conditioning the remaining party's setting.
    """
    s, t = setting_pair
    if pair not in ("AB", "AE", "BE"):
        raise ValueError(f"unknown pair {pair!r}")
    if not 0 <= s < box.m:
        raise IndexError(f"{pair[0]} setting {s} out of range")
    if pair == "AB" and not 0 <= t < box.m:
        raise IndexError(f"B setting {t} out of range")
    ab, ae, be = two_body_tables(box)
    if pair == "AB":
        if conditioning != 0:
            raise IndexError("E has a single setting, conditioning must be 0")
        return float(ab[s, t])
    if t != 0:
        raise IndexError("E has a single setting")
    if not 0 <= conditioning < box.m:
        other = "B" if pair == "AE" else "A"
        raise IndexError(f"{other} setting {conditioning} out of range")
    return float(ae[s, conditioning] if pair == "AE" else be[conditioning, s])


def two_body_tables(box: TripartiteBox):
    """All two-body conditional correlators as three (m, m) arrays.

    Returns (ab, ae, be) with ab[i, j] = <A_i B_j>_E, ae[i, j] = <A_i E>_{B_j}
    and be[i, j] = <B_j E>_{A_i}.
    """
    return _two_body(box.table)


def _two_body(t):
    """two_body_tables of every table of a stack (..., m, m, 2, 2, 2), as
    three (..., m, m) arrays."""
    ab = np.einsum("...ijabe,a,b->...ij", t, SIGNS, SIGNS)
    ae = np.einsum("...ijabe,a,e->...ij", t, SIGNS, SIGNS)
    be = np.einsum("...ijabe,b,e->...ij", t, SIGNS, SIGNS)
    return ab, ae, be


def one_body_tables(box: TripartiteBox):
    """Single-party conditional expectations <A_i>, <B_j>, <E> per setting pair."""
    t = box.table
    a = np.einsum("ijabe,a->ij", t, SIGNS)
    b = np.einsum("ijabe,b->ij", t, SIGNS)
    e = np.einsum("ijabe,e->ij", t, SIGNS)
    return a, b, e


def three_body_table(box: TripartiteBox) -> np.ndarray:
    return np.einsum("ijabe,a,b,e->ij", box.table, SIGNS, SIGNS, SIGNS)


@lru_cache(maxsize=None)
def chained_bell_terms(m: int) -> tuple:
    """The 2m terms ((i, j), sign) of the chained Bell expression in <A_i B_j>.

    I_m = sum_k (<A_k B_k> + <A_{k+1} B_k>) with A_m = -A_0, in that order;
    the last term is stored on the actual pair as ((0, m - 1), -1).  The Bell
    value, the PR box, the monogamy members and the box LP read it here.
    """
    m = _integer_settings(m)
    terms = []
    for k in range(m):
        terms += [((k, k), 1), ((k + 1, k), 1) if k + 1 < m else ((0, k), -1)]
    return tuple(terms)


def chained_bell_value(box: TripartiteBox) -> float:
    """Chained Bell expression I_m, summed over chained_bell_terms(m) in order.

    For m = 2 this is the CHSH combination
    <A_0 B_0> + <A_1 B_0> + <A_1 B_1> - <A_0 B_1>.
    """
    return float(_bell_values(two_body_tables(box)[0]))


def _bell_values(ab):
    """I_m of every <A_i B_j> table of a stack (..., m, m), added one term at
    a time from 0.0 in the order of chained_bell_terms(m)."""
    ba = ab.T      # ba[j, i] is ab[..., i, j] with the leading axes reversed
    total = 0.0
    for (i, j), sign in chained_bell_terms(ab.shape[-1]):
        total = total + sign * ba[j, i]
    return total.T


# ---------------------------------------------------------------------------
# no-signaling

@dataclass
class NoSignalingReport:
    is_nonsignaling: bool
    worst_violation: float
    offenders: list


# (label, axes of the (..., i, j, a, b, e) tables summed out, axes of the
# marginal its spread runs over, names of the marginal's remaining axes)
_MARGINALS = (
    ("p(b,e|B_j) depends on A setting", -3, -4, "jbe"),
    ("p(a,e|A_i) depends on B setting", -2, -3, "iae"),
    ("p(a|A_i) depends on B setting", (-2, -1), -2, "ia"),
    ("p(b|B_j) depends on A setting", (-3, -1), -3, "jb"),
    ("p(e) depends on A,B settings", (-3, -2), (-3, -2), "e"),
)


def _marginal_gaps(t) -> list:
    """Spread (max - min) of each marginal of _MARGINALS across the dropped
    party's settings, for every table of a stack (..., m, m, 2, 2, 2): one
    array per marginal, shaped (..., remaining axes)."""
    # numpy picks a sum's order of addition from the memory layout: laid out
    # as one table is, a stack (such as _mixture_tables' view) gets its bits
    t = np.ascontiguousarray(t)
    gaps = []
    for _, summed, spread, _ in _MARGINALS:
        marginal = t.sum(axis=summed)
        gaps.append(marginal.max(axis=spread) - marginal.min(axis=spread))
    return gaps


def check_no_signaling(box: TripartiteBox, tol: float = 1e-9) -> NoSignalingReport:
    """Compare every one- and two-party marginal across the dropped party's settings.

    Offenders name the marginal family and the concrete entry with the
    largest spread; outcome indices are reported as signs.
    """
    offenders = []
    worst = 0.0
    for (label, _, _, names), gap in zip(_MARGINALS, _marginal_gaps(box.table)):
        spread = float(gap.max())
        worst = max(worst, spread)
        if spread > tol:
            where = np.unravel_index(int(gap.argmax()), gap.shape)
            entry = ", ".join(f"{name}={k}" if name in "ij" else
                              f"{name}={'+1' if k == 0 else '-1'}"
                              for name, k in zip(names, where))
            offenders.append((f"{label} (worst at {entry})", spread))
    return NoSignalingReport(bool(worst <= tol), worst, offenders)


def symmetrize(box: TripartiteBox) -> TripartiteBox:
    """Average the box with its all-outcomes-negated twin.

    Kills every one- and three-party expectation while leaving all two-body
    conditional correlators untouched.
    """
    t = box.table
    return make_box(box.m, 0.5 * (t + t[:, :, ::-1, ::-1, ::-1]))


# ---------------------------------------------------------------------------
# correlator vectors

def correlator_layout(m: int, relaxed: bool = False) -> tuple:
    """Canonical order of the correlator-vector components.

    Each entry is (name, table, i, j): the component is entry (i, j) of the
    "ae" or "be" table of two_body_tables.

    x_A^i = <B_i E>_{A_i} and y_A^i = <B_i E>_{A_{i+1}} for i = 1..m-1
    (index m wraps to conditioning on A_0); x_B^i = <A_i E>_{B_{i-1}} and
    y_B^i = <A_i E>_{B_i} for i >= 1, while x_B^0 = <A_0 E>_{B_0} and
    y_B^0 = <A_0 E>_{B_{m-1}}.  In relaxed mode the pair
    (x_A^0, y_A^0) = (<B_0 E>_{A_0}, <B_0 E>_{A_1}) is carried as well.
    """
    m = _layout_settings(m)
    if relaxed and m != 2:
        raise ValueError("relaxed mode is defined for m = 2 only")
    layout = []
    for i in range(1, m):
        layout += [(f"x_A^{i}", "be", i, i), (f"y_A^{i}", "be", (i + 1) % m, i)]
    layout += [("x_B^0", "ae", 0, 0), ("y_B^0", "ae", 0, m - 1)]
    for i in range(1, m):
        layout += [(f"x_B^{i}", "ae", i, i - 1), (f"y_B^{i}", "ae", i, i)]
    if relaxed:
        layout += [("x_A^0", "be", 0, 0), ("y_A^0", "be", 1, 0)]
    return tuple(layout)


def component_names(m: int, relaxed: bool = False) -> list:
    return [name for name, _, _, _ in correlator_layout(m, relaxed)]


@dataclass(frozen=True, eq=False)
class CorrelatorVector:
    """The conditional correlators that feed channels and polytopes, stored
    read-only in the order of correlator_layout(m, relaxed)."""

    m: int
    values: np.ndarray
    relaxed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "m", _layout_settings(self.m))
        values = np.array(self.values, dtype=float)
        want = len(correlator_layout(self.m, self.relaxed))
        if values.shape != (want,):
            raise ValueError(f"expected {want} components for m={self.m}, got {values.shape}")
        if not (np.abs(values) <= 1.0 + 1e-9).all():      # NaN fails too
            raise ValueError("correlator components must lie in [-1, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def as_array(self) -> np.ndarray:
        return self.values.copy()

    @property
    def names(self) -> list:
        return component_names(self.m, self.relaxed)


def correlator_vector(box: TripartiteBox, relaxed: bool = False) -> CorrelatorVector:
    """Extract the channel-defining correlators of a box."""
    _, ae, be = two_body_tables(box)
    tables = {"ae": ae, "be": be}
    values = [tables[t][i, j] for _, t, i, j in correlator_layout(box.m, relaxed)]
    return CorrelatorVector(box.m, values, relaxed)


def from_correlators(m: int, ab, ae, be) -> TripartiteBox:
    """Build the unique box with the given two-body correlators and vanishing
    one- and three-party expectations.

    Entries are p = (1/8)(1 + ab<A_iB_j> + ae<A_iE> + be<B_jE>); raises
    NegativeProbability when the requested correlators are not realizable
    this way.
    """
    ab = np.asarray(ab, dtype=float)
    ae = np.asarray(ae, dtype=float)
    be = np.asarray(be, dtype=float)
    for name, arr in (("ab", ab), ("ae", ae), ("be", be)):
        if arr.shape != (m, m):
            raise ValueError(f"{name} must have shape {(m, m)}, got {arr.shape}")
        if not (np.abs(arr) <= 1.0 + 1e-12).all():        # NaN fails too
            raise ValueError(f"{name} components must lie in [-1, 1]")
    sa = SIGNS[:, None, None]
    sb = SIGNS[None, :, None]
    se = SIGNS[None, None, :]
    t = (1.0
         + sa * sb * ab[:, :, None, None, None]
         + sa * se * ae[:, :, None, None, None]
         + sb * se * be[:, :, None, None, None]) / 8.0
    if t.min() < -PROB_TOL:
        idx = np.unravel_index(int(t.argmin()), t.shape)
        raise NegativeProbability(idx, t[idx])
    return make_box(m, np.clip(t, 0.0, None))


# ---------------------------------------------------------------------------
# canonical boxes

def _pr_correlators(m: int) -> np.ndarray:
    """<A_i B_j> of the PR-type box: the sign of each chained Bell term, +1 off it."""
    ab = np.ones((m, m))
    for (i, j), sign in chained_bell_terms(m):
        ab[i, j] = sign
    return ab


def pr_times_coin(m: int = 2) -> TripartiteBox:
    """Box whose AB marginal maximizes the chained Bell expression (value 2m)
    while E is an uncorrelated fair coin."""
    m = _integer_settings(m)
    zero = np.zeros((m, m))
    return from_correlators(m, _pr_correlators(m), zero, zero)


def local_deterministic(m: int, a_signs, b_signs, e_sign: int) -> TripartiteBox:
    """Product box with fixed outcomes per setting."""
    m = _settings_count(m)
    a_signs = tuple(int(s) for s in a_signs)
    b_signs = tuple(int(s) for s in b_signs)
    if len(a_signs) != m or len(b_signs) != m:
        raise ValueError("need one sign per setting for both parties")
    if any(s not in (-1, 1) for s in a_signs + b_signs + (int(e_sign),)):
        raise ValueError("signs must be +1 or -1")
    # the strategy's index in _strategy_cells(m): its outcome bits, A's first
    strategy = int("".join("0" if s == 1 else "1" for s in a_signs + b_signs + (e_sign,)), 2)
    weights = np.zeros(len(_strategy_cells(m)))
    weights[strategy] = 1.0
    return make_box(m, _mixture_tables(m, weights))


@lru_cache(maxsize=8)
def _strategy_cells(m: int) -> np.ndarray:
    """Flat indices of the m*m cells (i, j, a_i, b_j, e) that each local
    deterministic strategy weighs, one row per strategy; strategies run over
    A's outcome indices, then B's, then E's (0 means +1), lexicographically."""
    signs = np.array(list(itertools.product((0, 1), repeat=m)))   # (2^m, m)
    cells = (8 * np.arange(m * m).reshape(m, m) + 4 * signs[:, None, None, :, None]
             + 2 * signs[None, :, None, None, :] + np.arange(2)[:, None, None])
    cells = cells.reshape(-1, m * m)
    cells.flags.writeable = False
    return cells


@lru_cache(maxsize=8)
def _cell_strategies(m: int) -> np.ndarray:
    """The strategies that weigh each cell, shaped (2^(2m-2), 8 m^2): column c
    lists the strategies of _strategy_cells(m) that contain flat cell c, in
    strategy order."""
    cells = _strategy_cells(m)
    # stable: within a cell the flat positions, hence strategies, stay in order
    order = np.argsort(cells.ravel(), kind="stable") // cells.shape[1]
    order = np.ascontiguousarray(order.reshape(8 * m * m, -1).T)
    order.flags.writeable = False
    return order


def _mixture_tables(m: int, weights) -> np.ndarray:
    """Tables of the mixtures of local deterministic strategies with the
    given weights, one per row of weights (..., 2^(2m+1)), shaped
    (..., m, m, 2, 2, 2).

    Each cell adds its strategies' weights to 0.0 one at a time in strategy
    order, so every table has the bytes that np.add.at gives when it adds
    each strategy's weight to a zero table, strategy by strategy.
    """
    # strategies first; the other axes come out reversed, and t.T turns them back
    by_strategy = weights.T
    t = np.zeros((8 * m * m,) + by_strategy.shape[1:])
    for strategies in _cell_strategies(m):
        t += by_strategy[strategies]
    return t.T.reshape(weights.shape[:-1] + (m, m, 2, 2, 2))


def _strategy_weights(m: int, seed) -> np.ndarray:
    """Dirichlet(0.2) weights over the 2^(2m+1) local deterministic
    strategies, drawn by a generator of their own, np.random.default_rng(seed),
    so that a box is fixed by its seed alone, whatever else is drawn before
    or beside it.  This is the definition of a box's weights;
    _strategy_weights_block draws the same bits for a block of seeds."""
    return np.random.default_rng(seed).dirichlet(np.full(len(_strategy_cells(m)), 0.2))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): each hash step
# xors a 32-bit word with a running constant, advances the constant by its
# multiplier, multiplies and folds the high half in with a 16-bit xorshift;
# mix combines two words.  None of the constants depends on the seed.
_INIT_A = 0x43b0d7e5
_MULT_A = 0x931e8875
_INIT_B = 0x8b51f9dd
_MULT_B = 0x58f38ded
_MIX_MULT_L = 0xca01f9dd
_MIX_MULT_R = 0x4973f715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _hash_steps(init: int, mult: int):
    """The (xor, multiplier) constants of successive hash steps."""
    const = init
    while True:
        advanced = const * mult & _MASK32
        yield const, advanced
        const = advanced


def _hash(words, steps):
    """One hash step on a uint32 array (which wraps mod 2^32, as C does)."""
    xor, mult = next(steps)
    words = (words ^ xor) * mult
    return words ^ words >> _XSHIFT


def _mix(x, y):
    words = _MIX_MULT_L * x - _MIX_MULT_R * y
    return words ^ words >> _XSHIFT


def _seed_states(seeds) -> np.ndarray:
    """np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for each
    seed s of a 1-D block, shaped (n, 4): SeedSequence's pool mixing and
    state generation, one array operation per step of its loops."""
    seeds = np.asarray(seeds)
    if seeds.dtype.kind not in "iuO":
        raise TypeError(f"seeds must be integers, got dtype {seeds.dtype}")
    # checked before the cast, which would wrap a negative seed silently
    if seeds.size and (seeds.min() < 0 or seeds.max() > 2**64 - 1):
        raise ValueError("seeds must lie in [0, 2**64)")
    seeds = seeds.astype(np.uint64)
    # a seed's entropy is its 32-bit words, low first, padded with zeros to
    # the pool's four words: a seed below 2^32 has one word, and a padded
    # zero hashes as a zero high word does
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0] = seeds & _MASK32
    pool[1] = seeds >> 32
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(words, steps) for words in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    # generate_state(4, uint64): eight 32-bit words cycling over the pool,
    # paired little-endian into uint64s
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.empty((len(seeds), 8), np.uint32)
    for k in range(8):
        state[:, k] = _hash(pool[k % 4], steps)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _PresetSeed(ISeedSequence):
    """A seed sequence whose state is already computed: a PCG64 built on it
    reads the words, which it asks for as generate_state(4, np.uint64),
    instead of hashing a seed."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _strategy_weights_block(m: int, seeds) -> np.ndarray:
    """_strategy_weights(m, s) for each seed s of a 1-D block, shaped
    (n, 2^(2m+1)), bit for bit.

    Each box still has a PCG64 generator of its own, seeded with its seed's
    SeedSequence state, but the states are hashed for the whole block at
    once.  Each generator draws the 2^(2m+1) Gamma(0.2) variates that
    dirichlet draws, and the rows are normalised as dirichlet's gamma path
    (the one it takes when the largest alpha is >= 0.1) normalises them:
    times 1.0 / their sum, added left to right (np.add.accumulate, not the
    pairwise np.sum).
    """
    states = _seed_states(seeds)
    gammas = np.empty((len(states), len(_strategy_cells(m))))
    for state, row in zip(states, gammas):
        np.random.Generator(np.random.PCG64(_PresetSeed(state))).standard_gamma(0.2, out=row)
    return gammas * (1.0 / np.add.accumulate(gammas, axis=1)[:, -1])[:, None]


def random_nonsignaling(m: int = 2, seed=None) -> TripartiteBox:
    """Dirichlet-weighted mixture of all local deterministic boxes.

    Mixtures of product boxes are nonsignaling by convexity, so the result
    passes check_no_signaling at tolerance 1e-12 up to float roundoff.  The
    Dirichlet concentration 0.2 < 1 biases the weights toward few
    strategies, so samples also probe the neighborhood of the extreme points
    where the monogamy bound is nearly saturated.
    """
    return make_box(m, _mixture_tables(m, _strategy_weights(m, seed)))


def reference_box(delta: float, x: float) -> TripartiteBox:
    """Two-setting box with PR-type AB correlations, <A_i E>_{B_0} = delta/2
    and <A_i E>_{B_1} = x.

    The remaining BE correlators are forced by the perfectly (anti)correlated
    AB support: <B_j E>_{A_i} = <A_i B_j> <A_i E>_{B_j}.  The box exceeds the
    two-setting monogamy bound 4 by exactly delta.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    ab = _pr_correlators(2)
    ae = np.array([[delta / 2.0, x], [delta / 2.0, x]])
    be = ab * ae
    return from_correlators(2, ab, ae, be)


# ---------------------------------------------------------------------------
# JSON format: {"m": M, "table": [i][j][a][b][e]} with 0 -> +1, 1 -> -1

def box_to_json_dict(box: TripartiteBox) -> dict:
    return {"m": box.m, "table": box.table.tolist()}


def save_box(box: TripartiteBox, path) -> None:
    with open(path, "w") as fh:
        json.dump(box_to_json_dict(box), fh)
        fh.write("\n")


def _expect_list(node, length, path):
    if not isinstance(node, list):
        raise BoxFormatError(f"{path}: expected a list, got {type(node).__name__}")
    if len(node) != length:
        raise BoxFormatError(f"{path}: expected {length} entries, got {len(node)}")


def box_from_json_dict(doc: dict) -> TripartiteBox:
    if not isinstance(doc, dict):
        raise BoxFormatError(f"top level: expected an object, got {type(doc).__name__}")
    if "m" not in doc or "table" not in doc:
        raise BoxFormatError("top level: need keys 'm' and 'table'")
    m = doc["m"]
    if not isinstance(m, int) or m < 2:
        raise BoxFormatError(f"m: expected an integer >= 2, got {m!r}")
    table = doc["table"]
    _expect_list(table, m, "table")
    for i, rows in enumerate(table):
        path = f"table[{i}]"
        _expect_list(rows, m, path)
        for j, block in enumerate(rows):
            node_path = f"{path}[{j}]"
            stack = [(block, node_path, 0)]
            while stack:
                node, p, depth = stack.pop()
                if depth < 3:
                    _expect_list(node, 2, p)
                    for k, child in enumerate(node):
                        stack.append((child, f"{p}[{k}]", depth + 1))
                elif isinstance(node, bool) or not isinstance(node, (int, float)):
                    raise BoxFormatError(f"{p}: expected a number, got {type(node).__name__}")
    return make_box(m, np.asarray(table, dtype=float))


def load_box(path) -> TripartiteBox:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise BoxFormatError(f"not valid JSON ({err})") from err
    return box_from_json_dict(doc)
