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


class ScenarioMismatch(BoxError):
    pass


class BoxFormatError(BoxError):
    """JSON reader error; the message names the offending path."""


@dataclass(frozen=True)
class BellScenario:
    """Two parties with m binary settings each plus a single-setting third party."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"need an integer number of settings m >= 2, got {self.m!r}")


@dataclass(frozen=True, eq=False)
class TripartiteBox:
    scenario: BellScenario
    table: np.ndarray

    @property
    def m(self) -> int:
        return self.scenario.m


def make_box(m, table) -> TripartiteBox:
    """Validate a probability table of shape (m, m, 2, 2, 2) and wrap it."""
    scenario = m if isinstance(m, BellScenario) else BellScenario(int(m))
    t = np.asarray(table, dtype=float)
    want = (scenario.m, scenario.m, 2, 2, 2)
    if t.shape != want:
        raise BoxFormatError(f"table: expected shape {want}, got {t.shape}")
    if t.min() < -PROB_TOL:
        idx = np.unravel_index(int(t.argmin()), t.shape)
        raise NegativeProbability(idx, t[idx])
    sums = t.sum(axis=(2, 3, 4))
    bad = np.abs(sums - 1.0) > NORM_TOL
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise NotNormalized(i, j, sums[i, j])
    t = t.copy()
    t.flags.writeable = False
    return TripartiteBox(scenario, t)


# ---------------------------------------------------------------------------
# correlators

def correlator(box: TripartiteBox, pair: str, setting_pair, conditioning=0) -> float:
    """Conditional two-body expectation value.

    pair selects which two parties are correlated ("AB", "AE" or "BE");
    setting_pair gives their measurement settings (E always has setting 0)
    and conditioning the remaining party's setting.
    """
    m = box.m
    s, t = setting_pair
    if pair == "AB":
        i, j, k = s, t, conditioning
        if k != 0:
            raise IndexError("E has a single setting, conditioning must be 0")
        weights = np.einsum("abe,a,b->", box.table[i, j], SIGNS, SIGNS)
    elif pair == "AE":
        i, e_set, j = s, t, conditioning
        if e_set != 0:
            raise IndexError("E has a single setting")
        if not (0 <= j < m):
            raise IndexError(f"B setting {j} out of range")
        weights = np.einsum("abe,a,e->", box.table[i, j], SIGNS, SIGNS)
    elif pair == "BE":
        j, e_set, i = s, t, conditioning
        if e_set != 0:
            raise IndexError("E has a single setting")
        if not (0 <= i < m):
            raise IndexError(f"A setting {i} out of range")
        weights = np.einsum("abe,b,e->", box.table[i, j], SIGNS, SIGNS)
    else:
        raise ValueError(f"unknown pair {pair!r}")
    return float(weights)


def two_body_tables(box: TripartiteBox):
    """All two-body conditional correlators as three (m, m) arrays.

    Returns (ab, ae, be) with ab[i, j] = <A_i B_j>_E, ae[i, j] = <A_i E>_{B_j}
    and be[i, j] = <B_j E>_{A_i}.
    """
    t = box.table
    ab = np.einsum("ijabe,a,b->ij", t, SIGNS, SIGNS)
    ae = np.einsum("ijabe,a,e->ij", t, SIGNS, SIGNS)
    be = np.einsum("ijabe,b,e->ij", t, SIGNS, SIGNS)
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


def chained_bell_value(box: TripartiteBox) -> float:
    """Chained Bell expression sum_k (<A_k B_k> + <A_{k+1} B_k>) with A_M = -A_0.

    For m = 2 this is the CHSH combination
    <A_0 B_0> + <A_1 B_0> + <A_1 B_1> - <A_0 B_1>.
    """
    ab, _, _ = two_body_tables(box)
    m = box.m
    total = 0.0
    for k in range(m):
        total += ab[k, k]
        if k + 1 < m:
            total += ab[k + 1, k]
        else:
            total -= ab[0, k]
    return float(total)


# ---------------------------------------------------------------------------
# no-signaling

@dataclass
class NoSignalingReport:
    is_nonsignaling: bool
    worst_violation: float
    offenders: list


def check_no_signaling(box: TripartiteBox, tol: float = 1e-9) -> NoSignalingReport:
    """Compare every one- and two-party marginal across the dropped party's settings.

    Offenders name the marginal family and the concrete entry with the
    largest spread; outcome indices are reported as signs.
    """
    t = box.table
    offenders = []

    def sgn(k):
        return "+1" if k == 0 else "-1"

    def spread(arr, axis, label, describe):
        gap = arr.max(axis=axis) - arr.min(axis=axis)
        worst = float(gap.max())
        if worst > tol:
            where = np.unravel_index(int(gap.argmax()), gap.shape)
            offenders.append((f"{label} (worst at {describe(*where)})", worst))
        return worst

    worst = max(
        spread(t.sum(axis=2), 0, "p(b,e|B_j) depends on A setting",
               lambda j, b, e: f"j={j}, b={sgn(b)}, e={sgn(e)}"),
        spread(t.sum(axis=3), 1, "p(a,e|A_i) depends on B setting",
               lambda i, a, e: f"i={i}, a={sgn(a)}, e={sgn(e)}"),
        spread(t.sum(axis=(3, 4)), 1, "p(a|A_i) depends on B setting",
               lambda i, a: f"i={i}, a={sgn(a)}"),
        spread(t.sum(axis=(2, 4)), 0, "p(b|B_j) depends on A setting",
               lambda j, b: f"j={j}, b={sgn(b)}"),
        spread(t.sum(axis=(2, 3)), (0, 1), "p(e) depends on A,B settings",
               lambda e: f"e={sgn(e)}"),
    )
    return NoSignalingReport(bool(worst <= tol), worst, offenders)


def symmetrize(box: TripartiteBox) -> TripartiteBox:
    """Average the box with its all-outcomes-negated twin.

    Kills every one- and three-party expectation while leaving all two-body
    conditional correlators untouched.
    """
    t = box.table
    return make_box(box.scenario, 0.5 * (t + t[:, :, ::-1, ::-1, ::-1]))


# ---------------------------------------------------------------------------
# sign canonicalization

@dataclass(frozen=True)
class SignFlipRecord:
    flip_a: tuple
    flip_e: bool

    @property
    def is_identity(self) -> bool:
        return not self.flip_a and not self.flip_e


def apply_sign_flips(box: TripartiteBox, record: SignFlipRecord) -> TripartiteBox:
    """Negate the outcomes of the listed A observables and/or of E.

    Flips are involutions, so applying the same record twice restores the
    original box.
    """
    t = np.array(box.table)
    for i in record.flip_a:
        t[i] = t[i, :, ::-1]
    if record.flip_e:
        t = t[:, :, :, :, ::-1]
    return make_box(box.scenario, t)


def canonicalize_signs(box: TripartiteBox):
    """Flip observables so the Bell value and <B_0 E> are both nonnegative.

    Negating every A observable reverses the chained Bell expression without
    touching <B_0 E>; negating E reverses <B_0 E> without touching the Bell
    value.  Returns the flipped box and the record needed to undo it.
    """
    flip_a: tuple = ()
    if chained_bell_value(box) < 0:
        flip_a = tuple(range(box.m))
        box = apply_sign_flips(box, SignFlipRecord(flip_a, False))
    _, _, be = two_body_tables(box)
    flip_e = bool(be[:, 0].mean() < 0)
    if flip_e:
        box = apply_sign_flips(box, SignFlipRecord((), True))
    return box, SignFlipRecord(flip_a, flip_e)


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
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
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
        values = np.array(self.values, dtype=float)
        want = len(correlator_layout(self.m, self.relaxed))
        if values.shape != (want,):
            raise ValueError(f"expected {want} components for m={self.m}, got {values.shape}")
        if (np.abs(values) > 1.0 + 1e-9).any():
            raise ValueError("correlator components must lie in [-1, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def as_array(self) -> np.ndarray:
        return self.values.copy()

    @property
    def names(self) -> list:
        return component_names(self.m, self.relaxed)

    @classmethod
    def from_array(cls, m: int, arr, relaxed: bool = False) -> "CorrelatorVector":
        return cls(m, arr, relaxed)


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
        if (np.abs(arr) > 1.0 + 1e-12).any():
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

def pr_times_coin(m: int = 2) -> TripartiteBox:
    """Box whose AB marginal maximizes the chained Bell expression (value 2m)
    while E is an uncorrelated fair coin."""
    ab = np.ones((m, m))
    ab[0, m - 1] = -1.0
    zero = np.zeros((m, m))
    return from_correlators(m, ab, zero, zero)


def local_deterministic(m: int, a_signs, b_signs, e_sign: int) -> TripartiteBox:
    """Product box with fixed outcomes per setting."""
    a_signs = tuple(int(s) for s in a_signs)
    b_signs = tuple(int(s) for s in b_signs)
    if len(a_signs) != m or len(b_signs) != m:
        raise ValueError("need one sign per setting for both parties")
    if any(s not in (-1, 1) for s in a_signs + b_signs + (int(e_sign),)):
        raise ValueError("signs must be +1 or -1")
    t = np.zeros((m, m, 2, 2, 2))
    ie = 0 if e_sign == 1 else 1
    for i in range(m):
        ia = 0 if a_signs[i] == 1 else 1
        for j in range(m):
            ib = 0 if b_signs[j] == 1 else 1
            t[i, j, ia, ib, ie] = 1.0
    return make_box(m, t)


@lru_cache(maxsize=8)
def _deterministic_index_table(m: int):
    """Outcome-index table for every (A strategy, B strategy, E sign) triple."""
    strategies = []
    for a in itertools.product((0, 1), repeat=m):       # 0 means outcome +1
        for b in itertools.product((0, 1), repeat=m):
            for e in (0, 1):
                strategies.append((a, b, e))
    return strategies


def random_nonsignaling(m: int = 2, seed=None, concentration: float = 0.2) -> TripartiteBox:
    """Dirichlet-weighted mixture of all local deterministic boxes.

    Mixtures of product boxes are nonsignaling by convexity, so the result
    passes check_no_signaling at tolerance 1e-12 up to float roundoff.  The
    default concentration < 1 biases the weights toward few strategies, so
    samples also probe the neighborhood of the extreme points where the
    monogamy bound is nearly saturated.
    """
    rng = np.random.default_rng(seed)
    strategies = _deterministic_index_table(m)
    weights = rng.dirichlet(np.full(len(strategies), concentration))
    t = np.zeros((m, m, 2, 2, 2))
    for w, (a, b, e) in zip(weights, strategies):
        for i in range(m):
            for j in range(m):
                t[i, j, a[i], b[j], e] += w
    return make_box(m, t)


def reference_box(delta: float, x: float) -> TripartiteBox:
    """Two-setting box with PR-type AB correlations, <A_i E>_{B_0} = delta/2
    and <A_i E>_{B_1} = x.

    The remaining BE correlators are forced by the perfectly (anti)correlated
    AB support: <B_j E>_{A_i} = <A_i B_j> <A_i E>_{B_j}.  The box exceeds the
    two-setting monogamy bound 4 by exactly delta.
    """
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must lie in [0, 2], got {delta}")
    ab = np.ones((2, 2))
    ab[0, 1] = -1.0
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
                elif not isinstance(node, (int, float)):
                    raise BoxFormatError(f"{p}: expected a number, got {type(node).__name__}")
    return make_box(m, np.asarray(table, dtype=float))


def load_box(path) -> TripartiteBox:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise BoxFormatError(f"{path}: not valid JSON ({err})") from err
    return box_from_json_dict(doc)
