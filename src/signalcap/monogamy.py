"""Bell expressions, monogamy functionals and the triple-inequality families
that derive them.

Any three jointly measured binary observables admit a joint distribution, so
every signed sum of their three pairwise correlators with an odd number of
minus signs is bounded by 1.  Summing 2m such bounds, one per Bell-expression
term, and identifying the correlators that coincide for nonsignaling boxes
yields |I_m| + 2|<B_0 E>| <= 2m; re-running the sum on a box that exceeds the
bound by delta yields linear constraints on the remaining conditional
correlators.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import boxes

VIOLATION_TOL = 1e-9

# the four sign patterns with product -1
SIGN_PATTERNS = ((-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1))


class StrictModeInapplicable(Exception):
    def __init__(self, discrepancy):
        self.discrepancy = float(discrepancy)
        super().__init__(
            f"<B_0 E> differs across A-conditionings by {self.discrepancy:.3e}; "
            "use relaxed mode")


@dataclass(frozen=True)
class TripleInequality:
    """s1 <A_i B_j>_E + s2 <B_j E>_{A_i} + s3 <A_i E>_{B_j} <= 1."""

    setting_pair: tuple
    signs: tuple

    def __post_init__(self):
        s1, s2, s3 = self.signs
        if s1 * s2 * s3 != -1:
            raise ValueError(f"sign product must be -1, got signs {self.signs}")


def triple_inequality_holds(dist, signs, tol: float = 1e-12):
    """Check one signed correlator bound on distributions over {+1,-1}^3.

    dist has shape (..., 2, 2, 2) indexed (x, y, z) with index 0 meaning +1.
    Returns a bool for one distribution and a bool array over the leading
    axes for a stack.
    """
    d = np.asarray(dist, dtype=float)
    s = boxes.SIGNS
    xy = np.einsum("...xyz,x,y->...", d, s, s)
    yz = np.einsum("...xyz,y,z->...", d, s, s)
    xz = np.einsum("...xyz,x,z->...", d, s, s)
    s1, s2, s3 = signs
    held = s1 * xy + s2 * yz + s3 * xz <= 1.0 + tol
    return bool(held) if d.ndim == 3 else held


@dataclass(frozen=True)
class MonogamyReport:
    lhs: float
    bound: float
    delta: float       # max(lhs - bound, 0)
    violated: bool


def monogamy_lhs(box: boxes.TripartiteBox, *, relaxed: bool = False) -> MonogamyReport:
    """|I_m| + 2|<B_0 E>| against the nonsignaling bound 2m.

    Strict mode requires <B_0 E>_{A_i} to agree across conditionings within
    1e-9 and uses their common value; relaxed mode (m = 2) uses
    |I| + |<B_0 E>_{A_0} + <B_0 E>_{A_1}| instead.
    """
    lhs = float(_lhs_values(box.table, relaxed=relaxed))
    bound = 2.0 * box.m
    raw = lhs - bound
    return MonogamyReport(lhs, bound, max(raw, 0.0), bool(raw > VIOLATION_TOL))


def _lhs_values(t, *, relaxed: bool = False):
    """The monogamy_lhs value of every table of a stack (..., m, m, 2, 2, 2).

    Strict mode raises StrictModeInapplicable for the first table (C order)
    whose <B_0 E>_{A_i} differ by more than 1e-9.
    """
    if relaxed and t.shape[-4] != 2:
        raise ValueError("relaxed mode is defined for m = 2 only")
    ab, _, be = boxes._two_body(t)
    bell = boxes._bell_values(ab)
    b0e = be[..., 0]
    if relaxed:
        return np.abs(bell) + np.abs(b0e[..., 0] + b0e[..., 1])
    spread = b0e.max(axis=-1) - b0e.min(axis=-1)
    bad = spread > 1e-9
    if bad.any():
        raise StrictModeInapplicable(spread[bad][0])
    return np.abs(bell) + 2.0 * np.abs(b0e.mean(axis=-1))


# ---------------------------------------------------------------------------
# the 2m-member inequality sets and their summed constraints

def _members(m: int, swaps) -> tuple:
    """The 2m member inequalities for one choice of swap bits.

    Term t = ((i, j), s) of boxes.chained_bell_terms(m) gives the member
    s <A_i B_j> + u <B_j E>_{A_i} - s u <A_i E>_{B_j} <= 1.  The first two
    terms take u = +1, which sums to 2<B_0 E>; term t >= 2 takes u = -1 at
    even t and +1 at odd t, negated when swap bit t - 2 is set (a swap
    exchanges the signs of the second and third correlator).  All-zero
    swaps give the set whose sum is the base violation constraint.
    """
    members = []
    for t, ((i, j), s) in enumerate(boxes.chained_bell_terms(m)):
        u = 1 if t < 2 else (-1) ** (t + 1 + swaps[t - 2])
        members.append(TripleInequality((i, j), (s, u, -s * u)))
    return tuple(members)


def summed_constraint(m: int, members) -> np.ndarray:
    """Coefficients of the violation constraint obtained by summing members.

    Summing the 2m bounds gives I_m + <B_0E>_{A_0} + <B_0E>_{A_1} + (rest)
    <= 2m; substituting I_m + 2<B_0E> = 2m + delta for a box with equal
    <B_0E> conditionals leaves coeffs . c >= delta over the correlator
    vector.  Raises if the members do not combine this way.
    """
    raw = {}
    for member in members:
        i, j = member.setting_pair
        s1, s2, s3 = member.signs
        for key, s in ((("ab", i, j), s1), (("be", i, j), s2), (("ae", i, j), s3)):
            raw[key] = raw.get(key, 0) + s

    # Bell part must be exactly the chained combination.
    for (i, j), sign in boxes.chained_bell_terms(m):
        if raw.pop(("ab", i, j), 0) != sign:
            raise ValueError("member sum does not reproduce the chained Bell expression")
    # <B_0 E> terms must total +2 across conditionings.
    b0e = sum(raw.pop(("be", i, 0), 0) for i in range(m))
    if b0e != 2:
        raise ValueError("member sum does not isolate 2<B_0 E>")

    layout = boxes.correlator_layout(m)
    comp = {(table, i, j): k for k, (_, table, i, j) in enumerate(layout)}
    coeffs = np.zeros(len(layout))
    for key, s in raw.items():
        if s == 0:
            continue
        if key not in comp:
            raise ValueError(f"unexpected correlator {key} in member sum")
        coeffs[comp[key]] = -s
    return coeffs


@dataclass(frozen=True, eq=False)
class InequalitySet:
    """2m member inequalities whose sum bounds the signaling correlators."""

    m: int
    swaps: tuple
    members: tuple
    summed: np.ndarray   # summed . c >= delta

    @property
    def family_bits(self):
        """(a_bits, b_bits, c) labeling of the summed constraint family."""
        m = self.m
        a_bits = tuple(self.swaps[2 * (i - 1)] for i in range(1, m))
        b_bits = tuple(self.swaps[2 * (i - 1) + 1] for i in range(1, m - 1))
        c = 1 - self.swaps[2 * (m - 2) + 1]
        return a_bits, b_bits, c


def generate_inequality_set(m: int, swaps=None) -> InequalitySet:
    """Build one of the 4^(m-1) sets of 2m member inequalities.

    swaps: flat 0/1 tuple of length 2(m-1), one bit per swappable member,
    ordered by (i, j) for i = 1..m-1 and j = 0..1.  All zeros (the default)
    gives the constraint x_B^0 - y_B^0 + ... + x_A^1 - y_A^1 >= delta.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    m = boxes._settings_count(m)
    if swaps is None:
        swaps = (0,) * (2 * (m - 1))
    swaps = tuple(int(b) for b in swaps)
    if len(swaps) != 2 * (m - 1) or any(b not in (0, 1) for b in swaps):
        raise ValueError(f"need {2 * (m - 1)} swap bits, got {swaps}")
    members = _members(m, swaps)
    summed = summed_constraint(m, members)
    return InequalitySet(m, swaps, members, summed)


def all_inequality_sets(m: int) -> list:
    m = boxes._integer_settings(m)
    return [generate_inequality_set(m, bits)
            for bits in itertools.product((0, 1), repeat=2 * (m - 1))]


def all_summed_constraints(m: int) -> np.ndarray:
    """The 4^(m-1) summed constraint rows, coeffs . c >= delta."""
    return np.array([s.summed for s in all_inequality_sets(m)])


# ---------------------------------------------------------------------------
# computational check of the minimal-set claim

def verify_minimal_set(m: int, size=None) -> int:
    """Count multisets of triple inequalities summing to I_m + 2<B_0 E>.

    Works in the fully identified correlator space (conditionings dropped, as
    for nonsignaling boxes) over all multisets of the 4 m^2 candidate
    inequalities of the given size (default 2m).  The expected count is 1 at
    size 2m and 0 below.  A dynamic program over the setting pairs (i, j) in
    row-major order: a pair takes a multiset of SIGN_PATTERNS whose <A_i B_j>
    signs add up to its Bell coefficient; the state (picks used, <A_i E> of
    row i, <B_j E>) -> count goes past row i only with <A_i E> = 0.
    """
    m = boxes._integer_settings(m)
    if not 2 <= m <= 4:
        raise ValueError("exhaustive search supported for 2 <= m <= 4")
    size = 2 * m if size is None else int(size)
    bell = dict(boxes.chained_bell_terms(m))

    # per <A_i B_j> coefficient: the number of k-pattern multisets with each
    # (k, <A_i E> shift, <B_j E> shift)
    picks = defaultdict(Counter)
    for k in range(size + 1):
        for combo in itertools.combinations_with_replacement(SIGN_PATTERNS, k):
            ab, be, ae = (sum(signs[c] for signs in combo) for c in range(3))
            picks[ab][k, ae, be] += 1

    zero = (0,) * m
    states = {(0, 0, zero): 1}
    for i in range(m):
        for j in range(m):
            grown = Counter()
            for (used, ae, be), count in states.items():
                for (k, ae_d, be_d), ways in picks[bell.get((i, j), 0)].items():
                    if used + k <= size:
                        be_new = be[:j] + (be[j] + be_d,) + be[j + 1:]
                        grown[used + k, ae + ae_d, be_new] += count * ways
            states = grown
        states = {key: count for key, count in states.items() if key[1] == 0}
    return states.get((size, 0, (2,) + zero[1:]), 0)
