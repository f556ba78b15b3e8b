"""Answer checks for every benchmark op.

Each check returns a list of failure codes; an empty list means the op's
answer is right.  Geometry answers are checked exactly in Fractions against
definitions restated here (coordinate layouts, the four summed violation
rows, the 32 positivity rows), so the program cannot certify itself.
Strength values are compared with the independent methods the repository
keeps for that purpose (optimal family, symmetric-channel bound, golden
grid-oracle curve, iterative capacity oracle).
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from fractions import Fraction

FAMILY_TOL = 1e-3       # solver row / grid oracle vs the optimal family
GOLDEN_TOL = 1e-3       # solver row vs the committed grid-oracle curve
GAVA_TOL = 1e-9         # m = 3 row may undershoot the symmetric bound by this
SOLVER_TOL = 1e-4       # the Kelley solver's default bracket
ORACLE_TOL = 1e-6       # iterative capacity vs closed form
MONOGAMY_BOUND = 4.0 + 1e-9

ENTROPY_DOMAIN = "entropy argument must lie in [0, 1]"

# summed violation rows of the m = 2 polytope: s . c >= delta, coordinates
# (x_A^1, y_A^1, x_B^0, y_B^0, x_B^1, y_B^1)
SUMMED_ROWS = (
    (1, -1, 1, -1, 1, -1),
    (1, 1, 1, 1, 1, -1),
    (-1, -1, 1, -1, 1, 1),
    (-1, 1, 1, 1, 1, 1),
)

VERTEX_COUNTS = {"zero": 20, "interior": 28, "two": 4}


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def max_violation(c6) -> Fraction:
    """Largest delta whose polytope still contains c6 (ignoring the box)."""
    return min(dot(s, c6) for s in SUMMED_ROWS)


def exact_rank(rows) -> int:
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# strength

def _drops(values):
    return [a - b for a, b in zip(values, values[1:]) if b - a < -1e-9]


def monotone_codes(values) -> list:
    drops = _drops(values)
    if not drops:
        return []
    return ["non_monotone_within_tol" if max(drops) <= SOLVER_TOL else "non_monotone"]


def raised_code(exc) -> str:
    if isinstance(exc, ValueError) and str(exc).startswith(ENTROPY_DOMAIN):
        return "entropy_domain"
    return f"raised:{type(exc).__name__}"


def check_sweep(m, deltas, curve, ref) -> list:
    """strength.curve(m, deltas) against the optimal family (m = 2), the
    golden curve (m = 2, golden deltas) or the symmetric bound and
    monotonicity (m = 3)."""
    codes = []
    rows = curve.rows
    if [r.delta for r in rows] != [float(d) for d in deltas]:
        return ["grid_mismatch"]
    if any(r.error is not None for r in rows):
        codes.append("row_error")
    for r in rows:
        if r.error is not None:
            continue
        if m == 2:
            if abs(r.c_delta - ref.family(r.delta)) > FAMILY_TOL:
                codes.append("family_mismatch")
            gold = ref.golden.get(round(r.delta, 10))
            if gold is not None and abs(r.c_delta - gold) > GOLDEN_TOL:
                codes.append("golden_mismatch")
        elif r.c_delta < ref.gava(m, r.delta) - GAVA_TOL:
            codes.append("below_gava")
    if m == 3 and not curve.monotone:
        codes += monotone_codes([r.c_delta for r in rows if r.error is None])
    return sorted(set(codes))


def curve_grid(step):
    """The delta grid the curve command builds for a step, and whether the
    step divides 2."""
    n = int(round(2.0 / step))
    return [round(k * step, 10) for k in range(n + 1)], abs(n * step - 2.0) < 1e-9


def check_curve_cli(m, step, rc, stderr, text, ref, expected_bytes=None) -> list:
    """`signalcap curve --m m --step step --out FILE`.

    A step that divides 2 must exit 0 with the full grid; one that does not
    must exit 0 with a final row at delta = 2, or exit 2 with one error line
    and no traceback.
    """
    grid, divides = curve_grid(step)
    if rc == 2 and not divides:
        lines = stderr.strip().splitlines()
        ok = len(lines) == 1 and lines[0].startswith("error: ") and not text
        return [] if ok else ["bad_error_report"]
    if rc != 0:
        return [f"exit_{rc}"]
    if expected_bytes is not None:
        return [] if text.encode() == expected_bytes else ["csv_mismatch"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["empty_csv"]
    codes = []
    deltas = [float(r["delta"]) for r in rows]
    if abs(deltas[-1] - 2.0) > 1e-9:
        codes.append("missing_final_delta")
    if divides and deltas != [round(d, 6) for d in grid]:
        codes.append("grid_mismatch")
    for r in rows:
        d, c = float(r["delta"]), float(r["c_delta"])
        if m == 2 and abs(c - ref.family(d)) > FAMILY_TOL:
            codes.append("family_mismatch")
        if m == 3 and c < ref.gava(3, d) - 1e-6:   # CSV keeps 6 decimals
            codes.append("below_gava")
    return sorted(set(codes))


# ---------------------------------------------------------------------------
# vertex dumps

def expected_h_rep(d: Fraction, h_rep_delta1: str) -> str:
    """H-representation text at delta d, from the committed delta = 1 file:
    only the right-hand sides of the summed rows (-1 there) change."""
    out = []
    for line in h_rep_delta1.splitlines():
        coeffs, _, rhs = line.rpartition(" <= ")
        if rhs == "-1":                 # bound rows read "<= 1"
            line = f"{coeffs} <= {-d}"
        out.append(line)
    return "\n".join(out) + "\n"


def check_vertex_dump(d: Fraction, text: str, h_rep_delta1: str, v_rep_delta1: str) -> list:
    """`signalcap dump-polytope --m 2 --delta d --vertices` output."""
    h_expected = expected_h_rep(d, h_rep_delta1)
    if not text.startswith(h_expected):
        return ["h_rep_mismatch"]
    codes = []
    if d == 1 and text != h_rep_delta1 + v_rep_delta1:
        codes.append("delta1_bytes_mismatch")
    lines = text[len(h_expected):].splitlines()
    head = re.fullmatch(r"# vertices (\d+)", lines[0]) if lines else None
    if head is None:
        return codes + ["no_vertex_section"]
    verts = [tuple(Fraction(t) for t in line.split()) for line in lines[1:]]
    want = VERTEX_COUNTS["zero" if d == 0 else "two" if d == 2 else "interior"]
    if int(head.group(1)) != len(verts) or len(verts) != want:
        codes.append("vertex_count")
    if len(set(verts)) != len(verts):
        codes.append("duplicate_vertex")
    for v in verts:
        if not _is_vertex(v, d):
            codes.append("not_a_vertex")
            break
    return codes


def _is_vertex(v, d) -> bool:
    if len(v) != 6:
        return False
    rows = [(tuple(-s for s in row), -d) for row in SUMMED_ROWS]
    for i in range(6):
        for sign in (1, -1):
            e = [0] * 6
            e[i] = sign
            rows.append((tuple(e), 1))
    if any(dot(a, v) > b for a, b in rows):
        return False
    active = [a for a, b in rows if dot(a, v) == b]
    return exact_rank(active) == 6


# ---------------------------------------------------------------------------
# verify suites

APPENDIX_A_COUNTS = "vertices: 24 (delta=0: 20, delta=2: 4, interior: 0)"
VERIFY_LINES = {"appendix-a": 2, "properties": 4}


def _fail_code(name, detail) -> str:
    """The closed form agreeing with the oracle but not with itself under
    the channel symmetries gets its own code; other failed lines are named."""
    gap = re.search(r"max ([0-9.e+-]+) <= 1e-6", detail)
    if name == "1e3 channels" and "symmetries hold: False" in detail \
            and gap and float(gap.group(1)) <= ORACLE_TOL:
        return "channel_symmetry"
    return f"fail:{name}"


def check_verify(target, rc, stdout) -> list:
    """`signalcap verify TARGET`: every check line passes and the exit code
    agrees with the lines (1 when any line fails)."""
    fails = re.findall(r"\[FAIL\] ([^:]*): (.*)", stdout)
    codes = [_fail_code(name, detail) for name, detail in fails]
    if stdout.count("[PASS]") + len(fails) != VERIFY_LINES[target]:
        codes.append("missing_lines")
    if rc != (1 if fails else 0):
        codes.append(f"exit_{rc}")
    if target == "appendix-a" and APPENDIX_A_COUNTS not in stdout:
        codes.append("vertex_counts")
    return codes


# ---------------------------------------------------------------------------
# box preimages
#
# twelve-correlator order: AB00 AB01 AB10 AB11 | AE00 AE01 AE10 AE11 |
# BE00 BE01 BE10 BE11 with ABij = <A_i B_j>_E, AEij = <A_i E>_{B_j},
# BEij = <B_j E>_{A_i}

def _ab(i, j):
    return 2 * i + j


def _ae(i, j):
    return 4 + 2 * i + j


def _be(i, j):
    return 8 + 2 * i + j


PHI = (_be(1, 1), _be(0, 1), _ae(0, 0), _ae(0, 1), _ae(1, 0), _ae(1, 1))


def monogamy_value(w):
    """I_AB + 2 <B_0 E>_{A_0}."""
    return w[_ab(0, 0)] + w[_ab(1, 0)] + w[_ab(1, 1)] - w[_ab(0, 1)] + 2 * w[_be(0, 0)]


def check_preimage(c6, d, inside, result) -> list:
    """geometry.box_preimage(c6, d): inside points need a witness that is
    exactly a box (32 positivity rows, equal <B_0 E> conditionals) mapping to
    c6 with monogamy value 4 + d; outside points must be rejected."""
    found, w = result
    if not inside:
        return ["outside_accepted"] if found else []
    if not found:
        return ["inside_rejected"]
    if w is None or len(w) != 12 or not all(isinstance(v, (int, Fraction)) for v in w):
        return ["witness_not_exact"]
    codes = []
    for i, j in itertools.product(range(2), repeat=2):
        for sa, sb, se in itertools.product((1, -1), repeat=3):
            p = 1 + sa * sb * w[_ab(i, j)] + sa * se * w[_ae(i, j)] + sb * se * w[_be(i, j)]
            if p < 0:
                codes.append("negative_probability")
    if w[_be(0, 0)] != w[_be(1, 0)]:
        codes.append("signaling_be")
    if tuple(w[k] for k in PHI) != tuple(c6):
        codes.append("phi_mismatch")
    if monogamy_value(w) != 4 + d:
        codes.append("monogamy_mismatch")
    return sorted(set(codes))


# ---------------------------------------------------------------------------
# crosscheck oracles

def check_grid_oracle(d, value, ref) -> list:
    return [] if abs(value - ref.family(d)) <= FAMILY_TOL else ["family_mismatch"]


def check_capacity_batch(pairs, values, ref) -> list:
    bad = any(abs(v - ref.capacity(p, q)) > ORACLE_TOL for (p, q), v in zip(pairs, values))
    return ["oracle_mismatch"] if bad or len(values) != len(pairs) else []


def check_boxes(results) -> list:
    """(is_nonsignaling, monogamy lhs) per random nonsignaling box."""
    codes = []
    if not all(ns for ns, _ in results):
        codes.append("signaling_box")
    if any(lhs > MONOGAMY_BOUND for _, lhs in results):
        codes.append("monogamy_exceeded")
    return codes
