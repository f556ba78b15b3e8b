"""Command-line front end.

Subcommands: check-box (validate a box file and report its signaling
channels), curve (strength values over a delta grid, CSV), verify (named
verification suites), dump-polytope (H/V representations for external
cross-checking).  Exit codes: 0 ok, 1 verification failure, 2 bad input,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import boxes, channels, geometry, monogamy, strength


# ---------------------------------------------------------------------------
# check-box

def cmd_check_box(args) -> int:
    try:
        box = boxes.load_box(args.path)
    except boxes.BoxError as err:
        print(f"error: {args.path}: {err}", file=sys.stderr)
        return 2
    ns = boxes.check_no_signaling(box)
    try:
        mono = monogamy.monogamy_lhs(box, relaxed=args.relaxed)
    except monogamy.StrictModeInapplicable as err:
        print(f"error: strict monogamy undefined for this box ({err}); "
              "rerun with --relaxed", file=sys.stderr)
        return 2
    fam = channels.channels_from_box(box, relaxed=args.relaxed)
    caps = fam.capacities()

    print(f"box: m={box.m}, valid")
    sig = "nonsignaling" if ns.is_nonsignaling else "SIGNALING"
    print(f"no-signaling: {sig} (worst marginal discrepancy {ns.worst_violation:.3e})")
    for label, worst in ns.offenders:
        print(f"  {label}: {worst:.3e}")
    print(f"monogamy: lhs={mono.lhs:.6f} bound={mono.bound:g} delta={mono.delta:.6f} "
          f"violated={mono.violated}")
    print("channels:")
    for label, ch in fam.channels:
        print(f"  {label}: p={ch.p:.6f} q={ch.q:.6f} capacity={caps[label]:.6f}")
    print(f"max capacity: {max(caps.values()):.6f}")

    report = {
        "m": box.m,
        "is_nonsignaling": ns.is_nonsignaling,
        "worst_marginal_discrepancy": ns.worst_violation,
        "monogamy": {"lhs": mono.lhs, "bound": mono.bound,
                     "delta": mono.delta, "violated": mono.violated},
        "channels": [{"label": label, "p": ch.p, "q": ch.q,
                      "capacity": caps[label]}
                     for label, ch in fam.channels],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# curve

# the most grid points one curve run takes: step 1e-4 gives 20 001
CURVE_MAX_POINTS = 20_001


def cmd_curve(args) -> int:
    if not 0 < args.step <= 2.0:
        print(f"error: curve step must lie in (0, 2], got {args.step}", file=sys.stderr)
        return 2
    points = int(round(2.0 / args.step)) + 1
    if points > CURVE_MAX_POINTS:
        print(f"error: curve step {args.step} gives {points:.6g} grid points, "
              f"more than {CURVE_MAX_POINTS}", file=sys.stderr)
        return 2
    # every capacity lies in [0, 1], so a bracket of width 1 says nothing
    if not 0 < args.tol < 1:
        print(f"error: --tol must lie in (0, 1), got {args.tol}", file=sys.stderr)
        return 2
    deltas = [round(k * args.step, 10) for k in range(points)]
    result = strength.curve(args.m, deltas, tol=args.tol)
    text = result.to_csv()
    if not result.ok:
        failed = [r.delta for r in result.rows if r.error is not None]
        text += f"# non-convergence at delta={failed}\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not result.ok:
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify
#
# A suite is a generator of (ok, text) checks; cmd_verify prints one
# "[PASS]"/"[FAIL]" line per check as it arrives.  Each gate's threshold is
# written where the check is judged; the samplers below only measure, so the
# acceptance tests can judge the same samples at their own stated tolerances.

# the samplers judge their samples in blocks of this many, which bounds the
# memory of the arrays they judge them in
SAMPLE_BLOCK = 1_000


def sample_monogamy(rng, n):
    """Worst monogamy LHS and worst no-signaling marginal spread over n
    random nonsignaling two-setting boxes.

    One size-n draw gives the boxes' seeds; it takes the same numbers, and
    leaves rng in the same state, as n scalar draws.  Each box is then drawn
    from its own generator, with the bits boxes.random_nonsignaling(2, seed)
    draws, so a box depends on its seed alone; the generators' seed states
    are hashed SAMPLE_BLOCK at a time (boxes._strategy_weights_block).  The
    boxes are judged as table stacks, SAMPLE_BLOCK at a time, with
    make_box's checks, the strict-mode monogamy LHS and the no-signaling
    spreads that judge a single box.
    """
    seeds = rng.integers(0, 2**63, size=n)
    worst = 0.0
    worst_marginal = 0.0
    for start in range(0, n, SAMPLE_BLOCK):
        weights = boxes._strategy_weights_block(2, seeds[start:start + SAMPLE_BLOCK])
        tables = boxes._mixture_tables(2, weights)
        boxes._check_tables(tables)
        worst = max(worst, float(monogamy._lhs_values(tables).max()))
        worst_marginal = max(worst_marginal, *(float(gap.max())
                                               for gap in boxes._marginal_gaps(tables)))
    return worst, worst_marginal


def sample_triple_inequalities(rng, n):
    """Violations of the four triple inequalities over n random
    distributions p(a, b, e).

    One (n, 8) draw takes the same numbers, and leaves rng in the same
    state, as n draws of eight; the distributions are judged SAMPLE_BLOCK
    at a time.
    """
    dists = rng.dirichlet(np.ones(8), size=n).reshape(n, 2, 2, 2)
    bad = 0
    for start in range(0, n, SAMPLE_BLOCK):
        block = dists[start:start + SAMPLE_BLOCK]
        for signs in monogamy.SIGN_PATTERNS:
            bad += int(np.count_nonzero(~monogamy.triple_inequality_holds(block, signs)))
    return bad


def sample_capacity_oracle(rng, n):
    """Worst |closed form - iterative oracle| capacity gap and worst
    deviation under the symmetries (p, q) -> (q, p) and (1-p, 1-q), over n
    random binary channels.  One (n, 2) draw takes the same numbers, and
    leaves rng in the same state, as n draws of two."""
    pairs = rng.uniform(0, 1, (n, 2))
    oracle = channels.capacity_oracle_array(pairs[:, 0], pairs[:, 1])
    worst_gap = 0.0
    worst_sym = 0.0
    for (p, q), c_oracle in zip(pairs.tolist(), oracle.tolist()):
        c = channels._capacity_pq(p, q)
        worst_gap = max(worst_gap, abs(c - c_oracle))
        worst_sym = max(worst_sym,
                        abs(c - channels._capacity_pq(q, p)),
                        abs(c - channels._capacity_pq(1-p, 1-q)))
    return worst_gap, worst_sym


def sample_convexity(rng, n):
    """Midpoint-convexity excesses C(midpoint) - mean C(endpoints), in each
    argument of the capacity, over n random triples (2n values; convexity
    makes none positive).  One (n, 3) draw takes the same numbers, and
    leaves rng in the same state, as n draws of three."""
    excess = []
    for p1, p2, q in rng.uniform(0, 1, (n, 3)):
        excess.append(channels._capacity_pq(0.5 * (p1 + p2), q)
                      - 0.5 * (channels._capacity_pq(p1, q) + channels._capacity_pq(p2, q)))
        excess.append(channels._capacity_pq(q, 0.5 * (p1 + p2))
                      - 0.5 * (channels._capacity_pq(q, p1) + channels._capacity_pq(q, p2)))
    return np.array(excess)


def _near(name, computed, expected, tol):
    return (abs(computed - expected) <= tol,
            f"{name}: expected {expected} +- {tol:g}, computed {computed:.6f}")


def appendix_b_checks():
    rep = strength.c2_analytic()
    yield _near("alpha*", rep.alpha_star, 0.459, 0.002)
    yield _near("C_2", rep.c2, 0.158, 0.002)
    yield _near("subregion optimum", rep.subregion_value, 0.322, 0.001)


def appendix_a_checks():
    rep = geometry.verify_characterization()
    print(f"  vertices: {rep.vertex_count} "
          f"(delta=0: {rep.slice_counts['0']}, delta=2: {rep.slice_counts['2']}, "
          f"interior: {rep.slice_counts['interior']})")
    yield rep.q_vertices_in_slices, "all vertices lie in the delta=0 or delta=2 slice"
    yield rep.all_preimages_found, "every vertex admits an exact box preimage"


def minimal_set_checks():
    for m in (2, 3):
        count = monogamy.verify_minimal_set(m)
        yield count == 1, f"m={m}: {count} multiset(s) of size {2*m}"
        short = monogamy.verify_minimal_set(m, 2 * m - 1)
        yield short == 0, f"m={m}: {short} multiset(s) of size {2*m-1}"


def property_checks(seed):
    # one generator through all four samplers, in this order, so that a seed
    # always draws the same samples
    rng = np.random.default_rng(seed)
    worst, worst_marginal = sample_monogamy(rng, 10_000)
    yield (worst <= 4.0 + 1e-9 and worst_marginal <= 1e-12,
           f"1e4 nonsignaling boxes: max monogamy lhs {worst:.9f} <= 4 + 1e-9, "
           f"max marginal spread {worst_marginal:.1e} <= 1e-12")
    bad = sample_triple_inequalities(rng, 10_000)
    yield bad == 0, f"1e4 random distributions x 4 sign patterns: {bad} violations"
    gap, worst_sym = sample_capacity_oracle(rng, 1_000)
    sym_ok = worst_sym < 1e-12
    yield (gap <= 1e-6 and sym_ok,
           f"1e3 channels: |closed form - iterative| max {gap:.2e} <= 1e-6, "
           f"symmetries hold: {sym_ok}")
    bad = int((sample_convexity(rng, 1_000) > 1e-12).sum())
    yield bad == 0, f"1e3 triples: midpoint convexity violations {bad}"


def cmd_verify(args) -> int:
    if args.seed < 0:
        print(f"error: --seed must be a non-negative integer, got {args.seed}",
              file=sys.stderr)
        return 2
    print(f"verify {args.target}:")
    checks = {
        "appendix-a": appendix_a_checks,
        "appendix-b": appendix_b_checks,
        "minimal-set": minimal_set_checks,
        "properties": lambda: property_checks(args.seed),
    }[args.target]()
    failed = False
    for ok, text in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {text}")
        failed |= not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# dump-polytope

def cmd_dump_polytope(args) -> int:
    poly = geometry.build_q_delta(args.m, args.delta, relaxed=args.relaxed)
    text = geometry.dump_h_representation(poly)
    if args.vertices:
        text += geometry.dump_v_representation(geometry.enumerate_vertices(poly))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalcap",
        description="Quantify the classical information extractable from "
                    "tripartite boxes that violate no-signaling monogamy bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-box", help="validate a box JSON file and report "
                       "its no-signaling status, monogamy value and channels")
    p.add_argument("path")
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--out", help="also write the report as JSON")
    p.set_defaults(func=cmd_check_box)

    p = sub.add_parser("curve", help="strength curve over a delta grid (CSV)")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("target", choices=["appendix-a", "appendix-b",
                                      "minimal-set", "properties"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump-polytope", help="H- (and optionally V-) "
                       "representation of a violation polytope")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--vertices", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_polytope)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except channels.NoConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
