#!/usr/bin/env python3
"""Boxes, conditional correlators and the monogamy bound.

A tripartite box is the full table p(a, b, e | A_i, B_j).  For nonsignaling
boxes the CHSH value of A and B trades off against the correlations either
shares with the outside observer: |I| + 2|<B_0 E>| <= 4.  Signaling boxes
can exceed the bound, up to 6.
"""
import numpy as np

from signalcap import boxes, monogamy

print("== a PR box with an uncorrelated coin for E ==")
pr = boxes.pr_times_coin()
rep = boxes.check_no_signaling(pr)
print(f"nonsignaling: {rep.is_nonsignaling} (worst marginal spread {rep.worst_violation:.1e})")
mono = monogamy.monogamy_lhs(pr)
print(f"CHSH value {boxes.chained_bell_value(pr)}, monogamy lhs {mono.lhs} <= {mono.bound:g}")
print("the algebraically maximal CHSH value forces <B_0 E> = 0\n")

print("== a local deterministic box ==")
det = boxes.local_deterministic(2, [1, 1], [1, 1], 1)
mono = monogamy.monogamy_lhs(det)
print(f"CHSH value {boxes.chained_bell_value(det)}, <B_0 E> = 1, lhs {mono.lhs} (saturates)\n")

print("== random nonsignaling mixtures never violate ==")
worst = 0.0
for seed in range(2000):
    worst = max(worst, monogamy.monogamy_lhs(boxes.random_nonsignaling(2, seed)).lhs)
print(f"max lhs over 2000 samples: {worst:.6f} <= 4\n")

print("== a signaling box that beats the bound ==")
box = boxes.reference_box(1.0, 0.17)
mono = monogamy.monogamy_lhs(box)
ns = boxes.check_no_signaling(box)
print(f"monogamy lhs {mono.lhs} = 4 + {mono.delta}")
print(f"nonsignaling: {ns.is_nonsignaling}; offending marginals:")
for label, spread in ns.offenders:
    print(f"  {label}: {spread:.3f}")
print()

print("== symmetrization kills singles, keeps every two-body correlator ==")
rng = np.random.default_rng(1)
raw = boxes.random_nonsignaling(2, 99)
sym = boxes.symmetrize(raw)
print("one-body expectations after:", max(np.abs(a).max() for a in boxes.one_body_tables(sym)))
print("two-body tables preserved:",
      all(np.allclose(a, b) for a, b in zip(boxes.two_body_tables(raw),
                                            boxes.two_body_tables(sym))))
