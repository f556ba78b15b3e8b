"""Acceptance suite: one test (or split test pair) per acceptance criterion,
each printing a CRITERION pass/fail line and asserting at the stated
tolerance.

The delta = 2 equalization root is checked against alpha* = 0.459 +- 0.002.
The root of C(1,(1+a)/2) = C((1+a)/2,(1-a)/2) is 0.4589374 (40-digit check in
test_strength.TestC2Analytic), which is what yields C_2 = 0.158; a formerly
recorded 0.469 leaves a residual of -0.0105 bits and capacities
(0.1545, 0.1545, 0.1651), so it was a one-digit slip.  Criterion 7's
capacities are therefore checked on the reference box at y = 0.459, while
its structural checks keep the committed box at y = 0.469.
"""

import time

import numpy as np
import pytest

from signalcap import boxes, channels, monogamy, strength
from signalcap.cli import (
    main,
    sample_capacity_oracle,
    sample_convexity,
    sample_monogamy,
    sample_triple_inequalities,
)


# ---------------------------------------------------------------------------
# criterion 1: verify appendix-b

def test_criterion_1_appendix_b_verified_values(criterion_report):
    t0 = time.perf_counter()
    rep = strength.c2_analytic()
    elapsed = time.perf_counter() - t0
    ok = (abs(rep.c2 - 0.158) <= 0.002
          and abs(rep.subregion_value - 0.322) <= 0.001
          and elapsed < 1.0)
    criterion_report(1, ok, f"appendix-b values: C_2={rep.c2:.6f}, "
          f"subregion={rep.subregion_value:.6f}, runtime={elapsed:.3f}s")
    assert abs(rep.c2 - 0.158) <= 0.002
    assert abs(rep.subregion_value - 0.322) <= 0.001
    assert elapsed < 1.0


def test_criterion_1_appendix_b_as_specified(capsys, criterion_report):
    t0 = time.perf_counter()
    code = main(["verify", "appendix-b"])
    elapsed = time.perf_counter() - t0
    rep = strength.c2_analytic()
    criterion_report(1, code == 0 and elapsed < 1.0,
          f"verify appendix-b exit={code}, alpha*={rep.alpha_star:.6f}")
    assert elapsed < 1.0
    assert abs(rep.alpha_star - 0.459) <= 0.002, (
        f"equalization root of C(1,(1+a)/2) = C((1+a)/2,(1-a)/2) is "
        f"{rep.alpha_star:.7f}, not 0.459 +- 0.002 (C_2 = {rep.c2:.6f})")
    assert code == 0


# ---------------------------------------------------------------------------
# criterion 2: curve --m 2 --step 0.1

def test_criterion_2_curve_m2_step01(golden_c_delta, tmp_path, criterion_report):
    t0 = time.perf_counter()
    out = tmp_path / "curve.csv"
    code = main(["curve", "--m", "2", "--step", "0.1", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    lines = out.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    deltas = [float(r[0]) for r in rows]
    vals = [float(r[1]) for r in rows]
    fams = [float(r[2]) for r in rows]

    ok = True
    ok &= len(rows) == 21
    ok &= abs(vals[0]) <= 1e-6
    ok &= abs(vals[-1] - 0.158) <= 0.002
    ok &= all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    for d, v, f in zip(deltas, vals, fams):
        ok &= v >= strength.gava_bound(2, d) - 1e-6
        ok &= abs(v - golden_c_delta[round(d, 1)]) <= 1e-3
        ok &= abs(v - f) <= 1e-3
    ok &= elapsed < 60.0
    criterion_report(2, ok, f"21-row curve, endpoints ({vals[0]:.6f}, {vals[-1]:.6f}), "
          f"runtime={elapsed:.1f}s")

    assert len(rows) == 21
    assert abs(vals[0]) <= 1e-6
    assert abs(vals[-1] - 0.158) <= 0.002
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])), "column must be nondecreasing"
    for d, v, f in zip(deltas, vals, fams):
        assert v >= strength.gava_bound(2, d) - 1e-6
        assert abs(v - golden_c_delta[round(d, 1)]) <= 1e-3, f"fixture mismatch at delta={d}"
        assert abs(v - f) <= 1e-3, f"family mismatch at delta={d}"
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 3: verify appendix-a

def test_criterion_3_appendix_a(characterization, criterion_report):
    rep, elapsed = characterization
    ok = rep.q_vertices_in_slices and rep.all_preimages_found and elapsed < 300.0
    criterion_report(3, ok, f"{rep.vertex_count} vertices ({rep.slice_counts}), "
          f"runtime={elapsed:.1f}s")
    assert rep.q_vertices_in_slices, f"interior vertices: {rep.interior_vertices}"
    assert rep.all_preimages_found, f"missing preimages: {rep.missing_preimages}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 4: closed-form bound evaluations

def test_criterion_4_gava_values_and_ordering(criterion_report):
    g22 = strength.gava_bound(2, 2.0)
    g32 = strength.gava_bound(3, 2.0)
    c2 = strength.c_delta(2.0).value
    c2_m3 = strength.chained_polytope_bound(3, 2.0).value
    ok = (abs(g22 - 0.0817) <= 1e-4 and abs(g32 - 0.0290) <= 1e-4
          and g22 < c2 and g32 < c2 and g32 < c2_m3)
    criterion_report(4, ok, f"gava(2,2)={g22:.6f}, gava(3,2)={g32:.6f}, "
          f"C(2)={c2:.6f}, C_m3(2)={c2_m3:.6f}")
    assert abs(g22 - 0.0817) <= 1e-4
    assert abs(g32 - 0.0290) <= 1e-4
    assert g22 < c2 and g32 < c2
    assert g32 < c2_m3


# ---------------------------------------------------------------------------
# criterion 5: verify minimal-set

def test_criterion_5_minimal_set(criterion_report):
    t0 = time.perf_counter()
    counts = {
        (2, 4): monogamy.verify_minimal_set(2),
        (3, 6): monogamy.verify_minimal_set(3),
        (2, 3): monogamy.verify_minimal_set(2, 3),
        (3, 5): monogamy.verify_minimal_set(3, 5),
    }
    elapsed = time.perf_counter() - t0
    ok = (counts[(2, 4)] == 1 and counts[(3, 6)] == 1
          and counts[(2, 3)] == 0 and counts[(3, 5)] == 0
          and elapsed < 120.0)
    criterion_report(5, ok, f"multiset counts {counts}, runtime={elapsed:.2f}s")
    assert counts[(2, 4)] == 1
    assert counts[(3, 6)] == 1
    assert counts[(2, 3)] == 0
    assert counts[(3, 5)] == 0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 6: property suites

def test_criterion_6a_monogamy_of_random_nonsignaling_boxes(criterion_report):
    worst, worst_marginal = sample_monogamy(np.random.default_rng(42), 10_000)
    ok = worst <= 4.0 + 1e-9 and worst_marginal <= 1e-12
    criterion_report("6a", ok, f"1e4 nonsignaling boxes, max lhs = {worst:.9f}, "
                     f"max marginal spread = {worst_marginal:.1e}")
    assert worst <= 4.0 + 1e-9
    assert worst_marginal <= 1e-12


def test_criterion_6b_triple_inequalities_on_random_distributions(criterion_report):
    violations = sample_triple_inequalities(np.random.default_rng(43), 10_000)
    criterion_report("6b", violations == 0, f"1e4 distributions x 4 patterns, "
          f"{violations} violations")
    assert violations == 0


def test_criterion_6c_capacity_oracle_and_symmetries(criterion_report):
    worst, worst_sym = sample_capacity_oracle(np.random.default_rng(44), 1_000)
    assert worst_sym <= 1e-12
    criterion_report("6c", worst <= 1e-6, f"1e3 channels, max |closed - iterative| = {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_6d_midpoint_convexity(criterion_report):
    bad = int((sample_convexity(np.random.default_rng(45), 1_000) > 1e-12).sum())
    criterion_report("6d", bad == 0, f"1e3 triples, {bad} convexity violations")
    assert bad == 0


# ---------------------------------------------------------------------------
# criterion 7: the reference box at delta=2; structure at y=0.469 (the
# committed box), capacities at the equalization root y=0.459

def test_criterion_7_reference_box_structure(criterion_report):
    box = boxes.reference_box(2.0, 0.469)
    rep = monogamy.monogamy_lhs(box)
    ab_marginal = box.table.sum(axis=4)
    pr_marginal = boxes.pr_times_coin().table.sum(axis=4)
    singles_ok = all(np.abs(arr).max() == 0.0 for arr in boxes.one_body_tables(box))
    triples_ok = np.abs(boxes.three_body_table(box)).max() == 0.0
    ok = (rep.lhs == 6.0 and np.array_equal(ab_marginal, pr_marginal)
          and singles_ok and triples_ok)
    criterion_report(7, ok, f"reference box: lhs={rep.lhs}, PR marginal entrywise="
          f"{np.array_equal(ab_marginal, pr_marginal)}")
    assert rep.lhs == 6.0
    assert np.array_equal(ab_marginal, pr_marginal)
    assert singles_ok and triples_ok


def test_criterion_7_capacities_as_specified(criterion_report):
    caps = sorted(channels.channels_from_box(boxes.reference_box(2.0, 0.459))
                  .capacities().values())
    ok = all(abs(c - 0.158) <= 0.002 for c in caps)
    criterion_report(7, ok, f"reference-box capacities at y=0.459: "
          + ", ".join(f"{c:.6f}" for c in caps))
    assert all(abs(c - 0.158) <= 0.002 for c in caps), (
        f"capacities at y-correlator 0.459 are {[round(c, 6) for c in caps]}, "
        "not all 0.158 +- 0.002")


# ---------------------------------------------------------------------------
# criterion 8: relaxed mode

def test_criterion_8_relaxed_mode(golden_c_delta, criterion_report):
    ok = True
    details = []
    for delta in (0.5, 1.0, 1.5, 2.0):
        strict = strength.c_delta(delta).value
        relaxed = strength.c_delta(delta, relaxed=True)
        arr = relaxed.witness.as_array()
        ok &= abs(relaxed.value - strict) <= 1e-3
        ok &= abs(arr[6] - arr[7]) <= 1e-9
        details.append(f"d={delta}: {strict:.6f}/{relaxed.value:.6f}")
    criterion_report(8, ok, "strict/relaxed " + "; ".join(details))
    for delta in (0.5, 1.0, 1.5, 2.0):
        strict = strength.c_delta(delta).value
        relaxed = strength.c_delta(delta, relaxed=True)
        arr = relaxed.witness.as_array()
        assert abs(relaxed.value - strict) <= 1e-3
        assert abs(arr[6] - arr[7]) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 9: chained bound vs two-setting strength

def test_criterion_9_chained_bound(golden_c_delta, criterion_report):
    ok = True
    for delta in (0.5, 1.0, 1.5, 2.0):
        two = strength.c_delta(delta, tol=1e-4).value
        chained = strength.chained_polytope_bound(2, delta, tol=1e-4).value
        ok &= abs(two - chained) <= 2e-4
    m3 = {}
    for delta in (0.5, 1.0, 1.5, 2.0):
        res = strength.chained_polytope_bound(3, delta)
        m3[delta] = res.value
        ok &= res.value >= strength.gava_bound(3, delta) - 1e-6
        ok &= res.label == "conjectured lower bound"
    criterion_report(9, ok, f"m=3 bounds {m3}")
    for delta in (0.5, 1.0, 1.5, 2.0):
        two = strength.c_delta(delta, tol=1e-4).value
        chained = strength.chained_polytope_bound(2, delta, tol=1e-4).value
        assert abs(two - chained) <= 2e-4
        res = strength.chained_polytope_bound(3, delta)
        assert res.value >= strength.gava_bound(3, delta) - 1e-6
        assert res.label == "conjectured lower bound"
