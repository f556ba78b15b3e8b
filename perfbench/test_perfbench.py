"""Tests of the benchmark's own generators, checks and tracer.

    python3 -m pytest perfbench -q

The negative controls feed each check a wrong answer (a perturbed C_delta,
a dropped vertex, a forged preimage witness) and require a failed op.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import signalcap  # noqa: E402
from signalcap import geometry, strength  # noqa: E402


@pytest.fixture(scope="module")
def qv():
    return workloads.load_qv_vertices(os.path.join(HERE, "q_v_vertices.txt"))


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return workloads.Context(ROOT, str(tmp_path_factory.mktemp("ops")))


def _text(name):
    with open(os.path.join(ROOT, "data", name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# generation

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_passes_repeat_for_a_seed_and_differ_across_seeds(workload, qv):
    a = workloads.generate_pass(workload, 7, 0, qv)
    b = workloads.generate_pass(workload, 7, 0, qv)
    c = workloads.generate_pass(workload, 8, 0, qv)
    assert [o.label() for o in a] == [o.label() for o in b]
    assert [o.label() for o in a] != [o.label() for o in c]
    assert len(a) >= 100


@pytest.mark.parametrize("seed", range(5))
def test_op_mix_is_fixed_per_pass(seed, qv):
    ops = workloads.generate_pass("solver_sweep", seed, 0, qv)
    sweeps = [o for o in ops if o.kind == "sweep"]
    m3_sweeps = sum(c[2] for c in workloads.SWEEP_CLASSES)
    assert sum(1 for o in sweeps if o.params["m"] == 3) == m3_sweeps
    for o in sweeps:
        d = o.params["deltas"]
        assert list(d) == sorted(set(d)) and 0 <= d[0] and d[-1] <= 2
    geo = workloads.generate_pass("exact_geometry", seed, 0, qv)
    kinds = [o.kind for o in geo]
    assert kinds.count("appendix_a") == 1 and kinds.count("dump") == 3
    assert sum(1 for o in geo if o.kind == "preimage" and o.params["inside"]) == workloads.PREIMAGES_INSIDE


def test_fixture_is_the_vertex_set_of_the_union_polytope(qv):
    assert len(qv) == 24 == len(set(qv))
    assert sorted(v[6] for v in qv) == [0] * 20 + [2] * 4
    for v in qv:
        assert all(abs(x) <= 1 for x in v[:6])
        assert checks.max_violation(v[:6]) >= v[6]


def test_inside_and_outside_points(qv):
    ops = workloads.generate_pass("exact_geometry", 3, 0, qv)
    for o in ops:
        if o.kind == "preimage":
            c6, d = o.params["c6"], o.params["d"]
            assert all(isinstance(x, Fraction) for x in c6)
            assert (checks.max_violation(c6) >= d) == o.params["inside"]
            assert 0 <= d <= 2


# ---------------------------------------------------------------------------
# negative controls

def test_perturbed_c_delta_fails(ctx):
    op = workloads.Op("sweep", {"m": 2, "deltas": (0.5, 1.0)})
    out = workloads.execute(op, ctx)
    assert workloads.check(op, out, ctx) == []
    rows = list(out.value.rows)
    rows[1] = dataclasses.replace(rows[1], c_delta=rows[1].c_delta + 2e-3)
    bad = dataclasses.replace(out.value, rows=tuple(rows))
    assert checks.check_sweep(2, op.params["deltas"], bad, ctx.ref) == [
        "family_mismatch", "golden_mismatch"]


def test_m3_sweep_below_symmetric_bound_fails(ctx):
    curve = strength.curve(3, [1.0])
    assert checks.check_sweep(3, [1.0], curve, ctx.ref) == []
    row = dataclasses.replace(curve.rows[0], c_delta=strength.gava_bound(3, 1.0) - 1e-6)
    bad = dataclasses.replace(curve, rows=(row,))
    assert checks.check_sweep(3, [1.0], bad, ctx.ref) == ["below_gava"]


def test_dropped_vertex_fails():
    h, v = _text("q_delta1_m2.hrep.txt"), _text("q_delta1_m2.vrep.txt")
    assert checks.check_vertex_dump(Fraction(1), h + v, h, v) == []
    lines = v.splitlines()
    dropped = "\n".join([lines[0]] + lines[2:]) + "\n"
    recounted = "\n".join(["# vertices 27"] + lines[2:]) + "\n"
    for text in (dropped, recounted):
        assert checks.check_vertex_dump(Fraction(1), h + text, h, v) == [
            "delta1_bytes_mismatch", "vertex_count"]


def test_vertex_dump_rejects_wrong_vertices_and_rows():
    h, v = _text("q_delta1_m2.hrep.txt"), _text("q_delta1_m2.vrep.txt")
    lines = v.splitlines()
    lines[1] = "0 0 0 0 0 0"                 # violates every summed row
    assert checks.check_vertex_dump(Fraction(1), h + "\n".join(lines) + "\n", h, v) == [
        "delta1_bytes_mismatch", "not_a_vertex"]
    lines[1] = lines[2]
    assert "duplicate_vertex" in checks.check_vertex_dump(
        Fraction(1), h + "\n".join(lines) + "\n", h, v)
    assert checks.check_vertex_dump(Fraction(1, 2), h + v, h, v) == ["h_rep_mismatch"]
    half = checks.expected_h_rep(Fraction(1, 2), h)
    assert half.count("<= -1/2") == 4 and half.count("<= 1\n") == 12


def test_forged_preimage_witness_fails(qv):
    op = next(o for o in workloads.generate_pass("exact_geometry", 1, 0, qv)
              if o.kind == "preimage" and o.params["inside"])
    c6, d = op.params["c6"], op.params["d"]
    found, w = geometry.box_preimage(c6, d)
    assert checks.check_preimage(c6, d, True, (found, w)) == []
    forged = list(w)
    forged[0] += Fraction(1, 7)            # AB00: moves the monogamy value
    assert "monogamy_mismatch" in checks.check_preimage(c6, d, True, (True, tuple(forged)))
    forged = list(w)
    forged[checks.PHI[2]] = Fraction(3, 2)  # outside the box
    assert "negative_probability" in checks.check_preimage(c6, d, True, (True, tuple(forged)))
    assert checks.check_preimage(c6, d, True, (True, tuple(float(x) for x in w))) == [
        "witness_not_exact"]
    assert checks.check_preimage(c6, d, False, (True, w)) == ["outside_accepted"]
    assert checks.check_preimage(c6, d, True, (False, None)) == ["inside_rejected"]


def test_curve_command_reports():
    ok_error = "error: delta must lie in [0, 2], got 2.1\n"
    assert checks.check_curve_cli(2, 0.3, 2, ok_error, "", None) == []
    assert checks.check_curve_cli(2, 0.3, 2, ok_error * 2, "", None) == ["bad_error_report"]
    assert checks.check_curve_cli(2, 0.5, 2, ok_error, "", None) == ["exit_2"]
    assert checks.check_curve_cli(2, 0.5, 0, "", "x\n", None, b"y\n") == ["csv_mismatch"]


def test_verify_output_codes():
    line = ("  [FAIL] 1e3 channels: |closed form - iterative| max 5.00e-09 <= 1e-6, "
            "symmetries hold: False\n")
    out = "  [PASS] a: x\n" * 3 + line
    assert checks.check_verify("properties", 1, out) == ["channel_symmetry"]
    assert checks.check_verify("properties", 0, out) == ["channel_symmetry", "exit_0"]
    assert checks.check_verify("properties", 0, "  [PASS] a: x\n" * 3) == ["missing_lines"]


# ---------------------------------------------------------------------------
# known failures

@pytest.mark.parametrize("seed", range(20))
def test_passes_leave_out_the_known_failures(seed, qv):
    bad_steps = workloads.excluded("cli_curve", "steps")
    bad_seeds = workloads.excluded("verify_properties", "seeds")
    assert bad_steps and bad_seeds and all(workloads.BAD_DELTAS.values())
    for o in workloads.generate_pass("solver_sweep", seed, 0, qv):
        if o.kind == "sweep":
            assert not workloads.known_bad_sweep(o.params["m"], o.params["deltas"])
        else:
            assert o.params["step"] not in bad_steps
    for o in workloads.generate_pass("crosscheck", seed, 0, qv):
        if o.kind == "verify_properties":
            assert o.params["seed"] not in bad_seeds
    assert workloads.known_bad_sweep(3, (0.5, 0.19, 0.2))
    assert not workloads.known_bad_sweep(3, (0.19, 0.21))
    assert not workloads.known_bad_sweep(2, (0.19, 0.2))


def _known_failure_ops():
    """One op per input each known failure names."""
    for k in workloads.KNOWN_FAILURES:
        if k["op"] == "sweep":
            for d in k.get("deltas", ()):
                yield k, workloads.Op("sweep", {"m": k["m"], "deltas": (d,)})
            for pair in k.get("neighbours", ()):
                yield k, workloads.Op("sweep", {"m": k["m"], "deltas": tuple(pair)})
        for step in k.get("steps", ()):
            yield k, workloads.Op("cli_curve", {"m": 2, "step": step})
        for seed in k.get("seeds", ()):
            yield k, workloads.Op("verify_properties", {"seed": seed})


@pytest.mark.parametrize("entry,op", list(_known_failure_ops()),
                         ids=lambda x: x["id"] if isinstance(x, dict) else x.label())
def test_known_failures_still_fail(entry, op, ctx):
    """The workloads leave these inputs out only while they fail.  When one
    passes, remove it from baseline.json so that it returns to the workload."""
    assert workloads.check(op, workloads.execute(op, ctx), ctx) == [entry["code"]]


# ---------------------------------------------------------------------------
# tracer

def test_tracer_restores_every_attribute():
    before = {(o, a): tracing._resolve(signalcap, o).__dict__[a]
              for o, a, _ in tracing.ENTRY_POINTS}
    t = tracing.Tracer()
    t.install(signalcap)
    assert all(tracing._resolve(signalcap, o).__dict__[a] is not fn
               for (o, a), fn in before.items())
    t.uninstall()
    assert all(tracing._resolve(signalcap, o).__dict__[a] is fn
               for (o, a), fn in before.items())


def test_traced_counts_and_self_time(ctx):
    t = tracing.Tracer()
    t.install(signalcap)
    try:
        for deltas in ((0.5, 1.0), (0.05, 0.06)):
            workloads.execute(workloads.Op("sweep", {"m": 2, "deltas": deltas}), ctx, t)
        strength.curve(2, [0.3])            # outside an op: not recorded
    finally:
        t.uninstall()
    m = {k: v["value"] for k, v in tracing.layer_metrics(t).items()}
    assert m["strength.solves"] == 3 and m["strength.failed_solves"] == 1
    assert m["strength.master_lp_calls"] == m["strength.kelley_iters"] > 0
    assert m["channels.scalar_calls"] > m["channels.gradient_calls"] > 0
    roots = [s for s in t.spans if s.parent == -1]
    assert len(roots) == 2
    assert sum(s.self_ns for s in t.spans) == sum(s.dur_ns for s in roots)


# ---------------------------------------------------------------------------
# speed calibration

def test_scaling_follows_the_local_kernel_time():
    ref = speed.REFERENCE_S
    samples = [ref] * 30 + [4 * ref] * 30
    out = speed.scaled([1.0] * 60, samples)
    assert out[:15] == [1.0] * 15 and out[-15:] == [0.25] * 15
    assert speed.sample() > 0


# ---------------------------------------------------------------------------
# the runner

def test_runner_refuses_a_directory_without_signalcap(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crosscheck",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
