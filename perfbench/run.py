"""signalcap benchmark: one workload per process, closed loop, every answer checked.

    python3 perfbench/run.py --workload solver_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a signalcap checkout.  The process imports signalcap
from ``src/``, generates the workload's passes from the seed, and issues
each op only after the previous one returned.  Whole passes run until
``--seconds`` of op time has been measured.  Every op's answer is checked;
an op that raises or fails its check is a failed op and makes ``correct``
false.  The workloads leave out the inputs ``baseline.json`` records as
known failures.

Times are scaled to a reference host speed with the calibration kernel in
``speed.py``, sampled before every op and around every set-up trial; the
raw times are kept in the result file under ``.perfbench/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced, then again with spans recorded around every layer's entry
points, and reports the per-layer metrics; the spans are written to
``.perfbench/``.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402  (imports numpy, so after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_TRIALS = 5
SETUP_SAMPLES = 21     # calibration samples before each set-up trial

REQUIRED = (
    ("src", "signalcap", "__init__.py"),
    ("data", "curve_m2_step0.5.csv"),
    ("data", "q_delta1_m2.hrep.txt"),
    ("data", "q_delta1_m2.vrep.txt"),
    ("tests", "golden", "c_delta_m2.json"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solver_sweep", "exact_geometry", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate inputs, run the warm-up op, exit")
    return parser.parse_args(argv)


def check_checkout():
    missing = [os.path.join(*p) for p in REQUIRED if not os.path.exists(os.path.join(ROOT, *p))]
    if missing:
        sys.exit(f"perfbench: not a signalcap checkout, missing {', '.join(missing)}")


def import_signalcap():
    """Import signalcap from this checkout's src/, never from elsewhere."""
    check_checkout()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import signalcap
    if not os.path.abspath(signalcap.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported signalcap from {signalcap.__file__}, not {src}")
    return signalcap


def setup(args):
    """Everything a run needs before its first timed op."""
    package = import_signalcap()
    import workloads
    qv = workloads.load_qv_vertices(os.path.join(HERE, "q_v_vertices.txt"))
    scratch = os.path.join(WORK_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    ctx = workloads.Context(ROOT, scratch)
    first = workloads.generate_pass(args.workload, args.seed, 0, qv)
    warm = workloads.warmup_op(args.workload, qv)
    outcome = workloads.execute(warm, ctx)
    codes = workloads.check(warm, outcome, ctx)
    if codes:
        sys.exit(f"perfbench: warm-up op {warm.label()} failed: {codes}")
    return package, workloads, qv, ctx, first


def measure_setup(args) -> tuple:
    """Wall times of fresh processes that only set up, and the calibration
    kernel time (median of SETUP_SAMPLES) taken before each, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times, samples = [], []
    for _ in range(SETUP_TRIALS):
        samples.append(statistics.median(speed.sample() for _ in range(SETUP_SAMPLES)))
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times, samples


class OpLog:
    """Latencies, calibration samples and failures of the ops run so far."""

    def __init__(self):
        self.latencies, self.samples, self.failures, self.by_kind = [], [], [], {}

    def run(self, ops, workloads, ctx, tracer=None):
        """Issue the ops one after another, each after a calibration sample."""
        for op in ops:
            self.samples.append(speed.sample())
            outcome = workloads.execute(op, ctx, tracer)
            self.latencies.append(outcome.latency_ns * 1e-9)
            self.by_kind.setdefault(op.kind, []).append(self.latencies[-1])
            codes = workloads.check(op, outcome, ctx)
            if codes:
                self.failures.append({"op": op.label(), "codes": codes})

    def scaled(self) -> list:
        return speed.scaled(self.latencies, self.samples)


def percentile(values, q) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def timing_metrics(latencies, passing) -> dict:
    return {
        "ops_per_s": {"value": passing / sum(latencies), "unit": "ops/s"},
        "op_p50_ms": {"value": percentile(latencies, 0.5) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": percentile(latencies, 0.9) * 1e3, "unit": "ms"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        shutil.rmtree(setup(args)[3].scratch)
        return 0
    check_checkout()
    setup_times, setup_samples = measure_setup(args)
    package, workloads, qv, ctx, first = setup(args)
    try:
        report = measure(args, package, workloads, qv, ctx, first)
    finally:
        shutil.rmtree(ctx.scratch)
    report["setup_trials_s"] = setup_times
    metrics = report["metrics"]
    if not args.trace:
        setup_scaled = [t * speed.factor(c) for t, c in zip(setup_times, setup_samples)]
        metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        report["raw_metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    failures = report["failures"]
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print("env " + json.dumps(report["env"]))
    for f in failures:
        print(f"failed op {f['codes']}: {f['op']}")
    print(json.dumps({"correct": not failures, "attempted": report["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


def measure(args, package, workloads, qv, ctx, first) -> dict:
    """Run the timed passes (and the traced pass); return the report."""
    run, passes = OpLog(), 1
    run.run(first, workloads, ctx)
    if args.trace:
        import tracer as tracing
        traced = OpLog()
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            traced.run(first, workloads, ctx, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer)
        # traced / untraced ops_per_s over the same ops
        metrics["trace_overhead_ratio"] = {
            "value": sum(run.scaled()) / sum(traced.scaled()), "unit": "1"}
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write(os.path.join(WORK_DIR, f"spans-{args.workload}.jsonl.gz"))
        raw = {}
    else:
        while sum(run.latencies) < args.seconds:
            run.run(workloads.generate_pass(args.workload, args.seed, passes, qv),
                    workloads, ctx)
            passes += 1
        passing = len(run.latencies) - len(run.failures)
        metrics = timing_metrics(run.scaled(), passing)
        raw = timing_metrics(run.latencies, passing)
    return {"env": environment(args), "passes": passes, "attempted": len(run.latencies),
            "calibration_ms": {"p50": percentile(run.samples, 0.5) * 1e3,
                               "min": min(run.samples) * 1e3, "max": max(run.samples) * 1e3},
            "latency_by_kind_ms": {k: {"n": len(v), "p50": percentile(v, 0.5) * 1e3,
                                       "max": max(v) * 1e3} for k, v in run.by_kind.items()},
            "failures": run.failures, "metrics": metrics, "raw_metrics": raw,
            "op_latencies_s": run.latencies, "kernel_samples_s": run.samples}


if __name__ == "__main__":
    sys.exit(main())
