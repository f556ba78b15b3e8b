"""Seeded workloads: generation, execution and checking of ops.

A workload is a list of passes; each pass is a list of ops generated from
the benchmark seed and the pass number alone.  Op mixes are stratified
(fixed counts per op class, fixed length classes, stratified continuous
parameters), so passes from different seeds do the same amount of work and
only the concrete inputs differ.

The inputs ``baseline.json`` records as known failures are left out, so
every op of every workload passes its check; the benchmark's tests keep
checking that those inputs still fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import checks

WORKLOADS = ("solver_sweep", "exact_geometry", "crosscheck")

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")) as _fh:
    KNOWN_FAILURES = json.load(_fh)["known_failures"]


def excluded(op_kind: str, key: str, m=None) -> set:
    """Inputs of one op kind that a recorded known failure names under key."""
    return {tuple(x) if isinstance(x, list) else x for k in KNOWN_FAILURES
            if k["op"] == op_kind and k.get("m") == m for x in k.get(key, ())}


# solver_sweep: (deltas per sweep, m = 2 sweeps, m = 3 sweeps) per pass
SWEEP_CLASSES = ((1, 32, 4), (2, 29, 4), (3, 7, 1), (5, 16, 2), (21, 2, 0))
STRIDES = (1, 2, 5, 10)     # in units of the 0.01 lattice
DIVIDING_STEPS = (0.1, 0.2, 0.25, 0.4, 1.0)
NON_DIVIDING_STEPS = tuple(s for s in (0.15, 0.3, 0.35, 0.45, 0.7, 0.9, 1.2)
                           if s not in excluded("cli_curve", "steps"))
BAD_DELTAS = {m: excluded("sweep", "deltas", m) for m in (2, 3)}
BAD_NEIGHBOURS = {m: excluded("sweep", "neighbours", m) for m in (2, 3)}

# exact_geometry
PREIMAGES_INSIDE = 80
PREIMAGES_OUTSIDE = 80
DUMP_DENOMINATORS = (3, 4, 5, 7, 8, 10)

# crosscheck; verify properties was run on seeds 0 to 18, and baseline.json
# records the ones that fail
VERIFY_SEEDS = tuple(s for s in range(19)
                     if s not in excluded("verify_properties", "seeds"))
GRID_ORACLES = 40
GRID_STEP = 0.05
CAPACITY_BATCHES = 50
GAP_STRATA = ((-2.0, -1.5), (-1.5, -1.0), (-1.0, -0.5), (-0.5, 0.0))   # log10 |p - q|
BOX_BATCHES = 50
BOXES_PER_BATCH = 20


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        """Short reproducible description of the op."""
        p = self.params
        if self.kind == "sweep":
            return f"strength.curve({p['m']}, {list(p['deltas'])})"
        if self.kind == "preimage":
            c6 = ", ".join(str(v) for v in p["c6"])
            return f"geometry.box_preimage([{c6}], {p['d']})"
        if self.kind == "capacity_oracle":
            return f"channels.capacity_oracle over {len(p['pairs'])} channels"
        if self.kind == "boxes":
            return f"random_nonsignaling boxes, seeds {p['seeds'][:2]}..."
        return f"{self.kind} {p}"


@dataclass
class Outcome:
    latency_ns: int
    value: object = None
    error: "BaseException | None" = None


# ---------------------------------------------------------------------------
# generation

def _rng(seed: int, workload: str, pass_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), pass_no])


def _stratified(rng, n):
    """n uniform draws in [0, 1), one per stratum [i/n, (i+1)/n), shuffled."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def known_bad_sweep(m, deltas) -> bool:
    """Whether a sweep holds a delta or a pair of neighbouring deltas that a
    recorded known failure names."""
    return bool(BAD_DELTAS[m] & set(deltas)
                or BAD_NEIGHBOURS[m] & set(zip(deltas, deltas[1:])))


def _sweeps(rng, length, m, count):
    """Ascending sweeps on the 0.01 lattice in [0, 2]: strides cycle through
    the ones that fit, starts are stratified over the room the stride leaves
    and move up the lattice past known failures.  The full 21-point sweep is
    the golden grid 0, 0.1, ..., 2."""
    if length == 21:
        return [Op("sweep", {"m": m, "deltas": tuple(round(k * 0.1, 1) for k in range(21))})
                for _ in range(count)]
    fits = [s for s in STRIDES if (length - 1) * s <= 200]
    ops = []
    for i, q in enumerate(_stratified(rng, count)):
        stride = fits[i % len(fits)]
        room = 201 - (length - 1) * stride
        start = int(q * room)
        while True:
            deltas = tuple(round((start + k * stride) * 0.01, 2) for k in range(length))
            if not known_bad_sweep(m, deltas):
                break
            start = (start + 1) % room
        ops.append(Op("sweep", {"m": m, "deltas": deltas}))
    return ops


def solver_sweep_pass(rng) -> list:
    ops = []
    # the curve command: the committed step-0.5 file, a step dividing 2, one not
    ops.append(Op("cli_curve", {"m": 2, "step": 0.5}))
    ops.append(Op("cli_curve", {"m": int(rng.choice([2, 2, 3])),
                                "step": float(rng.choice(DIVIDING_STEPS))}))
    ops.append(Op("cli_curve", {"m": 2, "step": float(rng.choice(NON_DIVIDING_STEPS))}))
    for length, m2, m3 in SWEEP_CLASSES:
        ops += _sweeps(rng, length, 2, m2) + _sweeps(rng, length, 3, m3)
    return ops


def _inside_point(rng, qv):
    """Rational convex combination of 2-4 vertices of the (c, delta) polytope."""
    k = int(rng.integers(2, 5))
    picks = rng.choice(len(qv), k, replace=False)
    weights = [int(w) for w in rng.integers(1, 10, k)]
    total = sum(weights)
    point = [sum(Fraction(w, total) * qv[i][j] for w, i in zip(weights, picks))
             for j in range(7)]
    return tuple(point[:6]), point[6]


def _outside_point(rng, qv):
    """An inside point's correlators at a delta just above what the summed
    rows allow, so one summed row is violated."""
    while True:
        c6, _ = _inside_point(rng, qv)
        top = checks.max_violation(c6)
        if top < 2:
            return c6, min(top + Fraction(1, int(rng.integers(4, 41))), (top + 2) / 2)


def exact_geometry_pass(rng, qv) -> list:
    ops = [Op("appendix_a")]
    ops.append(Op("dump", {"d": Fraction(int(rng.integers(0, 3)))}))
    for _ in range(2):
        q = int(rng.choice(DUMP_DENOMINATORS))
        ops.append(Op("dump", {"d": Fraction(int(rng.integers(1, 2 * q)), q)}))
    for _ in range(PREIMAGES_INSIDE):
        c6, d = _inside_point(rng, qv)
        ops.append(Op("preimage", {"c6": c6, "d": d, "inside": True}))
    for _ in range(PREIMAGES_OUTSIDE):
        c6, d = _outside_point(rng, qv)
        ops.append(Op("preimage", {"c6": c6, "d": d, "inside": False}))
    return ops


def crosscheck_pass(rng) -> list:
    ops = [Op("verify_properties", {"seed": int(rng.choice(VERIFY_SEEDS))})]
    for q in _stratified(rng, GRID_ORACLES):     # one delta per stratum of [0, 2]
        ops.append(Op("grid_oracle", {"d": float(2.0 * q), "step": GRID_STEP}))
    # one channel per |p - q| stratum in each batch; within a stratum the
    # batches' gaps and positions are stratified again
    batches = [[] for _ in range(CAPACITY_BATCHES)]
    for lo, hi in GAP_STRATA:
        gaps = 10.0 ** (lo + (hi - lo) * _stratified(rng, CAPACITY_BATCHES))
        where = _stratified(rng, CAPACITY_BATCHES)
        for batch, gap, w in zip(batches, gaps, where):
            p = float(w * (1.0 - gap))
            pair = (p, p + float(gap))
            batch.append(pair[::-1] if rng.uniform() < 0.5 else pair)
    ops += [Op("capacity_oracle", {"pairs": tuple(b)}) for b in batches]
    for _ in range(BOX_BATCHES):
        seeds = tuple(int(s) for s in rng.integers(0, 2**63, BOXES_PER_BATCH, dtype=np.uint64))
        ops.append(Op("boxes", {"seeds": seeds}))
    return ops


def load_qv_vertices(path) -> list:
    with open(path) as fh:
        lines = [line.split() for line in fh if not line.startswith("#")]
    return [tuple(Fraction(t) for t in line) for line in lines if line]


def generate_pass(workload: str, seed: int, pass_no: int, qv) -> list:
    rng = _rng(seed, workload, pass_no)
    if workload == "solver_sweep":
        ops = solver_sweep_pass(rng)
    elif workload == "exact_geometry":
        ops = exact_geometry_pass(rng, qv)
    else:
        ops = crosscheck_pass(rng)
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def warmup_op(workload: str, qv) -> Op:
    """One cheap untimed op that loads what the workload's timed ops use."""
    if workload == "solver_sweep":
        return Op("sweep", {"m": 2, "deltas": (0.5,)})
    if workload == "exact_geometry":
        c6, d = _inside_point(np.random.default_rng(0), qv)
        return Op("preimage", {"c6": c6, "d": d, "inside": True})
    return Op("grid_oracle", {"d": 1.0, "step": GRID_STEP})


# ---------------------------------------------------------------------------
# execution

class Context:
    """The signalcap modules, reference data and scratch directory ops use."""

    def __init__(self, root, scratch):
        from signalcap import boxes, channels, cli, geometry, monogamy, strength
        self.cli, self.strength, self.geometry = cli, strength, geometry
        self.channels, self.boxes, self.monogamy = channels, boxes, monogamy
        self.scratch = scratch
        self.ref = Reference(strength, channels, root)
        data = os.path.join(root, "data")
        with open(os.path.join(data, "curve_m2_step0.5.csv"), "rb") as fh:
            self.curve_step05 = fh.read()
        with open(os.path.join(data, "q_delta1_m2.hrep.txt")) as fh:
            self.h_rep_delta1 = fh.read()
        with open(os.path.join(data, "q_delta1_m2.vrep.txt")) as fh:
            self.v_rep_delta1 = fh.read()


class Reference:
    """Independent reference values, computed outside timing and tracing."""

    def __init__(self, strength, channels, root):
        self._strength, self._channels = strength, channels
        with open(os.path.join(root, "tests", "golden", "c_delta_m2.json")) as fh:
            values = json.load(fh)["values"]
        self.golden = {round(float(k), 10): v for k, v in values.items()}
        self._family = {}

    def family(self, d) -> float:
        key = round(float(d), 12)
        if key not in self._family:
            self._family[key] = self._strength.optimal_family(key).value
        return self._family[key]

    def gava(self, m, d) -> float:
        return self._strength.gava_bound(m, d)

    def capacity(self, p, q) -> float:
        return self._channels.capacity(self._channels.BinaryChannel(p, q))


def _cli(ctx, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ctx.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _out_path(ctx):
    return os.path.join(ctx.scratch, "op_output.txt")


def _call(op: Op, ctx: Context):
    p = op.params
    if op.kind == "sweep":
        return ctx.strength.curve(p["m"], p["deltas"])
    if op.kind == "cli_curve":
        return _cli(ctx, ["curve", "--m", str(p["m"]), "--step", repr(p["step"]),
                          "--out", _out_path(ctx)])
    if op.kind == "dump":
        return _cli(ctx, ["dump-polytope", "--m", "2", "--delta", repr(float(p["d"])),
                          "--vertices", "--out", _out_path(ctx)])
    if op.kind == "appendix_a":
        return _cli(ctx, ["verify", "appendix-a"])
    if op.kind == "verify_properties":
        return _cli(ctx, ["verify", "properties", "--seed", str(p["seed"])])
    if op.kind == "preimage":
        return ctx.geometry.box_preimage(p["c6"], p["d"])
    if op.kind == "grid_oracle":
        return ctx.strength.grid_oracle(p["d"], p["step"])
    if op.kind == "capacity_oracle":
        ch = ctx.channels
        return [ch.capacity_oracle(ch.BinaryChannel(a, b)) for a, b in p["pairs"]]
    if op.kind == "boxes":
        out = []
        for s in p["seeds"]:
            box = ctx.boxes.random_nonsignaling(2, s)
            ns = ctx.boxes.check_no_signaling(box, 1e-12)
            out.append((ns.is_nonsignaling, ctx.monogamy.monogamy_lhs(box).lhs))
        return out
    raise ValueError(f"unknown op kind {op.kind}")


def execute(op: Op, ctx: Context, tracer=None) -> Outcome:
    """Run one op, timing only the call into signalcap."""
    path = _out_path(ctx)
    if os.path.exists(path):
        os.remove(path)
    span = tracer.op(op.kind) if tracer is not None else contextlib.nullcontext()
    with span:
        start = time.perf_counter_ns()
        try:
            value = _call(op, ctx)
            error = None
        except Exception as exc:   # a raising op is a counted failure
            value, error = None, exc
        latency = time.perf_counter_ns() - start
    return Outcome(latency, value, error)


def check(op: Op, outcome: Outcome, ctx: Context) -> list:
    """Failure codes of an op's outcome; empty when the answer is right."""
    if outcome.error is not None:
        return [checks.raised_code(outcome.error)]
    p, v, ref = op.params, outcome.value, ctx.ref
    if op.kind == "sweep":
        return checks.check_sweep(p["m"], p["deltas"], v, ref)
    if op.kind in ("cli_curve", "dump"):
        rc, _, err = v
        path = _out_path(ctx)
        text = ""
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
        if op.kind == "dump":
            return [f"exit_{rc}"] if rc else checks.check_vertex_dump(
                p["d"], text, ctx.h_rep_delta1, ctx.v_rep_delta1)
        golden = ctx.curve_step05 if (p["m"], p["step"]) == (2, 0.5) else None
        return checks.check_curve_cli(p["m"], p["step"], rc, err, text, ref, golden)
    if op.kind == "appendix_a":
        return checks.check_verify("appendix-a", v[0], v[1])
    if op.kind == "verify_properties":
        return checks.check_verify("properties", v[0], v[1])
    if op.kind == "preimage":
        return checks.check_preimage(p["c6"], p["d"], p["inside"], v)
    if op.kind == "grid_oracle":
        return checks.check_grid_oracle(p["d"], v, ref)
    if op.kind == "capacity_oracle":
        return checks.check_capacity_batch(p["pairs"], v, ref)
    if op.kind == "boxes":
        return checks.check_boxes(v)
    raise ValueError(f"unknown op kind {op.kind}")
