"""Span tracer for the benchmark's traced run.

The tracer wraps the cross-module entry points of each signalcap layer at
the attribute the caller looks up (``strength.linprog`` for the master LP,
``geometry.solve_square_exact`` for the exact solver, and so on).  A name
brought in with ``from ... import`` is only intercepted at the importing
module, so the table below names the importing module.  Nothing inside
signalcap is edited; ``uninstall`` puts the original attributes back.

Spans are kept in memory and written out after the run.  A span's self time
is its duration minus the time its direct child spans cover (the program is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (owner, attribute, layer); the owner is a module of signalcap or a class in
# one, named relative to the package.
ENTRY_POINTS = (
    ("cli", "main", "cli"),
    ("strength", "curve", "strength"),
    ("strength", "chained_polytope_bound", "strength"),
    ("strength", "c_delta", "strength"),
    ("strength", "minimax_capacity", "strength"),
    ("strength", "optimal_family", "strength"),
    ("strength", "gava_bound", "strength"),
    ("strength", "grid_oracle", "strength"),
    ("strength", "_global_grid_scan", "strength"),
    ("strength", "_grid_refine", "strength"),
    ("strength.StrengthCurve", "to_csv", "strength"),
    ("strength", "linprog", "highs"),
    ("channels", "_capacity_pq", "channels"),
    ("channels", "capacity", "channels"),
    ("channels", "capacity_gradient", "channels"),
    ("channels", "capacity_array", "channels"),
    ("channels", "capacity_oracle", "channels"),
    ("channels", "family_index_pairs", "channels"),
    ("geometry", "build_q_delta", "geometry"),
    ("geometry", "build_q_v", "geometry"),
    ("geometry", "polytope_float", "geometry"),
    ("geometry", "enumerate_vertices", "geometry"),
    ("geometry", "box_preimage", "geometry"),
    ("geometry", "verify_characterization", "geometry"),
    ("geometry", "dump_h_representation", "geometry"),
    ("geometry", "dump_v_representation", "geometry"),
    ("geometry", "solve_square_exact", "rational_lp"),
    ("geometry", "rank_select", "rational_lp"),
    ("geometry", "lp_feasible", "rational_lp"),
    ("geometry", "linprog_exact", "rational_lp"),
    ("monogamy", "monogamy_lhs", "monogamy"),
    ("monogamy", "triple_inequality_holds", "monogamy"),
    ("monogamy", "all_summed_constraints", "monogamy"),
    ("boxes", "random_nonsignaling", "boxes"),
    ("boxes", "check_no_signaling", "boxes"),
    ("boxes", "two_body_tables", "boxes"),
)

# A note is one number taken from a call's result, kept on its span.
NOTES = {
    "strength.minimax_capacity": lambda out: out[3],        # Kelley iterations
    "geometry.enumerate_vertices": len,                      # unique vertices
    "geometry.box_preimage": lambda out: int(out[0]),        # preimage found
    "cli.main": lambda out: out,                             # exit code
    "channels.capacity_array": lambda out: int(out.size),    # elements evaluated
}

SIMPLEX = ("geometry.lp_feasible", "geometry.linprog_exact")


@dataclass
class Span:
    name: str
    parent: int       # index of the parent span, -1 for an op's root span
    op: int           # index of the benchmark op the span belongs to
    start_ns: int
    end_ns: int
    child_ns: int
    note: "int | None"
    failed: bool

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


def _resolve(package, owner: str):
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self):
        self.spans: list = []
        self.layer_of: dict = {}
        self.op_kinds: list = []
        self._stack: list = []
        self._restore: list = []
        self._active = False     # spans are recorded only inside an op

    # -- installation -------------------------------------------------------
    def install(self, package) -> None:
        for owner_name, attr, layer in ENTRY_POINTS:
            owner = _resolve(package, owner_name)
            fn = owner.__dict__[attr]
            name = f"{owner_name.split('.')[0]}.{attr}"
            self.layer_of[name] = layer
            setattr(owner, attr, self._wrap(name, fn))
            self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            failed = True
            out = None
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self._close(idx, note(out) if (note and not failed) else None, failed)
        return traced

    # -- spans ----------------------------------------------------------------
    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        op = len(self.op_kinds) - 1
        self.spans.append(Span(name, parent, op, 0, 0, 0, None, False))
        self._stack.append(idx)
        self.spans[idx].start_ns = time.perf_counter_ns()
        return idx

    def _close(self, idx, note, failed) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span.end_ns, span.note, span.failed = end, note, failed
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.dur_ns

    def op(self, kind: str):
        """Context manager for the root span of one benchmark op."""
        self.op_kinds.append(kind)
        return _OpSpan(self, f"op.{kind}")

    def write(self, path) -> None:
        """One JSON array per span, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.parent, s.op, self.op_kinds[s.op], s.name,
                                     s.start_ns, s.end_ns, s.self_ns, s.note,
                                     s.failed]) + "\n")


class _OpSpan:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        self.tracer._active = True
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._active = False
        self.tracer._close(self.idx, None, exc_type is not None)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, times (s) and ratios from the recorded spans."""
    count = defaultdict(int)
    dur = defaultdict(int)
    self_ns = defaultdict(int)
    notes = defaultdict(int)
    solves = iters = lp_calls = lp_ns = failed_solves = 0
    per_op_squares = defaultdict(int)
    spans = tracer.spans
    for s in spans:
        count[s.name] += 1
        dur[s.name] += s.dur_ns
        layer = tracer.layer_of.get(s.name)
        if layer is not None:
            self_ns[layer] += s.self_ns
        if s.note is not None:
            notes[s.name] += s.note
        if s.name == "strength.minimax_capacity":
            if s.failed:
                failed_solves += 1
            else:
                solves += 1
                iters += s.note
        elif s.name == "strength.linprog" and s.parent >= 0 and not spans[s.parent].failed:
            lp_calls += 1
            lp_ns += s.dur_ns
        elif s.name == "geometry.solve_square_exact":
            per_op_squares[s.op] += 1
    nonzero_exits = sum(1 for s in spans
                        if s.name == "cli.main" and not s.failed and s.note != 0)

    def per_op(kind):
        ops = [i for i, k in enumerate(tracer.op_kinds) if k == kind]
        return _ratio(sum(per_op_squares[i] for i in ops), len(ops))

    sec = 1e-9
    squares = count["geometry.solve_square_exact"]
    simplex_calls = sum(count[n] for n in SIMPLEX)
    m = {
        "rational_lp.square_solves": (squares, "count"),
        "rational_lp.square_s": (dur["geometry.solve_square_exact"] * sec, "s"),
        "rational_lp.vertex_yield": (_ratio(notes["geometry.enumerate_vertices"], squares), "1"),
        "rational_lp.square_solves_per_appendix_a": (per_op("appendix_a"), "count"),
        "rational_lp.square_solves_per_dump": (per_op("dump"), "count"),
        "rational_lp.simplex_calls": (simplex_calls, "count"),
        "rational_lp.simplex_s": (sum(dur[n] for n in SIMPLEX) * sec, "s"),
        "rational_lp.self_s": (self_ns["rational_lp"] * sec, "s"),
        "geometry.enum_calls": (count["geometry.enumerate_vertices"], "count"),
        "geometry.enum_s": (dur["geometry.enumerate_vertices"] * sec, "s"),
        "geometry.preimage_calls": (count["geometry.box_preimage"], "count"),
        "geometry.preimage_s": (dur["geometry.box_preimage"] * sec, "s"),
        "geometry.preimage_feasible_ratio": (
            _ratio(notes["geometry.box_preimage"], count["geometry.box_preimage"]), "1"),
        "geometry.self_s": (self_ns["geometry"] * sec, "s"),
        "strength.solves": (solves, "count"),
        "strength.failed_solves": (failed_solves, "count"),
        "strength.kelley_iters": (iters, "count"),
        "strength.iters_per_solve": (_ratio(iters, solves), "1"),
        "strength.master_lp_calls": (lp_calls, "count"),
        "strength.master_lp_s": (lp_ns * sec, "s"),
        "strength.self_s": (self_ns["strength"] * sec, "s"),
        "strength.grid_scans": (count["strength._global_grid_scan"], "count"),
        "strength.grid_s": (dur["strength._global_grid_scan"] * sec, "s"),
        "strength.family_calls": (count["strength.optimal_family"], "count"),
        "strength.family_s": (dur["strength.optimal_family"] * sec, "s"),
        "channels.scalar_calls": (count["channels._capacity_pq"], "count"),
        "channels.gradient_calls": (count["channels.capacity_gradient"], "count"),
        "channels.array_calls": (count["channels.capacity_array"], "count"),
        "channels.array_elems": (notes["channels.capacity_array"], "count"),
        "channels.oracle_calls": (count["channels.capacity_oracle"], "count"),
        "channels.oracle_s": (dur["channels.capacity_oracle"] * sec, "s"),
        "channels.self_s": (self_ns["channels"] * sec, "s"),
        "boxes.calls": (sum(c for n, c in count.items()
                            if tracer.layer_of.get(n) == "boxes"), "count"),
        "boxes.self_s": (self_ns["boxes"] * sec, "s"),
        "monogamy.calls": (sum(c for n, c in count.items()
                               if tracer.layer_of.get(n) == "monogamy"), "count"),
        "monogamy.self_s": (self_ns["monogamy"] * sec, "s"),
        "cli.calls": (count["cli.main"], "count"),
        "cli.self_s": (self_ns["cli"] * sec, "s"),
        "cli.nonzero_exits": (nonzero_exits, "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
