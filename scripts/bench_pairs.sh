#!/usr/bin/env bash
# Alternating-pair perfbench runs of two source trees.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS OUT.json
#
# Runs `python3 perfbench/run.py --workload WORKLOAD --seed S --seconds T
# --trace 0` once in each tree per pair, one process at a time.  Pair k
# (k = 0 .. PAIRS-1) uses seed 1000 + k in both trees; the parent runs first
# in even pairs and the change runs first in odd ones.  T is run_seconds from
# the BENCHMARK.json next to this script.  OUT.json receives every run's
# metrics and wall-clock seconds and, per end-to-end metric, each side's
# median and quartiles and the number of pairs the change wins (ties count
# for neither side).  The wall time is reported, with each side's median,
# because perfbench counts only op time against T: a faster op fits more ops,
# and so more answer checks, into a run, and the run takes longer.
# Exit status: 0 when every run finished, 1 when a run failed (its output is
# kept in the temporary directory named), 2 on bad arguments.
set -u

if [ $# -ne 5 ] || [ ! -f "$1/perfbench/run.py" ] || [ ! -f "$2/perfbench/run.py" ] \
        || ! [ "$4" -ge 2 ] 2>/dev/null; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS OUT.json (PAIRS >= 2)" >&2
    exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
PAIRS=$4
OUT=$5
BENCHMARK=$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json
SECONDS_PER_RUN=$(python3 -c "import json, sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$BENCHMARK")
RUNS=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")

run_side() {   # run_side SIDE TREE SEED PAIR
    local start=$EPOCHREALTIME
    echo "pair $4 seed $3: $1" >&2
    (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$3" \
        --seconds "$SECONDS_PER_RUN" --trace 0) >"$RUNS/$4-$1.out" 2>"$RUNS/$4-$1.err" \
        || { echo "bench_pairs: $1 run of pair $4 failed, see $RUNS/$4-$1.err" >&2; exit 1; }
    echo "$start $EPOCHREALTIME" >"$RUNS/$4-$1.wall"
}

for ((k = 0; k < PAIRS; k++)); do
    seed=$((1000 + k))
    if ((k % 2 == 0)); then
        run_side parent "$PARENT" "$seed" "$k"
        run_side change "$CHANGE" "$seed" "$k"
    else
        run_side change "$CHANGE" "$seed" "$k"
        run_side parent "$PARENT" "$seed" "$k"
    fi
done

python3 - "$RUNS" "$BENCHMARK" "$WORKLOAD" "$PAIRS" "$SECONDS_PER_RUN" "$OUT" <<'EOF'
import json
import statistics
import sys

runs_dir, benchmark, workload, pairs, seconds, out = sys.argv[1:]
pairs = int(pairs)
metrics = json.load(open(benchmark))["end_to_end"]


def result(k, side):
    with open(f"{runs_dir}/{k}-{side}.out") as fh:
        return json.loads(fh.read().strip().splitlines()[-1])


def wall_s(k, side):
    with open(f"{runs_dir}/{k}-{side}.wall") as fh:
        start, end = map(float, fh.read().split())
    return end - start


runs = []
for k in range(pairs):
    runs.append({"pair": k, "seed": 1000 + k, "first": "parent" if k % 2 == 0 else "change",
                 "parent": result(k, "parent"), "change": result(k, "change"),
                 "wall_s": {s: wall_s(k, s) for s in ("parent", "change")}})


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


summary = {}
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    side = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in ("parent", "change")}
    wins = sum((c > p) if higher else (c < p) for p, c in zip(side["parent"], side["change"]))
    ties = sum(c == p for p, c in zip(side["parent"], side["change"]))
    summary[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "parent": spread(side["parent"]),
                     "change": spread(side["change"]), "change_wins": wins, "ties": ties,
                     "pairs": pairs}
for key in ("attempted", "failed"):
    summary[key] = {s: sum(r[s][key] for r in runs) for s in ("parent", "change")}
summary["correct"] = all(r[s]["correct"] for r in runs for s in ("parent", "change"))
summary["wall_s"] = {s: spread([r["wall_s"][s] for r in runs]) for s in ("parent", "change")}

doc = {"workload": workload, "pairs": pairs, "seconds": float(seconds),
       "seeds": [r["seed"] for r in runs], "summary": summary, "runs": runs}
with open(out, "w") as fh:
    json.dump(doc, fh, indent=1)
    fh.write("\n")
for name, s in summary.items():
    if isinstance(s, dict) and "change_wins" in s:
        print(f"{workload} {name}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}], "
              f"change wins {s['change_wins']}/{pairs}")
wall = summary["wall_s"]
print(f"{workload} wall_s: parent median {wall['parent']['median']:.1f}, "
      f"change median {wall['change']['median']:.1f}")
print(f"{workload} failed: {summary['failed']}, correct: {summary['correct']}")
EOF
status=$?
if [ $status -eq 0 ]; then
    rm -rf "$RUNS"
else
    echo "bench_pairs: run outputs kept in $RUNS" >&2
fi
exit $status
