#!/usr/bin/env bash
# Byte-compare the CLI, the demos and the full-precision grid oracle of two
# source trees.
#
#   scripts/compare_cli.sh PARENT_DIR CHANGE_DIR
#
# Runs the same command list in each tree (PYTHONPATH=<tree>/src, working
# directory <tree>) and records, per command, its stdout, stderr, exit code
# and any --out file under OUT/parent and OUT/change.  OUT is a fresh
# temporary directory, printed at the end.  The two trees run side by side,
# one process each; the commands within a tree run one after another.
# Exit status: 0 when every recorded byte matches, 1 on any difference
# (shown by diff -r), 2 on bad arguments.
set -u

if [ $# -ne 2 ] || [ ! -d "$1/src/signalcap" ] || [ ! -d "$2/src/signalcap" ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR (each a checkout with src/signalcap)" >&2
    exit 2
fi
OUT=$(mktemp -d "${TMPDIR:-/tmp}/compare_cli.XXXXXX")

# name|arguments; @OUT@ becomes the path of the command's --out file
COMMANDS=(
    "curve_m2_step0.5|-m signalcap.cli curve --m 2 --step 0.5"
    "curve_m2_step0.1|-m signalcap.cli curve --m 2 --step 0.1"
    "curve_m3_step0.1|-m signalcap.cli curve --m 3 --step 0.1"
    # known failures: a master-LP iterate leaves the entropy domain (exit 2)
    "curve_m2_step0.01|-m signalcap.cli curve --m 2 --step 0.01"
    "curve_m3_step0.02|-m signalcap.cli curve --m 3 --step 0.02"
    "verify_appendix-a|-m signalcap.cli verify appendix-a"
    "verify_appendix-b|-m signalcap.cli verify appendix-b"
    "verify_minimal-set|-m signalcap.cli verify minimal-set"
)
# every seed the crosscheck workload draws; seed 8 is a known failure (exit 1)
for seed in $(seq 0 18); do
    COMMANDS+=("verify_properties_seed${seed}|-m signalcap.cli verify properties --seed $seed")
done
for m in 2 3; do
    for d in 0 1 2; do
        COMMANDS+=("dump_m${m}_delta${d}_vertices|-m signalcap.cli dump-polytope --m $m --delta $d --vertices")
    done
done
for d in 0 1 2; do
    COMMANDS+=("dump_m4_delta${d}|-m signalcap.cli dump-polytope --m 4 --delta $d")
done
COMMANDS+=(
    "check_box_reference|-m signalcap.cli check-box data/reference_box_delta2.json --out @OUT@"
    "check_box_reference_relaxed|-m signalcap.cli check-box data/reference_box_delta2.json --relaxed --out @OUT@"
    "check_box_uniform|-m signalcap.cli check-box data/uniform_box.json"
)
for demo in "$1"/demos/*.py; do
    name=$(basename "$demo" .py)
    COMMANDS+=("demo_$name|demos/$name.py")
done
# the grid oracle at full precision (demo 03 prints 6 decimals only), also
# at steps 0.04 and 2/45, whose n moves the scan's block partition, the
# global scan at odd n (its lattice centre is no grid point), the oracle at
# step 0.01, and at step 0.05 on the step-0.01 lattice and at 50 seeded
# deltas the global scan and the local refine around each of the oracle's
# two seeds (the scan point and the optimal family's witness), from a script
# in OUT so that both trees run the same file; the refine takes one centre
# or a stack of them, told apart by its first parameter's name
cat >"$OUT/oracle_bits.py" <<'EOF'
import inspect

import numpy as np

from signalcap import geometry, strength

if "centers" in inspect.signature(strength._grid_refine).parameters:
    refine = strength._grid_refine
else:
    def refine(centers, rows, step):
        return [strength._grid_refine(c, rows, step) for c in centers]

for k in range(21):
    print(repr(strength.grid_oracle(k / 10)))
for step in (0.04, 2 / 45):
    for k in range(21):
        print(step, k / 10, repr(strength.grid_oracle(k / 10, step)))
for n in (5, 21, 45):
    for d in (0.3, 1.0, 2.0):
        value, point = strength._global_grid_scan(d, 2 / n)
        print(n, d, repr(value), repr(point.tolist()))
for d in (0.4, 1.0, 1.7):
    print(d, repr(strength.grid_oracle(d, step=0.01)))
for d in [round(k * 0.01, 10) for k in range(201)] + np.random.default_rng(25).uniform(0, 2, 50).tolist():
    value, point = strength._global_grid_scan(d, 0.05)
    print(repr(d), repr(value), repr(point.tolist()))
    seeds = [point, strength.optimal_family(d).witness.as_array()]
    for value, best in refine(seeds, geometry.q_delta_float(2, d), 0.05):
        print(repr(d), repr(value), repr(None if best is None else best.tolist()))
EOF
COMMANDS+=("oracle_bits|$OUT/oracle_bits.py")
# the Kelley solver at full precision (the curve CSV prints 6 decimals only):
# value, witness, gap and iterations, or the error, of every solve on the
# m = 2 step-0.01 and m = 3 step-0.02 lattices, of relaxed m = 2 on the
# step-0.01 lattice and at five deltas, and of m = 4 at delta 0, 0.5, 1 and 2,
# all at tol 1e-4; then of m = 2 at tol 1e-7 on the 0.1 grid and of relaxed
# m = 2 at tol 1e-6 on the 0.05 grid.  Only the public entry points are
# called, so the same file runs on both trees
cat >"$OUT/solver_bits.py" <<'EOF'
from signalcap import strength


def show(m, delta, relaxed=False, tol=1e-4):
    try:
        if relaxed:
            r = strength.c_delta(delta, tol, relaxed=True)
        else:
            r = strength.chained_polytope_bound(m, delta, tol)
        print(m, delta, relaxed, tol, repr(r.value), repr(r.witness.values.tolist()),
              repr(r.gap), r.iterations)
    except Exception as err:
        print(m, delta, relaxed, tol, type(err).__name__, err)


for k in range(201):
    show(2, round(k * 0.01, 10))
for k in range(101):
    show(3, round(k * 0.02, 10))
for k in range(201):
    show(2, round(k * 0.01, 10), relaxed=True)
for delta in (0.2, 0.6, 1.0, 1.4, 2.0):
    show(2, delta, relaxed=True)
for delta in (0.0, 0.5, 1.0, 2.0):
    show(4, delta)
for k in range(21):
    show(2, round(k * 0.1, 10), tol=1e-7)
for k in range(41):
    show(2, round(k * 0.05, 10), relaxed=True, tol=1e-6)
EOF
COMMANDS+=("solver_bits|$OUT/solver_bits.py")
# the scalar closed form at full precision: the value and the tangent of
# 20 000 seeded pairs and of the edges (p = q, p or q in {0, 1}, gaps of 1e-13
# and around EPS_CAP, the solver's nudged and just-past-1 arguments), each
# value or error; capacity_gradient reads a BinaryChannel, which rejects a
# probability outside [0, 1]
cat >"$OUT/capacity_bits.py" <<'EOF'
import numpy as np

from signalcap import channels

rng = np.random.default_rng(23)
pairs = rng.uniform(0.0, 1.0, (20000, 2)).tolist()
special = [0.0, 1.0, 0.5, 0.3, 1e-300, 1.0 - 1e-16, (2.0 - 2e-9) / 2.0, 2e-9 / 2.0,
           1.0000000013923993, 1.0000000014626873]
pairs += [(p, q) for p in special for q in special]
for p in (0.0, 0.3, 0.5, 0.7, 1.0):
    for gap in (1e-13, 0.999e-12, 1e-12, 1.001e-12, 1e-9):
        pairs += [(p, p + gap), (p, p - gap), (p + gap, p), (p - gap, p)]


def show(f, *args):
    try:
        return repr(f(*args))
    except Exception as err:
        return f"{type(err).__name__} {err}"


for p, q in pairs:
    print(repr(p), repr(q), show(channels._capacity_pq, p, q),
          show(lambda: channels.capacity_gradient(channels.BinaryChannel(p, q))))
EOF
COMMANDS+=("capacity_bits|$OUT/capacity_bits.py")
# the one-channel bisection oracle at full precision: the value of 5 000
# seeded pairs, of every pair of edges (0, 1, 1e-300, 5e-324, 1 - 1e-16), of
# p = q and of 20 gaps per decade from 1e-12 to 1 in both orders, each value
# or error; then, at budgets of 0, 1, 2 and 10 steps and tol 1e-12, the
# outcome (value, or NoConvergence iters and best) of the first 500 seeded
# pairs and the edge pairs
cat >"$OUT/oracle1_bits.py" <<'EOF'
import numpy as np

from signalcap import channels

rng = np.random.default_rng(29)
pairs = rng.uniform(0.0, 1.0, (5000, 2)).tolist()
edges = [0.0, 1.0, 1e-300, 5e-324, 1.0 - 1e-16]
pairs += [(p, q) for p in edges for q in edges]
pairs += [(p, p) for p in edges + rng.uniform(0.0, 1.0, 20).tolist()]
gaps = 10.0 ** (np.repeat(np.arange(-12, 0), 20) + rng.uniform(0, 1, 240))
low = rng.uniform(0, 1, 240) * (1.0 - gaps)
pairs += list(zip(low.tolist(), (low + gaps).tolist())) + list(zip((low + gaps).tolist(), low.tolist()))


def show(p, q, *budget):
    try:
        return repr(channels.capacity_oracle(channels.BinaryChannel(p, q), *budget))
    except channels.NoConvergence as err:
        return (f"NoConvergence {err.iters} {type(err.best).__name__} {err.best.shape} "
                f"{float(err.best).hex()} {err}")
    except Exception as err:
        return f"{type(err).__name__} {err}"


for p, q in pairs:
    print(repr(p), repr(q), show(p, q))
for iters in (0, 1, 2, 10):
    for p, q in pairs[:500] + pairs[5000:5025]:
        print(iters, repr(p), repr(q), show(p, q, iters, 1e-12))
EOF
COMMANDS+=("oracle1_bits|$OUT/oracle1_bits.py")
# the optimal family at full precision on the step-0.01 lattice
cat >"$OUT/family_bits.py" <<'EOF'
from signalcap import strength

for k in range(201):
    delta = round(k * 0.01, 10)
    try:
        fam = strength.optimal_family(delta)
        print(delta, repr(fam.x_star), repr(fam.value), repr(fam.witness.values.tolist()))
    except Exception as err:
        print(delta, type(err).__name__, err)
EOF
COMMANDS+=("family_bits|$OUT/family_bits.py")
# the minimal-set count of every size up to one past 2m
cat >"$OUT/minimal_set_counts.py" <<'EOF'
from signalcap import monogamy

for m in (2, 3, 4):
    for size in range(2 * m + 2):
        print(m, size, monogamy.verify_minimal_set(m, size))
EOF
COMMANDS+=("minimal_set_counts|$OUT/minimal_set_counts.py")
# the monogamy sampler's two maxima at full precision (verify properties
# prints 9 decimals of the LHS and 1 digit of the spread), for every seed the
# crosscheck workload draws, at n = one box, one short of a block, one over a
# block and the 10 000 boxes verify properties draws
cat >"$OUT/sampler_bits.py" <<'EOF'
import numpy as np

from signalcap import cli

for seed in range(19):
    for n in (1, 999, 1001, 10_000):
        worst, worst_marginal = cli.sample_monogamy(np.random.default_rng(seed), n)
        print(seed, n, worst.hex(), worst_marginal.hex())
EOF
COMMANDS+=("sampler_bits|$OUT/sampler_bits.py")

run_tree() {   # run_tree TREE DEST
    local tree dest entry name args
    tree=$(cd "$1" && pwd)
    dest=$2
    mkdir -p "$dest"
    for entry in "${COMMANDS[@]}"; do
        name=${entry%%|*}
        args=${entry#*|}
        args=${args//@OUT@/$dest/$name.out.json}
        # word splitting of $args is intended: no argument contains a space
        (cd "$tree" && PYTHONPATH="$tree/src" python3 $args \
            >"$dest/$name.stdout" 2>"$dest/$name.stderr")
        echo $? >"$dest/$name.code"
    done
}

run_tree "$1" "$OUT/parent" &
parent_pid=$!
run_tree "$2" "$OUT/change" &
change_pid=$!
wait "$parent_pid"
wait "$change_pid"

if diff -r "$OUT/parent" "$OUT/change"; then
    echo "compare_cli: ${#COMMANDS[@]} commands identical (outputs in $OUT)"
else
    echo "compare_cli: outputs differ (outputs in $OUT)" >&2
    exit 1
fi
