#!/usr/bin/env python3
"""Regenerate the grid-oracle golden values in tests/golden/.

The committed numbers are produced by the brute-force grid search, not by
the cutting-plane solver, so the solver can be certified against them.  The
search's refine around the optimal family's witness sets its value, so at
m = 2 the numbers are not independent of the family.  Rerun after any change
to the oracle and commit the diff consciously.
"""
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from signalcap import strength  # noqa: E402

STEP = 0.01

def main():
    values = {}
    for k in range(21):
        delta = round(0.1 * k, 10)
        t0 = time.time()
        val = strength.grid_oracle(delta, step=STEP)
        values[f"{delta:.1f}"] = round(val, 9)
        print(f"delta={delta:.1f}  c={val:.7f}  ({time.time()-t0:.1f}s)", flush=True)
    out = {
        "method": "grid_oracle",
        "step": STEP,
        "refine_to": strength.REFINE_TO,
        "values": values,
    }
    dest = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden" / "c_delta_m2.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {dest}")

if __name__ == "__main__":
    main()
