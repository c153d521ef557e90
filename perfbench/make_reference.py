"""Rebuild reference_slices.json, the expected dimensions for slices-l3.

slices-l3 solves its slices at their default tier (the Gram inertia count);
this script solves the same slices with method="dense", a stacked SVD, so
the benchmark checks one algorithm against another rather than against a
copy of its own output.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The 5000-entry slice needs a 30000 x 5000 constraint stack: about two
minutes and 3 GB on a 2-core machine.
"""

import json
import os
import sys
import time

from child import SLICE_ALGEBRA, SLICE_GROUP, SLICES

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_slices.json")


def main():
    from gaeq.solver import GradeSlice, solve_multilinear_dim

    rows = []
    for inputs, output in SLICES:
        start = time.perf_counter()
        dim = solve_multilinear_dim(
            SLICE_ALGEBRA, SLICE_GROUP, GradeSlice(inputs, output), method="dense"
        )
        print(f"{inputs}->{output}: {dim} ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
        rows.append({"inputs": list(inputs), "output": output, "nullspace_dim": dim})
    head = {"algebra": SLICE_ALGEBRA, "group": SLICE_GROUP, "method": "dense"}
    with open(OUT, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "slices": [\n')
        fh.write(",\n".join("  " + json.dumps(r) for r in rows))
        fh.write("\n]}\n")


if __name__ == "__main__":
    main()
