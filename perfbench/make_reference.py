"""Regenerate the crosscheck reference answers in reference/kernel_dims.json.

For every cell the crosscheck workload can draw -- coprime p < q <= 7,
symmetry classes 1..6 -- both routes are run to degree 6: the complex-route
survival analysis and the real-coordinate nullspace oracle.  A cell is kept
only where the two routes agree on every degree 2..6; disagreeing cells are
listed on stderr and left out, so the benchmark never draws them.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from revequiv.normalform import (  # noqa: E402
    ResonanceSpec,
    brute_force_kernel,
    survival_analysis,
)

MAX_Q = 7
DEGREE = 6
CLASSES = range(1, 7)
OUT = os.path.join(HERE, "reference", "kernel_dims.json")


def resonances():
    return [
        (p, q) for q in range(2, MAX_Q + 1) for p in range(1, q) if gcd(p, q) == 1
    ]


def main() -> int:
    cells = {}
    disagreements = 0
    for p, q in resonances():
        spec = ResonanceSpec(p, q)
        for j in CLASSES:
            survival = survival_analysis(spec, j, DEGREE)
            oracle = brute_force_kernel(spec, j, DEGREE)
            dims = {str(d): oracle.dimensions[d] for d in range(2, DEGREE + 1)}
            complex_dims = {
                str(d): survival.parameter_count(exact_degree=d)
                for d in range(2, DEGREE + 1)
            }
            if dims != complex_dims:
                disagreements += 1
                print(f"{p}:{q} class {j}: routes disagree, cell left out "
                      f"(oracle {dims}, survival {complex_dims})", file=sys.stderr)
                continue
            cells.setdefault(f"{p}:{q}", {})[str(j)] = dims
            print(f"{p}:{q} class {j}: {dims}", file=sys.stderr, flush=True)
    with open(OUT, "w") as fh:
        json.dump({"degree": DEGREE, "cells": cells}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT}: {sum(map(len, cells.values()))} cells, "
          f"{disagreements} left out", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
