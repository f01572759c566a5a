#!/usr/bin/env python3
"""Sweep the stop-at-b policy value around the closed-form threshold.

Runs the common-random-numbers sweep on a geometric b grid spanning
[B_c/span, span*B_c] and prints one row per level with the paired +-1 SE
plateau marked.  A healthy configuration shows the plateau sitting on top
of the analytic B_c.

Example:
    python3 scripts/optimality_sweep.py --spec problem.json --paths 100000
"""

import argparse
import json
import math
import sys

import numpy as np

from levystop.engine import threshold
from levystop.mc import SimConfig, sweep
from levystop.models import spec_from_dict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="problem JSON file")
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--span", type=float, default=3.0,
                        help="grid covers [B_c/span, span*B_c]")
    parser.add_argument("--points", type=int, default=21)
    args = parser.parse_args(argv)

    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh))
    result = threshold(spec)
    b_c = result.b_c
    if args.span <= 1.0:
        parser.error("--span must exceed 1")
    grid = np.exp(np.linspace(math.log(b_c / args.span),
                              math.log(args.span * b_c), args.points))
    if grid[-1] >= spec.v:
        print(f"note: grid top {grid[-1]:.4g} >= v = {spec.v:.4g}; "
              "those rows are exactly zero", file=sys.stderr)

    out = sweep(spec, grid, SimConfig(n_paths=args.paths,
                                      horizon=args.horizon, seed=args.seed))
    print(f"B_c = {b_c:.6g} ({result.regime}), v = {spec.v:.6g}, "
          f"{args.paths} paths")
    print(f"{'b':>12} {'mean':>14} {'se':>10}  flags")
    for i, est in enumerate(out.estimates):
        flags = "".join(["*" if i == out.argmax_index else " ",
                         "=" if out.flat[i] else " "])
        print(f"{grid[i]:12.6g} {est.mean:14.8g} {est.std_error:10.3g}  "
              f"{flags}")
    lo, hi = out.flat_interval()
    # the geometric grid reproduces B_c only up to rounding when it lands on
    # a grid point, so containment gets the same relative slack
    slack = 1e-9 * b_c
    inside = lo - slack <= b_c <= hi + slack
    print(f"plateau [{lo:.6g}, {hi:.6g}] "
          f"{'contains' if inside else 'MISSES'} B_c")
    return 0 if inside else 1


if __name__ == "__main__":
    sys.exit(main())
