#!/usr/bin/env python3
"""Run the MC gate criteria AC-2, AC-3, AC-4, AC-8 and AC-9 over many seeds.

Not part of the release gate.  The criteria are the gate's own functions,
imported from tests/test_acceptance.py, so a calibration run tests exactly
what the gate tests, with the gate's specs and budgets.  Each run repeats
one criterion; run s gives its i-th simulation the seed 10 s + i, so run 2
is the committed AC-2, run 3 the committed AC-3 and run 6 the committed
AC-9, and no two runs share a stream.  AC-4, like the gate, gives all five
families the seed 10 s, so run 4 is the committed AC-4; AC-8 has one
simulation, so run 5 is the committed AC-8.  The committed run comes
first, then the calibration runs.
For each statistic the script prints its mean, SD and worst value over the
calibration runs, and the share of runs that fail the gate's test:

* AC-2, per family: the paired deficit of B_c to the argmax in standard
  errors (the plateau must contain B_c) and the plateau width in grid
  points;
* AC-3, per start point: z of the direct and the stopped form against the
  closed form (|z| < 3) and whether the two forms reconcile;
* AC-4, per family: the largest |z| of the closed-form L and G against
  ``hitting_estimates`` over the five gate levels (|z| < 3);
* AC-8: the log-log slope of the class-D ladder (-1 +- 0.15) and whether
  its means fall monotonically;
* AC-9: z of the mean capped passage time at eps = 1e-4 against B_c, after
  the quadrature offset (|z| < 3), and for reference the same z without
  it, which the gate prints but does not test.

The last line of each criterion gives the share of runs in which any
tested statistic fails, which is the gate's false-failure rate.  Like the
tests, the script needs scipy (for the AC-9 quadrature); it finds the tests
next to itself, from any working directory.

Runs 1001-1200, one thread on a shared 2-vCPU host.  "Independent" is the
false-failure rate the criterion's k-SE tests would give if its tested
statistics were independent standard normals:

    criterion  tested statistics                  observed     independent
    AC-2       3 deficits of B_c, one-sided 1 SE  0/200 (0%)   40.4%
    AC-3       6 |z| < 3, 3 reconciliations 4 SE  6/200 (3.0%)  1.6%
    AC-4       50 |z| < 3                         11/200 (5.5%) 12.6%
    AC-9       1 |z| < 3                          0/200 (0%)    0.27%

AC-2's deficit is no normal z: B_c was the argmax of every family in every
run, so the deficit was exactly 0.  AC-3's six failures are all of the
heavy-tailed direct form (2, 3 and 1 at v = 1.2, 2 and 5 B_c), one with a
failed reconciliation.  AC-4's 50 statistics are correlated (10 per path
set), so its rate lies below the independent one.  The committed runs
print the gate's own margins: AC-3 max |z| 2.114, AC-4 1.988, AC-9 z
+2.000, and AC-2 plateaus of 1, 1 and 9 points around B_c.

Example:
    PYTHONPATH=src python3 scripts/gate_calibration.py --criteria ac3 \\
        --first-seed 1001 --seeds 100
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from test_acceptance import COMMITTED, ac2, ac3, ac4, ac8, ac9  # noqa: E402

CRITERIA = {"ac2": ac2, "ac3": ac3, "ac4": ac4, "ac8": ac8, "ac9": ac9}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--criteria", default="ac2,ac3,ac4,ac8,ac9",
                        help="comma-separated subset of ac2,ac3,ac4,ac8,ac9")
    parser.add_argument("--first-seed", type=int, default=1001,
                        help="first calibration run")
    parser.add_argument("--seeds", type=int, default=20,
                        help="number of calibration runs (0: committed only)")
    args = parser.parse_args(argv)
    names = args.criteria.split(",")
    if any(name not in CRITERIA for name in names):
        parser.error(f"--criteria must name some of {sorted(CRITERIA)}")
    if args.seeds < 0:
        parser.error("--seeds must be nonnegative")

    for name in names:
        t0 = time.perf_counter()
        committed = CRITERIA[name](COMMITTED[name])
        print(f"{name.upper()} committed run {COMMITTED[name]} "
              f"({time.perf_counter() - t0:.1f} s):")
        for stat, (value, failed) in committed.items():
            print(f"  {stat:28s} {value:+9.3f}"
                  f"{'  FAIL' if failed else ''}")
        if not args.seeds:
            continue
        runs = range(args.first_seed, args.first_seed + args.seeds)
        t0 = time.perf_counter()
        rows = [CRITERIA[name](run) for run in runs]
        print(f"{name.upper()} runs {runs.start}-{runs.stop - 1} "
              f"({(time.perf_counter() - t0) / len(rows):.1f} s per run):")
        print(f"  {'statistic':28s} {'mean':>9} {'sd':>9} {'worst':>9} "
              f"{'at run':>7}  fails")
        for stat in rows[0]:
            values = np.array([row[stat][0] for row in rows])
            tested = rows[0][stat][1] is not None
            fails = (f"{sum(row[stat][1] for row in rows)}/{len(rows)}"
                     if tested else "-")
            worst = int(np.argmax(np.abs(values)))
            sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
            print(f"  {stat:28s} {np.mean(values):+9.3f} {sd:9.3f} "
                  f"{values[worst]:+9.3f} {runs[worst]:7d}  {fails}")
        failed = sum(any(f for _, f in row.values()) for row in rows)
        print(f"  {'criterion fails':28s} {failed}/{len(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
