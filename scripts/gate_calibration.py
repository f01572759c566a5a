#!/usr/bin/env python3
"""Run the MC gate criteria AC-2, AC-3, AC-4, AC-8 and AC-9 over many seeds.

Not part of the release gate.  Each run repeats one criterion of
tests/test_acceptance.py with the gate's specs and budgets; run s gives its
i-th simulation the seed 10 s + i, so run 2 is the committed AC-2, run 3
the committed AC-3 and run 6 the committed AC-9, and no two runs share a
stream.  AC-4, like the gate, gives all five families the seed 10 s, so
run 4 is the committed AC-4; AC-8 has one simulation, so run 5 is the
committed AC-8.  The committed run comes first, then the calibration runs.
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
  it, which the gate no longer tests.

The last line of each criterion gives the share of runs in which any
tested statistic fails, which is the gate's false-failure rate.  Like the
tests, the script needs scipy (for the AC-9 quadrature).

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
import math
import sys
import time

import numpy as np
from scipy.integrate import quad

from levystop import mc
from levystop.engine import threshold, value_function
from levystop.models import (BrownianDrift, ExpJD, KouJD, NegPoisson,
                             ProblemSpec, SpectNegKou)
from levystop.transforms import HittingTransforms

BM = BrownianDrift(m=0.0, sigma=1.0)
BM_SPEC = ProblemSpec(model=BM, r=1.0, alpha=1.0, c=1.0, v=1.0)
KOU_SPEC = ProblemSpec(model=KouJD(m=-0.2, sigma=0.3, a=0.5, p=0.4,
                                   eta1=3.0, eta2=2.0),
                       r=1.0, alpha=1.0, c=1.0, v=2.6)
NP_SPEC = ProblemSpec(model=NegPoisson(a=1.0), r=0.5, alpha=1.0, c=1.0,
                      v=3.2)
COMMITTED = {"ac2": 2, "ac3": 3, "ac4": 4, "ac8": 5, "ac9": 6}
AC4_LEVELS = [-0.15, -0.4, -0.8, -1.1, -1.5]
AC4_CASES = (  # family, model, r, paths, horizon
    ("brownian", BrownianDrift(m=-0.5, sigma=1.0), 2.0, 1000000, 6.0),
    ("neg_poisson", NegPoisson(a=1.5), 0.3, 1000000, 60.0),
    ("kou", KOU_SPEC.model, 1.0, 100000, 10.0),
    ("expjd", ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5), 2.0, 100000, 5.0),
    ("spectneg_kou", SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8), 2.0,
     100000, 5.0),
)


def ac2(run):
    """Per family: (deficit z at B_c, plateau width); fails off-plateau."""
    out = {}
    for i, (name, spec, horizon) in enumerate((
            ("brownian", BM_SPEC, 12.0), ("kou", KOU_SPEC, 12.0),
            ("neg_poisson", NP_SPEC, 40.0))):
        b_c = threshold(spec).b_c
        grid = np.exp(np.linspace(math.log(b_c / 3.0), math.log(3.0 * b_c),
                                  21))
        res = mc.sweep(spec, grid, mc.SimConfig(
            n_paths=100000, dt=1e-3, horizon=horizon, seed=10 * run + i))
        diff = res.values[res.argmax_index] - res.values[10]
        se = float(np.std(diff, ddof=1)) / math.sqrt(diff.size)
        lo, hi = res.flat_interval()
        ok = lo <= b_c * (1.0 + 1e-9) and hi >= b_c * (1.0 - 1e-9)
        out[f"{name} deficit z"] = (float(np.mean(diff)) / se
                                    if se > 0 else 0.0, not ok)
        out[f"{name} plateau points"] = (float(np.count_nonzero(res.flat)),
                                         not ok)
    return out


def ac3(run):
    """Per start point: z of each form; fails at |z| >= 3 or unreconciled."""
    out = {}
    b_c = threshold(BM_SPEC).b_c
    for i, mult in enumerate((1.2, 2.0, 5.0)):
        spec = ProblemSpec(model=BM, r=1.0, alpha=1.0, c=1.0, v=mult * b_c)
        pv = mc.policy_value(spec, b_c, mc.SimConfig(
            n_paths=100000, dt=2e-3, horizon=14.0, seed=10 * run + i))
        w = float(value_function(spec)(spec.v))
        for form, est in (("direct", pv.direct), ("stopped", pv.stopped)):
            z = (est.mean - w) / est.std_error
            out[f"v={mult:g} B_c {form} z"] = (z, abs(z) >= 3.0)
        out[f"v={mult:g} B_c unreconciled"] = (float(not pv.reconciled),
                                               not pv.reconciled)
    return out


def ac4(run):
    """Per family: largest |z| of L and G over the levels; fails at 3."""
    out = {}
    for name, model, r, n_paths, horizon in AC4_CASES:
        transforms = HittingTransforms(model, r)
        estimates = mc.hitting_estimates(model, r, AC4_LEVELS, mc.SimConfig(
            n_paths=n_paths, horizon=horizon, seed=10 * run))
        z = max(max(abs(est_l.mean - transforms.L(x)) / est_l.std_error,
                    abs(est_g.mean - transforms.G(x)) / est_g.std_error)
                for x, (est_l, est_g) in zip(AC4_LEVELS, estimates))
        out[f"{name} max |z|"] = (z, z >= 3.0)
    return out


def ac8(run):
    """Slope of the class-D ladder; fails off -1 +- 0.15 or non-monotone."""
    result = mc.class_d_diagnostic(
        BM, 1.0, [2, 4, 8, 16, 32, 64, 128, 256],
        mc.SimConfig(n_paths=4000000, dt=0.05, horizon=60.0, seed=10 * run))
    means = np.array([e.mean for e in result.estimates])
    mono = bool(np.all(np.diff(means) < 0))
    slope = result.loglog_slope()
    return {"log-log slope": (slope, not -1.15 <= slope <= -0.85),
            "monotone": (float(mono), not mono)}


def _capped_mean(b):
    """E[min(tau_b, 60)] for the driftless unit-volatility BM from 1."""
    return quad(lambda t: math.erf(abs(math.log(b)) / math.sqrt(2.0 * t)),
                0.0, 60.0, limit=200)[0]


def ac9(run):
    """z of the eps = 1e-4 mean passage time against B_c, with the offset."""
    result = threshold(BM_SPEC)
    cfg = dict(n_paths=100000, dt=1e-2, horizon=60.0)
    eps_run = mc.epsilon_stop_paths(BM_SPEC, result, [1e-1, 1e-2, 1e-3, 1e-4],
                                    mc.SimConfig(seed=10 * run, **cfg))
    mono = bool(np.all(np.diff(eps_run.tau, axis=0) >= 0.0))
    record = mc._simulate_levels(
        mc._Dynamics.from_model(BM), 1.0,
        [math.log(result.b_c / BM_SPEC.v)], 60.0,
        mc.SimConfig(seed=10 * run + 1, **cfg), want_integral=False)
    tau_bc = mc._estimate(record.tau[0], 0.0)
    tau_eps = eps_run.estimates[-1]
    se = math.hypot(tau_eps.std_error, tau_bc.std_error)
    raw = (tau_eps.mean - tau_bc.mean) / se
    offset = (_capped_mean(eps_run.boundaries[-1])
              - _capped_mean(result.b_c)) / se
    z = raw - offset
    return {"z": (z, abs(z) >= 3.0 or not mono),
            "z without offset": (raw, None)}


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
