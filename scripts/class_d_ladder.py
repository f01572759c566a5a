#!/usr/bin/env python3
"""Estimate the uniform-integrability ladder E[e^{-rR_n + X_{R_n}}].

R_n is the first time the discounted price reaches n; the expectation must
fall to zero along n = 2, 4, 8, ... for the stopping problem to be well
posed.  For a Brownian model with unit volatility the decay rate is
n^(1-2r), so r = 1 should print a log-log slope near -1.

Example:
    python3 scripts/class_d_ladder.py --spec problem.json --max-n 256
"""

import argparse
import json
import sys

from levystop.mc import SimConfig, class_d_diagnostic
from levystop.models import model_from_dict, psi

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True,
                        help="problem JSON (or bare model document)")
    parser.add_argument("--r", type=float, default=None,
                        help="discount rate; defaults to the spec's r")
    parser.add_argument("--max-n", type=int, default=256)
    parser.add_argument("--paths", type=int, default=200000)
    parser.add_argument("--horizon", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = model_from_dict(doc["model"] if "model" in doc else doc)
    r = args.r if args.r is not None else float(doc.get("r", 0.0))
    if r <= 0:
        parser.error("need a positive r (from the spec file or --r)")

    ladder = [1]
    while 2 * ladder[-1] <= args.max_n:
        ladder.append(2 * ladder[-1])
    result = class_d_diagnostic(model, r, ladder,
                                SimConfig(n_paths=args.paths,
                                          horizon=args.horizon,
                                          seed=args.seed))
    print(f"{model.family}, r = {r:.6g}, psi(1) = {psi(model, 1.0):.6g}, "
          f"{args.paths} paths")
    print(f"{'n':>6} {'estimate':>12} {'se':>10}")
    for n, est in zip(result.n_values, result.estimates):
        print(f"{n:6d} {est.mean:12.6g} {est.std_error:10.3g}")
    try:
        print(f"log-log slope: {result.loglog_slope():.4f}")
    except ArithmeticError as exc:
        print(f"log-log slope: undefined ({exc})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
