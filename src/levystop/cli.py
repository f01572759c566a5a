"""Command-line front end: JSON problem specs in, JSON/CSV results out.

Commands: inspect, threshold, value, sweep, scale-fn, simulate.  Outputs
are deterministic given the seed and carry no timestamps, so identical
invocations produce byte-identical files.  Exit codes: 0 success, 1 input
error (out of memory included), 2 assumption violation, 3 numerical failure
(a characteristic root that cannot be bracketed in floating point, or fails
its residual check).
Each command imports only what it evaluates: ``inspect`` and ``threshold``
solve scalar roots and never load numpy; ``value`` and ``scale-fn`` load
it; ``sweep`` and ``simulate`` also load the Monte Carlo module ``mc``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from typing import (TYPE_CHECKING, IO, ContextManager, List, Optional,
                    Sequence)

from .engine import threshold, value_function
from .models import (AssumptionError, LevyModel, ProblemSpec,
                     assumption_report, has_phi, model_from_dict, phi, psi1,
                     spec_from_dict)
from .roots import real_roots

if TYPE_CHECKING:
    import numpy as np
    from .mc import SimConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means assumption violation here.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: input error: {message}\n")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_spec(path: str) -> ProblemSpec:
    return spec_from_dict(_load_json(path))


def _load_model(path: str) -> LevyModel:
    doc = _load_json(path)
    if isinstance(doc, dict) and "model" in doc:
        doc = doc["model"]
    return model_from_dict(doc)


def finite_float(text: str) -> float:
    """argparse type for numeric flags: NaN and infinities are input errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got "
                                         f"{text!r}")
    return value


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like 'a:b:n', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid ends must be finite, got {text!r}")
    n = int(parts[2])
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if not hi > lo:
        raise ValueError("grid upper end must exceed the lower end")
    import numpy as np
    return np.linspace(lo, hi, n)


def _output(out: Optional[str]) -> ContextManager[IO[str]]:
    """Standard output, or the file ``out`` opened for writing."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def _emit_json(doc: dict, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]],
              out: Optional[str]) -> None:
    with _output(out) as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell)
                             for cell in row])


def _sim_config(args: argparse.Namespace) -> SimConfig:
    from .mc import SimConfig
    return SimConfig(n_paths=args.paths, horizon=args.horizon,
                     seed=args.seed)


def _mc_dict(est) -> dict:
    return {"mean": est.mean, "std_error": est.std_error,
            "n_paths": est.n_effective,
            "truncated_fraction": est.truncation_fraction}


def cmd_inspect(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    model = spec.model
    report = assumption_report(model, spec.r)
    doc = {
        "family": model.family,
        "psi1": psi1(model),
        "phi_r": phi(model, spec.r) if has_phi(model) else None,
        "roots": list(real_roots(model, spec.r)) if model.poles else None,
        "assumptions": {
            "finite_mean": report.finite_mean,
            "discounting": report.discounting,
            "class_d": report.class_d,
            "note": report.note,
        },
    }
    _emit_json(doc, args.out)
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _emit_json(threshold(spec).to_json_dict(), args.out)
    return 0


def cmd_value(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    grid = _parse_grid(args.grid)
    w = value_function(spec)(grid)
    _emit_csv(["v", "w"], list(zip(grid, w)), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .mc import sweep
    spec = _load_spec(args.spec)
    grid = _parse_grid(args.grid)
    result = sweep(spec, grid, _sim_config(args))
    rows = []
    for i, est in enumerate(result.estimates):
        rows.append([result.b_grid[i], est.mean, est.std_error,
                     est.n_effective, est.truncation_fraction,
                     str(int(i == result.argmax_index)),
                     str(int(bool(result.flat[i])))])
    _emit_csv(["b", "mean", "std_error", "n_paths", "truncated_fraction",
               "argmax", "flat"], rows, args.out)
    return 0


def cmd_scale_fn(args: argparse.Namespace) -> int:
    from .scale import ScaleFunction
    model = _load_model(args.spec)
    grid = _parse_grid(args.grid)
    if (grid < 0).any():
        raise ValueError("x grid must be nonnegative")
    sf = ScaleFunction(model, args.q, x_max=max(float(grid[-1]), 1.0))
    rows = zip(grid, sf.W(grid), sf.Wprime(grid), sf.Z(grid))
    _emit_csv(["x", "W", "Wprime", "Z"], list(rows), args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .mc import policy_value
    spec = _load_spec(args.spec)
    pv = policy_value(spec, args.b, _sim_config(args))
    doc = {
        "b": pv.b,
        "v": spec.v,
        "direct": _mc_dict(pv.direct),
        "stopped": _mc_dict(pv.stopped),
        "diff_mean": pv.diff_mean,
        "diff_se": pv.diff_se,
        "reconciled": pv.reconciled,
        "analytic_w": float(value_function(spec)(spec.v)),
    }
    _emit_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="levystop",
                     description="Optimal liquidation thresholds and value "
                                 "functions for exponential Levy prices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sim: bool = False) -> None:
        p.add_argument("--spec", required=True,
                       help="path to a JSON problem spec")
        p.add_argument("--out", default=None,
                       help="output file (default stdout)")
        if sim:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--paths", type=int, default=20000)
            p.add_argument("--horizon", type=finite_float, default=None)

    p = sub.add_parser("inspect", help="exponent, roots, assumption report")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("threshold", help="optimal threshold as JSON")
    common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("value", help="value function on a v grid as CSV")
    common(p)
    p.add_argument("--grid", required=True, help="v grid as 'a:b:n'")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("sweep", help="MC policy-value sweep over b as CSV")
    common(p, sim=True)
    p.add_argument("--grid", required=True, help="b grid as 'a:b:n'")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("scale-fn", help="tabulate W, W', Z as CSV")
    common(p)
    p.add_argument("--q", type=finite_float, required=True,
                   help="transform argument q > 0")
    p.add_argument("--grid", required=True, help="x grid as 'a:b:n'")
    p.set_defaults(func=cmd_scale_fn)

    p = sub.add_parser("simulate", help="MC policy value at one b as JSON")
    common(p, sim=True)
    p.add_argument("--b", type=finite_float, required=True,
                   help="stopping level for the policy")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a grid or path count beyond the host
        print(f"input error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
