#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of levystop.

    python3 perfbench/run.py --workload diffusive --seed 1 --seconds 30 --trace 0

One workload runs in this process on one thread, as a closed loop: every
call returns before the next is made.  A run repeats whole rounds, as many
as fit ``--seconds`` best.  Each round holds the same operations
(closed-form thresholds and value curves over fresh seeded specs, the
workload's MC estimates, and CLI processes), so the failed share is the
same in every run.  Every output is checked against an oracle that
shares no code with the package (see ``oracle.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
rounds with spans around each call into a layer, probes the layers one by
one, adds the MC dt ladder, and reports the per-layer metrics.  The last
stdout line is one JSON object; the same result, with machine details, is
written to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

import os
import sys

# One thread everywhere, set before numpy is imported; children inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "LEVYSTOP_THREADS"):
    os.environ[_var] = "1"
# Every process compiles levystop from source, in every run alike.
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

if not (SRC / "levystop" / "__init__.py").is_file():
    sys.exit(f"run.py: no levystop sources under {SRC}")
sys.path[:0] = [str(HERE), str(SRC)]
os.environ["PYTHONPATH"] = str(SRC)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from inputs import LEVELS, WORKLOADS, SpecStream  # noqa: E402

import levystop  # noqa: E402
from levystop import engine, mc, models, roots, scale, transforms  # noqa: E402

if not Path(levystop.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"run.py: levystop was imported from {levystop.__file__}, "
             f"not from {SRC}")

GRID_POINTS = 256
MC_DT = 4e-3
DT_LADDER = (4e-3, 2e-3, 1e-3)
SE_TARGET = 1e-3        # the stated accuracy of mc_*_tts_s
MC_Z_LIMIT = 4.0
SETUP_SAMPLES = 5
CLI_RUNS = 3            # per command and round; reruns must be byte-identical
CLI_IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60


def value_grid(b_c):
    return np.linspace(0.5 * b_c, 10.0 * b_c, GRID_POINTS)


class Tally:
    """Operations attempted and failed, and the checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()
        self.defects = Counter()

    def record(self, op, error=None, defects=()):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors[f"{op}: {type(error).__name__}: {error}"] += 1
        elif defects:
            self.failed += 1
            self.defects[f"{op}: {', '.join(defects)}"] += 1


class Tracer:
    """Spans kept in memory: name, start, end, parent span, request id."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.request = 0

    def begin(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, self.request,
                           True])
        self._open.append(idx)
        return idx

    def end(self, idx, ok=True):
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = ok
        self._open.pop()

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[5]]

    def span_cost(self, n=20000):
        """Seconds one begin/end pair adds, measured on a scratch tracer."""
        probe = Tracer()
        t0 = perf_counter()
        for _ in range(n):
            probe.end(probe.begin("calibrate"))
        return (perf_counter() - t0) / n

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        doc = {"names": names,
               "columns": ["name", "start_s", "end_s", "parent", "request",
                           "ok"],
               "spans": [[code[s[0]], s[1], s[2], s[3], s[4], s[5]]
                         for s in self.spans]}
        path.write_text(json.dumps(doc))


class Span:
    """``with Span(tracer, name):`` that costs nothing without a tracer."""

    __slots__ = ("tr", "name", "idx")

    def __init__(self, tr, name):
        self.tr = tr
        self.name = name

    def __enter__(self):
        if self.tr is not None:
            self.idx = self.tr.begin(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.tr is not None:
            self.tr.end(self.idx, ok=exc_type is None)
        return False


# --- closed form -----------------------------------------------------------

def timed_thresholds(docs, tr):
    """spec_from_dict + engine.threshold over ``docs``; (seconds, results)."""
    out = []
    t0 = perf_counter()
    if tr is None:
        for doc in docs:
            try:
                spec = models.spec_from_dict(doc)
                out.append((spec, engine.threshold(spec)))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
    else:
        for doc in docs:
            tr.request += 1
            try:
                with Span(tr, "models.spec_from_dict"):
                    spec = models.spec_from_dict(doc)
                with Span(tr, "engine.threshold"):
                    out.append((spec, engine.threshold(spec)))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
    return perf_counter() - t0, out


def timed_value_curves(pairs, tr):
    """value_function + a 256-point evaluation per (spec, result)."""
    out = []
    t0 = perf_counter()
    for pair in pairs:
        if isinstance(pair, Exception):
            out.append(pair)
            continue
        spec, result = pair
        try:
            if tr is None:
                grid = value_grid(result.b_c)
                out.append((grid, engine.value_function(spec, result)(grid)))
            else:
                tr.request += 1
                with Span(tr, "engine.value_curve"):
                    grid = value_grid(result.b_c)
                    out.append((grid,
                                engine.value_function(spec, result)(grid)))
        except Exception as exc:  # counted as a failed operation
            out.append(exc)
    return perf_counter() - t0, out


def check_closed_form(docs, thresholds, curves, tally):
    for doc, thr, curve in zip(docs, thresholds, curves):
        if isinstance(thr, Exception):
            tally.record("threshold", error=thr)
            tally.record("value_curve", error=thr)
            continue
        b_c = thr[1].b_c
        err = oracle.threshold_error(doc, b_c)
        tally.record("threshold", defects=(
            () if err <= oracle.THRESHOLD_RTOL
            else (f"rel err {err:.2e} vs polynomial roots",)))
        if isinstance(curve, Exception):
            tally.record("value_curve", error=curve)
        else:
            tally.record("value_curve", defects=oracle.value_curve_defects(
                doc, b_c, *curve))


def probe_layers(pairs, tr):
    """Time each layer a threshold or value curve uses, one call at a time."""
    for pair in pairs:
        if isinstance(pair, Exception):
            continue
        spec, result = pair
        model, r, family = spec.model, spec.r, spec.model.family
        tr.request += 1
        with Span(tr, "models.psi1"):
            models.psi1(model)
        if family in ("brownian", "spectneg_kou"):
            with Span(tr, "models.phi"):
                models.phi(model, r)
        if family in ("kou", "spectneg_kou"):
            with Span(tr, "roots.kou_roots"):
                roots.kou_roots(model, r)
        if family == "expjd":
            with Span(tr, "roots.emery_root"):
                roots.emery_root(model, r)
        with Span(tr, "transforms.build"):
            ht = transforms.HittingTransforms(model, r)
        x = np.log(np.minimum(result.b_c / value_grid(result.b_c), 1.0))
        with Span(tr, "transforms.eval"):
            ht.L(x)
            ht.G(x)
        if family == "spectneg_kou":
            # the table size HittingTransforms builds for this model
            x_max = min(12.0, 9.0 / result.phi_r + 0.5)
            with Span(tr, "scale.build"):
                sf = scale.ScaleFunction(model, r, x_max=x_max)
            xs = np.linspace(0.0, x_max, GRID_POINTS)
            with Span(tr, "scale.eval"):
                sf.W(xs)
                sf.Z(xs)


def run_closed_form(wl, stream, tally, tr, rates):
    """The round's closed-form block; appends one rate per sub-block."""
    blocks = stream.round_blocks(wl)
    for docs in blocks:
        t_thr, thr = timed_thresholds(docs, tr)
        t_val, curves = timed_value_curves(thr, tr)
        rates["threshold"].append(len(docs) / t_thr)
        rates["value_curve"].append(len(docs) / t_val)
        check_closed_form(docs, thr, curves, tally)
        if tr is not None:
            probe_layers(thr, tr)
    if wl.known_faults:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, thr = timed_thresholds(wl.known_faults, tr)
            _, curves = timed_value_curves(thr, tr)
        check_closed_form(wl.known_faults, thr, curves, tally)


# --- Monte Carlo -----------------------------------------------------------

class McCases:
    """Gate specs with their closed-form answers, computed once per run."""

    def __init__(self, wl):
        self.passage_paths = wl.passage_paths
        self.policy_paths = wl.policy_paths
        self.passage = []
        for case in wl.passage:
            model = models.model_from_dict(case.model)
            ht = transforms.HittingTransforms(model, case.r)
            exact = [(ht.L(x), ht.G(x)) for x in LEVELS]
            self.passage.append((case, model, exact))
        self.policy = []
        for case in wl.policy:
            doc = case.problem
            b_c = engine.threshold(models.spec_from_dict(doc)).b_c
            if case.v_over_b is not None:
                doc = {**doc, "v": case.v_over_b * b_c}
            spec = models.spec_from_dict(doc)
            w = float(engine.value_function(spec)(spec.v))
            self.policy.append((case, spec, b_c, w))


def run_mc(cases, dt, tally, tr):
    """One pass over the workload's MC estimates at step ``dt``."""
    out = {"passage_s": 0.0, "passage_tts_s": 0.0, "passage_se": 0.0,
           "passage_trunc": 0.0, "passage_z": [], "policy_s": 0.0,
           "policy_tts_s": 0.0, "policy_se_stopped": 0.0,
           "policy_se_direct": 0.0, "policy_trunc": 0.0,
           "policy_z": [], "paths": 0}
    for case, model, exact in cases.passage:
        cfg = mc.SimConfig(n_paths=cases.passage_paths, dt=dt,
                           seed=case.seed)
        t0 = perf_counter()
        try:
            with Span(tr, "mc.hitting_estimates"):
                est = mc.hitting_estimates(model, case.r, LEVELS, cfg)
        except Exception as exc:  # counted as a failed operation
            tally.record("mc_passage", error=exc)
            continue
        wall = perf_counter() - t0
        zs = [(e.mean - want) / e.std_error
              for pair, want_pair in zip(est, exact)
              for e, want in zip(pair, want_pair)]
        se = max(e.std_error for pair in est for e in pair)
        out["passage_s"] += wall
        out["passage_tts_s"] += wall * (se / SE_TARGET) ** 2
        out["passage_se"] = max(out["passage_se"], se)
        out["passage_trunc"] = max(out["passage_trunc"], max(
            e.truncation_fraction for pair in est for e in pair))
        out["passage_z"].append(zs)
        out["paths"] += cases.passage_paths
        worst = max(abs(z) for z in zs)
        tally.record("mc_passage", defects=(
            () if worst <= MC_Z_LIMIT
            else (f"{model.family} |z| {worst:.2f} > {MC_Z_LIMIT}",)))
    for case, spec, b_c, w in cases.policy:
        cfg = mc.SimConfig(n_paths=cases.policy_paths, dt=dt,
                           seed=case.seed)
        t0 = perf_counter()
        try:
            with Span(tr, "mc.policy_value"):
                pv = mc.policy_value(spec, b_c, cfg)
        except Exception as exc:  # counted as a failed operation
            tally.record("mc_policy", error=exc)
            continue
        wall = perf_counter() - t0
        z_stop = (pv.stopped.mean - w) / pv.stopped.std_error
        z_direct = (pv.direct.mean - w) / pv.direct.std_error
        out["policy_s"] += wall
        out["policy_tts_s"] += wall * (pv.stopped.std_error / SE_TARGET) ** 2
        out["policy_se_stopped"] = max(out["policy_se_stopped"],
                                       pv.stopped.std_error)
        out["policy_se_direct"] = max(out["policy_se_direct"],
                                      pv.direct.std_error)
        out["policy_trunc"] = max(out["policy_trunc"],
                                  pv.stopped.truncation_fraction)
        out["policy_z"].append(z_stop)
        out["paths"] += cases.policy_paths
        worst = max(abs(z_stop), abs(z_direct))
        tally.record("mc_policy", defects=(
            () if worst <= MC_Z_LIMIT
            else (f"{spec.model.family} |z| {worst:.2f} > {MC_Z_LIMIT}",)))
    return out


# --- child processes -------------------------------------------------------

def child(argv):
    """Run one child to completion; (seconds, CompletedProcess)."""
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, proc


def run_cli(doc, workdir, tally, tr, walls):
    """CLI_RUNS `levystop threshold` and `levystop value` processes each."""
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(doc))
    spec = models.spec_from_dict(doc)
    result = engine.threshold(spec)
    lo, hi = 0.5 * result.b_c, 10.0 * result.b_c
    grid = np.linspace(lo, hi, GRID_POINTS)
    want_w = engine.value_function(spec, result)(grid)
    want_json = result.to_json_dict()

    def threshold_defects(out):
        return [] if json.loads(out) == want_json else ["differs in-process"]

    def value_defects(out):
        rows = out.decode().split("\r\n")
        if rows[0] != "v,w" or rows[-1] != "" or len(rows) != GRID_POINTS + 2:
            return ["malformed CSV"]
        got = np.array([[float(c) for c in row.split(",")]
                        for row in rows[1:-1]])
        same = (np.array_equal(got[:, 0], grid)
                and np.array_equal(got[:, 1], want_w))
        return [] if same else ["differs in-process"]

    commands = (
        ("cli_threshold", ["threshold", "--spec", str(spec_path)],
         threshold_defects),
        ("cli_value", ["value", "--spec", str(spec_path), "--grid",
                       f"{lo!r}:{hi!r}:{GRID_POINTS}"], value_defects),
    )
    for op, args, defects_of in commands:
        first = None
        for _ in range(CLI_RUNS):
            try:
                with Span(tr, op):
                    wall, proc = child([sys.executable, "-m",
                                        "levystop.cli", *args])
            except subprocess.TimeoutExpired as exc:
                tally.record(op, error=exc)
                continue
            if proc.returncode != 0:
                tally.record(op, error=RuntimeError(
                    f"exit {proc.returncode}: "
                    f"{proc.stderr.decode().strip()[-200:]}"))
                continue
            walls[op].append(wall)
            try:
                defects = defects_of(proc.stdout)
            except ValueError:
                defects = ["unparseable output"]
            if first is None:
                first = proc.stdout
            elif proc.stdout != first:
                defects.append("rerun not byte-identical")
            tally.record(op, defects=defects)


def setup_samples(doc, tally):
    """Medianable set-up times from fresh interpreters, each checked."""
    spec = models.spec_from_dict(doc)
    result = engine.threshold(spec)
    w_max = float(engine.value_function(spec, result)(
        value_grid(result.b_c))[-1])
    samples = []
    for _ in range(SETUP_SAMPLES):
        _, proc = child([sys.executable, str(HERE / "setup_probe.py"),
                         json.dumps(doc)])
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode().strip()[-300:])
        got = json.loads(proc.stdout)
        if got["b_c"] != result.b_c or got["w_max"] != w_max:
            tally.defects["setup: differs in-process"] += 1
        samples.append(got["setup_s"])
    return samples


def import_samples(code):
    samples = []
    for _ in range(CLI_IMPORT_SAMPLES):
        wall, proc = child([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed")
        samples.append(wall)
    return samples


# --- metrics ---------------------------------------------------------------

def percentile_summary(samples):
    """(median, tail, n): the tail is the highest of p75/p90/p99/p99.9 with
    at least ten samples beyond it; below 40 samples it repeats the median.
    A layer that did not run reports (0, 0, 0)."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    arr = np.asarray(samples)
    median = float(np.median(arr))
    tail = median
    for pct in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - pct / 100.0) >= 10:
            tail = float(np.percentile(arr, pct))
            break
    return median, tail, n


def sustained(rates):
    """Lower decile of the sub-block rates.

    The host alternates between a slow and a fast speed for seconds at a
    time (about 1.7x apart); the share of fast time in a run varies, so
    the median rate wanders between runs while the lower decile, the rate
    nine sub-blocks in ten exceed, stays put.
    """
    return float(np.percentile(rates, 10))


def median(samples):
    """Median, or 0 when every operation behind the samples failed."""
    return statistics.median(samples) if samples else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tr, mc_rounds, ladder, cli_imports, overhead_s):
    out = {}
    timed = (("models.spec_from_dict", "us"), ("models.psi1", "us"),
             ("models.phi", "us"), ("roots.kou_roots", "us"),
             ("roots.emery_root", "us"), ("scale.build", "ms"),
             ("scale.eval", "us"), ("transforms.build", "us"),
             ("transforms.eval", "us"))
    scale_of = {"us": 1e6, "ms": 1e3}
    for name, unit in timed:
        med, tail, n = percentile_summary(tr.durations(name))
        out[f"{name}_{unit}"] = metric(med * scale_of[unit], unit)
        out[f"{name}_tail_{unit}"] = metric(tail * scale_of[unit], unit)
        out[f"{name}_n"] = metric(n, "count")
    for name, key, unit in (("engine.threshold", "threshold", "us"),
                            ("engine.value_curve", "value_curve", "ms")):
        med, tail, n = percentile_summary(tr.durations(name))
        out[f"engine.{key}_p50_{unit}"] = metric(med * scale_of[unit], unit)
        out[f"engine.{key}_tail_{unit}"] = metric(tail * scale_of[unit], unit)
        out[f"engine.{key}_n"] = metric(n, "count")

    def bias(zs):
        return abs(float(np.mean(zs))) if zs else 0.0

    first = mc_rounds[0]
    passage_z = [z for zs in first["passage_z"] for z in zs]
    mc_wall = sum(r["passage_s"] + r["policy_s"] for r in mc_rounds)
    out.update({
        "mc.passage_s": metric(median([r["passage_s"] for r in mc_rounds]),
                               "s"),
        "mc.passage_max_se": metric(first["passage_se"], "1"),
        "mc.passage_truncated_fraction": metric(first["passage_trunc"],
                                                "fraction"),
        "mc.passage_max_abs_z": metric(max(map(abs, passage_z), default=0.0),
                                       "se"),
        "mc.policy_s": metric(median([r["policy_s"] for r in mc_rounds]),
                              "s"),
        "mc.policy_se_stopped": metric(first["policy_se_stopped"], "1"),
        "mc.policy_se_direct": metric(first["policy_se_direct"], "1"),
        "mc.policy_truncated_fraction": metric(first["policy_trunc"],
                                               "fraction"),
        "mc.policy_abs_z": metric(max(map(abs, first["policy_z"]),
                                      default=0.0), "se"),
        "mc.paths_per_s": metric(sum(r["paths"] for r in mc_rounds)
                                 / mc_wall if mc_wall else 0.0, "1/s"),
    })
    for dt, rec in ladder.items():
        # A passage row alternates L and G, level by level.
        l_z = [z for zs in rec["passage_z"] for z in zs[0::2]]
        g_z = [z for zs in rec["passage_z"] for z in zs[1::2]]
        tag = f"mc.dt_{dt:.0e}".replace("e-0", "e-")
        out[f"{tag}.bias_L_se"] = metric(bias(l_z), "se")
        out[f"{tag}.bias_G_se"] = metric(bias(g_z), "se")
        out[f"{tag}.bias_policy_se"] = metric(bias(rec["policy_z"]), "se")
    out["cli.python_numpy_s"] = metric(median(cli_imports["numpy"]), "s")
    out["cli.import_s"] = metric(median(cli_imports["levystop"]), "s")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out


def machine_info():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "LEVYSTOP_THREADS")},
    }


# --- main ------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tally = Tally()
    tr = Tracer() if args.trace else None
    stream = SpecStream(args.seed)
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(exist_ok=True)

    setup = None
    if not args.trace:
        setup = setup_samples(wl.gate, tally)
    cases = McCases(wl)

    rates = {"threshold": [], "value_curve": []}
    cli_walls = {"cli_threshold": [], "cli_value": []}
    mc_rounds = []
    rounds = 0
    t_start = perf_counter()
    while True:
        t_round = perf_counter()
        if tr is not None:
            tr.request += 1
        with Span(tr, "round"):
            run_closed_form(wl, stream, tally, tr, rates)
            mc_rounds.append(run_mc(cases, MC_DT, tally, tr))
            run_cli(wl.gate, workdir, tally, tr, cli_walls)
        rounds += 1
        now = perf_counter()
        # Stop at the round count nearest to --seconds.
        if (now - t_start) + 0.5 * (now - t_round) > args.seconds:
            break
    measured_s = perf_counter() - t_start

    if tr is None:
        metrics = {
            "setup_s": metric(median(setup), "s"),
            "threshold_per_s": metric(sustained(rates["threshold"]), "1/s"),
            "value_curve_per_s": metric(sustained(rates["value_curve"]),
                                        "1/s"),
            # The slowest round: a median of two to four second-long
            # samples lands in the host's fast phase in one run of five.
            "mc_passage_tts_s": metric(max(
                r["passage_tts_s"] for r in mc_rounds), "s"),
            "mc_policy_tts_s": metric(max(
                r["policy_tts_s"] for r in mc_rounds), "s"),
            "cli_threshold_s": metric(median(cli_walls["cli_threshold"]),
                                      "s"),
            "cli_value_s": metric(median(cli_walls["cli_value"]), "s"),
        }
        extra = {"samples": {
            "setup_s": setup, **rates, **cli_walls,
            "mc_passage_tts_s": [r["passage_tts_s"] for r in mc_rounds],
            "mc_policy_tts_s": [r["policy_tts_s"] for r in mc_rounds]}}
    else:
        overhead_s = tr.span_cost() * len(tr.spans)
        # The ladder reuses the gate seeds, so its rungs share random numbers.
        ladder = {MC_DT: mc_rounds[0]}
        for dt in DT_LADDER:
            if dt != MC_DT:
                ladder[dt] = run_mc(cases, dt, Tally(), None)
        cli_imports = {
            "numpy": import_samples("import numpy"),
            "levystop": import_samples("import levystop.cli"),
        }
        metrics = layer_metrics(tr, mc_rounds, ladder, cli_imports,
                                overhead_s)
        extra = {"dt_ladder_signed_z": {
            f"{dt:g}": {"passage": rec["passage_z"], "policy": rec["policy_z"]}
            for dt, rec in ladder.items()}}
        tr.dump(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")

    result = {"correct": not tally.defects, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": rounds, "measured_s": measured_s,
              "errors": dict(tally.errors), "defects": dict(tally.defects),
              "machine": machine_info(), **extra}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()
    for line in sorted(tally.errors.items()) + sorted(tally.defects.items()):
        print(f"{line[1]} x {line[0]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
