"""Release gate: the ten acceptance criteria, one test and one verdict each.

Each criterion is checked at its stated tolerance against an oracle that is
independent of the code path under test: polynomial root extraction via
``np.roots`` (Newton-polished) instead of the library's bracketed solvers,
closed forms transcribed separately, or Monte Carlo.

An MC criterion is a function of a run index s whose i-th simulation gets
the seed 10 s + i.  It returns ``{statistic: (value, failed)}``, ``failed``
None for a statistic reported but not tested.  The gate runs it at
``COMMITTED``; scripts/gate_calibration.py repeats it over other runs.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad

from levystop import mc
from levystop.engine import threshold, value_function
from levystop.models import (BrownianDrift, ExpJD, KouJD, NegPoisson,
                             ProblemSpec, SpectNegKou)
from levystop.scale import ScaleFunction
from levystop.transforms import HittingTransforms

from convexity import convexity_report

BM = BrownianDrift(m=0.0, sigma=1.0)
BM_SPEC = ProblemSpec(model=BM, r=1.0, alpha=1.0, c=1.0, v=1.0)
KOU = KouJD(m=-0.2, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)
KOU_SPEC = ProblemSpec(model=KOU, r=1.0, alpha=1.0, c=1.0, v=2.6)
NP_SPEC = ProblemSpec(model=NegPoisson(a=1.0), r=0.5, alpha=1.0, c=1.0,
                      v=3.2)


COMMITTED = {"ac2": 2, "ac3": 3, "ac4": 4, "ac8": 5, "ac9": 6}


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def _gate(tag: str, criterion) -> None:
    """Run an MC criterion at its committed run; fail on any failed test."""
    stats = criterion(COMMITTED[criterion.__name__])
    _verdict(tag, not any(failed for _, failed in stats.values()),
             ", ".join(f"{stat} {value:+.3f}"
                       for stat, (value, _) in stats.items()))


# --- independent root machinery for AC-1 --------------------------------

def _polished_real_roots(coeffs):
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-7 * (1.0 + np.abs(roots))].real
    deriv = np.polyder(coeffs)
    for _ in range(4):
        real = real - np.polyval(coeffs, real) / np.polyval(deriv, real)
    return np.sort(real)


def _oracle_threshold(model, r, alpha, c):
    s2 = 0.5 * getattr(model, "sigma", 0.0) ** 2
    m = getattr(model, "m", 0.0)
    if isinstance(model, BrownianDrift):
        growth = m + s2
        lam = (m + math.sqrt(m * m + 2.0 * r * model.sigma ** 2)) \
            / model.sigma ** 2
        ratio = lam / (lam + 1.0)
    elif isinstance(model, KouJD):
        a, p, e1, e2 = model.a, model.p, model.eta1, model.eta2
        q = 1.0 - p
        growth = m + s2 + a * (p * e1 / (e1 - 1.0)
                               + q * e2 / (e2 + 1.0) - 1.0)
        poly = np.polymul(np.polymul([s2, m, -(r + a)], [-1.0, e1]),
                          [1.0, e2])
        poly = np.polyadd(poly, np.polymul([a * p * e1], [1.0, e2]))
        poly = np.polyadd(poly, np.polymul([a * q * e2], [-1.0, e1]))
        roots = _polished_real_roots(poly)
        psi3, psi2 = roots[0], roots[1]
        ratio = (psi2 * psi3 * (e2 + 1.0)
                 / (e2 * (1.0 - psi2) * (1.0 - psi3)))
    elif isinstance(model, ExpJD):
        a, e1 = model.a, model.eta1
        growth = m + s2 + a / (e1 - 1.0)
        poly = np.polyadd(np.polymul([s2, m, -r], [-1.0, e1]), [a, 0.0])
        lam = -_polished_real_roots(poly)[0]
        ratio = lam / (lam + 1.0)
    elif isinstance(model, NegPoisson):
        a = model.a
        growth = a * (1.0 / math.e - 1.0)
        gamma = a / (r + a)
        ratio = (1.0 - gamma) / (1.0 - gamma / math.e)
    else:
        a, e2 = model.a, model.eta2
        growth = m + s2 + a * (e2 / (e2 + 1.0) - 1.0)
        poly = np.polyadd(np.polymul([s2, m, -(r + a)], [1.0, e2]),
                          [a * e2])
        big_phi = _polished_real_roots(poly)[-1]
        return c * (big_phi - 1.0) / (alpha * big_phi)
    return c * (r - growth) / (r * alpha) * ratio


def _fuzzed_models(rng, family, n=50):
    out = []
    while len(out) < n:
        m = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.15, 1.8)
        a = rng.uniform(0.1, 2.5)
        if family == "brownian":
            model = BrownianDrift(m=m, sigma=sigma)
        elif family == "kou":
            model = KouJD(m=m, sigma=sigma, a=a, p=rng.uniform(0.1, 0.9),
                          eta1=rng.uniform(1.2, 6.0),
                          eta2=rng.uniform(0.25, 6.0))
        elif family == "expjd":
            model = ExpJD(m=m, sigma=sigma, a=a,
                          eta1=rng.uniform(1.2, 6.0))
        elif family == "neg_poisson":
            model = NegPoisson(a=rng.uniform(0.1, 4.0))
        else:
            model = SpectNegKou(m=m, sigma=sigma, a=a,
                                eta2=rng.uniform(0.25, 6.0))
        from levystop.models import psi
        r = max(psi(model, 1.0), 0.0) + rng.uniform(0.15, 2.5)
        out.append((model, r, rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)))
    return out


def test_ac01_closed_form_thresholds():
    rng = np.random.default_rng(1234)
    families = ["brownian", "kou", "expjd", "neg_poisson", "spectneg_kou"]
    worst = 0.0
    elapsed = 0.0
    for family in families:
        for model, r, alpha, c in _fuzzed_models(rng, family):
            spec = ProblemSpec(model=model, r=r, alpha=alpha, c=c, v=1.0)
            t0 = time.perf_counter()
            got = threshold(spec).b_c
            elapsed += time.perf_counter() - t0
            want = _oracle_threshold(model, r, alpha, c)
            worst = max(worst, abs(got - want) / abs(want))
    # the driftless unit-volatility case also has a fully explicit form
    for _ in range(10):
        r = rng.uniform(0.6, 4.0)
        alpha, c = rng.uniform(0.2, 3.0, 2)
        spec = ProblemSpec(model=BM, r=r, alpha=alpha, c=c, v=1.0)
        s2r = math.sqrt(2.0 * r)
        want = c * s2r * (r - 0.5) / (alpha * r * (s2r + 1.0))
        worst = max(worst, abs(threshold(spec).b_c - want) / want)
    _verdict("AC-1 closed-form thresholds",
             worst < 1e-10 and elapsed < 1.0,
             f"max rel err {worst:.2e}, {elapsed * 1e3:.0f} ms "
             "for 260 thresholds")


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
            n_paths=100000, horizon=horizon, seed=10 * run + i))
        diff = res.values[res.argmax_index] - res.values[10]
        se = float(np.std(diff, ddof=1)) / math.sqrt(diff.size)
        lo, hi = res.flat_interval()
        # the grid midpoint equals B_c only up to rounding, hence the slack
        ok = lo <= b_c * (1.0 + 1e-9) and hi >= b_c * (1.0 - 1e-9)
        out[f"{name} deficit z"] = (float(np.mean(diff)) / se
                                    if se > 0 else 0.0, not ok)
        out[f"{name} plateau points"] = (float(np.count_nonzero(res.flat)),
                                         not ok)
    return out


def test_ac02_mc_optimality_of_threshold():
    _gate("AC-2 MC sweep argmax plateau contains B_c", ac2)


def ac3(run):
    """Per start point: z of each form; fails at |z| >= 3 or unreconciled."""
    out = {}
    b_c = threshold(BM_SPEC).b_c
    for i, mult in enumerate((1.2, 2.0, 5.0)):
        spec = ProblemSpec(model=BM, r=1.0, alpha=1.0, c=1.0, v=mult * b_c)
        pv = mc.policy_value(spec, b_c, mc.SimConfig(
            n_paths=100000, horizon=14.0, seed=10 * run + i))
        w = float(value_function(spec)(spec.v))
        for form, est in (("direct", pv.direct), ("stopped", pv.stopped)):
            z = (est.mean - w) / est.std_error
            out[f"v={mult:g} B_c {form} z"] = (z, abs(z) >= 3.0)
        out[f"v={mult:g} B_c unreconciled"] = (float(not pv.reconciled),
                                               not pv.reconciled)
    return out


def test_ac03_policy_value_matches_analytic_w():
    _gate("AC-3 policy value vs analytic w (both forms)", ac3)


AC4_LEVELS = [-0.15, -0.4, -0.8, -1.1, -1.5]
AC4_CASES = (  # family, model, r, paths, horizon
    ("brownian", BrownianDrift(m=-0.5, sigma=1.0), 2.0, 1000000, 6.0),
    ("neg_poisson", NegPoisson(a=1.5), 0.3, 1000000, 60.0),
    ("kou", KOU, 1.0, 100000, 10.0),
    ("expjd", ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5), 2.0, 100000, 5.0),
    ("spectneg_kou", SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8), 2.0,
     100000, 5.0),
)


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


def test_ac04_passage_transforms_vs_simulation():
    _gate("AC-4 analytic L, G vs hitting_estimates", ac4)


def test_ac05_scale_function_correctness():
    sf = ScaleFunction(BM, 1.0, x_max=40.0)
    s2 = math.sqrt(2.0)
    xs = np.linspace(0.0, 5.0, 51)
    w_true = s2 * np.sinh(s2 * xs)
    err_w = float(np.max(np.abs(sf.W(xs) - w_true)
                         / np.maximum(1.0, np.abs(w_true))))

    rng = np.random.default_rng(55)
    err_lap = 0.0
    for beta in rng.uniform(s2 + 0.5, s2 + 5.0, 20):
        target = 1.0 / (0.5 * beta * beta - 1.0)
        body = quad(lambda x: math.exp(-beta * x) * float(sf.W(x)),
                    0.0, 40.0, limit=400, epsabs=1e-12, epsrel=1e-11)[0]
        err_lap = max(err_lap, abs(body - target) / target)

    err_w0 = abs(float(sf.Wprime(0.0)) - 2.0)
    h = 1e-5
    zs = np.linspace(0.5, 4.5, 9)
    z_slope = (sf.Z(zs + h) - sf.Z(zs - h)) / (2.0 * h)
    err_z = float(np.max(np.abs(z_slope - 1.0 * sf.W(zs))
                         / np.maximum(1.0, sf.W(zs))))

    ok = err_w < 1e-6 and err_lap < 1e-6 and err_w0 < 1e-4 and err_z < 1e-5
    _verdict("AC-5 scale functions (sinh form, Laplace round trip, "
             "W'(0), Z'=qW)", ok,
             f"errs {err_w:.1e}/{err_lap:.1e}/{err_w0:.1e}/{err_z:.1e}")


def test_ac06_cross_family_reductions():
    # spectrally negative threshold (scale-function route) vs Kou p -> 0
    sn = SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)
    tiny = 1e-9
    kou_limit = KouJD(m=0.1, sigma=0.7, a=0.9 / (1.0 - tiny), p=tiny,
                      eta1=5.0, eta2=1.8)
    b_sn = threshold(ProblemSpec(model=sn, r=2.0, alpha=1.0, c=1.0,
                                 v=1.0)).b_c
    b_kou = threshold(ProblemSpec(model=kou_limit, r=2.0, alpha=1.0,
                                  c=1.0, v=1.0)).b_c
    err_sn = abs(b_sn - b_kou) / b_sn

    # driftless unit-volatility: B_c = c (Phi - 1) / (alpha Phi)
    err_phi = 0.0
    for r in (0.75, 1.0, 2.0, 4.0):
        phi_r = math.sqrt(2.0 * r)
        want = 2.0 * (phi_r - 1.0) / (3.0 * phi_r)
        got = threshold(ProblemSpec(model=BM, r=r, alpha=3.0, c=2.0,
                                    v=1.0)).b_c
        err_phi = max(err_phi, abs(got - want) / want)

    # jump intensity -> 0 recovers the drifted Brownian threshold
    err_a0 = 0.0
    for m, sigma, eta1, r in ((-0.3, 0.8, 2.5, 2.0), (0.4, 1.2, 1.5, 1.5)):
        with_jumps = threshold(ProblemSpec(
            model=ExpJD(m=m, sigma=sigma, a=1e-10, eta1=eta1), r=r,
            alpha=1.0, c=1.0, v=1.0)).b_c
        pure = threshold(ProblemSpec(
            model=BrownianDrift(m=m, sigma=sigma), r=r, alpha=1.0, c=1.0,
            v=1.0)).b_c
        err_a0 = max(err_a0, abs(with_jumps - pure) / pure)

    ok = err_sn < 1e-6 and err_phi < 1e-12 and err_a0 < 1e-6
    _verdict("AC-6 cross-family reductions", ok,
             f"spectneg vs kou {err_sn:.1e}, phi form {err_phi:.1e}, "
             f"a->0 {err_a0:.1e}")


def test_ac07_structural_properties():
    rng = np.random.default_rng(77)
    smooth, counters = [], []
    for family in ("brownian", "kou", "expjd", "spectneg_kou"):
        smooth.extend(_fuzzed_models(rng, family, n=2))
    counters.extend(_fuzzed_models(rng, "neg_poisson", n=2))

    worst_chord = -math.inf
    worst_gap = 0.0
    min_second = math.inf
    for model, r, alpha, c in smooth + counters:
        spec = ProblemSpec(model=model, r=r, alpha=alpha, c=c, v=1.0)
        result = threshold(spec)
        vf = value_function(spec, result)
        b_c = result.b_c

        grid = np.linspace(0.01 * b_c, 12.0 * b_c, 400)
        s_vals = np.asarray(vf.s(grid))
        assert np.all(s_vals >= -1e-10 * c / r)
        assert np.all(s_vals <= c / r * (1.0 + 1e-10))
        below = np.linspace(0.05 * b_c, b_c, 50)
        assert np.all(vf(below) == 0.0)
        # on the stop region the reduite coincides with the payoff line
        assert np.max(np.abs(np.asarray(vf.s(below))
                             - np.asarray(vf.f(below)))) < 1e-10

        if isinstance(model, NegPoisson):
            continue
        lo, hi = 0.02 * b_c, 12.0 * b_c
        triples = np.sort(rng.uniform(lo, hi, (10000, 3)), axis=1)
        keep = (np.diff(triples, axis=1) > 1e-3 * b_c).all(axis=1)
        v1, v2, v3 = triples[keep].T
        s1, s2_, s3 = (np.asarray(vf.s(v)) for v in (v1, v2, v3))
        chord = (s1 * (v3 - v2) + s3 * (v2 - v1)) / (v3 - v1)
        worst_chord = max(worst_chord, float(np.max(s2_ - chord)))

        report = convexity_report(spec, result)
        worst_gap = max(worst_gap, report.tangency_gap)
        min_second = min(min_second, report.min_second_diff)

    ok = (worst_chord < 1e-9 and worst_gap < 1e-6 and min_second > 0.0)
    _verdict("AC-7 structural properties of s, w, smooth fit", ok,
             f"chord excess {worst_chord:.1e}, tangency gap "
             f"{worst_gap:.1e}, min 2nd diff {min_second:.1e}")


def ac8(run):
    """Slope of the class-D ladder; fails off -1 +- 0.15 or non-monotone."""
    result = mc.class_d_diagnostic(
        BM, 1.0, [2, 4, 8, 16, 32, 64, 128, 256],
        mc.SimConfig(n_paths=4000000, horizon=60.0, seed=10 * run))
    means = np.array([e.mean for e in result.estimates])
    mono = bool(np.all(np.diff(means) < 0))
    slope = result.loglog_slope()
    return {"log-log slope": (slope, not -1.15 <= slope <= -0.85),
            "monotone": (float(mono), not mono)}


def test_ac08_class_d_ladder():
    _gate("AC-8 class-D ladder decays like n^(1-2r)", ac8)


def _capped_mean(b):
    """E[min(tau_b, 60)] for the driftless unit-volatility BM from 1.

    P(tau_b > t) = erf(|ln b| / sqrt(2 t)), integrated over [0, 60].
    """
    return quad(lambda t: math.erf(abs(math.log(b)) / math.sqrt(2.0 * t)),
                0.0, 60.0, limit=200)[0]


def ac9(run):
    """z of the eps = 1e-4 mean passage time against B_c, with the offset.

    The eps = 1e-4 boundary lies above B_c, so the two capped means differ
    by construction; the exact difference (``_capped_mean``) is subtracted.
    Fails at |z| >= 3 or where a path stops later for a larger eps.
    """
    result = threshold(BM_SPEC)
    cfg = dict(n_paths=100000, horizon=60.0)
    eps_run = mc.epsilon_stop_paths(BM_SPEC, result, [1e-1, 1e-2, 1e-3, 1e-4],
                                    mc.SimConfig(seed=10 * run, **cfg))
    mono = bool(np.all(np.diff(eps_run.tau, axis=0) >= 0.0))
    record = mc._simulate_levels(
        mc._Dynamics.from_model(BM), 1.0,
        [math.log(result.b_c / BM_SPEC.v)], 60.0,
        mc.SimConfig(seed=10 * run + 1, **cfg), want_integral=False)
    tau_bc, = mc._estimates(record.tau.__getitem__, record.tau.shape,
                            [0.0])
    tau_eps = eps_run.estimates[-1]
    se = math.hypot(tau_eps.std_error, tau_bc.std_error)
    raw = (tau_eps.mean - tau_bc.mean) / se
    offset = (_capped_mean(eps_run.boundaries[-1])
              - _capped_mean(result.b_c)) / se
    z = raw - offset
    return {"z": (z, abs(z) >= 3.0 or not mono),
            "z without offset": (raw, None)}


def test_ac09_epsilon_optimal_times():
    _gate("AC-9 epsilon-optimal stopping times", ac9)


def test_ac10_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "model": {"family": "brownian", "m": 0.0, "sigma": 1.0},
        "r": 1.0, "alpha": 1.0, "c": 1.0, "v": 1.0,
    }))
    commands = [
        ("threshold.json", ["threshold"]),
        ("inspect.json", ["inspect"]),
        ("value.csv", ["value", "--grid", "0.1:2:40"]),
        ("scale.csv", ["scale-fn", "--q", "1.0", "--grid", "0:2:21"]),
        ("sweep.csv", ["sweep", "--grid", "0.15:0.45:5", "--paths",
                       "2000", "--horizon", "6", "--seed", "7"]),
        ("sim.json", ["simulate", "--b", "0.29", "--paths", "2000",
                      "--horizon", "6", "--seed", "9"]),
    ]
    stable = True
    for name, argv in commands:
        pair = []
        for tag in ("one", "two"):
            out = tmp_path / f"{tag}-{name}"
            proc = subprocess.run(
                [sys.executable, "-m", "levystop.cli", argv[0], "--spec",
                 str(spec_path), "--out", str(out), *argv[1:]],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            pair.append(out.read_bytes())
        stable = stable and pair[0] == pair[1]
    _verdict("AC-10 CLI determinism", stable,
             "6 commands re-run byte-identically")
