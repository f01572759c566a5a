"""Monte Carlo engine: determinism, pathwise orderings, statistical checks.

Every stochastic assertion here runs on a fixed seed, so the suite is
deterministic; tolerances are still quoted in standard errors to keep the
checks honest about what they measure.
"""

import math

import numpy as np
import pytest

from levystop import mc
from levystop.engine import epsilon_region, threshold, value_function
from levystop.mc import (McEstimate, SimConfig, class_d_diagnostic,
                         epsilon_stop_paths, hitting_estimates, policy_value,
                         sample_increment, sweep)
from levystop.models import (BrownianDrift, ExpJD, KouJD, NegPoisson,
                             ProblemSpec, SpectNegKou, psi)
from levystop.transforms import HittingTransforms

BM = BrownianDrift(m=0.0, sigma=1.0)
BM_SPEC = ProblemSpec(model=BM, r=1.0, alpha=1.0, c=1.0, v=1.0)
NP_SPEC = ProblemSpec(model=NegPoisson(a=1.0), r=0.5, alpha=1.0, c=1.0,
                      v=3.2)
KOU = KouJD(m=0.1, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)


def test_same_seed_same_estimates_bitwise():
    cfg = SimConfig(n_paths=4000, dt=0.01, horizon=6.0, seed=123)
    first = hitting_estimates(BM, 1.0, [-0.4], cfg)[0]
    second = hitting_estimates(BM, 1.0, [-0.4], cfg)[0]
    assert first == second  # dataclass equality: every float identical


def test_thread_count_does_not_change_results(monkeypatch):
    cfg = SimConfig(n_paths=3000, dt=0.01, horizon=6.0, seed=9,
                    batch_size=512)

    def run():
        return (sweep(BM_SPEC, [0.2, 0.3, 0.5], cfg),
                hitting_estimates(KOU, 1.0, [-0.2, -0.6], cfg),
                class_d_diagnostic(KOU, 1.0, [2, 4], cfg).estimates,
                policy_value(BM_SPEC, 0.3, cfg),
                policy_value(NP_SPEC, 1.0, cfg))

    monkeypatch.delenv("LEVYSTOP_THREADS", raising=False)
    serial = run()
    monkeypatch.setenv("LEVYSTOP_THREADS", "4")
    threaded = run()
    assert np.array_equal(serial[0].values, threaded[0].values)
    assert serial[0].estimates == threaded[0].estimates
    assert serial[0].argmax_index == threaded[0].argmax_index
    assert serial[1:] == threaded[1:]


def test_batch_partition_fixes_the_stream():
    # Same partition, different thread counts is covered above; a changed
    # batch_size legitimately reshuffles substreams and may change draws.
    cfg_a = SimConfig(n_paths=2000, dt=0.02, horizon=4.0, seed=5,
                      batch_size=500)
    cfg_b = SimConfig(n_paths=2000, dt=0.02, horizon=4.0, seed=5,
                      batch_size=500)
    assert hitting_estimates(BM, 1.0, [-0.3], cfg_a) == hitting_estimates(
        BM, 1.0, [-0.3], cfg_b)


def test_passage_times_monotone_in_depth():
    dyn = mc._Dynamics.from_model(BM)
    levels = np.array([-0.2, -0.5, -1.0])
    record = mc._simulate_levels(
        dyn, 1.0, levels, horizon=8.0, want_integral=False,
        cfg=SimConfig(n_paths=5000, dt=0.02, seed=3))
    assert np.all(np.diff(record.tau, axis=0) >= -1e-12)
    assert np.all(record.hit[0] >= record.hit[1])
    # diffusion crossings land exactly on the level
    for j, lev in enumerate(levels):
        assert np.all(record.x_hit[j][record.hit[j]] == lev)


def test_every_estimator_ignores_dt():
    res = threshold(BM_SPEC)
    kou_spec = ProblemSpec(model=KOU, r=1.0, alpha=1.0, c=1.0, v=1.0)
    runs = []
    for dt in (1e-3, 4e-3):
        cfg = SimConfig(n_paths=1500, dt=dt, horizon=8.0, seed=13)
        eps = epsilon_stop_paths(BM_SPEC, res, [1e-1, 1e-2], cfg)
        swept = sweep(BM_SPEC, [0.2, 0.3, 0.5], cfg)
        runs.append((hitting_estimates(KOU, 1.0, [-0.2, -0.6], cfg),
                     class_d_diagnostic(KOU, 1.0, [2, 4], cfg).estimates,
                     eps.estimates, eps.tau.tobytes(),
                     policy_value(BM_SPEC, 0.3, cfg),
                     policy_value(kou_spec, 0.5, cfg),
                     swept.estimates, swept.values.tobytes()))
    assert runs[0] == runs[1]


def test_equal_levels_are_passed_together():
    # The second level starts on the first one's passage point: alpha = 0.
    cfg = SimConfig(n_paths=3000, horizon=8.0, seed=19)
    for model in (BM, KOU):
        first, second = hitting_estimates(model, 1.0, [-0.5, -0.5], cfg)
        assert first == second
        record = mc._simulate_levels(mc._Dynamics.from_model(model), 1.0,
                                     [-0.5, -0.5], 8.0, cfg,
                                     want_integral=False)
        assert np.array_equal(record.tau[0], record.tau[1])
        assert np.array_equal(record.x_hit[0], record.x_hit[1])
        assert record.hit[0].any()


def test_levels_in_any_order_and_sign_share_one_ladder():
    # The rows of an unsorted ladder with levels >= 0 are, bit for bit,
    # those of its sorted negative levels; a level >= 0 is passed at once.
    cfg = SimConfig(n_paths=2000, horizon=8.0, seed=23, batch_size=700)
    for model in (BM, KOU, NegPoisson(a=1.0)):
        dyn = mc._Dynamics.from_model(model)
        mixed = mc._simulate_levels(dyn, 1.0, [-1.5, 0.0, -0.2, 0.3, -0.9],
                                    8.0, cfg, want_integral=True)
        ladder = mc._simulate_levels(dyn, 1.0, [-0.2, -0.9, -1.5], 8.0, cfg,
                                     want_integral=True)
        assert ladder.hit.any(), model.family
        for field in ("tau", "x_hit", "hit"):
            assert (getattr(mixed, field)[[2, 4, 0]].tobytes()
                    == getattr(ladder, field).tobytes()), field
        assert mixed.final_int.tobytes() == ladder.final_int.tobytes()
        for j in (1, 3):
            assert np.all(mixed.tau[j] == 0.0) and np.all(mixed.hit[j])
            assert np.all(mixed.x_hit[j] == 0.0)
    # The mirrored counter never moves down: an all-miss record.
    dyn = mc._Dynamics.from_model(NegPoisson(a=1.0)).mirrored(1.0)
    record = mc._simulate_levels(dyn, 0.0, [-2.0, 0.0, -0.5], 8.0, cfg,
                                 want_integral=False)
    assert not record.hit[[0, 2]].any() and record.hit[1].all()
    assert np.all(record.tau[[0, 2]] == 8.0) and np.all(record.x_hit == 0.0)


def _bridge(alpha, beta, var_dt, n, seed=0):
    rng = np.random.Generator(np.random.Philox(seed))
    return mc._bridge_crossings(rng, np.full(n, alpha), np.full(n, beta),
                                np.full(n, var_dt))


def test_bridge_ending_on_the_level_draws_the_levy_limit():
    # x1 == l: the inverse Gaussian mean alpha/|beta| is infinite, and
    # s/(1-s) = shape / Z^2, so P(s <= q) = erfc(sqrt(shape (1-q)/q / 2)).
    n = 40000
    crossed, frac = _bridge(1.0, 0.0, 1.0, n)
    assert crossed.size == n
    assert np.all((frac > 0.0) & (frac <= 1.0))
    for q in (0.2, 0.5, 0.8):
        want = math.erfc(math.sqrt((1.0 - q) / q / 2.0))
        got = float(np.mean(frac <= q))
        assert abs(got - want) < 4.0 * math.sqrt(want * (1 - want) / n)


def test_bridge_crossing_frequency_and_time_law():
    # P(min <= l) = exp(-2 alpha beta / var_dt); the mean passage fraction
    # of the bridge from 0.5 to 0.3 above the level is 0.36566 (quadrature).
    n = 40000
    crossed, frac = _bridge(0.5, 0.3, 1.0, n)
    p = math.exp(-0.3)
    assert abs(crossed.size / n - p) < 4.0 * math.sqrt(p * (1 - p) / n)
    se = float(np.std(frac)) / math.sqrt(frac.size)
    assert abs(float(np.mean(frac)) - 0.36566) < 4.0 * se


def test_zero_length_bridge_segment_crosses_only_below_the_level():
    crossed, _ = _bridge(0.5, 0.5, 0.0, 100)
    assert crossed.size == 0
    crossed, frac = _bridge(0.5, -0.1, 0.0, 100)
    assert crossed.size == 100 and np.all(frac == 0.0)
    crossed, frac = _bridge(0.0, 0.4, 0.0, 100)
    assert crossed.size == 100 and np.all(frac == 0.0)


def test_positive_drift_passage_is_defective():
    # With drift m > 0, P(tau_l < infinity) = exp(2 m l / sigma^2).
    model = BrownianDrift(m=0.6, sigma=0.8)
    levels = [-0.3, -0.9]
    cfg = SimConfig(n_paths=20000, horizon=400.0, seed=53)
    record = mc._simulate_levels(mc._Dynamics.from_model(model), 1.0,
                                 levels, 400.0, cfg, want_integral=False)
    for j, lev in enumerate(levels):
        p = math.exp(2.0 * 0.6 * lev / 0.64)
        got = float(np.mean(record.hit[j]))
        assert abs(got - p) < 4.0 * math.sqrt(p * (1 - p) / cfg.n_paths)


def test_standard_error_shrinks_like_root_n():
    small = hitting_estimates(BM, 1.0, [-0.5],
                              SimConfig(n_paths=2000, dt=0.01, seed=11))[0]
    big = hitting_estimates(BM, 1.0, [-0.5],
                            SimConfig(n_paths=32000, dt=0.01, seed=11))[0]
    ratio = small[0].std_error / big[0].std_error
    assert 2.8 < ratio < 5.7  # 16x paths => ~4x


def test_brownian_passage_transforms_within_monte_carlo_error():
    x = -0.5
    est_l, est_g = hitting_estimates(
        BM, 1.0, [x], SimConfig(n_paths=20000, dt=1e-3, seed=14))[0]
    lam = math.sqrt(2.0)
    assert abs(est_l.mean - math.exp(lam * x)) < 4.0 * est_l.std_error
    # no upward jumps: the passage creeps, X_tau = x exactly
    assert abs(est_g.mean - math.exp((lam + 1.0) * x)) < 4.0 * est_g.std_error
    assert est_l.n_effective == 20000
    # driftless passage times are heavy-tailed: P(tau > 100) ~ 4%, but the
    # truncated paths would have contributed ~e^{-100} anyway
    assert 0.0 <= est_l.truncation_fraction < 0.06


def test_counter_family_hits_are_exact_geometrics():
    cfg = SimConfig(n_paths=20000, horizon=60.0, seed=17)
    model = NegPoisson(a=1.0)
    gamma = 1.0 / 1.5  # a / (r + a)
    est_l, est_g = hitting_estimates(model, 0.5, [-1.4], cfg)[0]
    # level in the second bucket: two jumps needed
    assert abs(est_l.mean - gamma ** 2) < 4.0 * est_l.std_error
    assert abs(est_g.mean - (gamma / math.e) ** 2) < 4.0 * est_g.std_error


def test_hitting_estimates_preserve_input_order():
    cfg = SimConfig(n_paths=1000, dt=0.02, horizon=4.0, seed=21)
    shallow_first = hitting_estimates(BM, 1.0, [-0.2, -0.9], cfg)
    deep_first = hitting_estimates(BM, 1.0, [-0.9, -0.2], cfg)
    assert shallow_first[0] == deep_first[1]
    assert shallow_first[1] == deep_first[0]
    assert shallow_first[0][0].mean > shallow_first[1][0].mean


def test_level_minus_inf_is_never_passed():
    # A level of -inf (a b that underflows against v) is an all-miss row,
    # and the other rows are, bit for bit, those of the request without it.
    cfg = SimConfig(n_paths=2000, horizon=8.0, seed=27)
    for model, r in ((BM, 1.0), (KOU, 1.0),
                     (ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5), 2.0),
                     (NegPoisson(a=1.0), 0.5),
                     (SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8), 2.0)):
        never, hit = hitting_estimates(model, r, [-math.inf, -1.0], cfg)
        for est in never:
            assert est.mean == 0.0 and est.truncation_fraction == 1.0
        assert hit == hitting_estimates(model, r, [-1.0], cfg)[0], \
            model.family


def test_resolvent_integral_matches_its_mean_at_the_horizon():
    # A level out of reach leaves every path alive at T, where
    # E[int_0^T e^{-rs + X_s} ds] = (1 - e^{(psi(1) - r) T}) / (r - psi(1)).
    r, horizon = 1.0, 2.0
    cfg = SimConfig(n_paths=20000, horizon=horizon, seed=57)
    for model in (BM, KOU, SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)):
        record = mc._simulate_levels(mc._Dynamics.from_model(model), r,
                                     [-40.0], horizon, cfg,
                                     want_integral=True)
        assert not record.hit.any()
        gap = r - psi(model, 1.0)
        want = (1.0 - math.exp(-gap * horizon)) / gap
        se = float(np.std(record.final_int, ddof=1)) / math.sqrt(
            cfg.n_paths)
        assert abs(float(np.mean(record.final_int)) - want) < 4.0 * se, \
            model.family


def test_resolvent_integral_stops_at_the_passage():
    # The record's integral runs to the passage tau of a level x the paths
    # reach, where optional stopping gives E[int_0^tau e^{-rs + X_s} ds] =
    # (1 - G(x)) / (r - psi(1)); the default horizon adds below e^-50.
    # r > psi(2) / 2 for every model keeps the integral's variance finite.
    r, x = 2.5, -1.2
    cfg = SimConfig(n_paths=20000, seed=31)
    for model in (BM, KOU, ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5),
                  NegPoisson(a=3.0),
                  SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)):
        growth = psi(model, 1.0)
        record = mc._simulate_levels(mc._Dynamics.from_model(model), r, [x],
                                     mc._resolve_horizon(cfg, r, growth),
                                     cfg, want_integral=True)
        assert record.hit.any(), model.family
        want = (1.0 - HittingTransforms(model, r).G(x)) / (r - growth)
        se = float(np.std(record.final_int, ddof=1)) / math.sqrt(
            cfg.n_paths)
        assert abs(float(np.mean(record.final_int)) - want) < 4.0 * se, \
            model.family


def test_policy_value_reconciles_and_matches_analytic():
    res = threshold(BM_SPEC)
    w = value_function(BM_SPEC, res)
    cfg = SimConfig(n_paths=8000, dt=5e-3, horizon=12.0, seed=25)
    pv = policy_value(BM_SPEC, res.b_c, cfg)
    assert pv.reconciled
    tol = 5.0 * pv.direct.std_error + 0.01  # MC error + horizon bias room
    assert abs(pv.direct.mean - float(w(BM_SPEC.v))) < tol
    assert abs(pv.stopped.mean - float(w(BM_SPEC.v))) < tol


def test_policy_value_counter_family_reconciles():
    cfg = SimConfig(n_paths=3000, horizon=40.0, seed=26)
    pv = policy_value(NP_SPEC, 1.0, cfg)
    assert pv.reconciled
    assert pv.direct.std_error > 0.0


def test_policy_value_is_exact_zero_when_already_stopped():
    cfg = SimConfig(n_paths=100, seed=1)
    pv = policy_value(BM_SPEC, BM_SPEC.v * 1.5, cfg)
    assert pv.direct == McEstimate(0.0, 0.0, 100, 0.0)
    assert pv.stopped == pv.direct
    assert pv.reconciled


def test_sweep_structure_and_inactive_levels():
    grid = [0.15, 0.25, 0.3, 0.45, 2.0]  # last one sits above v = 1
    cfg = SimConfig(n_paths=3000, dt=0.01, horizon=10.0, seed=29)
    result = sweep(BM_SPEC, grid, cfg)
    assert result.values.shape == (5, 3000)
    assert len(result.estimates) == 5
    assert result.estimates[4].mean == 0.0
    assert np.all(result.values[4] == 0.0)
    assert result.flat[result.argmax_index]
    lo, hi = result.flat_interval()
    assert lo <= result.argmax_b <= hi
    assert result.argmax_b == grid[result.argmax_index]


def test_counter_family_levels_in_one_bucket_are_paired_exactly():
    # both b need two downward unit jumps from v: identical paths decide
    cfg = SimConfig(n_paths=4000, horizon=40.0, seed=33)
    result = sweep(NP_SPEC, [1.02, 1.05], cfg)
    tau_like = result.values
    assert result.estimates[0].std_error > 0.0
    # integrand differs only through alpha*v (same for both), so identical
    assert np.array_equal(tau_like[0], tau_like[1])


def test_epsilon_stop_times_grow_as_eps_shrinks():
    res = threshold(BM_SPEC)
    cfg = SimConfig(n_paths=2000, dt=0.01, horizon=30.0, seed=37)
    out = epsilon_stop_paths(BM_SPEC, res, [1e-1, 1e-2], cfg)
    assert np.all(np.diff(out.boundaries) < 0)
    assert np.all(out.boundaries > res.b_c)
    assert np.all(out.tau[1] >= out.tau[0] - 1e-12)
    assert out.estimates[1].mean > out.estimates[0].mean


def test_class_d_counter_family_is_exactly_degenerate():
    cfg = SimConfig(n_paths=500, horizon=50.0, seed=41)
    result = class_d_diagnostic(NegPoisson(a=1.0), 0.5, [1, 2, 4], cfg)
    assert result.estimates[0] == McEstimate(1.0, 0.0, 500, 0.0)
    assert result.estimates[1].mean == 0.0
    assert result.estimates[2].mean == 0.0
    with pytest.raises(ArithmeticError, match="log-log"):
        result.loglog_slope()


def test_class_d_brownian_ladder_decays_inversely():
    cfg = SimConfig(n_paths=40000, dt=0.02, horizon=80.0, seed=45)
    result = class_d_diagnostic(BM, 1.0, [2, 4, 16], cfg)
    means = [e.mean for e in result.estimates]
    assert means[0] > means[1] > means[2] > 0.0
    # drift-2 mirror makes P(reach -ln n) = n^-2, so the ladder is ~1/n
    assert -1.25 < result.loglog_slope() < -0.75


def test_exact_increment_sampler_matches_exponent():
    t = 0.6
    models = [BM, BrownianDrift(m=-0.4, sigma=0.7),
              KouJD(m=0.1, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0),
              ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5),
              NegPoisson(a=1.0),
              SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)]
    for i, model in enumerate(models):
        x = sample_increment(model, t, 150000, seed=100 + i)
        ex = np.exp(x)
        se = float(np.std(ex, ddof=1)) / math.sqrt(x.size)
        assert abs(float(np.mean(ex)) - math.exp(psi(model, 1.0) * t)) \
            < 4.0 * se, model.family


def test_truncation_fraction_counts_horizon_survivors():
    cfg = SimConfig(n_paths=2000, dt=0.01, horizon=0.25, seed=49)
    est_l, est_g = hitting_estimates(BM, 1.0, [-4.0], cfg)[0]
    assert est_l.truncation_fraction > 0.9
    assert est_l.mean < 0.05
    assert est_l.n_effective == 2000
    assert est_l.truncation_fraction == est_g.truncation_fraction


def test_config_validation():
    for n_paths in (0, math.nan, 2.5, 1000.0):
        with pytest.raises(ValueError, match="n_paths"):
            SimConfig(n_paths=n_paths)
    for dt in (0.0, math.nan):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(n_paths=10, dt=dt)
    for horizon in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(n_paths=10, horizon=horizon)
    for batch_size in (0, math.nan, 512.5):
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(n_paths=10, batch_size=batch_size)
    # numpy integers are integers
    cfg = SimConfig(n_paths=np.int64(10), batch_size=np.int32(4))
    assert cfg.n_paths == 10 and cfg.batch_size == 4


def test_argument_validation():
    cfg = SimConfig(n_paths=10, dt=0.1, horizon=1.0)
    with pytest.raises(ValueError, match="negative"):
        hitting_estimates(BM, 1.0, [0.0], cfg)
    with pytest.raises(ValueError, match="r must be positive"):
        hitting_estimates(BM, 0.0, [-1.0], cfg)
    with pytest.raises(ValueError, match="negative"):
        hitting_estimates(BM, 1.0, [-1.0, 0.5], cfg)
    with pytest.raises(ValueError, match="positive"):
        policy_value(BM_SPEC, -0.1, cfg)
    with pytest.raises(ValueError, match="ascending"):
        sweep(BM_SPEC, [0.5, 0.3], cfg)
    with pytest.raises(ValueError, match="positive"):
        sweep(BM_SPEC, [-0.5, 0.3], cfg)
    with pytest.raises(ValueError, match="non-empty"):
        sweep(BM_SPEC, [], cfg)
    res = threshold(BM_SPEC)
    with pytest.raises(ValueError, match="descending"):
        epsilon_stop_paths(BM_SPEC, res, [1e-3, 1e-2], cfg)
    with pytest.raises(ValueError, match="positive"):
        epsilon_stop_paths(BM_SPEC, res, [1e-2, -1e-3], cfg)
    with pytest.raises(ValueError, match="r > psi"):
        class_d_diagnostic(BM, 0.3, [2, 4], cfg)
    with pytest.raises(ValueError, match="increasing"):
        class_d_diagnostic(BM, 1.0, [4, 2], cfg)
    with pytest.raises(ValueError, match=">= 1"):
        class_d_diagnostic(BM, 1.0, [0, 2], cfg)
    with pytest.raises(ValueError, match="t must be positive"):
        sample_increment(BM, 0.0, 10, seed=1)
    # NaN inputs get an error, never a silent answer.
    with pytest.raises(ValueError, match="NaN"):
        hitting_estimates(BM, 1.0, [math.nan], cfg)
    with pytest.raises(ValueError, match="r must be positive"):
        hitting_estimates(BM, math.nan, [-0.5], cfg)
    with pytest.raises(ValueError, match="r > psi"):
        class_d_diagnostic(BM, math.nan, [1, 2], cfg)
    with pytest.raises(ValueError, match="t must be positive"):
        sample_increment(BM, math.nan, 3, seed=1)
    with pytest.raises(ValueError, match="NaN"):
        policy_value(BM_SPEC, math.nan, cfg)
    with pytest.raises(ValueError, match="NaN"):
        sweep(BM_SPEC, [math.nan], cfg)
    with pytest.raises(ValueError, match="positive"):
        epsilon_region(BM_SPEC, None, math.nan)
    with pytest.raises(ValueError, match="positive"):
        epsilon_stop_paths(BM_SPEC, res, [math.nan], cfg)
