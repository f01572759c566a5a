"""Thresholds, value functions, and the epsilon-region solver."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levystop import engine, mc, models, transforms
from levystop.engine import (G_CONTINUOUS, G_DISCONTINUOUS, ThresholdResult,
                             epsilon_region, threshold, value_function)
from levystop.models import (BrownianDrift, ExpJD, KouJD, NegPoisson,
                             ProblemSpec, SpectNegKou, psi)
from levystop.transforms import HittingTransforms

from convexity import convexity_report


def brownian_value_oracle(spec, v):
    """Driftless unit-volatility closed form for w on the hold region."""
    r, alpha, c = spec.r, spec.alpha, spec.c
    s2r = math.sqrt(2.0 * r)
    bc = c * s2r * (r - 0.5) / (alpha * r * (s2r + 1.0))
    if v <= bc:
        return 0.0
    return (alpha * v / (r - 0.5) - c / r
            + (c / (r * (1.0 + s2r))) * (v / bc) ** (-s2r))


def sample_specs():
    return [
        ProblemSpec(model=BrownianDrift(m=0.0, sigma=1.0), r=1.0,
                    alpha=1.0, c=1.0, v=1.0),
        ProblemSpec(model=KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4, eta1=3.0,
                                eta2=2.0), r=0.5, alpha=1.0, c=1.0, v=1.0),
        ProblemSpec(model=ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5), r=2.0,
                    alpha=1.0, c=1.0, v=1.0),
        ProblemSpec(model=NegPoisson(a=1.0), r=0.5, alpha=1.0, c=1.0,
                    v=3.2),
        ProblemSpec(model=SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8),
                    r=2.0, alpha=1.0, c=1.0, v=1.0),
    ]


def test_driftless_brownian_threshold_formula():
    # B_c = c sqrt(2r) (r - 1/2) / (alpha r (sqrt(2r) + 1))
    spec = ProblemSpec(model=BrownianDrift(m=0.0, sigma=1.0), r=1.0,
                       alpha=1.0, c=1.0, v=1.0)
    res = threshold(spec)
    assert res.b_c == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-14)
    assert res.regime == G_CONTINUOUS
    assert res.regime == "G-continuous"
    assert res.phi_r == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_brownian_threshold_scales_linearly_in_c_over_alpha():
    model = BrownianDrift(m=0.2, sigma=0.8)
    base = threshold(ProblemSpec(model=model, r=1.0, alpha=1.0, c=1.0,
                                 v=1.0)).b_c
    doubled = threshold(ProblemSpec(model=model, r=1.0, alpha=1.0, c=2.0,
                                    v=1.0)).b_c
    halved = threshold(ProblemSpec(model=model, r=1.0, alpha=2.0, c=1.0,
                                   v=1.0)).b_c
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)
    assert halved == pytest.approx(0.5 * base, rel=1e-14)


def test_neg_poisson_threshold_is_cost_to_rate_ratio():
    # the bound and the jump ratio cancel: B_c = c/alpha exactly
    for a, r, alpha, c in [(1.0, 0.5, 1.0, 1.0), (3.3, 0.17, 2.0, 5.0),
                           (0.2, 4.0, 0.7, 0.3)]:
        spec = ProblemSpec(model=NegPoisson(a=a), r=r, alpha=alpha, c=c,
                           v=100.0)
        res = threshold(spec)
        assert res.b_c == pytest.approx(c / alpha, rel=1e-12)
        assert res.regime == G_DISCONTINUOUS
        assert res.regime == "G-discontinuous"
        assert res.phi_r is None


def test_threshold_result_json_contract():
    res = threshold(sample_specs()[1])
    doc = res.to_json_dict()
    assert list(doc.keys()) == ["b_c", "regime", "psi1", "phi_r", "roots",
                                "slope_ratio"]
    assert doc["regime"] == "G-continuous"
    assert doc["phi_r"] is None  # two-sided jumps: no right inverse
    assert len(doc["roots"]) == 4
    assert doc["roots"] == sorted(doc["roots"])


def test_threshold_sits_inside_the_hard_bound():
    for spec in sample_specs():
        res = threshold(spec)
        assert 0.0 < res.b_c < spec.b_upper
        assert 0.0 < res.slope_ratio < 1.0
        assert res.b_c == pytest.approx(spec.b_upper * res.slope_ratio,
                                        rel=1e-14)


def test_value_function_matches_brownian_closed_form():
    spec = ProblemSpec(model=BrownianDrift(m=0.0, sigma=1.0), r=1.0,
                       alpha=1.0, c=1.0, v=1.0)
    w = value_function(spec)
    for v in (0.05, 0.29, 0.35, 0.8, 1.7, 6.0, 40.0):
        assert float(w(v)) == pytest.approx(brownian_value_oracle(spec, v),
                                            rel=1e-12, abs=1e-12)


def test_value_function_zero_on_stop_region_positive_beyond():
    for spec in sample_specs():
        w = value_function(spec)
        bc = w.b_c
        vs_stop = np.array([bc * 0.2, bc * 0.9, bc])
        assert np.all(w(vs_stop) == 0.0)
        vs_hold = bc * np.array([1.01, 1.5, 4.0])
        assert np.all(w(vs_hold) > 0.0)
        # continuity at the boundary from the right
        assert float(w(bc * (1.0 + 1e-9))) < 1e-6


def test_value_function_increasing_and_dominates_payoff_gap():
    for spec in sample_specs():
        w = value_function(spec)
        vs = np.linspace(w.b_c * 1.0001, w.b_c * 8.0, 300)
        wv = w(vs)
        assert np.all(np.diff(wv) > -1e-10)
        # s = w + f stays within [0, c/r]
        s = wv + (-spec.alpha * vs / (spec.r - spec.psi1)
                  + spec.c / spec.r)
        assert np.all(s >= -1e-10)
        assert np.all(s <= spec.c / spec.r + 1e-10)


def test_value_function_vectorization_matches_scalars():
    spec = sample_specs()[4]
    w = value_function(spec)
    vs = np.array([0.1, 0.4, 0.9, 2.2])
    vec = w(vs)
    for vi, wi in zip(vs, vec):
        assert wi == float(w(float(vi)))


def test_value_function_reuses_or_solves_the_same_roots():
    for spec in sample_specs():
        res = threshold(spec)
        grid = np.linspace(0.5 * res.b_c, 10.0 * res.b_c, 256)
        reused = value_function(spec, res)(grid)
        assert reused.tobytes() == value_function(spec)(grid).tobytes()


def test_value_function_rejects_a_result_for_another_problem():
    spec = sample_specs()[1]
    res = threshold(spec)
    for other in (
            dataclasses.replace(spec, model=dataclasses.replace(
                spec.model, m=0.1)),
            dataclasses.replace(spec, model=ExpJD(m=0.05, sigma=0.3, a=0.5,
                                                  eta1=3.0)),
            dataclasses.replace(spec, r=0.7),
            dataclasses.replace(spec, alpha=2.0),
            dataclasses.replace(spec, c=2.0)):
        with pytest.raises(ValueError, match="another model"):
            value_function(other, res)
        with pytest.raises(ValueError, match="another model"):
            epsilon_region(other, res, 1e-3)
    # v does not enter the threshold, so a result serves every start value.
    moved = dataclasses.replace(spec, v=3.0)
    grid = np.linspace(0.5 * res.b_c, 10.0 * res.b_c, 256)
    assert (value_function(moved, res)(grid).tobytes()
            == value_function(moved)(grid).tobytes())


def test_value_function_rejects_nonpositive_v():
    # w, s and f check v alike: not positive or finite is an input error,
    # and an overflowing alpha v / (r - psi(1)) (here 2 v) a numerical one.
    for spec in sample_specs():
        w = value_function(spec)
        for fn in (w, w.s, w.f):
            for v in (0.0, -1.0, np.array([1.0, 0.0]), np.array([-2.0]),
                      np.nan, np.array([1.0, np.nan]), np.inf,
                      np.array([1.0, np.inf])):
                with pytest.raises(ValueError, match="v must be positive"):
                    fn(v)
    w = value_function(sample_specs()[0])
    for fn in (w, w.s, w.f):
        for v in (1.7e308, np.array([1.0, 1.7e308])):
            with pytest.raises(ArithmeticError, match="overflows at v = 1.7e"):
                fn(v)
    # Where alpha / (r - psi(1)) * v is a float, f is too, though alpha v
    # overflows (alpha 3, v 1e308): f multiplies in the order w checks.
    for model in (NegPoisson(a=1.0), BrownianDrift(m=0.0, sigma=1.0)):
        spec = ProblemSpec(model=model, r=5.0, alpha=3.0, c=1.0, v=1.0)
        assert math.isfinite(value_function(spec).f(1e308))


def test_one_root_solve_per_spec(monkeypatch):
    """threshold and every consumer of its result share one transforms."""
    built = []
    init = HittingTransforms.__init__

    def counting_init(self, model, r):
        built.append(model)
        init(self, model, r)

    monkeypatch.setattr(HittingTransforms, "__init__", counting_init)
    cfg = mc.SimConfig(n_paths=200, horizon=2.0, seed=1)
    for spec in (sample_specs()[0], sample_specs()[1], sample_specs()[3]):
        built.clear()
        res = threshold(spec)
        value_function(spec, res)(np.linspace(0.5 * res.b_c,
                                              10.0 * res.b_c, 256))
        if res.regime == G_CONTINUOUS:
            convexity_report(spec, res)
        else:
            with pytest.raises(ValueError):
                convexity_report(spec, res)
        epsilon_region(spec, res, 1e-3)
        mc.epsilon_stop_paths(spec, res, [1e-1, 1e-3], cfg)
        assert built == [spec.model]


def test_neg_poisson_value_continuous_at_threshold_and_bucket_edges():
    spec = ProblemSpec(model=NegPoisson(a=1.0), r=0.5, alpha=1.0, c=1.0,
                       v=3.2)
    w = value_function(spec)
    bc = w.b_c
    eps = 1e-9
    # continuity right at B_c
    assert abs(float(w(bc * (1 + eps))) - float(w(bc))) < 1e-7
    # and across the jump-bucket edges above it
    for k in (1, 2, 3):
        edge = bc * math.exp(k)
        left = float(w(edge * (1 - eps)))
        right = float(w(edge * (1 + eps)))
        assert abs(left - right) < 1e-7


def test_smooth_fit_for_continuous_regime_families():
    for spec in sample_specs():
        if threshold(spec).regime != G_CONTINUOUS:
            continue
        rep = convexity_report(spec)
        assert rep.convex_ok
        assert rep.tangency_ok
        assert rep.ok
        assert rep.min_second_diff > 0.0
        assert abs(rep.tangency_gap) < 1e-6


def test_convexity_report_rejects_discontinuous_regime():
    spec = ProblemSpec(model=NegPoisson(a=1.0), r=0.5, alpha=1.0, c=1.0,
                       v=3.2)
    with pytest.raises(ValueError):
        convexity_report(spec)



def test_epsilon_region_brackets_threshold_and_inverts_w():
    for spec in sample_specs():
        res = threshold(spec)
        w = value_function(spec, res)
        for eps in (1e-1, 1e-3):
            b = epsilon_region(spec, res, eps)
            assert b > res.b_c
            assert float(w(b)) == pytest.approx(eps, rel=1e-8)
        # shrinking tolerance converges to the optimal threshold
        assert epsilon_region(spec, res, 1e-12) == pytest.approx(
            res.b_c, rel=1e-4)


def test_epsilon_region_rejects_nonpositive_eps():
    spec = sample_specs()[0]
    res = threshold(spec)
    with pytest.raises(ValueError):
        epsilon_region(spec, res, 0.0)


@given(st.floats(-1.0, 1.0), st.floats(0.2, 2.0), st.floats(0.05, 2.0),
       st.floats(0.1, 0.9), st.floats(1.2, 6.0), st.floats(0.2, 6.0),
       st.floats(0.1, 3.0), st.floats(0.3, 3.0), st.floats(0.3, 3.0))
@settings(max_examples=40, deadline=None)
def test_fuzzed_threshold_invariants(m, sigma, a, p, eta1, eta2, alpha, c,
                                     r_gap):
    model = KouJD(m=m, sigma=sigma, a=a, p=p, eta1=eta1, eta2=eta2)
    r = psi(model, 1.0) + r_gap
    if r <= 0:
        return
    spec = ProblemSpec(model=model, r=r, alpha=alpha, c=c, v=1.0)
    res = threshold(spec)
    assert 0.0 < res.b_c < spec.b_upper
    w = value_function(spec, res)
    assert float(w(res.b_c)) == 0.0
    assert float(w(res.b_c * 3.0)) > 0.0


# The reported roots and phi(r) of ``sample_specs``, as threshold solved and
# stored them before they became on-demand properties.
REPORTED = {
    "brownian": (float.fromhex("0x1.6a09e667f3bcdp+0"), None),
    "kou": (None, tuple(float.fromhex(x) for x in (
        "-0x1.61eb39610e9bep+2", "-0x1.4b36fcba0efe0p+0",
        "0x1.f5ff5de477226p+0", "0x1.301caf4f58210p+2"))),
    "expjd": (None, (float.fromhex("-0x1.2670c512b2196p+1"),)),
    "neg_poisson": (None, None),
    "spectneg_kou": (float.fromhex("0x1.84e02410f46a1p+1"), None),
}


def test_threshold_solves_the_report_roots_only_when_read(monkeypatch):
    solves = []
    for module in (engine, models, transforms):
        def counting(model, q, side=0, _solve=module.real_roots):
            solves.append(side)
            return _solve(model, q, side)
        monkeypatch.setattr(module, "real_roots", counting)
    for spec in sample_specs():
        solves.clear()
        res = threshold(spec)
        assert +1 not in solves and 0 not in solves, spec.model.family
        assert (res.phi_r, res.roots) == REPORTED[spec.model.family]
        # a second read reuses the first solve
        before = len(solves)
        assert (res.phi_r, res.roots) == REPORTED[spec.model.family]
        assert len(solves) == before
        assert solves.count(+1) == (spec.model.family in (
            "brownian", "kou", "spectneg_kou"))


def test_threshold_leaves_the_value_weights_unbuilt():
    # The one table of per-root weights is built on the first value call,
    # so threshold pays nothing for it, on every family.
    for spec in sample_specs():
        res = threshold(spec)
        assert "_terms" not in vars(res.transforms), spec.model.family
        value_function(spec, res)(2.0 * res.b_c)
        assert "_terms" in vars(res.transforms)
        assert len(res.transforms._terms) == max(len(res.transforms.roots),
                                                 1)


def test_threshold_result_equality_tells_models_apart():
    spec = sample_specs()[1]
    res = threshold(spec)
    again = threshold(spec)
    assert res == again and hash(res) == hash(again)
    assert (res.model, res.r) == (spec.model, spec.r)
    # every reported number kept, but solved on another model or rate
    other = dataclasses.replace(spec.model, p=0.5)
    for transforms_ in (HittingTransforms(other, spec.r),
                        HittingTransforms(spec.model, 0.7)):
        moved = dataclasses.replace(res, transforms=transforms_)
        assert moved.b_c == res.b_c
        assert moved != res


def test_threshold_result_is_frozen():
    res = threshold(sample_specs()[0])
    assert isinstance(res, ThresholdResult)
    with pytest.raises(AttributeError):
        res.b_c = 1.0
