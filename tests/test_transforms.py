"""Downward first-passage transforms L and G for all five families."""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levystop import transforms
from levystop.engine import value_function
from levystop.mc import SimConfig, hitting_estimates
from levystop.models import (AssumptionError, BrownianDrift, ExpJD, KouJD,
                             NegPoisson, PhaseJumpDiffusion, ProblemSpec,
                             SpectNegKou, psi)
from levystop.roots import emery_root
from levystop.transforms import HittingTransforms, candidate_value


def all_transforms():
    return [
        HittingTransforms(BrownianDrift(m=0.0, sigma=1.0), 2.0),
        HittingTransforms(KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4, eta1=3.0,
                                eta2=2.0), 0.5),
        HittingTransforms(ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5), 2.0),
        HittingTransforms(NegPoisson(a=1.5), 0.3),
        HittingTransforms(SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8),
                          2.0),
    ]


def test_driftless_unit_brownian_pinned_values():
    # r = 2 gives passage rate sqrt(2r) = 2: L(-1) = e^-2, G(-1) = e^-3.
    ht = HittingTransforms(BrownianDrift(m=0.0, sigma=1.0), 2.0)
    assert ht.L(-1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert ht.G(-1.0) == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_transforms_are_one_at_and_above_zero():
    for ht in all_transforms():
        for x in (0.0, 0.5, 3.0):
            assert ht.L(x) == 1.0
            assert ht.G(x) == 1.0


def test_domination_and_monotonicity_on_grid():
    xs = np.linspace(-8.0, 0.0, 400)
    for ht in all_transforms():
        lv = ht.L(xs)
        gv = ht.G(xs)
        assert np.all(lv >= gv - 1e-12)
        assert np.all(gv >= -1e-15)
        assert np.all(lv <= 1.0 + 1e-12)
        assert np.all(np.diff(lv) >= -1e-12)
        assert np.all(np.diff(gv) >= -1e-12)


def test_brownian_closed_form_any_drift():
    m, sigma, r = -0.4, 1.3, 1.1
    ht = HittingTransforms(BrownianDrift(m=m, sigma=sigma), r)
    lam = (m + math.sqrt(m * m + 2 * r * sigma * sigma)) / (sigma * sigma)
    xs = np.linspace(-4.0, -0.1, 17)
    assert np.allclose(ht.L(xs), np.exp(lam * xs), rtol=1e-12)
    assert np.allclose(ht.G(xs), np.exp((lam + 1.0) * xs), rtol=1e-12)


def test_expjd_uses_emery_rate_and_creeps():
    model = ExpJD(m=-0.3, sigma=0.8, a=0.8, eta1=2.5)
    r = 2.0
    ht = HittingTransforms(model, r)
    lam = emery_root(model, r)
    xs = np.linspace(-3.0, -0.05, 9)
    assert np.allclose(ht.L(xs), np.exp(lam * xs), rtol=1e-10)
    # no downward jumps: passage creeps, so G(x) = e^x L(x) exactly
    assert np.allclose(ht.G(xs), np.exp(xs) * ht.L(xs), rtol=1e-12)


def test_neg_poisson_bucket_values():
    a, r = 1.5, 0.3
    ht = HittingTransforms(NegPoisson(a=a), r)
    gamma = a / (r + a)
    # k-th bucket is i-1 < -x <= i: half-open on the shallow side
    assert ht.L(-0.3) == pytest.approx(gamma, rel=1e-14)
    assert ht.L(-1.0) == pytest.approx(gamma, rel=1e-14)
    assert ht.L(-1.0000001) == pytest.approx(gamma**2, rel=1e-12)
    assert ht.L(-2.5) == pytest.approx(gamma**3, rel=1e-14)
    # overshoot lands exactly on the integer, so G gains e^{-k}
    assert ht.G(-0.3) == pytest.approx(gamma / math.e, rel=1e-14)
    assert ht.G(-2.5) == pytest.approx((gamma / math.e) ** 3, rel=1e-14)


@dataclass(frozen=True)
class TwoDownOneUp(PhaseJumpDiffusion):
    """Down phases of rates 1.5 and 6 and one up phase: no family has two."""

    m: float
    sigma: float
    a: float

    family: ClassVar[str] = "two_down_one_up"
    class_d_note: ClassVar[str] = ""

    def __post_init__(self) -> None:
        self._fix_phases((0.3, 4.0), (0.5, -1.5), (0.2, -6.0))


def test_two_down_phases_match_simulation():
    # The product-form weights with n = 2 down phases, which the JSON
    # families never reach, against the event sampler, which shares no code
    # with the closed form.
    model = TwoDownOneUp(m=-0.1, sigma=0.4, a=1.2)
    r = 1.0
    ht = HittingTransforms(model, r)
    assert len(ht.roots) == 3
    for weights in transforms._root_weights(ht.roots, [1.5, 6.0]):
        assert sum(weights) == pytest.approx(1.0, rel=1e-12)
    x = -1e-7
    assert ht.slope_ratio == pytest.approx(
        (1.0 - ht.L(x)) / (1.0 - ht.G(x)), rel=1e-6)
    levels = [-0.2, -0.6, -1.2]
    estimates = hitting_estimates(model, r, levels,
                                  SimConfig(n_paths=100000, horizon=20.0,
                                            seed=71))
    for x, (est_l, est_g) in zip(levels, estimates):
        assert abs(est_l.mean - ht.L(x)) < 4.0 * est_l.std_error
        assert abs(est_g.mean - ht.G(x)) < 4.0 * est_g.std_error


def test_neg_poisson_G_uses_integer_overshoot_not_level():
    # discontinuity at bucket edges is the G-discontinuous regime marker
    ht = HittingTransforms(NegPoisson(a=1.0), 0.5)
    left = ht.G(-1.0)
    right = ht.G(-1.0 - 1e-9)
    assert left / right > 1.5  # genuine jump, not roundoff


def test_spectneg_scale_route_matches_two_root_closed_form():
    # The same values through the Kou p -> 0 limit: the closed form built
    # from the model's own negative roots against a literal tiny-p Kou
    # model.
    model = SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)
    r = 2.0
    ht = HittingTransforms(model, r)
    tiny_p = HittingTransforms(
        KouJD(m=0.1, sigma=0.7, a=0.9 / (1.0 - 1e-9), p=1e-9, eta1=5.0,
              eta2=1.8), r)
    xs = np.linspace(-2.0, -0.1, 25)
    assert np.max(np.abs(ht.L(xs) - tiny_p.L(xs))) < 1e-6
    assert np.max(np.abs(ht.G(xs) - tiny_p.G(xs))) < 1e-6


def test_spectneg_value_is_convex_past_threshold():
    # w is a supremum of affine functions of v, hence convex.  The grid
    # runs through depth ln(v / B_c) = 9 / Phi(r), where a switch between
    # two evaluation routes would show as a kink.
    spec = ProblemSpec(model=SpectNegKou(m=0.4197, sigma=0.3373, a=0.3017,
                                         eta2=5.353),
                       r=2.532, alpha=1.0, c=1.0, v=1.0)
    w = value_function(spec)
    vs = np.linspace(w.b_c, 10.0 * w.b_c, 1000)[1:]
    scale = spec.alpha * vs[-1] / (spec.r - spec.psi1)
    assert np.min(np.diff(w(vs), 2)) > -1e-13 * scale


@given(st.floats(-6.0, -0.01), st.floats(-1.5, 1.5), st.floats(0.1, 2.0),
       st.floats(0.1, 3.0), st.floats(0.2, 6.0))
@settings(max_examples=60, deadline=None)
def test_fuzzed_domination_spectneg(x, m, sigma, a, eta2):
    model = SpectNegKou(m=m, sigma=sigma, a=a, eta2=eta2)
    r = max(psi(model, 1.0), 0.0) + 0.3
    ht = HittingTransforms(model, r)
    lv = float(ht.L(x))
    gv = float(ht.G(x))
    assert 0.0 <= gv <= 1.0
    assert 0.0 <= lv <= 1.0
    # domination holds up to the absolute accuracy budget
    assert gv <= lv + 1e-8


def test_transforms_require_discounting_margin():
    # The same AssumptionError, with the same message, as ProblemSpec.
    for r in (0.4, 0.5, math.nan):
        with pytest.raises(AssumptionError,
                           match=r"requires r > psi\(1\) = 0.5, got r ="):
            HittingTransforms(BrownianDrift(m=0.0, sigma=1.0), r)
    with pytest.raises(ValueError, match="r must be finite"):
        HittingTransforms(BrownianDrift(m=0.0, sigma=1.0), math.inf)


def test_candidate_value_domain_and_limits():
    spec = ProblemSpec(model=BrownianDrift(m=0.0, sigma=1.0), r=1.0,
                       alpha=1.0, c=1.0, v=1.0)
    ht = HittingTransforms(spec.model, spec.r)
    with pytest.raises(ValueError):
        candidate_value(spec, 0.0, 1.0, ht)
    with pytest.raises(ValueError):
        candidate_value(spec, spec.b_upper * 1.5, 1.0, ht)
    with pytest.raises(ValueError):
        candidate_value(spec, 0.3, -1.0, ht)
    # v at or below b stops immediately: payoff f(v)
    for v in (0.1, 0.3):
        got = candidate_value(spec, 0.3, v, ht)
        f = -spec.alpha * v / (spec.r - spec.psi1) + spec.c / spec.r
        assert got == pytest.approx(f, rel=1e-12)
    # v -> 0+ approaches c/r
    assert candidate_value(spec, 0.3, 1e-12, ht) == pytest.approx(
        spec.c / spec.r, rel=1e-9)


def family_specs():
    """One ProblemSpec per family, on the models and rates above."""
    return [ProblemSpec(model=ht.model, r=ht.r, alpha=1.0, c=1.0, v=1.0)
            for ht in all_transforms()]


def test_candidate_value_is_array_aware():
    for spec in family_specs():
        ht = HittingTransforms(spec.model, spec.r)
        b = 0.6 * spec.b_upper
        vs = b * np.array([1.0 / 3.0, 1.0, 3.0, 20.0 / 3.0])
        vec = candidate_value(spec, b, vs, ht)
        assert vec.shape == vs.shape
        for vi, gi in zip(vs, vec):
            assert gi == candidate_value(spec, b, float(vi), ht), \
                spec.model.family


# The fused power sum against L and G evaluated apart, in units of
# eps * (c/r + alpha v / (r - psi(1))), the size of the terms of g.  Over
# two sets of 8000 fuzzed (spec, b) pairs, 200 depths ln(v / b) from -3 to 8
# each, the worst error was 12.3 units; the bound is 2.6 times that.
FUSED_G_UNITS = 32.0


@given(st.sampled_from(["brownian", "kou", "expjd", "spectneg_kou"]),
       st.floats(-1.0, 1.0), st.floats(0.15, 1.8), st.floats(0.1, 2.5),
       st.floats(0.1, 0.9), st.floats(1.2, 6.0), st.floats(0.25, 6.0),
       st.floats(0.15, 2.5), st.floats(0.2, 3.0), st.floats(0.2, 3.0),
       st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_fused_value_matches_separate_transforms(family, m, sigma, a, p, eta1,
                                                 eta2, margin, alpha, c,
                                                 b_frac):
    # The AC-1 fuzz ranges.  L and G read the same per-root table as the
    # fused sum, so this checks the fused coefficients and the change of
    # variable, not the weights.
    model = {"brownian": lambda: BrownianDrift(m=m, sigma=sigma),
             "kou": lambda: KouJD(m=m, sigma=sigma, a=a, p=p, eta1=eta1,
                                  eta2=eta2),
             "expjd": lambda: ExpJD(m=m, sigma=sigma, a=a, eta1=eta1),
             "spectneg_kou": lambda: SpectNegKou(m=m, sigma=sigma, a=a,
                                                 eta2=eta2)}[family]()
    r = max(psi(model, 1.0), 0.0) + margin
    spec = ProblemSpec(model=model, r=r, alpha=alpha, c=c, v=1.0)
    w = value_function(spec)
    ht = w.result.transforms
    lin = alpha / (r - spec.psi1)
    for b in (w.b_c, b_frac * spec.b_upper):
        vs = b * np.exp(np.linspace(-3.0, 8.0, 45))
        x = np.log(np.minimum(b / vs, 1.0))
        separate = -lin * vs * ht.G(x) + c / r * ht.L(x)
        units = np.finfo(float).eps * (c / r + lin * vs)
        fused = candidate_value(spec, b, vs, ht)
        assert np.max(np.abs(fused - separate) / units) < FUSED_G_UNITS
        # at and below b the passage is immediate: g is f, bit for bit
        below = vs[vs <= b]
        assert np.array_equal(fused[vs <= b], -alpha * below / (r - spec.psi1)
                              + c / r)
    stop = w.b_c * np.array([1e-300, 1e-9, 0.5, 1.0])
    assert np.all(w(stop) == 0.0)
    assert all(w(float(v)) == 0.0 for v in stop)


# The counter's g against its lattice formula, in the units above.  Over
# two sets of 2000 fuzzed specs, each at B_c and a random b, the worst error
# was 0.91 units (0.83 when g took L and G as powers of gamma apart).
COUNTER_G_UNITS = 4.0


@given(st.floats(0.1, 5.0), st.floats(0.15, 2.5), st.floats(0.2, 3.0),
       st.floats(0.2, 3.0), st.floats(0.01, 0.99), st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_counter_value_matches_lattice_formula(a, margin, alpha, c, b_frac,
                                               frac):
    # g = c/r gamma^n - alpha v / (r - psi(1)) (gamma / e)^n with
    # gamma = a / (r + a) and n = ceil(ln(v / b)) unit jumps to pass below
    # b.  ln(v / b) stays a fraction ``frac`` past each integer, away from
    # the steps of the ceiling, for v / b from 1 to 1e300.
    model = NegPoisson(a=a)
    r = max(psi(model, 1.0), 0.0) + margin
    spec = ProblemSpec(model=model, r=r, alpha=alpha, c=c, v=1.0)
    w = value_function(spec)
    lin, gamma = alpha / (r - spec.psi1), a / (r + a)
    for b in (w.b_c, b_frac * spec.b_upper):
        vs = b * np.concatenate(([1.0, 1e300], np.exp(np.arange(690) + frac)))
        n = np.ceil(np.log(vs / b))
        lattice = c / r * gamma ** n - lin * vs * (gamma / math.e) ** n
        units = np.finfo(float).eps * (c / r + lin * vs)
        g = candidate_value(spec, b, vs, w.result.transforms)
        assert np.max(np.abs(g - lattice) / units) < COUNTER_G_UNITS
