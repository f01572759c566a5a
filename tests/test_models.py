"""Laplace exponents, model validation, and assumption checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levystop.models import (AssumptionError, BrownianDrift, ExpJD, KouJD,
                             NegPoisson, ProblemSpec, SpectNegKou,
                             assumption_report, model_from_dict,
                             model_to_dict, phi, psi, psi1, spec_from_dict,
                             spec_to_dict)

# Sane fuzz ranges: away from the eta1 -> 1 finite-mean boundary and from
# vanishing jump rates where roots degenerate.
ms = st.floats(-2.0, 2.0)
sigmas = st.floats(0.05, 3.0)
rates = st.floats(0.05, 4.0)
probs = st.floats(0.05, 0.95)
eta1s = st.floats(1.05, 8.0)
eta2s = st.floats(0.1, 8.0)


def make_models(m, sigma, a, p, eta1, eta2):
    return [
        BrownianDrift(m=m, sigma=sigma),
        KouJD(m=m, sigma=sigma, a=a, p=p, eta1=eta1, eta2=eta2),
        ExpJD(m=m, sigma=sigma, a=a, eta1=eta1),
        NegPoisson(a=a),
        SpectNegKou(m=m, sigma=sigma, a=a, eta2=eta2),
    ]


def test_psi_closed_forms_pinned():
    assert psi(BrownianDrift(m=0.0, sigma=1.0), 1.0) == pytest.approx(0.5)
    assert psi(BrownianDrift(m=0.3, sigma=0.5), 2.0) == pytest.approx(
        0.3 * 2 + 0.25 * 4 / 2)
    kou = KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)
    # m + sigma^2/2 + a(p eta1/(eta1-1) + q eta2/(eta2+1) - 1)
    expected = 0.05 + 0.045 + 0.5 * (0.4 * 3 / 2 + 0.6 * 2 / 3 - 1.0)
    assert psi(kou, 1.0) == pytest.approx(expected, rel=1e-14)
    assert psi(NegPoisson(a=2.0), 1.0) == pytest.approx(2.0 * (math.e**-1 - 1))
    ej = ExpJD(m=0.1, sigma=0.4, a=0.7, eta1=2.0)
    assert psi(ej, 1.0) == pytest.approx(0.1 + 0.08 + 0.7 * 1.0, rel=1e-14)
    sn = SpectNegKou(m=0.1, sigma=0.4, a=0.7, eta2=2.0)
    assert psi(sn, 1.0) == pytest.approx(0.1 + 0.08 + 0.7 * (2 / 3 - 1),
                                         rel=1e-14)


@given(ms, sigmas, rates, probs, eta1s, eta2s)
@settings(max_examples=60, deadline=None)
def test_psi_zero_at_origin(m, sigma, a, p, eta1, eta2):
    for model in make_models(m, sigma, a, p, eta1, eta2):
        assert abs(psi(model, 0.0)) <= 1e-14 * (1.0 + a)


@given(ms, sigmas, rates, probs, eta1s, eta2s, st.floats(0.01, 0.99),
       st.data())
@settings(max_examples=60, deadline=None)
def test_psi_convex_on_valid_chords(m, sigma, a, p, eta1, eta2, wt, data):
    # psi is convex on the interior of its domain: chord above midpoint.
    for model in make_models(m, sigma, a, p, eta1, eta2):
        lo, hi = -5.0, 5.0
        if isinstance(model, (KouJD, ExpJD)):
            hi = eta1 * 0.98
        if isinstance(model, (KouJD, SpectNegKou)):
            lo = -eta2 * 0.98
        lam1 = data.draw(st.floats(lo, hi))
        lam2 = data.draw(st.floats(lo, hi))
        mid = wt * lam1 + (1 - wt) * lam2
        chord = wt * psi(model, lam1) + (1 - wt) * psi(model, lam2)
        assert psi(model, mid) <= chord + 1e-9 * (1 + abs(chord))


def test_psi_is_array_aware():
    model = KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)
    lam = np.array([-1.5, 0.0, 0.5, 1.0])
    vec = psi(model, lam)
    assert vec.shape == lam.shape
    for li, vi in zip(lam, vec):
        assert vi == psi(model, float(li))


def test_counter_exponent_float_and_array_paths_agree():
    # A Python float takes math.exp, so psi1 loads no numpy; an array takes
    # np.exp.  They must agree bit for bit at z = 1, the float psi1 passes.
    for a in np.geomspace(1e-3, 1e3, 241):
        model = NegPoisson(a=float(a))
        assert model.exponent(1.0) == float(model.exponent(np.array(1.0)))
        assert psi1(model) == float(psi(model, np.array(1.0)))
    model = NegPoisson(a=1.7)
    lam = np.linspace(-3.0, 3.0, 61)
    vec = psi(model, lam)
    assert isinstance(vec, np.ndarray)
    assert np.array_equal(vec, 1.7 * (np.exp(-lam) - 1.0))


def test_psi_pole_rejection():
    kou = KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)
    for bad in (3.0, 3.5, -2.0, -2.5):
        with pytest.raises(ValueError):
            psi(kou, bad)
    with pytest.raises(ValueError):
        psi(ExpJD(m=0.0, sigma=0.3, a=0.5, eta1=3.0), 3.0)
    with pytest.raises(ValueError):
        psi(SpectNegKou(m=0.0, sigma=0.3, a=0.5, eta2=2.0), -2.0)
    # vector input with one bad entry must also raise
    with pytest.raises(ValueError):
        psi(kou, np.array([0.5, 3.0]))
    # NaN is no point of any domain: an error, never a silent NaN
    for model in (kou, BrownianDrift(m=0.0, sigma=1.0), NegPoisson(a=1.0)):
        with pytest.raises(ValueError, match="NaN"):
            psi(model, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        psi(kou, np.array([0.5, np.nan]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        BrownianDrift(m=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=1.0, eta2=2.0)
    with pytest.raises(ValueError):
        ExpJD(m=0.0, sigma=0.3, a=-0.5, eta1=2.0)
    with pytest.raises(ValueError):
        NegPoisson(a=0.0)
    with pytest.raises(ValueError):
        SpectNegKou(m=0.0, sigma=0.3, a=0.5, eta2=0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: BrownianDrift(m=0.0, sigma=0.0), "sigma must be positive"),
    (lambda: KouJD(m=0.0, sigma=-0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0),
     "sigma must be positive"),
    (lambda: SpectNegKou(m=0.0, sigma=math.nan, a=0.5, eta2=2.0),
     "sigma must be positive"),
    (lambda: KouJD(m=0.0, sigma=0.3, a=0.0, p=0.4, eta1=3.0, eta2=2.0),
     "jump intensity a must be positive"),
    (lambda: ExpJD(m=0.0, sigma=0.3, a=-0.5, eta1=2.0),
     "jump intensity a must be positive"),
    (lambda: SpectNegKou(m=0.0, sigma=0.3, a=math.nan, eta2=2.0),
     "jump intensity a must be positive"),
    (lambda: NegPoisson(a=0.0), "jump intensity a must be positive"),
    (lambda: NegPoisson(a=math.nan), "jump intensity a must be positive"),
    (lambda: KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=1.0, eta2=2.0),
     "eta1 must exceed 1 so E[exp(X_t)] is finite"),
    (lambda: ExpJD(m=0.0, sigma=0.3, a=0.5, eta1=math.nan),
     "eta1 must exceed 1 so E[exp(X_t)] is finite"),
    (lambda: KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=0.0),
     "eta2 must be positive"),
    # -eta2 = 2 is a valid up rate: the rule must read eta2 itself.
    (lambda: SpectNegKou(m=0.0, sigma=0.3, a=0.5, eta2=-2.0),
     "eta2 must be positive"),
    (lambda: KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=-2.0),
     "eta2 must be positive"),
    (lambda: SpectNegKou(m=0.0, sigma=0.3, a=0.5, eta2=math.nan),
     "eta2 must be positive"),
])
def test_family_field_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_kou_degenerate_p_is_rejected_with_redirect():
    with pytest.raises(ValueError, match="SpectNegKou"):
        KouJD(m=0.0, sigma=0.3, a=0.5, p=0.0, eta1=3.0, eta2=2.0)
    with pytest.raises(ValueError, match="ExpJD"):
        KouJD(m=0.0, sigma=0.3, a=0.5, p=1.0, eta1=3.0, eta2=2.0)


def test_phi_brownian_closed_form():
    # m=0: psi(lam) = lam^2/2 so phi(q) = sqrt(2q); q=2 gives exactly 2.
    assert phi(BrownianDrift(m=0.0, sigma=1.0), 2.0) == pytest.approx(
        2.0, abs=1e-12)
    assert phi(BrownianDrift(m=0.0, sigma=1.0), 1.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-13)
    m, sigma, q = 0.4, 0.7, 1.3
    root = phi(BrownianDrift(m=m, sigma=sigma), q)
    assert (-m + math.sqrt(m * m + 2 * q * sigma * sigma)) / (
        sigma * sigma) == pytest.approx(root, rel=1e-12)


@given(ms, sigmas, rates, eta2s, st.floats(0.05, 5.0))
@settings(max_examples=80, deadline=None)
def test_phi_residual_and_largest_root(m, sigma, a, eta2, q):
    model = SpectNegKou(m=m, sigma=sigma, a=a, eta2=eta2)
    root = phi(model, q)
    assert root > 0
    assert abs(psi(model, root) - q) <= 1e-10 * max(1.0, q)
    # largest root: psi is increasing past phi(q)
    assert psi(model, root + 1e-3) > q


def test_phi_undefined_for_up_jump_and_counter_families():
    with pytest.raises(ValueError):
        phi(KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0), 1.0)
    with pytest.raises(ValueError):
        phi(ExpJD(m=0.0, sigma=0.3, a=0.5, eta1=3.0), 1.0)
    with pytest.raises(ValueError, match="bounded above"):
        phi(NegPoisson(a=1.0), 1.0)
    with pytest.raises(ValueError, match="qq > 0"):
        phi(BrownianDrift(m=0.0, sigma=1.0), math.nan)


def test_discounting_assumption_message_names_threshold():
    with pytest.raises(AssumptionError, match=r"psi\(1\) = 0.5"):
        ProblemSpec(model=BrownianDrift(m=0.0, sigma=1.0), r=0.4,
                    alpha=1.0, c=1.0, v=1.0)


def test_spec_rejects_nonpositive_inputs():
    model = BrownianDrift(m=0.0, sigma=1.0)
    for kw in (dict(r=-1.0), dict(r=math.inf), dict(alpha=0.0), dict(c=0.0),
               dict(v=0.0)):
        args = dict(r=1.0, alpha=1.0, c=1.0, v=1.0)
        args.update(kw)
        with pytest.raises((ValueError, AssumptionError)):
            ProblemSpec(model=model, **args)


def test_spec_fields_must_be_numbers():
    # JSON integers are numbers; booleans, strings, null and lists are not.
    doc = {"model": {"family": "brownian", "m": 0, "sigma": 1},
           "r": 1, "alpha": 1.0, "c": 1.0, "v": 1.0}
    assert spec_from_dict(doc).model.sigma == 1.0
    for key, bad in (("v", False), ("alpha", None), ("r", [1.0])):
        with pytest.raises(ValueError,
                           match=f"field {key!r} must be a number"):
            spec_from_dict(dict(doc, **{key: bad}))


def test_b_upper_formula():
    spec = ProblemSpec(model=BrownianDrift(m=0.0, sigma=1.0), r=1.0,
                       alpha=2.0, c=3.0, v=1.0)
    assert spec.b_upper == pytest.approx(3.0 * (1.0 - 0.5) / (1.0 * 2.0))


def test_assumption_report_fields():
    rep = assumption_report(NegPoisson(a=1.0), 0.5)
    assert rep.family == "neg_poisson"
    assert rep.finite_mean and rep.discounting and rep.class_d
    assert rep.all_ok
    bad = assumption_report(BrownianDrift(m=0.0, sigma=1.0), 0.4)
    assert not bad.discounting
    assert not bad.all_ok


@given(ms, sigmas, rates, probs, eta1s, eta2s)
@settings(max_examples=60, deadline=None)
def test_model_dict_round_trip(m, sigma, a, p, eta1, eta2):
    for model in make_models(m, sigma, a, p, eta1, eta2):
        again = model_from_dict(model_to_dict(model))
        assert again == model


def test_model_from_dict_rejects_bad_documents():
    with pytest.raises(ValueError, match="family"):
        model_from_dict({"m": 0.0, "sigma": 1.0})
    with pytest.raises(ValueError, match="unknown family"):
        model_from_dict({"family": "variance_gamma"})
    with pytest.raises(ValueError, match="requires field"):
        model_from_dict({"family": "brownian", "m": 0.0})
    with pytest.raises(ValueError, match="unexpected"):
        model_from_dict({"family": "brownian", "m": 0.0, "sigma": 1.0,
                         "nu": 3.0})
    # The problem document is read by the same checks as the model's.
    brownian = {"family": "brownian", "m": 0.0, "sigma": 1.0}
    with pytest.raises(ValueError, match="requires field 'c'"):
        spec_from_dict({"model": brownian, "r": 1.0, "alpha": 1.0, "v": 1.0})
    with pytest.raises(ValueError, match="unexpected keys for family"):
        spec_from_dict({"model": dict(brownian, nu=3.0), "r": 1.0,
                        "alpha": 1.0, "c": 1.0, "v": 1.0})


def test_spec_dict_round_trip():
    spec = ProblemSpec(model=KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4,
                                   eta1=3.0, eta2=2.0),
                       r=0.5, alpha=1.5, c=2.0, v=3.0)
    assert spec_from_dict(spec_to_dict(spec)) == spec


def test_psi1_matches_psi_at_one():
    model = SpectNegKou(m=0.2, sigma=0.9, a=1.1, eta2=0.7)
    assert psi1(model) == psi(model, 1.0)
