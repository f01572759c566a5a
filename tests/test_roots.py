"""Characteristic roots of psi(beta) = r against a polynomial oracle.

The oracle clears denominators of the rational equation and hands the
resulting polynomial to numpy's companion-matrix solver, which shares no
code with the production bracketed Newton-bisection.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levystop.models import ExpJD, KouJD, NegPoisson, SpectNegKou, psi
from levystop.roots import RootBracketError, emery_root, kou_roots

rng_ranges = dict(
    m=st.floats(-2.0, 2.0), sigma=st.floats(0.1, 3.0),
    a=st.floats(0.05, 4.0), p=st.floats(0.05, 0.95),
    eta1=st.floats(1.05, 8.0), eta2=st.floats(0.1, 8.0),
    r=st.floats(0.05, 5.0),
)


def _real_roots_of_cleared_kou(model, r):
    """Quartic from (psi(b) - r)(eta1 - b)(eta2 + b) = 0, poles removed."""
    m, s2 = model.m, model.sigma**2
    a, p, q = model.a, model.p, 1.0 - model.p
    e1, e2 = model.eta1, model.eta2
    base = np.array([s2 / 2.0, m, -(r + a)])  # psi - r without jump terms
    poly = np.polymul(np.polymul(base, [-1.0, e1]), [1.0, e2])
    poly = np.polyadd(poly, np.polymul([a * p * e1], [1.0, e2]))
    poly = np.polyadd(poly, np.polymul([a * q * e2], [-1.0, e1]))
    roots = np.roots(poly)
    return np.sort(roots[np.abs(roots.imag) < 1e-9].real)


def _real_roots_of_cleared_one_sided(m, sigma, a, eta, r, up):
    """Cubic for the single-jump-direction families."""
    s2 = sigma * sigma
    if up:
        # (m b + s2 b^2/2 + a b/(eta-b) - r)(eta - b)
        poly = np.polymul(np.array([s2 / 2.0, m, -r]), [-1.0, eta])
        poly = np.polyadd(poly, [a, 0.0])
    else:
        # jump term a(eta/(eta+b) - 1); multiply through by (eta + b)
        poly = np.polymul(np.array([s2 / 2.0, m, -(r + a)]), [1.0, eta])
        poly = np.polyadd(poly, [a * eta])
    roots = np.roots(poly)
    return np.sort(roots[np.abs(roots.imag) < 1e-9].real)


def test_kou_roots_pinned_configuration():
    # eta1 = 1e8 puts the root beyond the upper pole 3 ulps above it; the
    # pole offset is halved until it lands between the two.
    for model, r in (
            (KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0), 0.5),
            (KouJD(m=-0.2, sigma=0.3, a=0.5, p=0.4, eta1=1e8, eta2=3.0), 1.0)):
        kr = kou_roots(model, r)
        oracle = _real_roots_of_cleared_kou(model, r)
        assert np.allclose(kr, oracle, rtol=1e-10, atol=1e-12)
        psi3, psi2, psi1_root, psi0 = kr
        assert psi3 < -model.eta2 < psi2 < 0 < psi1_root < model.eta1 < psi0


@given(**rng_ranges)
@settings(max_examples=300, deadline=None)
def test_kou_roots_match_polynomial_oracle(m, sigma, a, p, eta1, eta2, r):
    model = KouJD(m=m, sigma=sigma, a=a, p=p, eta1=eta1, eta2=eta2)
    got = np.array(kou_roots(model, r))
    assert got.size == 4
    oracle = _real_roots_of_cleared_kou(model, r)
    assert oracle.size == 4
    scale = 1.0 + np.abs(oracle)
    assert np.all(np.abs(got - oracle) <= 1e-9 * scale)
    # layout around the poles
    assert got[0] < -eta2 < got[1] < 0 < got[2] < eta1 < got[3]


@given(m=rng_ranges["m"], sigma=rng_ranges["sigma"], a=rng_ranges["a"],
       eta1=rng_ranges["eta1"], r=rng_ranges["r"])
@settings(max_examples=200, deadline=None)
def test_expjd_roots_match_cubic_oracle(m, sigma, a, eta1, r):
    model = ExpJD(m=m, sigma=sigma, a=a, eta1=eta1)
    lam_neg, psi1_root, psi0 = kou_roots(model, r)
    oracle = _real_roots_of_cleared_one_sided(m, sigma, a, eta1, r, up=True)
    neg = oracle[oracle < 0]
    pos = oracle[oracle > 0]
    assert neg.size == 1 and pos.size == 2
    assert lam_neg == pytest.approx(neg[0], rel=1e-9)
    assert psi1_root == pytest.approx(pos[0], rel=1e-9)
    assert psi0 == pytest.approx(pos[1], rel=1e-9)


@given(m=rng_ranges["m"], sigma=rng_ranges["sigma"], a=rng_ranges["a"],
       eta2=rng_ranges["eta2"], r=rng_ranges["r"])
@settings(max_examples=200, deadline=None)
def test_spectneg_roots_match_cubic_oracle(m, sigma, a, eta2, r):
    model = SpectNegKou(m=m, sigma=sigma, a=a, eta2=eta2)
    psi3, psi2, psi1_root = kou_roots(model, r)
    oracle = _real_roots_of_cleared_one_sided(m, sigma, a, eta2, r, up=False)
    assert oracle.size == 3
    assert psi3 == pytest.approx(oracle[0], rel=1e-9, abs=1e-11)
    assert psi2 == pytest.approx(oracle[1], rel=1e-9, abs=1e-11)
    assert psi1_root == pytest.approx(oracle[2], rel=1e-9, abs=1e-11)
    assert oracle[0] < -eta2 < oracle[1] < 0 < oracle[2]


@given(m=rng_ranges["m"], sigma=rng_ranges["sigma"], a=rng_ranges["a"],
       p=rng_ranges["p"], eta1=rng_ranges["eta1"], eta2=rng_ranges["eta2"],
       r=rng_ranges["r"])
@settings(max_examples=150, deadline=None)
def test_kou_root_residuals(m, sigma, a, p, eta1, eta2, r):
    model = KouJD(m=m, sigma=sigma, a=a, p=p, eta1=eta1, eta2=eta2)
    _, psi2, psi1_root, _ = kou_roots(model, r)
    for root in (psi1_root, psi2):  # the two inside the pole strip
        assert abs(psi(model, root) - r) <= 1e-10 * max(1.0, r)


@given(m=rng_ranges["m"], sigma=rng_ranges["sigma"], a=rng_ranges["a"],
       eta1=rng_ranges["eta1"], r=rng_ranges["r"])
@settings(max_examples=200, deadline=None)
# Only the negative root is solved, so the unbracketable root beyond
# eta1 = 1e9 is never looked for.
@example(m=-0.2, sigma=0.3, a=0.5, eta1=1e9, r=1.0)
def test_emery_root_solves_tilted_equation(m, sigma, a, eta1, r):
    # psi(-lam) = r has exactly one positive solution for the up-jump model.
    model = ExpJD(m=m, sigma=sigma, a=a, eta1=eta1)
    lam = emery_root(model, r)
    assert lam > 0
    assert psi(model, -lam) == pytest.approx(r, rel=0, abs=1e-10 * max(1, r))


def test_emery_root_positive_drift_exceeds_one():
    # With m >= 0 the root sits beyond 1, matching the up-jump passage
    # bound decaying faster than the payoff grows.
    for m in (0.0, 0.3, 1.0):
        model = ExpJD(m=m, sigma=0.5, a=0.8, eta1=2.5)
        assert emery_root(model, 1.0) > 1.0


def test_root_ordering_is_ascending():
    model = KouJD(m=-0.4, sigma=1.2, a=2.0, p=0.7, eta1=4.0, eta2=0.5)
    ordered = kou_roots(model, 2.0)
    assert list(ordered) == sorted(ordered)


def test_kou_roots_invalid_inputs():
    model = KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)
    with pytest.raises(ValueError):
        kou_roots(model, 0.0)
    with pytest.raises((TypeError, ValueError)):
        kou_roots(NegPoisson(a=1.0), 1.0)
    # At eta1 = 1e9 no float lies between the pole and the root beyond it:
    # a typed error that names the pole, not a division by zero.
    huge = KouJD(m=-0.2, sigma=0.3, a=0.5, p=0.4, eta1=1e9, eta2=3.0)
    with pytest.raises(RootBracketError, match="pole 1000000000.0"):
        kou_roots(huge, 1.0)


def test_positive_root_exceeds_one_under_discounting():
    # r > psi(1) forces the smallest positive root past 1.
    model = KouJD(m=0.05, sigma=0.3, a=0.5, p=0.4, eta1=3.0, eta2=2.0)
    r = psi(model, 1.0) + 0.05
    assert min(b for b in kou_roots(model, r) if b > 0) > 1.0
