"""Residue-form scale functions against oracles that share no code with them.

Three independent oracles: the two-exponential Brownian closed form; the
residue expansion W^(q)(x) = sum_i e^{beta_i x}/psi'(beta_i) over roots
from numpy's polynomial root finder; and numerical Laplace inversion of the
transforms 1/(psi(s) - q), s/(psi(s) - q) and psi(s)/(s (psi(s) - q)) by
fixed Talbot and Euler summation.  The production path uses none of them.
"""

import math

import numpy as np
import pytest

from levystop.models import BrownianDrift, SpectNegKou, psi
from levystop.scale import ScaleFunction
from levystop.transforms import HittingTransforms


def invert_laplace_talbot(transform, x, nodes=24):
    """Fixed-Talbot inversion of ``transform`` at positive abscissae ``x``.

    ``transform`` must accept a complex ndarray.  Vectorised over ``x``; the
    contour scale is 2 * nodes / (5 x) per point.  The contour multiplies
    roundoff by roughly exp(2 * nodes / 5); 24 nodes leaves the floor near
    1e-12.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ValueError("Talbot inversion needs x > 0")
    m = int(nodes)
    rad = 2.0 * m / (5.0 * x_arr)                       # (n,)
    theta = np.arange(1, m) * (math.pi / m)             # (m-1,)
    cot = 1.0 / np.tan(theta)
    s = rad[:, None] * theta * (cot + 1j)               # (n, m-1)
    sigma = theta + (theta * cot - 1.0) * cot
    terms = np.exp(x_arr[:, None] * s) * transform(s) * (1.0 + 1j * sigma)
    acc = 0.5 * np.exp(rad * x_arr) * np.real(
        transform(rad.astype(complex)))
    acc = acc + np.sum(np.real(terms), axis=1)
    out = acc * 2.0 / (5.0 * x_arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def invert_laplace_euler(transform, x, decay=30.0, n_terms=40, n_avg=15):
    """Euler-summation inversion (Abate-Whitt) at positive abscissae ``x``.

    Built from a different quadrature than fixed Talbot, which makes the
    pair a cross-check.  Discretisation error is about exp(-decay).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ValueError("Euler inversion needs x > 0")
    total = n_terms + n_avg
    k = np.arange(1, total + 1)
    s = (decay + 2j * math.pi * k) / (2.0 * x_arr[:, None])   # (n, total)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    increments = signs * np.real(transform(s))               # (n, total)
    base = 0.5 * np.real(transform(
        np.full_like(x_arr, decay / 2.0, dtype=complex) / x_arr))
    partial = base[:, None] + np.cumsum(increments, axis=1)  # (n, total)
    weights = np.array([math.comb(n_avg, j) for j in range(n_avg + 1)],
                       dtype=float) / 2.0**n_avg
    averaged = partial[:, n_terms - 1: n_terms + n_avg] @ weights
    out = averaged * math.exp(decay / 2.0) / x_arr
    return float(out[0]) if np.ndim(x) == 0 else out


def psi_complex(model, z):
    """The exponent written out again, for complex z."""
    out = model.m * z + 0.5 * model.sigma**2 * z * z
    if isinstance(model, SpectNegKou):
        out = out + model.a * (model.eta2 / (model.eta2 + z) - 1.0)
    return out


def oracle_roots(model, q):
    """Real roots of the cleared psi(beta) = q, Newton-polished, ascending."""
    s2 = model.sigma**2
    if isinstance(model, BrownianDrift):
        poly = np.array([s2 / 2.0, model.m, -q])
    else:
        a, e2 = model.a, model.eta2
        poly = np.polyadd(np.polymul([s2 / 2.0, model.m, -(q + a)],
                                     [1.0, e2]), [a * e2])
    roots = np.roots(poly)
    roots = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    deriv = np.polyder(poly)
    for _ in range(3):
        roots = roots - np.polyval(poly, roots) / np.polyval(deriv, roots)
    return roots


def dpsi(model, beta):
    out = model.m + model.sigma**2 * beta
    if isinstance(model, SpectNegKou):
        out = out - model.a * model.eta2 / (model.eta2 + beta) ** 2
    return out


def brownian_w(m, sigma, q, x):
    """Two-exponential closed form for the Brownian scale function."""
    s2 = sigma * sigma
    disc = math.sqrt(m * m + 2.0 * q * s2)
    bp = (-m + disc) / s2
    bm = (-m - disc) / s2
    x = np.asarray(x, dtype=float)
    return (np.exp(bp * x) - np.exp(bm * x)) / disc


def spectneg_w_residues(model, q, x):
    """Residue-sum oracle from the cleared cubic's three real roots."""
    roots = oracle_roots(model, q)
    assert roots.size == 3
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for b in roots:
        total += np.exp(b * x) / dpsi(model, b)
    return total


def test_brownian_matches_sinh_form():
    sf = ScaleFunction(BrownianDrift(m=0.0, sigma=1.0), 1.0, x_max=6.0)
    xs = np.linspace(0.0, 5.0, 401)
    exact = math.sqrt(2.0) * np.sinh(math.sqrt(2.0) * xs)
    got = sf.W(xs)
    assert np.max(np.abs(got - exact)) < 1e-6 * max(1.0, np.max(exact))


def test_brownian_with_drift_matches_two_exponential_form():
    model = BrownianDrift(m=-0.4, sigma=0.8)
    q = 1.7
    sf = ScaleFunction(model, q, x_max=5.0)
    xs = np.linspace(0.0, 4.5, 201)
    exact = brownian_w(model.m, model.sigma, q, xs)
    assert np.max(np.abs(sf.W(xs) - exact) / (1.0 + exact)) < 1e-7


def test_spectneg_matches_residue_oracle():
    model = SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)
    q = 2.0
    sf = ScaleFunction(model, q, x_max=6.0)
    xs = np.linspace(0.05, 5.5, 150)
    exact = spectneg_w_residues(model, q, xs)
    assert np.max(np.abs(sf.W(xs) - exact) / (1.0 + exact)) < 1e-7
    # derivative against a residue-sum finite difference
    h = 1e-6
    fd = (spectneg_w_residues(model, q, xs + h)
          - spectneg_w_residues(model, q, xs - h)) / (2 * h)
    assert np.max(np.abs(sf.Wprime(xs) - fd) / (1.0 + np.abs(fd))) < 1e-4


def test_w_prime_at_zero_is_two_over_sigma_squared():
    for model in (BrownianDrift(m=0.2, sigma=0.6),
                  SpectNegKou(m=0.0, sigma=0.5, a=1.2, eta2=2.5)):
        sf = ScaleFunction(model, 1.0, x_max=3.0)
        expected = 2.0 / model.sigma**2
        assert sf.Wprime(0.0) == pytest.approx(expected, rel=1e-12)
        # a forward difference of W agrees
        h = 1e-4
        assert (sf.W(h) - sf.W(0.0)) / h == pytest.approx(expected, rel=2e-3)


def test_z_is_antiderivative_of_w():
    model = SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8)
    q = 1.3
    sf = ScaleFunction(model, q, x_max=5.0)
    xs = np.linspace(0.2, 4.0, 40)
    h = 1e-5
    fd = (sf.Z(xs + h) - sf.Z(xs - h)) / (2 * h)
    assert np.max(np.abs(fd - q * sf.W(xs)) / (1.0 + np.abs(fd))) < 1e-5


def test_z_at_zero_and_negative_argument_conventions():
    sf = ScaleFunction(BrownianDrift(m=0.0, sigma=1.0), 1.0, x_max=3.0)
    assert sf.Z(0.0) == 1.0
    assert sf.W(0.0) == 0.0
    assert sf.W(-2.0) == 0.0
    assert sf.Z(-2.0) == 1.0


def test_laplace_round_trip_numeric():
    # integral of e^{-beta x} W(x) dx reproduces 1/(psi(beta)-q); the tail
    # beyond x_max is closed under the two-exponential Brownian form.
    model = BrownianDrift(m=0.1, sigma=1.0)
    q = 1.0
    x_max = 10.0
    sf = ScaleFunction(model, q, x_max=x_max)
    s2 = model.sigma**2
    disc = math.sqrt(model.m**2 + 2 * q * s2)
    bp = (-model.m + disc) / s2
    bm = (-model.m - disc) / s2
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, x_max, 20001)
    wx = sf.W(xs)
    for beta in rng.uniform(bp + 0.5, bp + 5.0, 20):
        body = np.trapezoid(np.exp(-beta * xs) * wx, xs)
        tail = (np.exp((bp - beta) * x_max) / (beta - bp)
                - np.exp((bm - beta) * x_max) / (beta - bm)) / disc
        target = 1.0 / (psi(model, beta) - q)
        assert body + tail == pytest.approx(target, rel=1e-6)


def test_inverters_agree_on_a_known_transform():
    # F(s) = 1/(s+1)^2 has inverse x e^{-x}.
    waypoint = lambda s: 1.0 / (s + 1.0) ** 2
    xs = np.linspace(0.1, 5.0, 23)
    exact = xs * np.exp(-xs)
    talbot = invert_laplace_talbot(waypoint, xs)
    euler = invert_laplace_euler(waypoint, xs)
    assert np.max(np.abs(talbot - exact)) < 1e-10
    assert np.max(np.abs(euler - exact)) < 1e-7


def test_talbot_rejects_nonpositive_x():
    with pytest.raises(ValueError):
        invert_laplace_talbot(lambda s: 1.0 / s, np.array([0.0]))


def test_scale_function_input_validation():
    for q in (0.0, math.nan):
        with pytest.raises(ValueError, match="q must be positive"):
            ScaleFunction(BrownianDrift(m=0.0, sigma=1.0), q)
    from levystop.models import KouJD
    with pytest.raises(ValueError):
        ScaleFunction(KouJD(m=0.0, sigma=0.3, a=0.5, p=0.4, eta1=3.0,
                            eta2=2.0), 1.0)
    sf = ScaleFunction(BrownianDrift(m=0.0, sigma=1.0), 1.0, x_max=2.0)
    for x in (2.5, math.nan):
        with pytest.raises(ValueError, match="beyond the domain"):
            sf.W(x)
    # Phi(1) is about 2e3 here, so exp(Phi x) leaves the float range
    # before x = 0.36: a typed error, not inf.
    sf = ScaleFunction(SpectNegKou(m=0.0, sigma=1e-3, a=1.0, eta2=2.0), 1.0,
                       x_max=1.0)
    assert np.isfinite(sf.W(0.3))
    for method in (sf.W, sf.Wprime, sf.Z):
        with pytest.raises(ArithmeticError, match="float range"):
            method(0.5)


def test_residue_form_matches_laplace_inversion():
    # Invert the exp(-phi x)-tilted transforms, whose singularities sit at
    # or left of 0, so the inverses stay bounded.
    cases = [(BrownianDrift(m=-0.4, sigma=0.8), 1.7),
             (SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8), 2.0),
             (SpectNegKou(m=-0.3, sigma=0.4, a=1.5, eta2=0.6), 0.5)]
    xs = np.linspace(0.05, 5.0, 60)
    for model, q in cases:
        sf = ScaleFunction(model, q, x_max=5.0)
        big_phi = oracle_roots(model, q)[-1]

        def w_hat(s):
            return 1.0 / (psi_complex(model, s + big_phi) - q)

        def w_prime_hat(s):
            return (s + big_phi) * w_hat(s)

        def z_hat(s):
            return (1.0 + q * w_hat(s)) / (s + big_phi)

        grow = np.exp(big_phi * xs)
        for got, hat in ((sf.W(xs), w_hat), (sf.Wprime(xs), w_prime_hat),
                         (sf.Z(xs), z_hat)):
            for invert in (invert_laplace_talbot, invert_laplace_euler):
                want = grow * invert(hat, xs)
                assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-8


def test_spectneg_transforms_match_scale_function_identity():
    # L = Z - (r/Phi) W and G, its exp(x)-tilted analogue, on the depths
    # y in [0, 9/Phi(r)], from the residue oracle's own roots.
    rng = np.random.default_rng(404)
    cases = [(SpectNegKou(m=-0.45190322277256345, sigma=0.1134744743460159,
                          a=1.9725905971673487, eta2=4.40348348599955),
              1.6875815113505208)]
    while len(cases) < 31:
        model = SpectNegKou(m=rng.uniform(-1.0, 1.0),
                            sigma=rng.uniform(0.1, 1.8),
                            a=rng.uniform(0.1, 2.5), eta2=rng.uniform(0.25, 6.0))
        cases.append((model, max(psi(model, 1.0), 0.0)
                      + rng.uniform(0.15, 2.5)))
    for model, r in cases:
        roots = oracle_roots(model, r)
        big_phi = roots[-1]
        weights = 1.0 / dpsi(model, roots)
        gap = r - psi(model, 1.0)
        ys = np.linspace(0.0, 9.0 / big_phi, 200)[:, None]
        w = np.exp(roots * ys) @ weights
        z = 1.0 + r * (np.expm1(roots * ys) @ (weights / roots))
        w1 = np.exp((roots - 1.0) * ys) @ weights
        z1 = 1.0 + gap * (np.expm1((roots - 1.0) * ys) @ (weights
                                                          / (roots - 1.0)))
        ht = HittingTransforms(model, r)
        x = -ys[:, 0]
        assert np.max(np.abs(ht.L(x) - (z - r / big_phi * w))) < 1e-10
        assert np.max(np.abs(ht.G(x) - (z1 - gap / (big_phi - 1.0) * w1))) \
            < 1e-10


def test_arrays_and_scalars_agree_to_the_last_bit():
    # The residues are summed root by root, as in transforms._root_sum, so
    # an array argument gives each point the bits of its scalar call.
    xs = np.concatenate(([-0.5], np.linspace(0.0, 10.0, 1001)))
    for model in (SpectNegKou(m=0.1, sigma=0.7, a=0.9, eta2=1.8),
                  BrownianDrift(m=0.3, sigma=0.8)):
        sf = ScaleFunction(model, 2.0, x_max=10.0)
        for fn in (sf.W, sf.Wprime, sf.Z):
            vec = fn(xs)
            assert vec.shape == xs.shape
            assert vec.tolist() == [fn(float(x)) for x in xs]
