"""Checks on levystop outputs that share no code with the package.

Thresholds are recomputed from the characteristic polynomial with
``np.roots`` and a Newton polish; value curves are checked against
properties every optimal value must have.  Only numpy is imported here.
"""

import math

import numpy as np

THRESHOLD_RTOL = 1e-10


def _polished_real_roots(coeffs):
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-7 * (1.0 + np.abs(roots))].real
    deriv = np.polyder(coeffs)
    for _ in range(4):
        real = real - np.polyval(coeffs, real) / np.polyval(deriv, real)
    return np.sort(real)


def psi1(model):
    """psi(1), the growth rate of E[exp(X_t)], from a family dict."""
    fam = model["family"]
    if fam == "neg_poisson":
        return model["a"] * (1.0 / math.e - 1.0)
    growth = model["m"] + 0.5 * model["sigma"] ** 2
    a = model.get("a", 0.0)
    if fam == "kou":
        p = model["p"]
        growth += a * (p * model["eta1"] / (model["eta1"] - 1.0)
                       + (1.0 - p) * model["eta2"] / (model["eta2"] + 1.0)
                       - 1.0)
    elif fam == "expjd":
        growth += a / (model["eta1"] - 1.0)
    elif fam == "spectneg_kou":
        growth += a * (model["eta2"] / (model["eta2"] + 1.0) - 1.0)
    return growth


def phi(doc):
    """Phi(r), the largest root of psi(beta) = r, for a spectneg_kou dict."""
    model, r = doc["model"], doc["r"]
    m, s2 = model["m"], 0.5 * model["sigma"] ** 2
    a, e2 = model["a"], model["eta2"]
    poly = np.polyadd(np.polymul([s2, m, -(r + a)], [1.0, e2]), [a * e2])
    return _polished_real_roots(poly)[-1]


def threshold(doc):
    """B_c for a problem dict, from polynomial roots of psi(beta) = r."""
    model, r, alpha, c = doc["model"], doc["r"], doc["alpha"], doc["c"]
    fam = model["family"]
    growth = psi1(model)
    if fam == "neg_poisson":
        gamma = model["a"] / (r + model["a"])
        ratio = (1.0 - gamma) / (1.0 - gamma / math.e)
        return c * (r - growth) / (r * alpha) * ratio
    m, s2 = model["m"], 0.5 * model["sigma"] ** 2
    if fam == "brownian":
        lam = (m + math.sqrt(m * m + 4.0 * s2 * r)) / (2.0 * s2)
        ratio = lam / (lam + 1.0)
    elif fam == "kou":
        a, p, e1, e2 = model["a"], model["p"], model["eta1"], model["eta2"]
        poly = np.polymul(np.polymul([s2, m, -(r + a)], [-1.0, e1]),
                          [1.0, e2])
        poly = np.polyadd(poly, np.polymul([a * p * e1], [1.0, e2]))
        poly = np.polyadd(poly, np.polymul([a * (1.0 - p) * e2], [-1.0, e1]))
        psi3, psi2 = _polished_real_roots(poly)[:2]
        ratio = (psi2 * psi3 * (e2 + 1.0)
                 / (e2 * (1.0 - psi2) * (1.0 - psi3)))
    elif fam == "expjd":
        a, e1 = model["a"], model["eta1"]
        poly = np.polyadd(np.polymul([s2, m, -r], [-1.0, e1]), [a, 0.0])
        lam = -_polished_real_roots(poly)[0]
        ratio = lam / (lam + 1.0)
    elif fam == "spectneg_kou":
        big_phi = phi(doc)
        return c * (big_phi - 1.0) / (alpha * big_phi)
    else:
        raise ValueError(f"unknown family {fam!r}")
    return c * (r - growth) / (r * alpha) * ratio


def threshold_error(doc, b_c):
    """Relative error of ``b_c`` against the polynomial-root oracle."""
    want = threshold(doc)
    return abs(b_c - want) / abs(want)


def value_curve_defects(doc, b_c, v, w):
    """Names of the properties the curve ``w`` on grid ``v`` violates.

    w is a supremum of functions affine in v, so it is nondecreasing and
    convex; it is 0 on (0, B_c] and at least max(0, never-stop value).
    The tolerance, 1e-8 of the curve's scale, allows for the transforms'
    stated accuracy: the spectneg_kou route switches formulas at depth
    9/Phi(r) with a seam error below 2e-9, which shows as a kink there.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    r, alpha, c = doc["r"], doc["alpha"], doc["c"]
    never_stop = alpha * v / (r - psi1(doc["model"])) - c / r
    scale = max(c / r, float(np.max(np.abs(never_stop))))
    tol = 1e-8 * scale
    defects = []
    if not np.all(np.isfinite(w)):
        return ["finite"]
    if np.any(w[v <= b_c] != 0.0):
        defects.append("zero_below_b_c")
    if np.any(w < np.maximum(0.0, never_stop) - tol):
        defects.append("lower_bound")
    if np.any(np.diff(w) < -tol):
        defects.append("nondecreasing")
    if np.any(np.diff(w, 2) < -tol):
        defects.append("convex")
    return defects
