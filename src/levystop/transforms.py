"""Discounted first-passage transforms and the candidate value g.

``HittingTransforms`` precomputes the constants of the two closed forms

* ``L(x) = E[exp(-r tau_x)]``            (Laplace transform of the passage time)
* ``G(x) = E[exp(-r tau_x + X_{tau_x})]``  (joint transform with the overshoot)

where ``tau_x`` is the first time X falls to or below ``x <= 0``, starting
from 0.  Both equal 1 for x >= 0 (the passage is immediate) and both are
nondecreasing with 0 <= G <= L <= 1.

Every diffusive family is a diffusion with jumps from a mixture of
exponential phases, and its passage transforms share one closed form
(Cai 2009, "On first passage times of a hyper-exponential jump diffusion
process", Oper. Res. Lett. 37; Asmussen, Avram & Pistorius 2004, Stoch.
Proc. Appl. 109).  With n down phases of rates theta_j, psi(beta) = r has
n + 1 negative roots beta_k, and L is a sum of exp(-beta_k x) with
product-form weights; G is the same sum under the Esscher tilt.  With no
down phase the one root gives L = exp(-beta x): X creeps onto the level.
The unit-jump counter has no diffusion: each unit of depth costs one Exp(a)
wait and the passage lands on the integer, so L and G are powers.

The canonical argument is log-moneyness x = ln(b / v); callers never hand
(v, b) pairs to transform code.  ``candidate_value`` performs that change of
variable once, in one place.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Union

import numpy as np

from .models import LevyModel, ProblemSpec, psi1
from .roots import real_roots

__all__ = ["HittingTransforms", "candidate_value"]

ArrayLike = Union[float, np.ndarray]


def _root_terms(roots: tuple, thetas: list, s: float) -> tuple:
    """Pairs (c_k, s - beta_k) of sum_k c_k exp((s - beta_k) x).

    c_k = prod_j (theta_j + beta_k) / (theta_j + s)
          * prod_{i != k} (beta_i - s) / (beta_i - beta_k)
    over the down-phase rates theta_j and the negative roots beta_k, with
    s = 0 for L and s = 1 for G (the same weights under the Esscher tilt).
    """
    terms = []
    for k, beta_k in enumerate(roots):
        c = 1.0
        for theta in thetas:
            c *= (theta + beta_k) / (theta + s)
        for i, beta_i in enumerate(roots):
            if i != k:
                c *= (beta_i - s) / (beta_i - beta_k)
        terms.append((c, s - beta_k))
    return tuple(terms)


def _root_sum(terms: dict, x: np.ndarray, want_joint: bool) -> np.ndarray:
    """sum_k c_k exp(rate_k x) over the L or G terms, divided by sum_k c_k.

    The weights sum to 1 in exact arithmetic.  Dividing by their float sum,
    taken in the same order, makes the value at x = 0 exactly 1.  The sum
    runs elementwise, not as a matrix product, so an array and its scalars
    agree to the last bit.
    """
    (c, rate), *rest = terms[want_joint]
    out, total = c * np.exp(rate * x), c
    for c, rate in rest:
        out, total = out + c * np.exp(rate * x), total + c
    return out / total


def _lattice(gamma: float, x: np.ndarray, want_joint: bool) -> np.ndarray:
    return np.power(gamma / math.e if want_joint else gamma, np.ceil(-x))


class HittingTransforms:
    """Evaluators for L and G, built from the characteristic roots.

    Construction validates the discounting assumption r > psi(1) (the G
    closed forms are derived under it) and solves the real roots of
    psi(beta) = r once; ``roots`` keeps the negative ones, ascending (empty
    for the counter).  ``slope_ratio`` is lim_{x->0-} (1 - L(x)) / (1 - G(x)).
    Evaluation is pure and array-aware; objects are immutable after
    construction.
    """

    def __init__(self, model: LevyModel, r: float) -> None:
        growth = psi1(model)
        if not r > growth:
            raise ValueError("transforms need the discounting assumption "
                             f"r > psi(1) = {growth:.6g}; got r = {r:.6g}")
        self.model = model
        self.r = float(r)
        if not model.diffusive:
            self.roots = ()
            gamma = model.a / (r + model.a)
            self._passage = partial(_lattice, gamma)
            self.slope_ratio = (1.0 - gamma) / (1.0 - gamma / math.e)
            return
        self.roots = real_roots(model, r, side=-1)
        thetas = [-pole for pole in model.poles if pole < 0]
        terms = {False: _root_terms(self.roots, thetas, 0.0),
                 True: _root_terms(self.roots, thetas, 1.0)}
        self._passage = partial(_root_sum, terms)
        ratio = 1.0
        for beta in self.roots:
            ratio *= beta / (beta - 1.0)
        for theta in thetas:
            ratio *= (theta + 1.0) / theta
        self.slope_ratio = ratio

    def _eval(self, x: ArrayLike, want_joint: bool) -> ArrayLike:
        x_arr = np.minimum(np.asarray(x, dtype=float), 0.0)
        out = self._passage(x_arr, want_joint)
        return float(out) if np.ndim(x) == 0 else out

    def L(self, x: ArrayLike) -> ArrayLike:
        """E[exp(-r tau_x)] for the first passage of X to (-inf, x]."""
        return self._eval(x, want_joint=False)

    def G(self, x: ArrayLike) -> ArrayLike:
        """E[exp(-r tau_x + X_{tau_x})], the transform weighted by overshoot."""
        return self._eval(x, want_joint=True)


def candidate_value(spec: ProblemSpec, b: float, v: ArrayLike,
                    transforms: Optional[HittingTransforms] = None) -> ArrayLike:
    """Expected discounted shortfall g(v, b) of the stop-at-b policy.

    g(v, b) = E_v[exp(-r tau_b) * (c/r - alpha V_{tau_b} / (r - psi(1)))]
    is positive exactly when b lies in the open interval (0, b_upper); the
    threshold engine maximises the full policy value by minimising g.

    For v <= b the passage is immediate and g reduces to
    f(v) = -alpha v / (r - psi(1)) + c / r.
    """
    b = float(b)
    if not 0.0 < b < spec.b_upper:
        raise ValueError(f"b must lie in (0, {spec.b_upper:.6g}) for the "
                         f"candidate value to be positive; got {b:.6g}")
    if transforms is None:
        transforms = HittingTransforms(spec.model, spec.r)
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0):
        raise ValueError("v must be positive")
    x = np.log(np.minimum(b / v_arr, 1.0))
    denom = spec.r - spec.psi1
    out = (-spec.alpha * v_arr / denom * transforms.G(x)
           + spec.c / spec.r * transforms.L(x))
    return float(out) if np.ndim(v) == 0 else out
