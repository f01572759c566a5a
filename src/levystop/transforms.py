"""Discounted first-passage transforms and the candidate value g.

``HittingTransforms`` precomputes the constants of the two closed forms

* ``L(x) = E[exp(-r tau_x)]``            (Laplace transform of the passage time)
* ``G(x) = E[exp(-r tau_x + X_{tau_x})]``  (joint transform with the overshoot)

where ``tau_x`` is the first time X falls to or below ``x <= 0``, starting
from 0.  Both equal 1 for x >= 0 (the passage is immediate) and both are
nondecreasing with 0 <= G <= L <= 1.

Diffusive families read both off the negative roots of psi(beta) = r, and
solve no others.
With one, -rate, there are no downward jumps: X creeps onto the level, so
L = exp(rate x) and G = exp(x) L.  With two, psi3 < -eta2 < psi2, the
downward jumps are exponential(eta2) and the two-root closed form of Kou &
Wang 2003 ("First passage times of a jump diffusion process", Adv. Appl.
Prob. 35) applies.  The unit-jump counter has no diffusion: each unit of
depth costs one Exp(a) wait and the passage lands on the integer, so L and
G are powers.

The canonical argument is log-moneyness x = ln(b / v); callers never hand
(v, b) pairs to transform code.  ``candidate_value`` performs that change of
variable once, in one place.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional, Union

import numpy as np

from .models import LevyModel, ProblemSpec, assumption_report
from .roots import real_roots

__all__ = ["HittingTransforms", "candidate_value"]

ArrayLike = Union[float, np.ndarray]


def _kou_style_LG(psi2: float, psi3: float, eta2: float, x: np.ndarray,
                  want_joint: bool) -> np.ndarray:
    """Closed-form L or G from the two negative characteristic roots.

    Valid for any family whose downward jumps are exponential(eta2) riding on
    a diffusion: the passage triple (time, undershoot) is determined by the
    negative roots psi3 < -eta2 < psi2 < 0 of psi(beta) = r.
    """
    span = psi2 - psi3
    e3 = np.exp(-x * psi3)
    e2 = np.exp(-x * psi2)
    if want_joint:
        out = np.exp(x) * ((eta2 + psi3) * (psi2 - 1.0) * e3
                           + (eta2 + psi2) * (1.0 - psi3) * e2) / (
                               span * (eta2 + 1.0))
    else:
        out = ((psi2 * (eta2 + psi3) * e3 - psi3 * (eta2 + psi2) * e2)
               / (span * eta2))
    return np.where(x < 0.0, out, 1.0)


def _creeping(rate: float, x: np.ndarray, want_joint: bool) -> np.ndarray:
    return np.exp(x * (rate + 1.0 if want_joint else rate))


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
        report = assumption_report(model, r)
        if not report.discounting:
            raise ValueError("transforms need the discounting assumption "
                             f"r > psi(1) = {report.psi1:.6g}; got r = {r:.6g}")
        self.model = model
        self.r = float(r)
        if not model.diffusive:
            self.roots = ()
            gamma = model.a / (r + model.a)
            self._passage = partial(_lattice, gamma)
            self.slope_ratio = (1.0 - gamma) / (1.0 - gamma / math.e)
            return
        self.roots = real_roots(model, r, side=-1)
        if len(self.roots) == 1:
            rate = -self.roots[0]
            self._passage = partial(_creeping, rate)
            self.slope_ratio = rate / (rate + 1.0)
        else:
            psi3, psi2 = self.roots
            eta2 = -model.poles[0]
            self._passage = partial(_kou_style_LG, psi2, psi3, eta2)
            self.slope_ratio = (psi2 * psi3 * (eta2 + 1.0)
                                / (eta2 * (1.0 - psi2) * (1.0 - psi3)))

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
