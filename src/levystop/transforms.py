"""Discounted first-passage transforms and the candidate value g.

``HittingTransforms`` precomputes the constants of the two closed forms

* ``L(x) = E[exp(-r tau_x)]``            (Laplace transform of the passage time)
* ``G(x) = E[exp(-r tau_x + X_{tau_x})]``  (joint transform with the overshoot)

where ``tau_x`` is the first time X falls to or below ``x <= 0``, starting
from 0.  Both equal 1 for x >= 0 (the passage is immediate) and both are
nondecreasing with 0 <= G <= L <= 1.

For every family L and G sum one exponential per negative root beta_k of
psi(beta) = r, at the depth d >= 0 of the passage level:

    L(x) = sum_k wL_k e^{beta_k d},    G(x) = sum_k wG_k e^{(beta_k - 1) d}.

The diffusive families, with jumps from a mixture of exponential phases,
have d = -x, n + 1 negative roots for n down phases, and weights that are
products over the roots and the down-phase rates (Cai 2009, "On first
passage times of a hyper-exponential jump diffusion process", Oper. Res.
Lett. 37; Asmussen, Avram & Pistorius 2004, Stoch. Proc. Appl. 109).  The
unit-jump counter is the one-root case on the integer lattice: each unit
of depth costs one Exp(a) wait, so d = ceil(-x), beta = ln(a / (r + a))
and both weights are 1.

The canonical argument is log-moneyness x = ln(b / v); callers never hand
(v, b) pairs to transform code.  ``candidate_value`` performs that change of
variable once.  Past b, with y = ln(v / b), the passage lands at
V = b e^{y - d}, so g too is one exponential per root,

    g(v, b) = sum_k (c/r wL_k - alpha b e^{y - d} / (r - psi(1)) wG_k)
              e^{beta_k d};

off the lattice d = y and the terms are powers (v / b)^{beta_k} (the
perpetual-option form of Mordecki 2002, Finance Stoch. 6).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Union

from .models import LevyModel, ProblemSpec, check_discounting
from .roots import real_roots

__all__ = ["HittingTransforms", "candidate_value"]

if TYPE_CHECKING:
    import numpy as np
    ArrayLike = Union[float, np.ndarray]


def _exp_sum(terms, x, exp):
    """sum_k w_k exp(rate_k x) over the pairs (w_k, rate_k) of ``terms``,
    term by term in order, not as a matrix product, so an array and its
    scalars agree to the last bit."""
    (weight, rate), *rest = terms
    out = weight * exp(rate * x)
    for weight, rate in rest:
        out = out + weight * exp(rate * x)
    return out


def _root_weights(roots: tuple, thetas: list) -> tuple:
    """Lists of the L and G weights c_k(0) and c_k(1); each sums to 1.

    c_k(s) = prod_j (theta_j + beta_k) / (theta_j + s)
             * prod_{i != k} (beta_i - s) / (beta_i - beta_k)
    over the down-phase rates theta_j and the negative roots beta_k, with
    s = 0 for L and s = 1 for G (the same weights under the Esscher tilt).
    """
    l_weights, g_weights = [], []
    for k, beta_k in enumerate(roots):
        c_l = c_g = 1.0
        for theta in thetas:
            c_l *= (theta + beta_k) / theta
            c_g *= (theta + beta_k) / (theta + 1.0)
        for i, beta_i in enumerate(roots):
            if i != k:
                c_l *= beta_i / (beta_i - beta_k)
                c_g *= (beta_i - 1.0) / (beta_i - beta_k)
        l_weights.append(c_l)
        g_weights.append(c_g)
    return l_weights, g_weights


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
        check_discounting(model, r)
        self.model = model
        self.r = float(r)
        if not model.diffusive:
            self.roots = ()
            gamma = model.a / (r + model.a)
            self.slope_ratio = (1.0 - gamma) / (1.0 - gamma / math.e)
            return
        self.roots = real_roots(model, r, side=-1)
        ratio = 1.0
        for beta in self.roots:
            ratio *= beta / (beta - 1.0)
        for theta in [-pole for pole in model.poles if pole < 0]:
            ratio *= (theta + 1.0) / theta
        self.slope_ratio = ratio

    @cached_property
    def _terms(self) -> tuple:
        """Triples (wL_k, wG_k, beta_k), the weights divided by their sums;
        built on first use, so ``threshold`` never pays for them."""
        model = self.model
        if not model.diffusive:
            return ((1.0, 1.0, math.log(model.a / (self.r + model.a))),)
        c_l, c_g = _root_weights(self.roots,
                                 [-pole for pole in model.poles if pole < 0])
        l_sum, g_sum = sum(c_l), sum(c_g)
        return tuple([(l_k / l_sum, g_k / g_sum, beta) for l_k, g_k, beta
                      in zip(c_l, c_g, self.roots)])

    def _eval(self, x: ArrayLike, s: int) -> ArrayLike:
        """L (s = 0) or G (s = 1) from column s of ``_terms``."""
        import numpy as np
        depth = -np.minimum(np.asarray(x, dtype=float), 0.0)
        if not self.model.diffusive:
            depth = np.ceil(depth)  # the counter lands on the integers
        terms = [(row[s], row[2] - s) for row in self._terms]
        # Divided by the weights' float sum, its value at depth 0, so the
        # transform is exactly 1 there.
        out = _exp_sum(terms, depth, np.exp) / sum(w for w, _ in terms)
        return float(out) if np.ndim(x) == 0 else out

    def L(self, x: ArrayLike) -> ArrayLike:
        """E[exp(-r tau_x)] for the first passage of X to (-inf, x]."""
        return self._eval(x, 0)

    def G(self, x: ArrayLike) -> ArrayLike:
        """E[exp(-r tau_x + X_{tau_x})], the transform weighted by overshoot."""
        return self._eval(x, 1)


def _checked_v(spec: ProblemSpec, v: ArrayLike) -> np.ndarray:
    """v as a float array, rejected unless positive, finite and small
    enough that alpha v / (r - psi(1)) is a float."""
    import numpy as np
    v_arr = np.asarray(v, dtype=float)
    v_max = float(v_arr.max(initial=0.0))
    # NaN fails both tests; ``initial`` lets an empty v through.
    if not (0 < v_arr.min(initial=math.inf) and v_max < math.inf):
        raise ValueError("v must be positive and finite")
    if not math.isfinite(spec.alpha / (spec.r - spec.psi1) * v_max):
        raise ArithmeticError(f"alpha v / (r - psi(1)) overflows at "
                              f"v = {v_max:.6g}")
    return v_arr


def _shortfall_past(spec: ProblemSpec, b: float, v_arr: np.ndarray,
                    transforms: HittingTransforms) -> np.ndarray:
    """g(v, b) wherever v > b; finite, but not g, where v <= b.

    The logs are differenced, not taken of v / b, which overflows or
    underflows at the ends of the float range.
    """
    import numpy as np
    lin, const = spec.alpha / (spec.r - spec.psi1), spec.c / spec.r
    y = np.maximum(np.log(v_arr) - math.log(b), 0.0)
    depth, lin_b = y, lin * b
    if not transforms.model.diffusive:
        # on the lattice the passage lands at V = b e^{y - depth} <= b
        depth = np.ceil(y)
        lin_b = lin_b * np.exp(y - depth)
    return _exp_sum(((const * w_l - lin_b * w_g, beta)
                     for w_l, w_g, beta in transforms._terms), depth, np.exp)


def candidate_value(spec: ProblemSpec, b: float, v: ArrayLike,
                    transforms: HittingTransforms) -> ArrayLike:
    """Expected discounted shortfall g(v, b) of the stop-at-b policy.

    g(v, b) = E_v[exp(-r tau_b) * (c/r - alpha V_{tau_b} / (r - psi(1)))]
    is positive exactly when b lies in the open interval (0, b_upper); the
    threshold engine maximises the full policy value by minimising g.

    For v <= b the passage is immediate and g is exactly
    f(v) = -alpha v / (r - psi(1)) + c / r.  Past b it sums one exponential
    per root of the table of ``transforms`` (see the module docstring),
    which are those of ``spec``.  A v whose alpha v / (r - psi(1))
    overflows raises ``ArithmeticError``.
    """
    b = float(b)
    if not 0.0 < b < spec.b_upper:
        raise ValueError(f"b must lie in (0, {spec.b_upper:.6g}) for the "
                         f"candidate value to be positive; got {b:.6g}")
    import numpy as np
    v_arr = _checked_v(spec, v)
    # f is wanted where v <= b only; the clamp keeps alpha v finite.
    f = (-spec.alpha * np.minimum(v_arr, b) / (spec.r - spec.psi1)
         + spec.c / spec.r)
    out = np.where(v_arr <= b, f, _shortfall_past(spec, b, v_arr,
                                                  transforms))
    return float(out) if np.ndim(v) == 0 else out
