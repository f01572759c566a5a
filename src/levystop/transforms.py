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
variable once, in one place.  Past b it does not evaluate L and G apart:
since v e^x = b, each negative root contributes one power term,

    g(v, b) = sum_k (c/r wL_k - alpha b / (r - psi(1)) wG_k) (v / b)^{beta_k}

with wL_k and wG_k the normalised L and G weights, so the value curve costs
one exponential per root (the perpetual-option form of Mordecki 2002,
Finance Stoch. 6, and of Asmussen, Avram & Pistorius 2004).  The counter
keeps its lattice route through L and G.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import TYPE_CHECKING, Optional, Union

from .models import LevyModel, ProblemSpec, check_discounting
from .roots import real_roots

__all__ = ["HittingTransforms", "candidate_value"]

if TYPE_CHECKING:
    import numpy as np
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
    import numpy as np
    (c, rate), *rest = terms[want_joint]
    out, total = c * np.exp(rate * x), c
    for c, rate in rest:
        out, total = out + c * np.exp(rate * x), total + c
    return out / total


def _lattice(gamma: float, x: np.ndarray, want_joint: bool) -> np.ndarray:
    import numpy as np
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
        check_discounting(model, r)
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
        self._terms = terms
        self._passage = partial(_root_sum, terms)
        ratio = 1.0
        for beta in self.roots:
            ratio *= beta / (beta - 1.0)
        for theta in thetas:
            ratio *= (theta + 1.0) / theta
        self.slope_ratio = ratio

    @cached_property
    def _powers(self) -> Optional[tuple]:
        """Triples (wL_k, wG_k, beta_k), one per negative root, or None.

        wL_k and wG_k are the L and G weights of root beta_k divided by their
        sums, taken in the order ``_root_sum`` takes them.  Built on first
        use, so ``threshold`` never pays for them; None for the counter.
        """
        if not self.model.diffusive:
            return None
        l_terms, g_terms = self._terms[False], self._terms[True]
        l_sum = g_sum = 0.0
        for (c_l, _), (c_g, _) in zip(l_terms, g_terms):
            l_sum += c_l
            g_sum += c_g
        return tuple([(c_l / l_sum, c_g / g_sum, beta) for (c_l, _), (c_g, _),
                      beta in zip(l_terms, g_terms, self.roots)])

    def _eval(self, x: ArrayLike, want_joint: bool) -> ArrayLike:
        import numpy as np
        x_arr = np.minimum(np.asarray(x, dtype=float), 0.0)
        out = self._passage(x_arr, want_joint)
        return float(out) if np.ndim(x) == 0 else out

    def L(self, x: ArrayLike) -> ArrayLike:
        """E[exp(-r tau_x)] for the first passage of X to (-inf, x]."""
        return self._eval(x, want_joint=False)

    def G(self, x: ArrayLike) -> ArrayLike:
        """E[exp(-r tau_x + X_{tau_x})], the transform weighted by overshoot."""
        return self._eval(x, want_joint=True)


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
    powers = transforms._powers
    if powers is None:
        # lin * v, which _checked_v bounds, not alpha * v, which it does not
        x = np.minimum(math.log(b) - np.log(v_arr), 0.0)
        return (-lin * v_arr * transforms._passage(x, True)
                + const * transforms._passage(x, False))
    y = np.maximum(np.log(v_arr) - math.log(b), 0.0)
    lin_b = lin * b
    (w_l, w_g, beta), *rest = powers
    out = (const * w_l - lin_b * w_g) * np.exp(beta * y)
    for w_l, w_g, beta in rest:
        out = out + (const * w_l - lin_b * w_g) * np.exp(beta * y)
    return out


def candidate_value(spec: ProblemSpec, b: float, v: ArrayLike,
                    transforms: HittingTransforms) -> ArrayLike:
    """Expected discounted shortfall g(v, b) of the stop-at-b policy.

    g(v, b) = E_v[exp(-r tau_b) * (c/r - alpha V_{tau_b} / (r - psi(1)))]
    is positive exactly when b lies in the open interval (0, b_upper); the
    threshold engine maximises the full policy value by minimising g.

    For v <= b the passage is immediate and g is exactly
    f(v) = -alpha v / (r - psi(1)) + c / r.  Past b the diffusive families
    sum one power term (v / b)^{beta_k} per negative root (see the module
    docstring), one exponential each; the counter evaluates L and G at
    x = ln(b / v).  ``transforms`` are those of ``spec``.  A v whose
    alpha v / (r - psi(1)) overflows raises ``ArithmeticError``.
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
