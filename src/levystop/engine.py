"""Optimal threshold, value function, and eps-optimal stop regions.

The liquidation problem sup_tau E[int_0^tau e^{-rs} (alpha V_s - c) ds] is
solved by stopping the first time V drops to B_c.  Writing
f(v) = -alpha v / (r - psi(1)) + c / r, the stop-at-b policy is worth
w_b(v) = -f(v) + g(v, b), and the optimal level is

    B_c = c (r - psi(1)) / (r alpha) * lim_{x -> 0-} (1 - L(x)) / (1 - G(x)).

For every family except the pure Poisson counter the transforms are smooth
at 0 and the limit is the derivative ratio L'(0-) / G'(0-) ("G-continuous"
regime); the counter's transforms jump at 0 and the limit is the jump ratio
("G-discontinuous" regime).  Both regimes share one value-function code
path: the per-family formulas survive only as oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Tuple

from .models import LevyModel, ProblemSpec, has_phi, phi
from .roots import bracketed_root, real_roots
from .transforms import (HittingTransforms, _checked_v, _shortfall_past,
                         candidate_value)

__all__ = ["ThresholdResult", "ValueFunction", "epsilon_region",
           "threshold", "value_function"]

if TYPE_CHECKING:
    from .transforms import ArrayLike

G_CONTINUOUS = "G-continuous"
G_DISCONTINUOUS = "G-discontinuous"


@dataclass(frozen=True)
class ThresholdResult:
    """Optimal threshold plus the quantities that produced it.

    ``slope_ratio`` is lim_{x->0-} (1 - L(x)) / (1 - G(x)): a derivative
    ratio in the G-continuous regime, a jump ratio otherwise.  ``psi_one``
    is the exponent value psi(1) (not a characteristic root).
    ``transforms``, which ``value_function`` reuses, are the ones B_c was
    solved on; they stay out of equality, ``repr`` and the JSON form, and
    ``model`` and ``r`` are read from them.  Results for different models
    or rates are unequal even where their B_c agree.

    ``phi_r`` and ``roots`` serve the report only, since B_c needs just the
    negative roots in ``transforms``.  Each is solved the first time it is
    read and kept.  Spectrally negative families report phi(r), the largest
    root of psi = r, as ``phi_r``.  Families with upward jumps have no
    phi(r) and list roots instead, ascending: all four for the two-sided
    family, the single negative root -lam_bar for the one-sided one.  The
    counter has neither.
    """

    b_c: float
    regime: str
    slope_ratio: float
    psi_one: float
    b_upper: float
    transforms: HittingTransforms = field(repr=False, compare=False)
    model: LevyModel = field(init=False)
    r: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", self.transforms.model)
        object.__setattr__(self, "r", self.transforms.r)

    @cached_property
    def phi_r(self) -> Optional[float]:
        """phi(r) for a spectrally negative family, else None."""
        return phi(self.model, self.r) if has_phi(self.model) else None

    @cached_property
    def roots(self) -> Optional[Tuple[float, ...]]:
        """The reported roots of psi = r, ascending, or None (see above)."""
        neg = self.transforms.roots
        if has_phi(self.model) or not neg:
            return None
        if len(neg) == 1:
            return neg
        return neg + real_roots(self.model, self.r, side=+1)

    def to_json_dict(self) -> dict:
        return {
            "b_c": self.b_c,
            "regime": self.regime,
            "psi1": self.psi_one,
            "phi_r": self.phi_r,
            "roots": None if self.roots is None else list(self.roots),
            "slope_ratio": self.slope_ratio,
        }


def threshold(spec: ProblemSpec) -> ThresholdResult:
    """Optimal liquidation level B_c for ``spec``.

    Pure closed forms: root finding on scalars only, no tables, so this is
    cheap enough to call in tight loops.  B_c = b_upper * slope_ratio needs
    the negative roots of psi = r alone, and only they are solved here;
    the result's ``roots`` and ``phi_r`` are solved when they are read.
    """
    model = spec.model
    transforms = HittingTransforms(model, spec.r)
    bound = spec.b_upper
    ratio = transforms.slope_ratio
    b_c = bound * ratio
    if not 0.0 < b_c < bound:
        raise ArithmeticError(f"threshold {b_c} escaped (0, {bound})")
    return ThresholdResult(
        b_c=b_c,
        regime=G_CONTINUOUS if model.diffusive else G_DISCONTINUOUS,
        slope_ratio=ratio, psi_one=spec.psi1, b_upper=bound,
        transforms=transforms)


class ValueFunction:
    """Evaluator for the optimal value w and its companions s and f.

    s(v) = g(v, B_c) is the expected discounted shortfall of the optimal
    policy, decreasing and convex with 0 <= s <= c/r; f is the affine
    immediate-shortfall line; w = s - f is the problem value, zero on the
    stopping region (0, B_c] and positive beyond it.  w is evaluated
    directly, not as a difference: past B_c,

        w(v) = alpha v / (r - psi(1)) - c / r + g(v, B_c),

    where g sums one exponential per root of the table of
    ``result.transforms`` (see ``transforms``): powers (v / B_c)^{beta_k},
    and for the counter its one lattice term.  ``value_function`` checks
    that the transforms fit ``spec``.  f, s and w reject a v that is not
    positive and finite with ``ValueError``, and one whose
    alpha v / (r - psi(1)) overflows with ``ArithmeticError``.
    """

    def __init__(self, spec: ProblemSpec, result: ThresholdResult) -> None:
        self.spec = spec
        self.result = result

    @property
    def b_c(self) -> float:
        return self.result.b_c

    def f(self, v: ArrayLike) -> ArrayLike:
        spec = self.spec
        v_arr = _checked_v(spec, v)
        out = -(spec.alpha / (spec.r - spec.psi1)) * v_arr + spec.c / spec.r
        return float(out) if v_arr.ndim == 0 else out

    def s(self, v: ArrayLike) -> ArrayLike:
        return candidate_value(self.spec, self.b_c, v, self.result.transforms)

    def __call__(self, v: ArrayLike) -> ArrayLike:
        spec, b_c = self.spec, self.b_c
        v_arr = _checked_v(spec, v)
        w = (spec.alpha / (spec.r - spec.psi1) * v_arr - spec.c / spec.r
             + _shortfall_past(spec, b_c, v_arr, self.result.transforms))
        if v_arr.ndim == 0:
            return 0.0 if v_arr <= b_c else float(w)
        w[v_arr <= b_c] = 0.0
        return w


def value_function(spec: ProblemSpec,
                   result: Optional[ThresholdResult] = None) -> ValueFunction:
    """The evaluator of w for ``spec``, on the roots ``result`` was solved on.

    With no ``result``, ``threshold(spec)`` is solved here.  A ``result``
    for another model, ``r`` or ``b_upper`` raises ``ValueError``.
    """
    if result is None:
        return ValueFunction(spec, threshold(spec))
    solved = result.transforms
    if (solved.model, solved.r, result.b_upper) != (spec.model, spec.r,
                                                      spec.b_upper):
        raise ValueError("threshold result solved for another model, r or "
                         f"b_upper: {solved.model}, r = {solved.r:.6g}")
    return ValueFunction(spec, result)


def epsilon_region(spec: ProblemSpec, result: Optional[ThresholdResult],
                   eps: float) -> float:
    """Upper boundary b(eps) = sup{v : w(v) <= eps} of the eps-stop region.

    The rule "stop once V enters (0, b(eps)]" costs at most eps in expected
    value.  w is continuous, zero up to B_c and strictly increasing past it,
    so b(eps) is the unique root of w = eps beyond B_c, found by the
    bracketed Newton-bisection of ``roots`` with secant slopes, on the
    roots of ``result`` (see ``value_function``).  Returns +inf if eps
    exceeds the whole range of w (cannot happen here, where w grows
    without bound, but the sentinel keeps the contract total).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    vf = value_function(spec, result)
    b_c = vf.b_c
    hi = 2.0 * b_c
    for _ in range(400):
        w_hi = vf(hi)
        if w_hi > eps:
            break
        hi *= 2.0
    else:
        return math.inf
    # w(B_c) = 0, so w - eps is -eps at the lower end.
    return bracketed_root(lambda v: vf(v) - eps, b_c, hi, f_lo=-eps,
                          f_hi=w_hi - eps)
