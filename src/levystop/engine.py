"""Optimal threshold, value function, and the diagnostics behind them.

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
from typing import TYPE_CHECKING, Optional

from .models import ProblemSpec, has_phi, phi
from .roots import bracketed_root, real_roots
from .transforms import HittingTransforms, candidate_value

__all__ = ["ConvexityReport", "ThresholdResult", "ValueFunction",
           "convexity_report", "epsilon_region", "threshold",
           "value_function"]

if TYPE_CHECKING:
    from .transforms import ArrayLike

G_CONTINUOUS = "G-continuous"
G_DISCONTINUOUS = "G-discontinuous"


@dataclass(frozen=True)
class ThresholdResult:
    """Optimal threshold plus the quantities that produced it.

    ``slope_ratio`` is lim_{x->0-} (1 - L(x)) / (1 - G(x)): a derivative
    ratio in the G-continuous regime, a jump ratio otherwise.  ``psi_one``
    is the exponent value psi(1) (not a characteristic root).  Spectrally
    negative families report phi(r), the largest root of psi = r, as
    ``phi_r``.  Families with upward jumps have no phi(r) and list roots
    instead, ascending: all four for the two-sided family, the single
    negative root -lam_bar for the one-sided one.  The counter has neither.
    ``transforms``, which ``value_function`` reuses, are the ones B_c was
    solved on; they stay out of equality, ``repr`` and the JSON form.
    """

    b_c: float
    regime: str
    slope_ratio: float
    psi_one: float
    phi_r: Optional[float]
    roots: Optional[tuple]
    b_upper: float
    transforms: HittingTransforms = field(repr=False, compare=False)

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
    cheap enough to call in tight loops.  B_c = b_upper * slope_ratio is
    reported with the roots and the transforms behind it.
    """
    model = spec.model
    transforms = HittingTransforms(model, spec.r)
    bound = spec.b_upper
    ratio = transforms.slope_ratio
    b_c = bound * ratio
    if not 0.0 < b_c < bound:
        raise ArithmeticError(f"threshold {b_c} escaped (0, {bound})")
    neg = transforms.roots
    phi_r: Optional[float] = None
    roots_used: Optional[tuple] = None
    if has_phi(model):
        phi_r = phi(model, spec.r)
    elif len(neg) == 1:
        roots_used = neg
    elif neg:
        roots_used = neg + real_roots(model, spec.r, side=+1)
    return ThresholdResult(
        b_c=b_c,
        regime=G_CONTINUOUS if model.diffusive else G_DISCONTINUOUS,
        slope_ratio=ratio, psi_one=spec.psi1, phi_r=phi_r, roots=roots_used,
        b_upper=bound, transforms=transforms)


class ValueFunction:
    """Evaluator for the optimal value w and its companions s and f.

    s(v) = g(v, B_c) is the expected discounted shortfall of the optimal
    policy, decreasing and convex with 0 <= s <= c/r; f is the affine
    immediate-shortfall line; w = s - f is the problem value, zero on the
    stopping region (0, B_c] and positive beyond it.  s and w evaluate on
    ``result.transforms``; ``value_function`` checks they fit ``spec``.
    """

    def __init__(self, spec: ProblemSpec, result: ThresholdResult) -> None:
        self.spec = spec
        self.result = result

    @property
    def b_c(self) -> float:
        return self.result.b_c

    def f(self, v: ArrayLike) -> ArrayLike:
        import numpy as np
        v_arr = np.asarray(v, dtype=float)
        out = (-self.spec.alpha * v_arr / (self.spec.r - self.spec.psi1)
               + self.spec.c / self.spec.r)
        return float(out) if np.ndim(v) == 0 else out

    def s(self, v: ArrayLike) -> ArrayLike:
        return candidate_value(self.spec, self.b_c, v, self.result.transforms)

    def __call__(self, v: ArrayLike) -> ArrayLike:
        import numpy as np
        v_arr = np.asarray(v, dtype=float)
        w = np.asarray(self.s(v_arr)) - np.asarray(self.f(v_arr))
        out = np.where(v_arr <= self.b_c, 0.0, w)
        return float(out) if np.ndim(v) == 0 else out


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


@dataclass(frozen=True)
class ConvexityReport:
    """Grid verification of the optimality hypotheses at the threshold.

    ``min_second_diff`` is the smallest centred second difference of
    s = g(., B_c) on the grid (positive means convex there);
    ``tangency_gap`` is |d/dv s(B_c+) - f'|, which vanishes under smooth
    fit.  ``ok`` summarises both checks.
    """

    family: str
    b_c: float
    min_second_diff: float
    tangency_gap: float
    convex_ok: bool
    tangency_ok: bool

    @property
    def ok(self) -> bool:
        return self.convex_ok and self.tangency_ok


# The convexity check samples s on this many points of (B_c, span * B_c]
# and accepts a smooth-fit gap below the tolerance.
_CONVEXITY_GRID = 1000
_CONVEXITY_SPAN = 10.0
_TANGENCY_TOL = 1e-6


def convexity_report(spec: ProblemSpec,
                     result: Optional[ThresholdResult] = None, *,
                     on_failure: str = "raise") -> ConvexityReport:
    """Check convexity of s beyond B_c and the smooth-fit tangency.

    Applies to the G-continuous regime only; the theory for the pure
    counter rests on the jump ratio instead, and its s has kinks.  With
    ``on_failure="raise"`` (default) a violated hypothesis raises, since
    the optimality argument has no fallback; ``"report"`` returns the
    diagnostics regardless.
    """
    if on_failure not in ("raise", "report"):
        raise ValueError("on_failure must be 'raise' or 'report'")
    import numpy as np
    vf = value_function(spec, result)
    if vf.result.regime != G_CONTINUOUS:
        raise ValueError("convexity diagnostics apply to the G-continuous "
                         f"regime; {spec.model.family} is {vf.result.regime}")
    b_c = vf.b_c
    g_vals = vf.s(np.linspace(b_c, _CONVEXITY_SPAN * b_c,
                              _CONVEXITY_GRID + 1)[1:])
    second = g_vals[2:] - 2.0 * g_vals[1:-1] + g_vals[:-2]
    min_second = float(np.min(second))

    h = 1e-5 * b_c
    stencil = vf.s(b_c + h * np.arange(5))
    slope = float(np.dot([-25.0, 48.0, -36.0, 16.0, -3.0], stencil)) / (12 * h)
    f_slope = -spec.alpha / (spec.r - spec.psi1)
    gap = abs(slope - f_slope)

    report = ConvexityReport(family=spec.model.family, b_c=b_c,
                             min_second_diff=min_second, tangency_gap=gap,
                             convex_ok=min_second > 0.0,
                             tangency_ok=gap < _TANGENCY_TOL)
    if not report.ok and on_failure == "raise":
        raise ArithmeticError(f"optimality hypotheses failed at B_c={b_c}: "
                              f"min second difference {min_second}, "
                              f"tangency gap {gap}")
    return report


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
        if vf(hi) > eps:
            break
        hi *= 2.0
    else:
        return math.inf
    return bracketed_root(lambda v: vf(v) - eps, b_c, hi)
