"""Grid check of the optimality hypotheses at the threshold, for the tests.

AC-7 and the engine tests read it; the library does not.  It evaluates
s = g(., B_c) through the value function, so it checks the shape of the
closed form rather than offering a second route to it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from levystop.engine import G_CONTINUOUS, ThresholdResult, value_function
from levystop.models import ProblemSpec


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
                     result: Optional[ThresholdResult] = None
                     ) -> ConvexityReport:
    """Check convexity of s beyond B_c and the smooth-fit tangency.

    Applies to the G-continuous regime only; the theory for the pure
    counter rests on the jump ratio instead, and its s has kinks.  The
    report is returned whether or not the hypotheses hold; ``ok`` says
    which.
    """
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

    return ConvexityReport(family=spec.model.family, b_c=b_c,
                           min_second_diff=min_second, tangency_gap=gap,
                           convex_ok=min_second > 0.0,
                           tangency_ok=gap < _TANGENCY_TOL)
