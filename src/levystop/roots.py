"""Real roots of the characteristic equation psi(beta) = q.

Every diffusive family's exponent grows like sigma^2 beta^2 / 2 at both ends
of the real line, and its continuation through a jump pole (one per phase
rate) runs to +inf on the side facing 0 and to -inf on the far side.  So
psi - q changes sign exactly once in each gap between consecutive points
of {poles, 0} and beyond the outermost ones, and the poles alone fix the
root layout:

* ``KouJD``          psi3 < -eta2 < psi2 < 0 < psi1 < eta1 < psi0
* ``ExpJD``          -lam_bar < 0 < psi1 < eta1 < psi0
* ``SpectNegKou``    psi3 < -eta2 < psi2 < 0 < psi1, with psi1 = phi(q)
* ``BrownianDrift``  the two roots of a quadratic, in closed form
* any phase mix      one root in each gap, so n + 1 roots on a side of 0
  that holds n phase rates

Each gap is bracketed analytically (just inside a pole, at 0 where
psi - q = -q, or by marching outward) and solved by ``bracketed_root``, one
safeguarded Newton-bisection.  The families' ``exponent`` methods continue
psi through the poles without domain checks, which is what bracketing needs.
Callers that need one side of 0 only solve the gaps on that side: past
eta1 ~ 1e8 the root beyond the upper pole lies within a few ulps of it and
may have no float bracket at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:
    from .models import LevyModel

__all__ = ["RootBracketError", "bracketed_root", "emery_root", "kou_roots",
           "real_roots"]

_EPS = math.ulp(1.0)


class RootBracketError(ArithmeticError):
    """Failed to isolate or confirm a characteristic root."""


def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   fprime: Optional[Callable[[float], float]] = None, *,
                   f_lo: Optional[float] = None,
                   f_hi: Optional[float] = None) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, where f changes sign.

    ``f_lo`` and ``f_hi``, when given, are f(lo) and f(hi) as the caller
    already computed them; the ends are evaluated only when they are not.
    Newton starts from the end with the smaller |f| and keeps its step while
    the step stays inside the shrinking sign-change bracket and is at most
    half the previous step; otherwise it bisects.  Without ``fprime`` the
    slope is the secant through the last two points.  Stops once a step is
    within a few ulps of the iterate.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise RootBracketError(f"no sign change on [{lo!r}, {hi!r}]")
    neg, pos = (lo, hi) if f_lo < 0.0 else (hi, lo)
    if abs(f_lo) <= abs(f_hi):
        x, fx, x_prev, f_prev = lo, f_lo, hi, f_hi
    else:
        x, fx, x_prev, f_prev = hi, f_hi, lo, f_lo
    step = abs(hi - lo)
    for _ in range(400):
        slope = fprime(x) if fprime is not None else (
            (fx - f_prev) / (x - x_prev))
        x_prev, f_prev = x, fx
        newton = x - fx / slope if slope else math.nan
        if (min(neg, pos) <= newton <= max(neg, pos)
                and abs(newton - x) <= 0.5 * step):
            x = newton
        else:
            x = 0.5 * (neg + pos)
        step = abs(x - x_prev)
        if step <= 4.0 * _EPS * abs(x):
            return x
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            neg = x
        else:
            pos = x
    raise RootBracketError(f"no convergence on [{lo!r}, {hi!r}]")


def _near(f, point: float, side: int, q: float) -> Tuple[float, float]:
    """Bracket end (x, f(x)) just ``side`` (+1 above, -1 below) of ``point``.

    At 0, f = psi(0) - q = -q < 0.  Next to a pole, f runs to +inf on the
    side facing 0 and to -inf on the far side; probe at an offset relative
    to the pole's magnitude and halve it until f shows that sign (the jump
    term needs a small offset to dominate when the jump rate is small), or
    until no float lies between the probe and the pole.
    """
    if point == 0.0:
        return 0.0, -q
    pad = 1e-9 * (1.0 + abs(point))
    while True:
        x = point + side * pad
        if x == point:
            raise RootBracketError(
                f"cannot bracket the root next to pole {point!r}: the sign "
                "change lies within a few ulps of the pole")
        val = f(x)
        if math.isfinite(val) and (val > 0) == (side * point < 0):
            return x, val
        pad *= 0.5


def _expand_out(f, start: float, side: int) -> Tuple[float, float]:
    """March outward from ``start`` (direction ``side``) to (x, f(x) > 0)."""
    step = 1.0 + abs(start)
    for _ in range(200):
        x = start + side * step
        val = f(x)
        if val > 0:
            return x, val
        step *= 2.0
    raise RootBracketError("quadratic growth never dominated; bad parameters?")


def _quadratic_roots(m: float, s2: float, q: float) -> Tuple[float, float]:
    """Both roots of m beta + s2 beta^2 / 2 = q, each subtraction-free."""
    disc = math.sqrt(m * m + 2.0 * q * s2)
    if m > 0:
        return -(m + disc) / s2, 2.0 * q / (m + disc)
    return -2.0 * q / (disc - m), (disc - m) / s2


def real_roots(model: "LevyModel", q: float,
               side: int = 0) -> Tuple[float, ...]:
    """Real roots of psi(beta) = q, ascending, for a diffusive family.

    ``side`` -1 or +1 keeps only the negative or the positive roots and
    solves only the gaps on that side of 0; the default keeps them all.
    """
    if not q > 0:
        raise ValueError("q must be positive")
    if not model.diffusive:
        raise ValueError(f"{model.family} has no diffusion part, so "
                         "psi(beta) = q has no characteristic root layout")
    if not model.poles:
        pair = _quadratic_roots(model.m, model.sigma**2, q)
        return tuple(beta for beta in pair if side * beta >= 0)

    def f(beta: float) -> float:
        return model.exponent(beta) - q

    fp = model.exponent_prime
    points = tuple(sorted(model.poles + (0.0,)))
    roots = []
    for lo, hi in zip((-math.inf,) + points, points + (math.inf,)):
        if side * lo < 0 or side * hi < 0:
            continue
        a, f_a = (_expand_out(f, hi, -1) if lo == -math.inf
                  else _near(f, lo, +1, q))
        b, f_b = (_expand_out(f, lo, +1) if hi == math.inf
                  else _near(f, hi, -1, q))
        root = bracketed_root(f, a, b, fp, f_lo=f_a, f_hi=f_b)
        res = abs(f(root))
        cond = abs(fp(root)) * (1.0 + abs(root))
        if res > max(1e-12, 64.0 * _EPS * cond):
            raise RootBracketError(f"root residual {res} too large at {root}")
        roots.append(root)
    return tuple(roots)


def kou_roots(model: "LevyModel", r: float) -> Tuple[float, ...]:
    """All real roots of psi(beta) = r, ascending: ``real_roots(model, r)``.

    Kept as a name because the benchmark times this layer under it.
    """
    return real_roots(model, r)


def emery_root(model: "LevyModel", r: float) -> float:
    """lam_bar > 0 with psi(-lam_bar) = r: minus the lowest root.

    For ``ExpJD`` it is the unique such value, since h(lam) = psi(-lam) is
    convex with h(0) = 0 and no pole on that side.  Kept as a name because
    the benchmark times this layer under it.
    """
    return -real_roots(model, r, side=-1)[0]
