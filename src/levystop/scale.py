"""q-scale functions for the spectrally negative families, in residue form.

``W`` is the q-scale function: the increasing solution of the two-sided exit
problem whose Laplace transform is 1 / (psi(beta) - q) for beta > phi(q).
``Z`` is its partner Z(x) = 1 + q * int_0^x W.

For ``BrownianDrift`` and ``SpectNegKou`` the transform is rational, with
one simple pole at each real root beta_i of psi(beta) = q, so both
functions are finite sums over those roots (Kuznetsov, Kyprianou & Rivero
2012, "The theory of scale functions for spectrally negative Levy
processes"):

    W(x) = sum_i exp(beta_i x) / psi'(beta_i)
    Z(x) = 1 + q sum_i expm1(beta_i x) / (beta_i psi'(beta_i))

No inversion, no tables: the roots come from ``roots.real_roots``.
"""

from __future__ import annotations

import math
import sys
from typing import Union

import numpy as np

from .models import LevyModel, has_phi
from .roots import real_roots

__all__ = ["ScaleFunction"]

ArrayLike = Union[float, np.ndarray]

_LOG_MAX = math.log(sys.float_info.max)


class ScaleFunction:
    """Scale function pair (W, Z) and W' on the domain [0, x_max].

    Supports the spectrally negative diffusive families.  Evaluation beyond
    ``x_max`` raises.  Negative arguments follow the standard conventions
    W = 0 and Z = 1; W(0) = 0 because both families have a Brownian part.
    """

    def __init__(self, model: LevyModel, q: float, *,
                 x_max: float = 10.0) -> None:
        if not has_phi(model):
            raise ValueError("scale functions are implemented for the "
                             "spectrally negative diffusive families; got "
                             f"{model.family}")
        if not q > 0:
            raise ValueError("q must be positive")
        self.model = model
        self.q = float(q)
        self.x_max = float(x_max)
        self._roots = np.array(real_roots(model, q))
        self._weights = 1.0 / model.exponent_prime(self._roots)

    def _residues(self, x: ArrayLike, exp, weights) -> tuple:
        """Checked 1-d arguments and sum_i weights_i exp(beta_i max(x, 0)).

        The sum runs root by root, not as a matrix product, so an array and
        its scalars agree to the last bit.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(x_arr <= self.x_max * (1.0 + 1e-12)):
            raise ValueError(f"x beyond the domain [0, {self.x_max}]")
        x_pos = np.clip(x_arr, 0.0, None)
        if np.any(x_pos * self._roots[-1] > _LOG_MAX):
            raise ArithmeticError(
                "W and Z exceed the float range past x = "
                f"{_LOG_MAX / self._roots[-1]:.6g}, where phi(q) x > "
                f"{_LOG_MAX:.6g}")
        out = 0.0
        for beta, weight in zip(self._roots, weights):
            out = out + weight * exp(beta * x_pos)
        return x_arr, out

    def W(self, x: ArrayLike) -> ArrayLike:
        x_arr, out = self._residues(x, np.exp, self._weights)
        out = np.where(x_arr <= 0.0, 0.0, out)
        return float(out[0]) if np.ndim(x) == 0 else out

    def Wprime(self, x: ArrayLike) -> ArrayLike:
        x_arr, out = self._residues(x, np.exp, self._roots * self._weights)
        out = np.where(x_arr < 0.0, 0.0, out)
        return float(out[0]) if np.ndim(x) == 0 else out

    def Z(self, x: ArrayLike) -> ArrayLike:
        _, out = self._residues(x, np.expm1, self._weights / self._roots)
        out = 1.0 + self.q * out
        return float(out[0]) if np.ndim(x) == 0 else out
