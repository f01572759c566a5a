"""Optimal liquidation thresholds for exponential Levy asset models.

The package answers one question: for an asset V = v * exp(X) driven by a
Levy process X, when should the holder stop collecting the running payoff
alpha * V_s - c?  The optimal rule is a threshold: stop the first time V
drops to a level B_c.  Modules:

* ``models``      parametric families, Laplace exponents, assumptions
* ``roots``       real roots of psi(beta) = r
* ``scale``       q-scale functions in residue form
* ``transforms``  discounted first-passage transforms L and G
* ``engine``      thresholds, value functions, epsilon-regions
* ``mc``          Monte Carlo cross-checks for every closed form
* ``cli``         command line front end
"""

from .engine import ThresholdResult, ValueFunction, threshold, value_function
from .models import (AssumptionError, AssumptionReport, BrownianDrift, ExpJD,
                     KouJD, LevyModel, NegPoisson, ProblemSpec, SpectNegKou,
                     assumption_report, model_from_dict, model_to_dict, phi,
                     psi, psi1, spec_from_dict, spec_to_dict)

__all__ = [
    "AssumptionError",
    "AssumptionReport",
    "BrownianDrift",
    "ExpJD",
    "KouJD",
    "LevyModel",
    "NegPoisson",
    "ProblemSpec",
    "SpectNegKou",
    "ThresholdResult",
    "ValueFunction",
    "assumption_report",
    "model_from_dict",
    "model_to_dict",
    "phi",
    "psi",
    "psi1",
    "spec_from_dict",
    "spec_to_dict",
    "threshold",
    "value_function",
]

__version__ = "0.1.0"
