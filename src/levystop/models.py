"""Parametric Levy families and the liquidation problem they plug into.

Each family is a frozen dataclass carrying the parameters of one exponential
Levy model for the asset log-price X:

* ``BrownianDrift``  -- X_t = m t + sigma B_t
* ``KouJD``          -- Brownian part plus compound Poisson jumps whose sizes
  are exponential(eta1) upward with probability p and exponential(eta2)
  downward with probability 1 - p
* ``ExpJD``          -- the one-sided Kou variant with upward jumps only
* ``NegPoisson``     -- X_t = -N_t for a unit-jump Poisson counter
* ``SpectNegKou``    -- the one-sided Kou variant with downward jumps only

The Laplace exponent ``psi`` satisfies E[exp(lam X_t)] = exp(t psi(lam)).
Each class is the one definition of its family that every other module
reads: ``exponent``/``exponent_prime`` (psi and psi' for real, array or
complex arguments, continued through the poles with no domain checks),
``poles`` (ascending: -eta2 for downward jumps, eta1 for upward ones),
``diffusive`` (has a Brownian part), ``jump_kind`` (the jump-size law the
simulator draws, from the parameters as named here) and ``class_d_note``.
Everything downstream (characteristic roots, hitting transforms, thresholds)
is driven by these and the standing assumptions collected in
``assumption_report``:

* finite expected exponential jump (eta1 > 1, enforced at construction),
* effective discounting r > psi(1), so the discounted asset price is a
  supermartingale and the value function is finite.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Tuple, Union

import numpy as np

from .roots import real_roots

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
    "assumption_report",
    "has_phi",
    "model_from_dict",
    "model_to_dict",
    "phi",
    "psi",
    "psi1",
    "spec_from_dict",
    "spec_to_dict",
]


class AssumptionError(ValueError):
    """A problem instance violates one of the standing model assumptions."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class BrownianDrift:
    """Arithmetic Brownian motion with drift ``m`` and volatility ``sigma``."""

    m: float
    sigma: float

    family: ClassVar[str] = "brownian"
    jump_kind: ClassVar[str] = "none"
    diffusive: ClassVar[bool] = True
    poles: ClassVar[Tuple[float, ...]] = ()
    class_d_note: ClassVar[str] = (
        "discounted-excursion bound decays like n**(1 - 2r/sigma^2 "
        "adjusted rate); holds whenever r > psi(1)")

    def __post_init__(self) -> None:
        _require(self.sigma > 0, "sigma must be positive")

    def exponent(self, z):
        return self.m * z + 0.5 * self.sigma**2 * z * z

    def exponent_prime(self, z):
        return self.m + self.sigma**2 * z


@dataclass(frozen=True)
class KouJD:
    """Double-exponential jump diffusion.

    Jumps arrive at rate ``a``; a jump is +Exp(eta1) with probability ``p``
    and -Exp(eta2) with probability ``1 - p``.  ``eta1 > 1`` keeps
    E[exp(X_t)] finite.  Degenerate mixtures are separate families: use
    ``ExpJD`` for p = 1 and ``SpectNegKou`` for p = 0.
    """

    m: float
    sigma: float
    a: float
    p: float
    eta1: float
    eta2: float

    family: ClassVar[str] = "kou"
    jump_kind: ClassVar[str] = "two"
    diffusive: ClassVar[bool] = True
    class_d_note: ClassVar[str] = (
        "smallest positive characteristic root exceeds 1 under r > psi(1), "
        "so the upward-passage bound decays like a negative power")

    def __post_init__(self) -> None:
        _require(self.sigma > 0, "sigma must be positive")
        _require(self.a > 0, "jump intensity a must be positive")
        _require(0.0 < self.p < 1.0,
                 "p must lie strictly in (0, 1); use ExpJD (p = 1) or "
                 "SpectNegKou (p = 0) for one-sided jumps")
        _require(self.eta1 > 1, "eta1 must exceed 1 so E[exp(X_t)] is finite")
        _require(self.eta2 > 0, "eta2 must be positive")

    @property
    def poles(self) -> Tuple[float, ...]:
        return (-self.eta2, self.eta1)

    def exponent(self, z):
        return (self.m * z + 0.5 * self.sigma**2 * z * z
                + self.a * (self.eta1 * self.p / (self.eta1 - z)
                            + self.eta2 * (1 - self.p) / (self.eta2 + z) - 1))

    def exponent_prime(self, z):
        return (self.m + self.sigma**2 * z
                + self.a * (self.eta1 * self.p / (self.eta1 - z) ** 2
                            - self.eta2 * (1 - self.p) / (self.eta2 + z)**2))


@dataclass(frozen=True)
class ExpJD:
    """Jump diffusion with upward exponential(eta1) jumps only."""

    m: float
    sigma: float
    a: float
    eta1: float

    family: ClassVar[str] = "expjd"
    jump_kind: ClassVar[str] = "up"
    diffusive: ClassVar[bool] = True
    class_d_note: ClassVar[str] = (
        "same positive-root argument as the two-sided jump diffusion")

    def __post_init__(self) -> None:
        _require(self.sigma > 0, "sigma must be positive")
        _require(self.a > 0, "jump intensity a must be positive")
        _require(self.eta1 > 1, "eta1 must exceed 1 so E[exp(X_t)] is finite")

    @property
    def poles(self) -> Tuple[float, ...]:
        return (self.eta1,)

    def exponent(self, z):
        return (self.m * z + 0.5 * self.sigma**2 * z * z
                + self.a * z / (self.eta1 - z))

    def exponent_prime(self, z):
        return (self.m + self.sigma**2 * z
                + self.a * self.eta1 / (self.eta1 - z) ** 2)


@dataclass(frozen=True)
class NegPoisson:
    """Pure downward unit-jump Poisson counter: X_t = -N_t at rate ``a``."""

    a: float

    family: ClassVar[str] = "neg_poisson"
    jump_kind: ClassVar[str] = "unit_down"
    diffusive: ClassVar[bool] = False
    poles: ClassVar[Tuple[float, ...]] = ()
    class_d_note: ClassVar[str] = (
        "paths are non-increasing, so the discounted payoff process is "
        "bounded")

    def __post_init__(self) -> None:
        _require(self.a > 0, "jump intensity a must be positive")

    def exponent(self, z):
        return self.a * (np.exp(-z) - 1.0)

    def exponent_prime(self, z):
        return -self.a * np.exp(-z)


@dataclass(frozen=True)
class SpectNegKou:
    """Jump diffusion with downward exponential(eta2) jumps only."""

    m: float
    sigma: float
    a: float
    eta2: float

    family: ClassVar[str] = "spectneg_kou"
    jump_kind: ClassVar[str] = "down"
    diffusive: ClassVar[bool] = True
    class_d_note: ClassVar[str] = (
        "phi(r) > 1 under r > psi(1); upward-passage bound decays like "
        "n**(1 - phi(r))")

    def __post_init__(self) -> None:
        _require(self.sigma > 0, "sigma must be positive")
        _require(self.a > 0, "jump intensity a must be positive")
        _require(self.eta2 > 0, "eta2 must be positive")

    @property
    def poles(self) -> Tuple[float, ...]:
        return (-self.eta2,)

    def exponent(self, z):
        return (self.m * z + 0.5 * self.sigma**2 * z * z
                + self.a * (self.eta2 / (self.eta2 + z) - 1.0))

    def exponent_prime(self, z):
        return (self.m + self.sigma**2 * z
                - self.a * self.eta2 / (self.eta2 + z) ** 2)


LevyModel = Union[BrownianDrift, KouJD, ExpJD, NegPoisson, SpectNegKou]

_FAMILIES = {
    cls.family: cls
    for cls in (BrownianDrift, KouJD, ExpJD, NegPoisson, SpectNegKou)
}


def psi(model: LevyModel, lam):
    """Laplace exponent: log E[exp(lam X_1)].

    Accepts a scalar or an array.  Raises ``ValueError`` at or beyond the
    jump-rate poles, where the defining expectation diverges: lam >= eta1
    for families with upward jumps, lam <= -eta2 for families with downward
    jumps.
    """
    lam_arr = np.asarray(lam, dtype=float)
    for pole in model.poles:
        beyond = lam_arr >= pole if pole > 0 else lam_arr <= pole
        if np.any(beyond):
            side = ">=" if pole > 0 else "<="
            raise ValueError(f"psi diverges for lam {side} {pole}")
    out = model.exponent(lam_arr)
    return float(out) if np.ndim(lam) == 0 else out


def psi1(model: LevyModel) -> float:
    """Exponential growth rate psi(1) of the asset price E[exp(X_t)]."""
    # 1 lies inside every family's domain: eta1 > 1 is enforced.
    return float(model.exponent(1.0))


def has_phi(model: LevyModel) -> bool:
    """Whether psi(lam) = qq has a largest root phi(qq) for every qq > 0.

    That needs an exponent that grows without bound on the right: a
    diffusion part and no upward jumps, i.e. no pole above 0.
    """
    return model.diffusive and all(pole < 0 for pole in model.poles)


def phi(model: LevyModel, qq: float) -> float:
    """Right inverse of the Laplace exponent: largest root of psi(lam) = qq.

    Defined only for spectrally negative models whose exponent grows to
    infinity (``BrownianDrift`` and ``SpectNegKou``).  Families with upward
    jumps are rejected; so is ``NegPoisson``, whose paths are decreasing and
    whose exponent is bounded above by zero, leaving psi(lam) = qq rootless.
    """
    if qq <= 0:
        raise ValueError("phi requires qq > 0")
    if not has_phi(model):
        raise ValueError(f"phi is undefined for {model.family}: it needs an "
                         "exponent unbounded above, from a Brownian part, "
                         "and no upward jumps")
    return real_roots(model, qq, side=+1)[-1]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption checks for a (model, r) pair."""

    family: str
    psi1: float
    finite_mean: bool
    discounting: bool
    class_d: bool
    note: str

    @property
    def all_ok(self) -> bool:
        return self.finite_mean and self.discounting and self.class_d


def assumption_report(model: LevyModel, r: float) -> AssumptionReport:
    """Check the standing assumptions for ``model`` under discount rate ``r``.

    ``finite_mean`` is true by construction (eta1 > 1 is enforced on the
    up-jump families).  ``discounting`` is the substantive check r > psi(1).
    ``class_d`` records that the discounted payoff family is uniformly
    integrable; for every supported family this follows from the discounting
    condition (and holds unconditionally for the bounded-path counter).
    """
    growth = psi1(model)
    discounting = r > growth
    return AssumptionReport(
        family=model.family,
        psi1=growth,
        finite_mean=True,
        discounting=discounting,
        class_d=discounting or not model.diffusive,
        note=model.class_d_note,
    )


@dataclass(frozen=True)
class ProblemSpec:
    """Perpetual liquidation problem: maximise E[int_0^tau e^{-rs}(alpha V_s - c) ds].

    ``v`` is the starting asset value, ``alpha`` the payout rate on the
    asset, ``c`` the running cost, ``r`` the discount rate.  Construction
    rejects non-positive parameters and any (model, r) pair violating the
    discounting assumption r > psi(1), and keeps psi(1) as ``psi1``.
    """

    model: LevyModel
    r: float
    alpha: float
    c: float
    v: float
    psi1: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require(self.r > 0, "r must be positive")
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.c > 0, "c must be positive; with c = 0 waiting forever "
                             "is optimal and no finite threshold exists")
        _require(self.v > 0, "v must be positive")
        report = assumption_report(self.model, self.r)
        if not report.discounting:
            raise AssumptionError(
                "discounting assumption violated: requires "
                f"r > psi(1) = {report.psi1:.6g}, got r = {self.r:.6g}")
        object.__setattr__(self, "psi1", report.psi1)

    @property
    def b_upper(self) -> float:
        """Upper end c (r - psi(1)) / (r alpha) of the admissible thresholds.

        A threshold policy only collects a positive expected payoff for
        levels strictly inside (0, b_upper).
        """
        return self.c * (self.r - self.psi1) / (self.r * self.alpha)


def model_from_dict(doc: dict) -> LevyModel:
    """Build a model from a JSON-style mapping with a ``family`` tag."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if "family" not in doc:
        raise ValueError("model document is missing the 'family' tag")
    family = doc["family"]
    try:
        cls = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r}; expected one of {known}")
    names = [f.name for f in fields(cls)]
    extra = set(doc) - set(names) - {"family"}
    if extra:
        raise ValueError(f"unexpected keys for family {family!r}: "
                         f"{sorted(extra)}")
    kwargs = {}
    for name in names:
        if name not in doc:
            raise ValueError(f"family {family!r} requires field {name!r}")
        kwargs[name] = float(doc[name])
    return cls(**kwargs)


_SPEC_FIELDS = ("r", "alpha", "c", "v")


def model_to_dict(model: LevyModel) -> dict:
    return {"family": model.family, **asdict(model)}


def spec_from_dict(doc: dict) -> ProblemSpec:
    """Build a problem from ``{"model": {...}, "r":, "alpha":, "c":, "v":}``."""
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    for key in ("model",) + _SPEC_FIELDS:
        if key not in doc:
            raise ValueError(f"problem document is missing {key!r}")
    return ProblemSpec(model=model_from_dict(doc["model"]),
                       **{key: float(doc[key]) for key in _SPEC_FIELDS})


def spec_to_dict(spec: ProblemSpec) -> dict:
    return {"model": model_to_dict(spec.model),
            **{key: getattr(spec, key) for key in _SPEC_FIELDS}}
