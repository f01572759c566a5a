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

The four diffusive families share one core, ``PhaseJumpDiffusion``: a
diffusion plus jumps from a mixture of exponential phases.

The Laplace exponent ``psi`` satisfies E[exp(lam X_t)] = exp(t psi(lam)).
Each class is the one definition of its family that every other module
reads: ``exponent`` (psi for real, array or complex arguments, continued
through the poles with no domain checks; the diffusive families also give
psi' as ``exponent_prime`` for the root solves and scale functions),
``poles`` (ascending: -eta2 for downward jumps, eta1 for upward ones),
``diffusive`` (has a Brownian part), ``phases`` (the jump-size law the
simulator draws; the counter has none) and ``class_d_note``.
Everything downstream (characteristic roots, hitting transforms, thresholds)
is driven by these and the standing assumptions collected in
``assumption_report``:

* finite expected exponential jump (eta1 > 1, enforced at construction),
* effective discounting r > psi(1), so the discounted asset price is a
  supermartingale and the value function is finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar, Tuple, Union

from .roots import real_roots

__all__ = [
    "AssumptionError",
    "AssumptionReport",
    "BrownianDrift",
    "ExpJD",
    "KouJD",
    "LevyModel",
    "NegPoisson",
    "PhaseJumpDiffusion",
    "ProblemSpec",
    "SpectNegKou",
    "assumption_report",
    "check_discounting",
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


def _check_intensity(a: float) -> None:
    """The jump-rate rule of every family with jumps; NaN fails it."""
    _require(a > 0, "jump intensity a must be positive")


class PhaseJumpDiffusion:
    """Shared core of the diffusive families: a phase-type jump diffusion.

    X_t = m t + sigma B_t plus compound Poisson jumps at rate ``a``, each
    drawn from a mixture of exponential phases.  ``phases`` lists
    (probability, signed rate) pairs, up phases first: (p, eta) jumps up by
    Exp(eta) and (q, -theta) jumps down by Exp(theta).  Each phase adds
    a p z / (rate - z) to the exponent, a form with no cancellation near
    z = 0, and puts a pole at its rate.  A family's ``__post_init__``
    calls ``_fix_phases`` once, which checks the fields the families share
    and stores the phase tables as plain attributes, not dataclass fields,
    so ``asdict`` returns the JSON fields only.
    """

    diffusive: ClassVar[bool] = True
    phases: Tuple[Tuple[float, float], ...]
    poles: Tuple[float, ...]

    def _fix_phases(self, *phases: Tuple[float, float]) -> None:
        _require(self.sigma > 0, "sigma must be positive")
        if phases:
            _check_intensity(self.a)
        # Fields, not signed rates: eta2 < -1 would pass as an up rate.
        _require(getattr(self, "eta1", 2.0) > 1,
                 "eta1 must exceed 1 so E[exp(X_t)] is finite")
        _require(getattr(self, "eta2", 1.0) > 0, "eta2 must be positive")
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "poles",
                           tuple(sorted([rate for _, rate in phases])))
        # sigma^2 and each a p are stored because root solves call the
        # exponent dozens of times per spec.
        object.__setattr__(self, "_var", self.sigma**2)
        object.__setattr__(self, "_weighted",
                           tuple([(self.a * p, rate) for p, rate in phases]))

    def exponent(self, z):
        out = self.m * z + 0.5 * self._var * z * z
        for weight, rate in self._weighted:
            out = out + weight * z / (rate - z)
        return out

    def exponent_prime(self, z):
        out = self.m + self._var * z
        for weight, rate in self._weighted:
            out = out + weight * rate / (rate - z) ** 2
        return out


@dataclass(frozen=True)
class BrownianDrift(PhaseJumpDiffusion):
    """Arithmetic Brownian motion with drift ``m`` and volatility ``sigma``."""

    m: float
    sigma: float

    family: ClassVar[str] = "brownian"
    a: ClassVar[float] = 0.0
    class_d_note: ClassVar[str] = (
        "discounted-excursion bound decays like n**(1 - 2r/sigma^2 "
        "adjusted rate); holds whenever r > psi(1)")

    def __post_init__(self) -> None:
        self._fix_phases()


@dataclass(frozen=True)
class KouJD(PhaseJumpDiffusion):
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
    class_d_note: ClassVar[str] = (
        "smallest positive characteristic root exceeds 1 under r > psi(1), "
        "so the upward-passage bound decays like a negative power")

    def __post_init__(self) -> None:
        _require(0.0 < self.p < 1.0,
                 "p must lie strictly in (0, 1); use ExpJD (p = 1) or "
                 "SpectNegKou (p = 0) for one-sided jumps")
        self._fix_phases((self.p, self.eta1), (1.0 - self.p, -self.eta2))


@dataclass(frozen=True)
class ExpJD(PhaseJumpDiffusion):
    """Jump diffusion with upward exponential(eta1) jumps only."""

    m: float
    sigma: float
    a: float
    eta1: float

    family: ClassVar[str] = "expjd"
    class_d_note: ClassVar[str] = (
        "same positive-root argument as the two-sided jump diffusion")

    def __post_init__(self) -> None:
        self._fix_phases((1.0, self.eta1))


@dataclass(frozen=True)
class NegPoisson:
    """Pure downward unit-jump Poisson counter: X_t = -N_t at rate ``a``."""

    a: float

    family: ClassVar[str] = "neg_poisson"
    diffusive: ClassVar[bool] = False
    poles: ClassVar[Tuple[float, ...]] = ()
    class_d_note: ClassVar[str] = (
        "paths are non-increasing, so the discounted payoff process is "
        "bounded")

    def __post_init__(self) -> None:
        _check_intensity(self.a)

    # math.exp keeps numpy out of psi1; at z = 1 it equals np.exp bit for bit.
    def exponent(self, z):
        if type(z) is float:
            return self.a * (math.exp(-z) - 1.0)
        import numpy as np
        return self.a * (np.exp(-z) - 1.0)


@dataclass(frozen=True)
class SpectNegKou(PhaseJumpDiffusion):
    """Jump diffusion with downward exponential(eta2) jumps only."""

    m: float
    sigma: float
    a: float
    eta2: float

    family: ClassVar[str] = "spectneg_kou"
    class_d_note: ClassVar[str] = (
        "phi(r) > 1 under r > psi(1); upward-passage bound decays like "
        "n**(1 - phi(r))")

    def __post_init__(self) -> None:
        self._fix_phases((1.0, -self.eta2))


LevyModel = Union[BrownianDrift, KouJD, ExpJD, NegPoisson, SpectNegKou]

# Each family's class and JSON field names, read once here rather than
# introspected on every spec that is parsed.
_FAMILIES = {
    cls.family: (cls, tuple(f.name for f in fields(cls)))
    for cls in (BrownianDrift, KouJD, ExpJD, NegPoisson, SpectNegKou)
}


def psi(model: LevyModel, lam):
    """Laplace exponent: log E[exp(lam X_1)].

    Accepts a scalar or an array.  Raises ``ValueError`` at or beyond the
    jump-rate poles, where the defining expectation diverges: lam >= eta1
    for families with upward jumps, lam <= -eta2 for families with downward
    jumps, and at NaN.
    """
    import numpy as np
    lam_arr = np.asarray(lam, dtype=float)
    if np.isnan(lam_arr).any():
        raise ValueError("psi is undefined at lam = NaN")
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


def check_discounting(model: LevyModel, r: float) -> float:
    """psi(1), after checking that r is finite and r > psi(1) (discounting)."""
    growth = psi1(model)
    if not r > growth:
        raise AssumptionError(
            "discounting assumption violated: requires "
            f"r > psi(1) = {growth:.6g}, got r = {r:.6g}")
    if r == math.inf:
        raise ValueError("r must be finite, got r = inf")
    return growth


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
    if not qq > 0:
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
        object.__setattr__(self, "psi1", check_discounting(self.model, self.r))

    @property
    def b_upper(self) -> float:
        """Upper end c (r - psi(1)) / (r alpha) of the admissible thresholds.

        A threshold policy only collects a positive expected payoff for
        levels strictly inside (0, b_upper).
        """
        return self.c * (self.r - self.psi1) / (self.r * self.alpha)


def _finite_floats(doc: dict, what: str, keys, others) -> dict:
    """Each ``doc[key]`` as a finite float, from a ``doc`` (``what`` in
    errors) that holds the keys of ``others`` and ``keys`` and no more."""
    for key in others + keys:
        if key not in doc:
            raise ValueError(f"{what} requires field {key!r}")
    if len(doc) != len(keys) + len(others):
        extra = set(doc).difference(keys, others)
        raise ValueError(f"unexpected keys for {what}: {sorted(extra)}")
    values = {}
    for key in keys:
        value = doc[key]
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"field {key!r} must be a number, "
                                 f"got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"field {key!r} must be a finite number, "
                             f"got {value}")
        values[key] = value
    return values


def model_from_dict(doc: dict) -> LevyModel:
    """Build a model from a JSON-style mapping with a ``family`` tag."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    if "family" not in doc:
        raise ValueError("model document is missing the 'family' tag")
    family = doc["family"]
    try:
        cls, names = _FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r}; expected one of {known}")
    return cls(**_finite_floats(doc, f"family {family!r}", names,
                                ("family",)))


_SPEC_FIELDS = ("r", "alpha", "c", "v")


def model_to_dict(model: LevyModel) -> dict:
    return {"family": model.family, **asdict(model)}


def spec_from_dict(doc: dict) -> ProblemSpec:
    """Build a problem from ``{"model": {...}, "r":, "alpha":, "c":, "v":}``."""
    if not isinstance(doc, dict):
        raise ValueError("problem document must be a JSON object")
    values = _finite_floats(doc, "the problem document", _SPEC_FIELDS,
                            ("model",))
    return ProblemSpec(model=model_from_dict(doc["model"]), **values)


def spec_to_dict(spec: ProblemSpec) -> dict:
    return {"model": model_to_dict(spec.model),
            **{key: getattr(spec, key) for key in _SPEC_FIELDS}}
