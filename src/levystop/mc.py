"""Monte Carlo oracle for every closed form in the package.

Every estimator is a functional of first passages below a ladder of
levels, which ``_simulate_levels`` alone turns into passages.  Its two
vectorised samplers watch all negative levels in one pass, shallowest
first: a cascade advances each path's pending-level pointer while the
current segment (or jump) still crosses the next level.  Sharing one pass
across levels is what makes the b-sweep exact common random numbers.

Every family but the counter uses one exact event-driven sampler with no
time grid.  Paths step from event to event; each diffusion segment draws
its Gaussian endpoint, tests the pending levels against the exact law of
the Brownian-bridge minimum and draws each crossing time from the bridge
first-passage law (Metwally & Atiya 2002, J. Derivatives 10(1)).  The
counter family is sampled exactly, jump by jump.  The only bias left is
the horizon truncation.

Most estimators need only the passage (tau, X_tau): the transforms L and
G, the eps-stopping times, the class-D ladder and the policy value in its
stopped form alpha v/(r - psi(1)) - c/r + E[e^{-r tau} f(V_tau)], which the
b-sweep uses.  ``policy_value`` also checks that form against the direct
integral up to the passage, estimated through the resolvent identity
int_0^tau e^{-rs + X_s} ds = E[sum_{s_i < tau} e^{-r s_i + X_{s_i}} / lam]
over the marks s_i of an independent Poisson(lam) clock, lam = 4 r.  The
two forms rest on different identities, so their agreement is a real
cross-check.

Reproducibility contract: paths are partitioned into fixed batches of
``cfg.batch_size``; batch i uses the i-th spawn of SeedSequence(cfg.seed)
and batches are reduced in index order, so results are bit-identical for a
given config regardless of the LEVYSTOP_THREADS worker count (they do
depend on batch_size, which is part of the config).
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .engine import ThresholdResult, epsilon_region
from .models import LevyModel, ProblemSpec, psi1

__all__ = [
    "ClassDResult",
    "EpsilonStopResult",
    "McEstimate",
    "PolicyValue",
    "SimConfig",
    "SweepResult",
    "class_d_diagnostic",
    "epsilon_stop_paths",
    "hitting_estimates",
    "policy_value",
    "sample_increment",
    "sweep",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation budget and numerical knobs.

    ``horizon`` None resolves to 50 / (r - psi(1)) at the point of use, so
    the discounted truncation error is below e^-50.  ``batch_size`` fixes
    the path partition the reproducibility contract is stated over.
    ``dt`` is validated but ignored: every sampler is exact, with no time
    grid, and the field stays so that existing callers keep working.
    """

    n_paths: int
    dt: float = 1e-3
    horizon: Optional[float] = None
    seed: int = 0
    batch_size: int = 16384

    def __post_init__(self) -> None:
        for name in ("n_paths", "batch_size"):
            count = getattr(self, name)
            if not isinstance(count, numbers.Integral) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite, got "
                             f"{self.horizon}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and truncation bookkeeping.

    Every path contributes to the mean (truncated ones through the
    convention of the functional at hand), so ``n_effective`` equals the
    path count; ``truncation_fraction`` reports how many paths ran into the
    horizon cap.
    """

    mean: float
    std_error: float
    n_effective: int
    truncation_fraction: float


def _estimate(values: np.ndarray, truncated: float) -> McEstimate:
    n = values.size
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=float(np.mean(values)), std_error=se,
                      n_effective=n, truncation_fraction=float(truncated))


def _resolve_horizon(cfg: SimConfig, r: float, growth: float) -> float:
    if cfg.horizon is not None:
        return float(cfg.horizon)
    gap = r - growth if growth < r else r
    return 50.0 / gap


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("LEVYSTOP_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class _Dynamics:
    """Simulation-level description of X, decoupled from model validation.

    A diffusion ``m t + sigma B_t`` plus jumps at rate ``a``.  Each jump is
    ``unit`` for a unit-jump counter (-1 down, +1 up) and otherwise drawn
    from the exponential ``phases`` of the model, (probability, signed rate)
    pairs.  The class-D diagnostic simulates rt - X, which ``mirrored``
    produces even when the mirror image is not a constructible model family.
    """

    m: float
    sigma: float
    a: float
    phases: Tuple[Tuple[float, float], ...]
    unit: float

    @staticmethod
    def from_model(model: LevyModel) -> "_Dynamics":
        if model.diffusive:
            return _Dynamics(model.m, model.sigma, model.a, model.phases, 0.0)
        return _Dynamics(0.0, 0.0, model.a, (), -1.0)

    def mirrored(self, drift: float) -> "_Dynamics":
        """Dynamics of Y_t = drift * t - X_t (up and down jumps swap)."""
        return _Dynamics(drift - self.m, self.sigma, self.a,
                         tuple((p, -rate) for p, rate in self.phases[::-1]),
                         -self.unit)


def _draw_jumps(dyn: _Dynamics, rng: np.random.Generator,
                k: int) -> np.ndarray:
    """k jump sizes Exp(1) / rate, each from a phase picked by probability.

    The uniform that picks the phase is drawn only when there is a choice.
    """
    probs = [p for p, _ in dyn.phases]
    rates = np.array([rate for _, rate in dyn.phases])
    pick = (np.searchsorted(np.cumsum(probs[:-1]), rng.random(k),
                            side="right") if len(probs) > 1 else 0)
    return rng.standard_exponential(k) / rates[pick]


@dataclass
class PassageRecord:
    """Per-path first-passage data, one row per level in the caller's order.

    ``tau[j]`` is the passage time of level j, or the horizon where the
    path never got there (``hit[j]`` False).  For jump crossings ``x_hit``
    carries the post-jump overshoot value; diffusion crossings sit exactly
    on the level.  ``final_int``, present only when requested, is an
    unbiased per-path estimate of int_0^{tau ^ horizon} e^{-r s + X_s} ds,
    where tau is the passage of the deepest level.
    """

    tau: np.ndarray
    x_hit: np.ndarray
    hit: np.ndarray
    final_int: Optional[np.ndarray]

    def missed(self, j: int) -> float:
        """Fraction of paths that never passed level j before the horizon."""
        return 1.0 - float(np.mean(self.hit[j]))


def _jump_crossings(levels: np.ndarray, pend: np.ndarray, x: np.ndarray,
                    lanes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Advance ``pend`` past the levels that jumps landing at ``x`` pass.

    Levels descend, so a jump passes every pending level at or above its
    landing point.  Returns the lanes and level indices of the passages,
    one entry per passage.
    """
    old = pend[lanes]
    stop = np.searchsorted(-levels, -x[lanes], side="right")
    moved = np.flatnonzero(stop > old)
    if not moved.size:
        return moved, moved
    lanes, old, stop = lanes[moved], old[moved], stop[moved]
    pend[lanes] = stop
    count = stop - old
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - old,
                                           count)
    return np.repeat(lanes, count), j


def _bridge_crossings(rng: np.random.Generator, alpha: np.ndarray,
                      beta: np.ndarray, var_dt: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Which Brownian-bridge segments reach their level, and when.

    Segment i starts ``alpha[i]`` >= 0 above its level, ends ``beta[i]``
    above it and has variance ``var_dt[i]`` = sigma^2 delta.  One Exp(1)
    draw per segment tests the crossing against the exact bridge-minimum
    law P(min <= level) = exp(-2 alpha beta / var_dt), which is 1 when
    beta <= 0.  Returns the positions of the crossing segments and the
    elapsed fraction s of each at its passage: s / (1 - s) is inverse
    Gaussian with mean alpha / |beta| and shape alpha^2 / var_dt.  Past a
    mean of 1e12 shapes (beta = 0 among them), where Generator.wald loses
    precision, its Levy limit shape / Z^2 is drawn instead.  A segment that
    starts on its level (alpha = 0: a level equal to the one just passed)
    or has zero length crosses at its start when it crosses at all.
    """
    expo = rng.standard_exponential(alpha.size)
    crossed = np.flatnonzero((beta <= 0) | (alpha <= 0)
                             | (0.5 * expo * var_dt > alpha * beta))
    alpha, beta, var_dt = alpha[crossed], beta[crossed], var_dt[crossed]
    frac = np.zeros(crossed.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        shape = alpha * alpha / var_dt
        mean = alpha / np.abs(beta)
    draw = np.flatnonzero((shape > 0) & (shape < math.inf))
    if draw.size:
        shape = shape[draw]
        mean = mean[draw]
        ig = mean < 1e12 * shape
        u = np.empty(draw.size)
        u[ig] = rng.wald(mean[ig], shape[ig])
        levy = ~ig
        u[levy] = shape[levy] / np.square(rng.standard_normal(
            int(np.count_nonzero(levy))))
        with np.errstate(divide="ignore"):
            frac[draw] = 1.0 / (1.0 + 1.0 / u)
    return crossed, frac


def _event_batch(dyn: _Dynamics, r_disc: float, levels: np.ndarray,
                 rows: np.ndarray, horizon: float,
                 abandon_level: Optional[float], rng: np.random.Generator,
                 out: PassageRecord, cols: slice) -> None:
    """Exact first-passage sampler for a diffusion with compound Poisson jumps.

    Each lane steps from event to event, with no time grid: it draws the
    next Exp(a + lam) event gap (none when a + lam = 0, so a Brownian
    motion takes a single segment), clips the segment at the horizon and
    draws its Gaussian endpoint.  ``_bridge_crossings`` tests and times the
    passage of the next pending level; after a passage the bridge restarts
    from (tau, l) for the level below, which the Markov property allows.
    An event is a mark with probability lam / (a + lam) and a jump
    otherwise; the uniform that decides is drawn only when both can occur,
    so lam = 0 reproduces the passage-only draws exactly.  The clock runs,
    at lam = ``_MARK_RATE`` r, only when ``out`` has room for the integral;
    a mark adds e^{-r t + X_t} / lam to it while a level is pending.
    A jump passes every pending level at or above its landing point.
    Lanes retire when every level is passed, at the horizon, or, with
    ``abandon_level`` set, when an event leaves them at or above it.
    Passages of ``levels[j]`` are written into row ``rows[j]``, columns
    ``cols``, of ``out``, which arrives as all misses.
    """
    n_levels = len(levels)
    lam = _MARK_RATE * r_disc if out.final_int is not None else 0.0

    def record(j, lanes, t_cross, x_cross) -> None:
        row, col = rows[j], idx[lanes]
        out.tau[row, col] = t_cross
        out.x_hit[row, col] = x_cross
        out.hit[row, col] = True

    # Compact per-lane state; idx maps lanes back to columns of ``out``.
    idx = np.arange(cols.start, cols.stop)
    n = idx.size
    t = np.zeros(n)
    x = np.zeros(n)
    acc = np.zeros(n)
    pend = np.zeros(n, dtype=np.int64)
    var = dyn.sigma * dyn.sigma
    rate = dyn.a + lam
    while idx.size:
        k = idx.size
        gap = rng.standard_exponential(k) / rate if rate > 0 else math.inf
        t1 = np.minimum(t + gap, horizon)
        delta = t1 - t
        x1 = x + dyn.m * delta + dyn.sigma * np.sqrt(delta) * \
            rng.standard_normal(k)
        # Every live lane has a pending level.
        cas, t0, x0 = np.arange(k), t, x
        while cas.size:
            lev = levels[pend[cas]]
            crossed, frac = _bridge_crossings(rng, x0 - lev, x1[cas] - lev,
                                              var * (t1[cas] - t0))
            if not crossed.size:
                break
            lanes = cas[crossed]
            t_cross = np.minimum(t0[crossed] + (t1[lanes] - t0[crossed])
                                 * frac, t1[lanes])
            record(pend[lanes], lanes, t_cross, lev[crossed])
            pend[lanes] += 1
            more = pend[lanes] < n_levels
            cas, t0, x0 = lanes[more], t_cross[more], lev[crossed][more]
        t, x = t1, x1
        jumping = np.flatnonzero(t < horizon)
        if lam > 0 and jumping.size:
            if dyn.a > 0:
                is_mark = rng.random(jumping.size) < lam / rate
                marks, jumping = jumping[is_mark], jumping[~is_mark]
            else:
                marks, jumping = jumping, jumping[:0]
            marks = marks[pend[marks] < n_levels]
            acc[marks] += np.exp(x[marks] - r_disc * t[marks]) / lam
        if jumping.size:
            x[jumping] += _draw_jumps(dyn, rng, jumping.size)
            lanes, j = _jump_crossings(levels, pend, x, jumping)
            if lanes.size:
                record(j, lanes, t[lanes], x[lanes])
        keep = (pend < n_levels) & (t < horizon)
        if abandon_level is not None:
            keep &= x < abandon_level
        if lam > 0:
            out.final_int[idx[~keep]] = acc[~keep]
        idx, t, x, acc, pend = idx[keep], t[keep], x[keep], acc[keep], \
            pend[keep]


def _unit_down_batch(dyn: _Dynamics, r_disc: float, levels: np.ndarray,
                     rows: np.ndarray, horizon: float,
                     rng: np.random.Generator, out: PassageRecord,
                     cols: slice) -> None:
    """Exact event-driven sampler for X = -(Poisson counter).

    The j-th level is crossed at the ceil(-level_j)-th jump, so each path
    draws as many Exp(a) gaps as the deepest level needs.  X is -i on the
    i-th segment, so the integral, clipped at the horizon, is a sum of
    closed-form segments with no error at all.  It writes into ``out``
    like ``_event_batch``, with the integral when ``out`` has room for it.
    """
    n = cols.stop - cols.start
    ks = np.ceil(-levels).astype(np.int64)
    k_deep = int(ks.max())
    gaps = rng.standard_exponential((n, k_deep)) / dyn.a
    times = np.cumsum(gaps, axis=1)
    if out.final_int is not None:
        weights = np.exp(-np.arange(k_deep, dtype=float))
        decay = np.exp(-r_disc * np.minimum(times, horizon))
        segments = -np.diff(decay, axis=1, prepend=1.0)
        out.final_int[cols] = np.sum(weights * segments, axis=1) / r_disc
    for row, k_level in zip(rows, ks):
        t_k = times[:, k_level - 1]
        level_hit = t_k <= horizon
        out.tau[row, cols] = np.where(level_hit, t_k, horizon)
        out.x_hit[row, cols] = np.where(level_hit, -float(k_level), 0.0)
        out.hit[row, cols] = level_hit


# Rate of the mark clock per unit of r.  Over 100 seeds of the AC-3 start
# points, the direct form missed the closed form by 3 SE or more in 3 runs
# at rate r, 1 at 4 r and 8 at 16 r: more marks bring out the heavy tail of
# the integral itself, whose sample SE then understates the error.
_MARK_RATE = 4.0
# Class-D mirror paths that a jump leaves this far above 0 count as misses.
_ABANDON_DEPTH = 10.0


def _simulate_levels(dyn: _Dynamics, r_disc: float, levels: Sequence[float],
                     horizon: float, cfg: SimConfig, want_integral: bool,
                     abandon_level: Optional[float] = None) -> PassageRecord:
    """Passages of ``levels``, any order and sign, one row each in order.

    A level >= 0 is passed at time 0 (``tau`` 0, ``x_hit`` 0, ``hit``
    True), and a level of -inf is never passed; neither is sampled, and
    ``final_int`` stops at the deepest finite level.  The other levels go
    to the sampler shallowest first, by a stable sort, and each batch
    writes its columns of one record that starts as all misses.
    Nondecreasing dynamics (the mirrored counter) never reach a negative
    level and get that record unsampled.  Requests with ``want_integral`` run the event sampler with a mark clock
    of rate ``_MARK_RATE * r_disc``; passage-only ones run it without one.
    Only the event sampler reads ``abandon_level``.
    """
    levels_arr = np.asarray(levels, dtype=float)
    if levels_arr.ndim != 1 or levels_arr.size == 0:
        raise ValueError("levels must be a non-empty 1-d sequence")
    if np.isnan(levels_arr).any():
        raise ValueError("passage levels must not be NaN")
    if dyn.sigma == 0 and not dyn.unit:
        raise ValueError("pure-drift dynamics are not supported")

    n = cfg.n_paths
    shape = (levels_arr.size, n)
    passed = levels_arr >= 0
    record = PassageRecord(
        tau=np.repeat(np.where(passed, 0.0, horizon)[:, None], n, axis=1),
        x_hit=np.zeros(shape), hit=np.repeat(passed[:, None], n, axis=1),
        final_int=np.zeros(n) if want_integral else None)
    # A stable sort on -level puts the levels >= 0 first and -inf last;
    # neither is sampled.
    never = np.count_nonzero(levels_arr == -np.inf)
    rows = np.argsort(-levels_arr, kind="stable")[
        np.count_nonzero(passed):levels_arr.size - never]
    if not rows.size or dyn.unit > 0:
        return record

    sampled = levels_arr[rows]
    starts = range(0, n, cfg.batch_size)
    children = np.random.SeedSequence(cfg.seed).spawn(len(starts))

    def run(i: int) -> None:
        rng = np.random.Generator(np.random.Philox(children[i]))
        cols = slice(starts[i], min(starts[i] + cfg.batch_size, n))
        if dyn.unit < 0:
            _unit_down_batch(dyn, r_disc, sampled, rows, horizon, rng,
                             record, cols)
        else:
            _event_batch(dyn, r_disc, sampled, rows, horizon, abandon_level,
                         rng, record, cols)

    workers = _thread_count()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(starts))))
    else:
        for i in range(len(starts)):
            run(i)
    return record


def hitting_estimates(model: LevyModel, r: float, levels: Sequence[float],
                      cfg: SimConfig) -> List[Tuple[McEstimate, McEstimate]]:
    """Estimates of (L, G) at each negative level, one path set for all.

    Levels come in any order and the estimates in the same order.  Paths
    that outlive the horizon contribute 0 to both functionals, which biases
    the estimates down by at most e^{-r T} per truncated path; the
    truncation fraction is reported so callers can budget for it.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if np.any(np.asarray(levels, dtype=float) >= 0):
        raise ValueError("passage levels must be negative")
    dyn = _Dynamics.from_model(model)
    horizon = _resolve_horizon(cfg, r, psi1(model))
    record = _simulate_levels(dyn, r, levels, horizon, cfg,
                              want_integral=False)
    out = []
    for j in range(record.hit.shape[0]):
        disc = np.where(record.hit[j], np.exp(-r * record.tau[j]), 0.0)
        joint = np.where(record.hit[j],
                         np.exp(-r * record.tau[j] + record.x_hit[j]), 0.0)
        out.append((_estimate(disc, record.missed(j)),
                    _estimate(joint, record.missed(j))))
    return out


@dataclass(frozen=True)
class PolicyValue:
    """The stop-at-b policy value estimated two ways.

    ``direct`` integrates e^{-rs} (alpha V_s - c) along each path up to the
    passage, the part in V_s through the resolvent marks (in closed form
    for the counter family); ``stopped`` uses the equivalent stopped form
    alpha v/(r - psi(1)) - c/r + E[e^{-r tau} f(V_tau)].  Disagreement
    beyond 4 joint standard errors (``reconciled`` False) flags a bug.
    Trust the direct form's standard error, and so ``reconciled``, only
    when 2 r > psi(2): a path may rise without bound before its passage,
    and otherwise only the horizon keeps its second moment finite.
    """

    b: float
    direct: McEstimate
    stopped: McEstimate
    diff_mean: float
    diff_se: float

    @property
    def reconciled(self) -> bool:
        return abs(self.diff_mean) <= 4.0 * self.diff_se


def _stopped_values(spec: ProblemSpec, record: PassageRecord) -> np.ndarray:
    """Per-path stopped-form policy values, one row per level of ``record``."""
    r, alpha, c, v = spec.r, spec.alpha, spec.c, spec.v
    growth = spec.psi1
    v_stop = v * np.exp(record.x_hit)
    f_stop = -alpha * v_stop / (r - growth) + c / r
    return (alpha * v / (r - growth) - c / r
            + np.where(record.hit, np.exp(-r * record.tau) * f_stop, 0.0))


def policy_value(spec: ProblemSpec, b: float, cfg: SimConfig) -> PolicyValue:
    """Estimate E_v[int_0^{tau_b} e^{-rs}(alpha V_s - c) ds] two ways.

    b >= v needs no branch: its level is passed at time 0, so both are 0.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    record = _simulate_levels(dyn, spec.r, [math.log(b / spec.v)], horizon,
                              cfg, want_integral=True)
    stopped = _stopped_values(spec, record)[0]
    direct = (spec.alpha * spec.v * record.final_int
              - spec.c * (1.0 - np.exp(-spec.r * record.tau[0])) / spec.r)
    diff = _estimate(direct - stopped, 0.0)
    return PolicyValue(b=b, direct=_estimate(direct, record.missed(0)),
                       stopped=_estimate(stopped, record.missed(0)),
                       diff_mean=diff.mean, diff_se=diff.std_error)


@dataclass
class SweepResult:
    """Common-random-numbers policy sweep over an ascending b grid.

    ``values`` holds the per-path policy values in stopped form, one row
    per b, all from one path set, enabling paired comparisons: ``flat``
    marks levels whose deficit to the argmax is within one paired standard
    error.
    """

    b_grid: np.ndarray
    estimates: List[McEstimate]
    argmax_index: int
    argmax_b: float
    flat: np.ndarray
    values: np.ndarray

    def flat_interval(self) -> Tuple[float, float]:
        """Smallest and largest flat b (the +-1 SE plateau around argmax)."""
        flat_b = self.b_grid[self.flat]
        return float(flat_b.min()), float(flat_b.max())


def sweep(spec: ProblemSpec, b_grid: Sequence[float],
          cfg: SimConfig) -> SweepResult:
    """Paired estimates of the policy value on every b in one path set.

    b >= v needs no mask: its level is passed at time 0, so its row is 0.
    """
    grid = np.asarray(b_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("b_grid must be a non-empty 1-d sequence")
    if np.any(grid <= 0):
        raise ValueError("b values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("b_grid must be strictly ascending")
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    with np.errstate(divide="ignore"):  # b / v may underflow to 0
        levels = np.log(grid / spec.v)
    record = _simulate_levels(dyn, spec.r, levels, horizon, cfg,
                              want_integral=False)
    values = _stopped_values(spec, record)
    estimates = [_estimate(values[i], record.missed(i))
                 for i in range(grid.size)]
    means = np.array([e.mean for e in estimates])
    arg = int(np.argmax(means))
    diffs = values[arg][None, :] - values
    diff_se = np.std(diffs, ddof=1, axis=1) / math.sqrt(cfg.n_paths)
    flat = (means[arg] - means) <= diff_se
    return SweepResult(b_grid=grid, estimates=estimates, argmax_index=arg,
                       argmax_b=float(grid[arg]), flat=flat, values=values)


@dataclass
class EpsilonStopResult:
    """Stopping times of the eps-suboptimal rules, largest eps first.

    ``tau`` is the per-path matrix of capped stopping times aligned with
    ``eps_list``; descending eps shrinks the stop region, so each row
    dominates the previous one path by path.
    """

    eps_list: np.ndarray
    boundaries: np.ndarray
    estimates: List[McEstimate]
    tau: np.ndarray


def epsilon_stop_paths(spec: ProblemSpec, result: ThresholdResult,
                       eps_list: Sequence[float],
                       cfg: SimConfig) -> EpsilonStopResult:
    """Mean entry time into each eps-region, all eps on shared paths.

    A boundary at or above v needs no mask: it is entered at time 0.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.ndim != 1 or eps_arr.size == 0:
        raise ValueError("eps_list must be a non-empty 1-d sequence")
    if np.any(eps_arr <= 0):
        raise ValueError("eps values must be positive")
    if np.any(np.diff(eps_arr) >= 0):
        raise ValueError("eps_list must be strictly descending")
    bounds = np.array([epsilon_region(spec, result, e) for e in eps_arr])
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    record = _simulate_levels(dyn, spec.r, np.log(bounds / spec.v), horizon,
                              cfg, want_integral=False)
    estimates = [_estimate(record.tau[i], record.missed(i))
                 for i in range(eps_arr.size)]
    return EpsilonStopResult(eps_list=eps_arr, boundaries=bounds,
                             estimates=estimates, tau=record.tau)


@dataclass
class ClassDResult:
    """Ladder of E[e^{-r R_n + X_{R_n}}; R_n finite] estimates.

    R_n is the first time the discounted price e^{-rt+X_t} reaches n.  The
    expectation falling to 0 along a geometric ladder of n is the
    uniform-integrability evidence behind the Snell-envelope argument.
    """

    n_values: np.ndarray
    estimates: List[McEstimate]

    def loglog_slope(self) -> float:
        ns = self.n_values.astype(float)
        means = np.array([e.mean for e in self.estimates])
        if np.any(means <= 0):
            raise ArithmeticError("cannot fit a log-log slope through a "
                                  "zero estimate; increase n_paths")
        return float(np.polyfit(np.log(ns), np.log(means), 1)[0])


def class_d_diagnostic(model: LevyModel, r: float, n_levels: Sequence[int],
                       cfg: SimConfig) -> ClassDResult:
    """Estimate the class-D ladder by simulating Y = rt - X downward.

    e^{-rt+X_t} >= n exactly when Y_t <= -ln n, and the payoff at passage
    is e^{-Y}; a diffusion crossing lands on -ln n so its payoff is n with
    no variance beyond the hit indicator.  When the mirrored drift is
    positive, paths that a jump leaves ``_ABANDON_DEPTH`` = 10 or more above
    the start are abandoned as misses (recovery probability <= e^{-2 m D /
    sigma^2}).  n = 1 needs no branch: level 0 is passed at time 0, so its
    payoff is e^0 = 1 on every path.
    """
    growth = psi1(model)
    if not r > growth:
        raise ValueError(f"class-D ladder needs r > psi(1) = {growth:.6g}")
    ns = np.asarray(n_levels, dtype=np.int64)
    if np.any(ns < 1):
        raise ValueError("ladder values must be integers >= 1")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("ladder must be strictly increasing")
    dyn = _Dynamics.from_model(model).mirrored(r)
    horizon = _resolve_horizon(cfg, r, growth)
    abandon = _ABANDON_DEPTH if (dyn.m > 0 and dyn.sigma > 0) else None
    record = _simulate_levels(dyn, 0.0, -np.log(ns.astype(float)), horizon,
                              cfg, want_integral=False,
                              abandon_level=abandon)
    estimates = [_estimate(np.where(record.hit[i],
                                    np.exp(-record.x_hit[i]), 0.0),
                           record.missed(i))
                 for i in range(ns.size)]
    return ClassDResult(n_values=ns, estimates=estimates)


def sample_increment(model: LevyModel, t: float, n: int,
                     seed: int) -> np.ndarray:
    """n exact draws of X_t (no discretisation), for distribution tests."""
    if not t > 0:
        raise ValueError("t must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    dyn = _Dynamics.from_model(model)
    x = dyn.m * t + dyn.sigma * math.sqrt(t) * rng.standard_normal(n)
    if dyn.a > 0:
        # Successive binomials split the jump count over the phases.
        counts = rng.poisson(dyn.a * t, n)
        jumps = dyn.unit * counts
        left, mass = counts, 1.0
        for i, (p, rate) in enumerate(dyn.phases):
            k = (left if i == len(dyn.phases) - 1
                 else rng.binomial(left, p / mass))
            jumps = jumps + rng.standard_gamma(k) / rate
            left, mass = left - k, mass - p
        x = x + jumps
    return x
