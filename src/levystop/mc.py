"""Monte Carlo oracle for every closed form in the package.

Two vectorised first-passage samplers drive all estimators.  Both watch
several downward levels in one pass, sorted shallowest first: a cascade
advances each path's pending-level pointer while the current segment (or
jump) still crosses the next level.  Sharing one pass across levels is what
makes the b-sweep exact common random numbers.

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
integral, which the sampler estimates through the resolvent identity
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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .engine import ThresholdResult, epsilon_region, value_function
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
    "simulate_hit",
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
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite, got "
                             f"{self.horizon}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


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
    """Per-path first-passage data for a descending ladder of levels.

    ``tau[j]`` is the passage time of level j, or the horizon where the
    path never got there (``hit[j]`` False).  For jump crossings ``x_hit``
    carries the post-jump overshoot value; diffusion crossings sit exactly
    on the level.  ``disc_exp_int[j]`` is an unbiased per-path estimate of
    int_0^{tau_j ^ horizon} e^{-r s + X_s} ds and ``final_int`` that of the
    same integral at the horizon, both present only when it was requested.
    """

    tau: np.ndarray
    x_hit: np.ndarray
    hit: np.ndarray
    disc_exp_int: Optional[np.ndarray]
    final_int: Optional[np.ndarray]


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


def _event_batch(dyn: _Dynamics, r_disc: float, lam: float,
                 levels: np.ndarray, horizon: float,
                 abandon_level: Optional[float], rng: np.random.Generator,
                 n: int) -> Tuple[np.ndarray, ...]:
    """Exact first-passage sampler for a diffusion with compound Poisson jumps.

    Each lane steps from event to event, with no time grid: it draws the
    next Exp(a + lam) event gap (none when a + lam = 0, so a Brownian
    motion takes a single segment), clips the segment at the horizon and
    draws its Gaussian endpoint.  ``_bridge_crossings`` tests and times the
    passage of the next pending level; after a passage the bridge restarts
    from (tau, l) for the level below, which the Markov property allows.
    An event is a mark with probability lam / (a + lam) and a jump
    otherwise; the uniform that decides is drawn only when both can occur,
    so lam = 0 reproduces the passage-only draws exactly.  A mark adds
    e^{-r t + X_t} / lam to the lane's integral while a level is pending.
    A jump passes every pending level at or above its landing point.
    Lanes retire when every level is passed, at the horizon, or, with
    ``abandon_level`` set, when an event leaves them at or above it.
    """
    n_levels = len(levels)
    tau = np.full((n_levels, n), horizon)
    x_hit = np.zeros((n_levels, n))
    hit = np.zeros((n_levels, n), dtype=bool)
    a_at = np.zeros((n_levels, n)) if lam > 0 else None
    a_final = np.zeros(n) if lam > 0 else None

    def record(j, lanes, t_cross, x_cross) -> None:
        slot = idx[lanes]
        tau[j, slot] = t_cross
        x_hit[j, slot] = x_cross
        hit[j, slot] = True
        if a_at is not None:
            a_at[j, slot] = acc[lanes]

    # Compact per-lane state; idx maps lanes back to path slots.
    idx = np.arange(n)
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
        if a_final is not None:
            a_final[idx[~keep]] = acc[~keep]
        idx, t, x, acc, pend = idx[keep], t[keep], x[keep], acc[keep], \
            pend[keep]
    return tau, x_hit, hit, a_at, a_final


def _unit_down_batch(dyn: _Dynamics, r_disc: float, levels: np.ndarray,
                     horizon: float, want_integral: bool,
                     rng: np.random.Generator,
                     n: int) -> Tuple[np.ndarray, ...]:
    """Exact event-driven sampler for X = -(Poisson counter).

    The j-th level is crossed at the ceil(-level_j)-th jump; jump times are
    partial sums of Exp(a) gaps, and the discounted integral is a sum of
    closed-form segment contributions, so there is no dt error at all.
    """
    ks = np.ceil(-levels).astype(np.int64)
    k_deep = int(ks.max())
    # Integral contributions past k jumps decay like e^{-k}; 45 extra jump
    # segments put the neglected tail below 1e-19 of the total.
    k_big = max(k_deep, 45) if want_integral else k_deep
    gaps = rng.standard_exponential((n, k_big)) / dyn.a
    times = np.cumsum(gaps, axis=1)
    n_levels = len(levels)
    tau = np.empty((n_levels, n))
    x_hit = np.zeros((n_levels, n))
    hit = np.empty((n_levels, n), dtype=bool)
    a_at = np.zeros((n_levels, n)) if want_integral else None
    a_final = None
    if want_integral:
        clipped = np.minimum(times, horizon)
        starts = np.concatenate([np.zeros((n, 1)), clipped[:, :-1]], axis=1)
        weights = np.exp(-np.arange(k_big, dtype=float))
        segments = weights * (np.exp(-r_disc * starts)
                              - np.exp(-r_disc * clipped)) / r_disc
        cum = np.cumsum(segments, axis=1)
        tail = (math.exp(-k_big)
                * (np.exp(-r_disc * clipped[:, -1])
                   - math.exp(-r_disc * horizon)) / r_disc)
        a_final = cum[:, -1] + tail
    for j, k_level in enumerate(ks):
        t_k = times[:, k_level - 1]
        level_hit = t_k <= horizon
        tau[j] = np.where(level_hit, t_k, horizon)
        x_hit[j] = np.where(level_hit, -float(k_level), 0.0)
        hit[j] = level_hit
        if want_integral:
            # Clipped partial sums make this int_0^{tau_j ^ horizon} exactly.
            a_at[j] = cum[:, k_level - 1]
    return tau, x_hit, hit, a_at, a_final


def _all_miss_batch(levels: np.ndarray, horizon: float, n: int
                    ) -> Tuple[np.ndarray, ...]:
    n_levels = len(levels)
    return (np.full((n_levels, n), horizon), np.zeros((n_levels, n)),
            np.zeros((n_levels, n), dtype=bool), None, None)


# Rate of the mark clock per unit of r.  Over 100 seeds of the AC-3 start
# points, the direct form missed the closed form by 3 SE or more in 3 runs
# at rate r, 1 at 4 r and 8 at 16 r: more marks bring out the heavy tail of
# the integral itself, whose sample SE then understates the error.
_MARK_RATE = 4.0


def _simulate_levels(dyn: _Dynamics, r_disc: float, levels: Sequence[float],
                     horizon: float, cfg: SimConfig, want_integral: bool,
                     abandon_level: Optional[float] = None) -> PassageRecord:
    """Passages of a descending ladder of levels, batch by batch.

    Requests with ``want_integral`` run the event sampler with a mark clock
    of rate ``_MARK_RATE * r_disc``; passage-only ones run it without one.
    Only the event sampler reads ``abandon_level``.
    """
    levels_arr = np.asarray(levels, dtype=float)
    if levels_arr.ndim != 1 or levels_arr.size == 0:
        raise ValueError("levels must be a non-empty 1-d sequence")
    if np.any(levels_arr >= 0):
        raise ValueError("passage levels must be negative")
    if np.any(np.diff(levels_arr) > 0):
        raise ValueError("levels must be sorted descending (shallowest first)")
    if dyn.sigma == 0 and not dyn.unit:
        raise ValueError("pure-drift dynamics are not supported")

    lam = _MARK_RATE * r_disc if want_integral else 0.0
    n = cfg.n_paths
    n_levels = levels_arr.size
    sizes = [cfg.batch_size] * (n // cfg.batch_size)
    if n % cfg.batch_size:
        sizes.append(n % cfg.batch_size)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    children = np.random.SeedSequence(cfg.seed).spawn(len(sizes))

    tau = np.empty((n_levels, n))
    x_hit = np.empty((n_levels, n))
    hit = np.empty((n_levels, n), dtype=bool)
    a_at = np.empty((n_levels, n)) if want_integral else None
    a_final = np.empty(n) if want_integral else None

    def run(i: int) -> None:
        rng = np.random.Generator(np.random.Philox(children[i]))
        if dyn.unit < 0:
            out = _unit_down_batch(dyn, r_disc, levels_arr, horizon,
                                   want_integral, rng, sizes[i])
        elif dyn.unit > 0:
            # Nondecreasing paths never reach a negative level.
            out = _all_miss_batch(levels_arr, horizon, sizes[i])
        else:
            out = _event_batch(dyn, r_disc, lam, levels_arr, horizon,
                               abandon_level, rng, sizes[i])
        lo, hi = offsets[i], offsets[i + 1]
        tau[:, lo:hi], x_hit[:, lo:hi], hit[:, lo:hi] = out[0], out[1], out[2]
        if want_integral:
            if out[3] is None or out[4] is None:
                raise ValueError("integral functional unavailable for "
                                 "nondecreasing dynamics")
            a_at[:, lo:hi] = out[3]
            a_final[lo:hi] = out[4]

    workers = _thread_count()
    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(sizes))))
    else:
        for i in range(len(sizes)):
            run(i)
    return PassageRecord(tau=tau, x_hit=x_hit, hit=hit,
                         disc_exp_int=a_at, final_int=a_final)


def hitting_estimates(model: LevyModel, r: float, levels: Sequence[float],
                      cfg: SimConfig) -> List[Tuple[McEstimate, McEstimate]]:
    """Estimates of (L, G) at each negative level, one path set for all.

    Paths that outlive the horizon contribute 0 to both functionals, which
    biases the estimates down by at most e^{-r T} per truncated path; the
    truncation fraction is reported so callers can budget for it.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    levels_arr = np.asarray(levels, dtype=float)
    order = np.argsort(-levels_arr, kind="stable")
    dyn = _Dynamics.from_model(model)
    horizon = _resolve_horizon(cfg, r, psi1(model))
    record = _simulate_levels(dyn, r, levels_arr[order], horizon, cfg,
                              want_integral=False)
    out: List[Optional[Tuple[McEstimate, McEstimate]]]
    out = [None] * levels_arr.size
    for pos, orig in enumerate(order):
        disc = np.where(record.hit[pos],
                        np.exp(-r * record.tau[pos]), 0.0)
        joint = np.where(record.hit[pos],
                         np.exp(-r * record.tau[pos] + record.x_hit[pos]),
                         0.0)
        truncated = 1.0 - float(np.mean(record.hit[pos]))
        out[orig] = (_estimate(disc, truncated), _estimate(joint, truncated))
    return out


def simulate_hit(model: LevyModel, r: float, x_level: float,
                 cfg: SimConfig) -> Tuple[McEstimate, McEstimate]:
    """(L, G) estimates at one strictly negative level."""
    if x_level >= 0:
        raise ValueError("x_level must be negative; the passage is "
                         "immediate otherwise")
    return hitting_estimates(model, r, [x_level], cfg)[0]


@dataclass(frozen=True)
class PolicyValue:
    """The stop-at-b policy value estimated two ways.

    ``direct`` integrates e^{-rs} (alpha V_s - c) along each path, the
    part in V_s through the resolvent marks (in closed form for the counter
    family); ``stopped`` uses the equivalent stopped form
    alpha v/(r - psi(1)) - c/r + E[e^{-r tau} f(V_tau)].  Disagreement
    beyond 4 joint standard errors (``reconciled`` False) flags a bug.
    """

    b: float
    direct: McEstimate
    stopped: McEstimate
    diff_mean: float
    diff_se: float

    @property
    def reconciled(self) -> bool:
        return abs(self.diff_mean) <= 4.0 * self.diff_se


def _stopped_values(spec: ProblemSpec, record: PassageRecord,
                    j: int) -> np.ndarray:
    """Per-path stopped-form policy values for level j of ``record``."""
    r, alpha, c, v = spec.r, spec.alpha, spec.c, spec.v
    growth = spec.psi1
    v_stop = v * np.exp(record.x_hit[j])
    f_stop = -alpha * v_stop / (r - growth) + c / r
    return (alpha * v / (r - growth) - c / r
            + np.where(record.hit[j], np.exp(-r * record.tau[j]) * f_stop,
                       0.0))


def policy_value(spec: ProblemSpec, b: float, cfg: SimConfig) -> PolicyValue:
    """Estimate E_v[int_0^{tau_b} e^{-rs}(alpha V_s - c) ds] two ways."""
    if b <= 0:
        raise ValueError("b must be positive")
    zero = McEstimate(0.0, 0.0, cfg.n_paths, 0.0)
    if b >= spec.v:
        return PolicyValue(b=b, direct=zero, stopped=zero,
                           diff_mean=0.0, diff_se=0.0)
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    record = _simulate_levels(dyn, spec.r, [math.log(b / spec.v)], horizon,
                              cfg, want_integral=True)
    stopped = _stopped_values(spec, record, 0)
    integral = np.where(record.hit[0], record.disc_exp_int[0],
                        record.final_int)
    direct = (spec.alpha * spec.v * integral
              - spec.c * (1.0 - np.exp(-spec.r * record.tau[0])) / spec.r)
    truncated = 1.0 - float(np.mean(record.hit[0]))
    diff = direct - stopped
    diff_se = (float(np.std(diff, ddof=1) / math.sqrt(diff.size))
               if diff.size > 1 else 0.0)
    return PolicyValue(b=b, direct=_estimate(direct, truncated),
                       stopped=_estimate(stopped, truncated),
                       diff_mean=float(np.mean(diff)), diff_se=diff_se)


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
    """Paired estimates of the policy value on every b in one path set."""
    grid = np.asarray(b_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("b_grid must be a non-empty 1-d sequence")
    if np.any(grid <= 0):
        raise ValueError("b values must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("b_grid must be strictly ascending")
    active = grid < spec.v
    values = np.zeros((grid.size, cfg.n_paths))
    truncated = np.zeros(grid.size)
    if active.any():
        # Ascending b below v means descending passage levels already.
        act_idx = np.flatnonzero(active)[::-1]
        levels = np.log(grid[act_idx] / spec.v)
        dyn = _Dynamics.from_model(spec.model)
        horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
        record = _simulate_levels(dyn, spec.r, levels, horizon, cfg,
                                  want_integral=False)
        for pos, orig in enumerate(act_idx):
            values[orig] = _stopped_values(spec, record, pos)
            truncated[orig] = 1.0 - float(np.mean(record.hit[pos]))
    estimates = [_estimate(values[i], truncated[i])
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
    """Mean entry time into each eps-region, all eps on shared paths."""
    eps_arr = np.asarray(eps_list, dtype=float)
    if eps_arr.ndim != 1 or eps_arr.size == 0:
        raise ValueError("eps_list must be a non-empty 1-d sequence")
    if np.any(eps_arr <= 0):
        raise ValueError("eps values must be positive")
    if np.any(np.diff(eps_arr) >= 0):
        raise ValueError("eps_list must be strictly descending")
    vf = value_function(spec, result)
    bounds = np.array([epsilon_region(spec, result, e, vf) for e in eps_arr])
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    tau = np.zeros((eps_arr.size, cfg.n_paths))
    active = bounds < spec.v
    if active.any():
        act_idx = np.flatnonzero(active)
        levels = np.log(bounds[act_idx] / spec.v)
        dyn = _Dynamics.from_model(spec.model)
        record = _simulate_levels(dyn, spec.r, levels, horizon, cfg,
                                  want_integral=False)
        tau[act_idx] = record.tau
    hit_frac = np.mean(tau < horizon, axis=1)
    estimates = [_estimate(tau[i], 1.0 - float(hit_frac[i]))
                 for i in range(eps_arr.size)]
    return EpsilonStopResult(eps_list=eps_arr, boundaries=bounds,
                             estimates=estimates, tau=tau)


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
                       cfg: SimConfig,
                       abandon_depth: float = 10.0) -> ClassDResult:
    """Estimate the class-D ladder by simulating Y = rt - X downward.

    e^{-rt+X_t} >= n exactly when Y_t <= -ln n, and the payoff at passage
    is e^{-Y}; a diffusion crossing lands on -ln n so its payoff is n with
    no variance beyond the hit indicator.  When the mirrored drift is
    positive, paths that a jump leaves ``abandon_depth`` or more above the
    start are abandoned as misses (recovery probability <= e^{-2 m D /
    sigma^2}).
    """
    growth = psi1(model)
    if r <= growth:
        raise ValueError(f"class-D ladder needs r > psi(1) = {growth:.6g}")
    ns = np.asarray(n_levels, dtype=np.int64)
    if np.any(ns < 1):
        raise ValueError("ladder values must be integers >= 1")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("ladder must be strictly increasing")
    dyn = _Dynamics.from_model(model).mirrored(r)
    horizon = _resolve_horizon(cfg, r, growth)
    estimates: List[Optional[McEstimate]] = [None] * ns.size
    sim_idx = np.flatnonzero(ns > 1)
    for i in np.flatnonzero(ns == 1):
        # Level 0 is hit at time 0 with payoff e^0 = 1, path-independent.
        estimates[i] = McEstimate(1.0, 0.0, cfg.n_paths, 0.0)
    if sim_idx.size:
        levels = -np.log(ns[sim_idx].astype(float))
        abandon = abandon_depth if (dyn.m > 0 and dyn.sigma > 0) else None
        record = _simulate_levels(dyn, 0.0, levels, horizon, cfg,
                                  want_integral=False,
                                  abandon_level=abandon)
        for pos, orig in enumerate(sim_idx):
            payoff = np.where(record.hit[pos],
                              np.exp(-record.x_hit[pos]), 0.0)
            truncated = 1.0 - float(np.mean(record.hit[pos]))
            estimates[orig] = _estimate(payoff, truncated)
    return ClassDResult(n_values=ns, estimates=estimates)


def sample_increment(model: LevyModel, t: float, n: int,
                     seed: int) -> np.ndarray:
    """n exact draws of X_t (no discretisation), for distribution tests."""
    if t <= 0:
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
