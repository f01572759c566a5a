"""Monte Carlo oracle for every closed form in the package.

Every estimator is a functional of first passages below a ladder of
levels, which ``_simulate_levels`` alone turns into passages.  Its two
vectorised samplers watch all negative levels in one pass, shallowest
first: a cascade advances each path's pending-level pointer while the
current segment (or jump) still crosses the next level.  Sharing one pass
across levels is what makes the b-sweep exact common random numbers.

Every family but the counter uses one exact event-driven sampler with no
time grid.  Each pass draws a block of events for every live path; each
diffusion segment is tested against the exact law of the Brownian-bridge
minimum, one vectorised test finds each path's earliest crossing in the
block, and crossing times come from the bridge first-passage law (Metwally
& Atiya 2002, J. Derivatives 10(1)).  The counter family is sampled
exactly, jump by jump.  The only bias left is the horizon truncation.

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
``_BATCH_PATHS`` = 16384, and batch i draws from the i-th spawn of
SeedSequence(cfg.seed), in index order.  So the draws, and every result,
are a function of (seed, n_paths, horizon) alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .engine import ThresholdResult, epsilon_region
from .models import LevyModel, ProblemSpec, check_discounting, psi1
from .transforms import _checked_v

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
    "sweep",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation budget: path count, horizon and seed.

    ``horizon`` None resolves to 50 / (r - psi(1)) at the point of use, so
    the discounted truncation error is below e^-50.  ``dt`` is validated
    but ignored: every sampler is exact, with no time grid, and the field
    stays so that existing callers keep working.
    """

    n_paths: int
    dt: float = 1e-3
    horizon: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.n_paths, numbers.Integral) or self.n_paths < 1:
            raise ValueError("n_paths must be an integer >= 1")
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


# Rows per numpy pass in ``_estimates``: at most 2**14 values (128 KiB of
# float64).  At 2000 paths one pass covers every level, and the estimates
# cost 0.5-0.6x what one pass per level cost; at a million paths, five
# levels in one pass took 1.3-1.4x as long as five single-level passes,
# whose temporaries malloc reuses.
_PASS_VALUES = 1 << 14


def _estimates(values_of: Callable[[slice], np.ndarray],
               shape: Tuple[int, int], truncated) -> List[McEstimate]:
    """One estimate per row of a (rows, paths) ``shape`` of per-path values.

    ``values_of(rows)`` builds the values of a slice of rows, and
    ``truncated`` holds each row's truncation fraction.  The rows go through
    numpy a block at a time, each statistic in one reduction along the
    block's rows, which gives every row the bits a reduction of that row
    alone gives.
    """
    n_rows, n = shape
    step = max(1, _PASS_VALUES // n)
    stats = []
    for lo in range(0, n_rows, step):
        values = values_of(slice(lo, lo + step))
        means = np.mean(values, axis=1).tolist()
        errors = ((np.std(values, ddof=1, axis=1) / math.sqrt(n)).tolist()
                  if n > 1 else [0.0] * len(means))
        for row, mean, se in zip(values, means, errors):
            if se < 1e-12 * abs(mean) and np.all(row == row[0]):
                se = 0.0  # a constant row, where np.std leaves rounding noise
            stats.append((mean, se))
    return [McEstimate(mean=mean, std_error=se, n_effective=n,
                       truncation_fraction=float(frac))
            for (mean, se), frac in zip(stats, truncated)]


def _ladder(values: Sequence[float], name: str, what: str,
            order: str) -> np.ndarray:
    """``values`` as a non-empty 1-d array, positive and strictly in
    ``order`` ("ascending", "increasing" or "descending"); NaN passes."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if np.any(arr <= 0):
        raise ValueError(f"{what} values must be positive")
    step = -np.diff(arr) if order == "descending" else np.diff(arr)
    if np.any(step <= 0):
        raise ValueError(f"{name} must be strictly {order}")
    return arr


def _resolve_horizon(cfg: SimConfig, r: float, growth: float) -> float:
    if cfg.horizon is not None:
        return float(cfg.horizon)
    gap = r - growth if growth < r else r
    return 50.0 / gap


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

    def missed(self) -> np.ndarray:
        """Per level, the fraction of paths that never passed it."""
        return 1.0 - np.mean(self.hit, axis=1)


def _jump_crossings(levels: np.ndarray, pend: np.ndarray, lanes: np.ndarray,
                    land: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Advance ``pend`` past the levels that jumps landing at ``land`` pass.

    Levels descend, so a jump passes every pending level at or above its
    landing point.  Returns, one entry per passage, the position in
    ``lanes`` of the jump and the level index passed.
    """
    old = pend[lanes]
    stop = np.searchsorted(-levels, -land, side="right")
    moved = np.flatnonzero(stop > old)
    old, stop = old[moved], stop[moved]
    pend[lanes[moved]] = stop
    count = stop - old
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - old,
                                           count)
    return np.repeat(moved, count), j


def _bridge_test(expo, alpha, beta, var_dt) -> np.ndarray:
    """Exp(1) test of P(min <= level) = min(1, exp(-2 alpha beta / var_dt))."""
    return 0.5 * expo * var_dt >= alpha * beta


def _bridge_crossings(rng: np.random.Generator, alpha: np.ndarray,
                      beta: np.ndarray, var_dt: np.ndarray,
                      expo: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Which Brownian-bridge segments reach their level, and when.

    Segment i starts ``alpha[i]`` >= 0 above its level, ends ``beta[i]``
    above it, has variance ``var_dt[i]`` = sigma^2 delta and Exp(1) test
    draw ``expo[i]`` (fresh when None).  Returns the crossing positions and
    the elapsed fraction s of each at its passage: s / (1 - s) is inverse
    Gaussian with mean alpha / |beta| and shape alpha^2 / var_dt.  Past a
    mean of 1e12 shapes (beta = 0 among them), where Generator.wald loses
    precision, its Levy limit shape / Z^2 is drawn instead.  A segment that
    starts on its level (alpha = 0: a level equal to the one just passed)
    or has zero length crosses at its start when it crosses at all.
    """
    if expo is None:
        expo = rng.standard_exponential(alpha.size)
    crossed = np.flatnonzero(_bridge_test(expo, alpha, beta, var_dt))
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
        if ig.all():  # the common case, without masked copies
            u = rng.wald(mean, shape)
        else:
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

    Lanes step from event to event with no time grid, ``w`` events per pass:
    ``_BLOCK_EVENTS`` // live lanes, clamped to [1, ``_BLOCK_MAX``], or one
    segment to the horizon when a + lam = 0.  A pass draws each lane's
    Exp(a + lam) gaps, Gaussian segment endpoints, Exp(1) bridge-test draws,
    event types and jumps, and finds its earliest crossing of the pending
    level: a segment whose ``_bridge_test`` fires, or a jump landing at or
    below it.  ``_bridge_crossings`` times it and cascades through deeper
    levels with fresh draws from (tau, l), as the Markov property allows;
    the segment's jump passes every level at or above its landing point,
    and the rest of the block is tested against the new pending level.  No
    step reads a later event's draws, so the pass is exact.  An event is a
    mark with probability lam / (a + lam), by a uniform drawn only when both
    can occur; at lam = ``_MARK_RATE`` r when ``out`` has room for the
    integral, each mark before the final passage adds e^{-r t + X_t} / lam.
    Lanes retire when every level is passed, at the horizon, or when an
    event leaves them at or above ``abandon_level``.  Passages of
    ``levels[j]`` go to row ``rows[j]``, columns ``cols``, of ``out``.
    """
    n_levels = len(levels)
    lam = _MARK_RATE * r_disc if out.final_int is not None else 0.0

    def record(j, lanes, t_cross, x_cross) -> None:
        at = rows[j] * out.hit.shape[1] + idx[lanes]  # C-contiguous rows
        out.tau.ravel()[at] = t_cross
        out.x_hit.ravel()[at] = x_cross
        out.hit.ravel()[at] = True

    # Compact per-lane state; idx maps lanes back to columns of ``out``.
    idx = np.arange(cols.start, cols.stop)
    n = idx.size
    t = np.zeros(n)
    x = np.zeros(n)
    acc = np.zeros(n)
    pend = np.zeros(n, dtype=np.int64)
    var = dyn.sigma * dyn.sigma
    rate = dyn.a + lam
    abandon = math.inf if abandon_level is None else abandon_level
    while idx.size:
        # Block arrays are (lane, event); X goes seg_start, seg_end, land.
        k = idx.size
        w = min(max(_BLOCK_EVENTS // k, 1), _BLOCK_MAX) if rate > 0 else 1
        if rate > 0:
            ends = rng.standard_exponential((k, w)) / rate
            np.cumsum(ends, axis=1, out=ends)
            np.minimum(ends + t[:, None], horizon, out=ends)
            event = ends < horizon
        else:
            ends, event = np.full((k, 1), horizon), np.False_
        starts = np.concatenate((t[:, None], ends[:, :-1]), axis=1)
        delta = ends - starts
        steps = np.sqrt(delta) * dyn.sigma
        steps *= rng.standard_normal((k, w))
        steps += dyn.m * delta
        expo = rng.standard_exponential((k, w))
        is_mark = (rng.random((k, w)) < lam / rate if lam > 0 and dyn.a > 0
                   else np.bool_(lam > 0))
        land = steps.copy()
        if dyn.a > 0:
            at = np.flatnonzero(event & ~is_mark)
            land.ravel()[at] += _draw_jumps(dyn, rng, at.size)
        np.cumsum(land, axis=1, out=land)
        land += x[:, None]
        seg_start = np.concatenate((x[:, None], land[:, :-1]), axis=1)
        seg_end = seg_start + steps if dyn.a > 0 else land
        var_dt = var * delta
        # Each lane retires at the event in column ``last`` (w: it lives on).
        last = np.full(k, w)
        sub, first = slice(None), None
        while True:
            lev = levels[pend[sub]][:, None]
            seg_hit = _bridge_test(expo[sub], seg_start[sub] - lev,
                                   seg_end[sub] - lev, var_dt[sub])
            stop = seg_hit | (land[sub] <= lev)
            if abandon_level is not None:  # the last column retires below
                stop[:, :-1] |= land[sub][:, :-1] >= abandon
            if first is not None:
                stop &= np.arange(w) >= first[:, None]
            # Flat positions run lane-major: keep each lane's earliest stop.
            pos = np.flatnonzero(stop)
            if not pos.size:
                break
            row = pos // w
            pos = pos[np.concatenate(([True], row[1:] != row[:-1]))]
            row = pos // w
            col = pos % w
            lanes = row if first is None else sub[row]
            flat = pos if first is None else lanes * w + col
            # A crossing segment passes its test again on the same draw.
            hit = np.flatnonzero(seg_hit.ravel()[pos])
            cas, at = lanes[hit], flat[hit]
            t0, t1 = starts.ravel()[at], ends.ravel()[at]
            x0, x1 = seg_start.ravel()[at], seg_end.ravel()[at]
            draws = expo.ravel()[at]
            while cas.size:
                lev = levels[pend[cas]]
                crossed, frac = _bridge_crossings(rng, x0 - lev, x1 - lev,
                                                  var * (t1 - t0), draws)
                draws = None
                cas, t0, t1 = cas[crossed], t0[crossed], t1[crossed]
                x1, lev = x1[crossed], lev[crossed]
                t_cross = np.minimum(t0 + (t1 - t0) * frac, t1)
                record(pend[cas], cas, t_cross, lev)
                pend[cas] += 1
                more = np.flatnonzero(pend[cas] < n_levels)
                cas, t0, x0 = cas[more], t_cross[more], lev[more]
                t1, x1 = t1[more], x1[more]
            if dyn.a > 0:
                moved, j = _jump_crossings(levels, pend, lanes,
                                           land.ravel()[flat])
                at = flat[moved]
                record(j, lanes[moved], ends.ravel()[at], land.ravel()[at])
            done = (pend[lanes] == n_levels) | (land.ravel()[flat] >= abandon)
            last[lanes[done]] = col[done]
            go = np.flatnonzero(~done & (col + 1 < w))
            if not go.size:
                break
            sub, first = lanes[go], col[go] + 1
        t, x = ends[:, -1], land[:, -1]
        live = (last == w) & (t < horizon) & (x < abandon)
        if lam > 0:
            pos = np.flatnonzero(event & is_mark
                                 & (np.arange(w) < last[:, None]))
            acc += np.bincount(pos // w, minlength=k, weights=np.exp(
                seg_end.ravel()[pos] - r_disc * ends.ravel()[pos])) / lam
            out.final_int[idx[~live]] = acc[~live]
        keep = np.flatnonzero(live)
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
# Events per pass of the event sampler, over all live lanes and per lane.
_BLOCK_EVENTS, _BLOCK_MAX = 8192, 512
# Paths per batch; batch i draws from the i-th spawn of the seed.
_BATCH_PATHS = 16384
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
    level and get that record unsampled.  The counter runs
    ``_unit_down_batch``, which integrates in closed form; the others run
    ``_event_batch``, with a mark clock of rate ``_MARK_RATE * r_disc``
    when ``want_integral`` asks for ``final_int``.  Only the event sampler
    reads ``abandon_level``.
    """
    levels_arr = np.asarray(levels, dtype=float)
    if levels_arr.ndim != 1 or levels_arr.size == 0:
        raise ValueError("levels must be a non-empty 1-d sequence")
    if np.isnan(levels_arr).any():
        raise ValueError("passage levels must not be NaN")

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
    starts = range(0, n, _BATCH_PATHS)
    children = np.random.SeedSequence(cfg.seed).spawn(len(starts))
    for start, child in zip(starts, children):
        rng = np.random.Generator(np.random.Philox(child))
        cols = slice(start, min(start + _BATCH_PATHS, n))
        if dyn.unit < 0:
            _unit_down_batch(dyn, r_disc, sampled, rows, horizon, rng,
                             record, cols)
        else:
            _event_batch(dyn, r_disc, sampled, rows, horizon, abandon_level,
                         rng, record, cols)
    return record


def hitting_estimates(model: LevyModel, r: float, levels: Sequence[float],
                      cfg: SimConfig) -> List[Tuple[McEstimate, McEstimate]]:
    """Estimates of (L, G) at each negative level, one path set for all.

    Levels come in any order and the estimates in the same order.  Paths
    that outlive the horizon contribute 0 to both functionals, which biases
    the estimates down by at most e^{-r T} per truncated path; the
    truncation fraction is reported so callers can budget for it.
    """
    if not 0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got r = {r}")
    if np.any(np.asarray(levels, dtype=float) >= 0):
        raise ValueError("passage levels must be negative")
    dyn = _Dynamics.from_model(model)
    horizon = _resolve_horizon(cfg, r, psi1(model))
    record = _simulate_levels(dyn, r, levels, horizon, cfg,
                              want_integral=False)
    hit, tau, x_hit = record.hit, record.tau, record.x_hit
    missed = record.missed()
    disc = _estimates(
        lambda rows: np.where(hit[rows], np.exp(-r * tau[rows]), 0.0),
        hit.shape, missed)
    joint = _estimates(
        lambda rows: np.where(hit[rows],
                              np.exp(-r * tau[rows] + x_hit[rows]), 0.0),
        hit.shape, missed)
    return list(zip(disc, joint))


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
    A v whose alpha v / (r - psi(1)) overflows raises ``ArithmeticError``
    before any path is drawn, and a value or SE that overflows after the
    draws raises ``FloatingPointError``, an ``ArithmeticError`` too.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    _checked_v(spec, spec.v)
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    # log(b) - log(v), not log(b / v), which underflows for a tiny b.
    record = _simulate_levels(dyn, spec.r, [math.log(b) - math.log(spec.v)],
                              horizon, cfg, want_integral=True)
    missed = record.missed()[0]
    with np.errstate(over="raise", invalid="raise"):
        stopped = _stopped_values(spec, record)[0]
        direct = (spec.alpha * spec.v * record.final_int
                  - spec.c * (1.0 - np.exp(-spec.r * record.tau[0])) / spec.r)
        values = np.stack([direct, stopped, direct - stopped])
        direct_est, stopped_est, diff = _estimates(
            values.__getitem__, values.shape, [missed, missed, 0.0])
    return PolicyValue(b=b, direct=direct_est, stopped=stopped_est,
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
    A v whose alpha v / (r - psi(1)) overflows raises ``ArithmeticError``
    before any path is drawn, and a value or SE that overflows after the
    draws raises ``FloatingPointError``, an ``ArithmeticError`` too.
    """
    grid = _ladder(b_grid, "b_grid", "b", "ascending")
    _checked_v(spec, spec.v)
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    with np.errstate(divide="ignore"):  # b / v may underflow to 0
        levels = np.log(grid / spec.v)
    record = _simulate_levels(dyn, spec.r, levels, horizon, cfg,
                              want_integral=False)
    with np.errstate(over="raise", invalid="raise"):
        values = _stopped_values(spec, record)
        estimates = _estimates(values.__getitem__, values.shape,
                               record.missed())
        means = np.array([e.mean for e in estimates])
        arg = int(np.argmax(means))
        paired = _estimates(lambda rows: values[arg] - values[rows],
                            values.shape, [0.0] * grid.size)
    flat = (means[arg] - means) <= np.array([e.std_error for e in paired])
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
    eps_arr = _ladder(eps_list, "eps_list", "eps", "descending")
    bounds = np.array([epsilon_region(spec, result, e) for e in eps_arr])
    dyn = _Dynamics.from_model(spec.model)
    horizon = _resolve_horizon(cfg, spec.r, spec.psi1)
    record = _simulate_levels(dyn, spec.r, np.log(bounds / spec.v), horizon,
                              cfg, want_integral=False)
    estimates = _estimates(record.tau.__getitem__, record.tau.shape,
                           record.missed())
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
        if self.n_values.size < 2:
            raise ArithmeticError("a log-log slope needs at least 2 rungs, "
                                  f"got {self.n_values.size}")
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
    positive, paths that a jump leaves ``_ABANDON_DEPTH`` = D = 10 or more
    above the start are abandoned as misses.  By Lundberg's inequality for
    Y, their chance of falling back by D is at most e^{-R D}, where R > 0
    solves psi(R) = r R (below X's up rate, if any).  For a diffusion R is
    2 m / sigma^2, with m the mirrored drift; up jumps in X lower it, and
    the bound is 5.4e-13 on the AC-4 kou spec and 1.7e-9 on the expjd one.
    n = 1 needs no branch: level 0 is passed at time 0, so its payoff is
    e^0 = 1 on every path.
    """
    growth = check_discounting(model, r)
    ns = np.asarray(n_levels, dtype=float)
    if not np.all((1 <= ns) & (ns < math.inf) & (np.floor(ns) == ns)):
        raise ValueError("ladder values must be integers >= 1")
    _ladder(ns, "ladder", "ladder", "increasing")
    dyn = _Dynamics.from_model(model).mirrored(r)
    horizon = _resolve_horizon(cfg, r, growth)
    abandon = _ABANDON_DEPTH if (dyn.m > 0 and dyn.sigma > 0) else None
    record = _simulate_levels(dyn, 0.0, -np.log(ns), horizon, cfg,
                              want_integral=False, abandon_level=abandon)
    hit, x_hit = record.hit, record.x_hit
    estimates = _estimates(
        lambda rows: np.where(hit[rows], np.exp(-x_hit[rows]), 0.0),
        hit.shape, record.missed())
    return ClassDResult(n_values=ns.astype(np.int64), estimates=estimates)

