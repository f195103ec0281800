"""SIR parameters, trajectories, and the two integrators.

The exact system

    ds/dt = -beta * i * s
    di/dt = beta * i * s - gamma * i

is integrated with classical fixed-step RK4 (default 50 substeps per day),
which is plenty for these smooth, non-stiff dynamics and keeps day grids
deterministic. The removed compartment is never stored: r = 1 - s - i by
construction, so the conservation identity cannot drift.

The companion closed form freezes s at 1 in the transmission term, giving
exponential growth of infections; it is evaluated directly, with no stepping:

    s(t) = s0 - (beta/delta) * (exp(delta*t) - 1) * i0
    i(t) = exp(delta*t) * i0
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import cycle, islice

import numpy as np

from ._csv import fmt, write_csv
from .errors import (
    DegenerateParameterError,
    HorizonTooShortError,
    InsufficientDataError,
    IntegrationError,
)

DEFAULT_STEPS_PER_DAY = 50

# Beyond this magnitude a trajectory is considered blown up. Proportions in a
# healthy integration never leave [0, 1], and their parameter sensitivities
# stay within a few tens over a 120-day horizon; the slack tolerates RK4
# transients probed by optimizers before the failure is reported.
_STATE_GUARD = 1e6

_MAX_PEAK_HORIZON = 16384  # days; the doubling peak search gives up beyond it


@dataclass(frozen=True)
class SirParams:
    """Transmission rate beta and recovery rate gamma, both per day.

    Only growing epidemics are representable: delta = beta - gamma must be
    strictly positive (equivalently r0 = beta/gamma > 1). Parameters with
    delta <= 0 are rejected outright rather than handled as limits.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise DegenerateParameterError(f"beta must be positive, got {self.beta}")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise DegenerateParameterError(f"gamma must be positive, got {self.gamma}")
        if not self.beta - self.gamma > 0.0:
            raise DegenerateParameterError(
                f"delta = beta - gamma must be > 0, got {self.beta - self.gamma}"
            )

    def delta(self) -> float:
        return self.beta - self.gamma

    def r0(self) -> float:
        return self.beta / self.gamma


@dataclass(frozen=True)
class InitialCondition:
    """Starting proportions and the population size they refer to."""

    s0: float
    i0: float
    population: int

    def __post_init__(self):
        if self.population <= 0 or int(self.population) != self.population:
            raise ValueError(f"population must be a positive integer, got {self.population}")
        if not (0.0 <= self.s0 <= 1.0 and 0.0 <= self.i0 <= 1.0):
            raise ValueError(f"proportions must lie in [0, 1], got s0={self.s0}, i0={self.i0}")
        if self.s0 + self.i0 > 1.0 + 1e-12:
            raise ValueError(f"s0 + i0 must not exceed 1, got {self.s0 + self.i0}")

    @classmethod
    def from_population(cls, population: int) -> "InitialCondition":
        """One initial infection: s0 = 1 - 1/N, i0 = 1/N."""
        n = int(population)
        return cls(s0=1.0 - 1.0 / n, i0=1.0 / n, population=n)


@dataclass(frozen=True)
class Trajectory:
    """A discretized (s, i) path sampled at whole days.

    ``kind`` is "exact" for RK4 solutions and "linearized" for the closed
    form. Exact trajectories also carry the substep grid (``fine_times`` etc.)
    so peak location can be resolved below day granularity.
    """

    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    params: SirParams
    init: InitialCondition
    kind: str
    steps_per_day: int = 1
    fine_times: np.ndarray | None = field(default=None, repr=False)
    fine_s: np.ndarray | None = field(default=None, repr=False)
    fine_i: np.ndarray | None = field(default=None, repr=False)

    @property
    def r(self) -> np.ndarray:
        return 1.0 - self.s - self.i

    @property
    def horizon(self) -> int:
        return int(self.times[-1])


def _rk4(beta, gamma, y0, n_steps, h, stride):
    """Classical RK4 of the SIR system, with forward sensitivities on request.

    ``beta`` and ``gamma`` are floats, or equal-length 1-d arrays with one
    lane per parameter set. ``y0`` holds (s, i), or (s, i, ds/dbeta,
    di/dbeta, ds/dgamma, di/dgamma) to integrate the sensitivities too. The
    state is recorded at t = 0 and after every ``stride`` substeps of size
    ``h`` (callers pass n_steps = horizon * steps_per_day, with ``stride`` 1
    or steps_per_day). A tuple of one array per state comes back, each of
    shape (n_steps // stride + 1,) plus the lane axis for arrays. No state
    may leave |x| < _STATE_GUARD (NaN fails too); the first recorded row that
    does raises IntegrationError.

    With sensitivities, a seventh array follows: c, the outflow from s
    accumulated from 0 with the same RK4 increments that s loses. s0 - s and
    c agree in exact arithmetic, but c keeps its own precision while s sits
    near 1, so N * (c_k - c_{k-1}) carries no rounding floor of N * eps.

    ds/dt = -x with x = beta*i*s, so s and its sensitivities subtract h*x
    where the textbook scheme adds h*(-x); negation is exact, so the values
    are those of the textbook scheme bit for bit.
    """
    sens = len(y0) == 6
    s, i, sb, ib, sg, ig = y0 if sens else (*y0, None, None, None, None)
    h2 = 0.5 * h
    h6 = h / 6.0
    c = 0.0 * s  # the lanes' shape, and a float for scalar callers
    rows = [[v] for v in y0] + ([[c]] if sens else [])
    # True after the last substep of each recorded row: cheaper than testing
    # k % stride, and than a loop per row, which costs most at stride 1.
    row_ends = islice(cycle((False,) * (stride - 1) + (True,)), n_steps)
    record = [row.append for row in rows]
    # A lane that blows up runs on as inf/NaN; the guard below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for row_end in row_ends:
            if sens:
                x1 = beta * i * s
                xb1 = i * s + beta * (ib * s + i * sb)
                xg1 = beta * (ig * s + i * sg)
                k1i, k1ib, k1ig = x1 - gamma * i, xb1 - gamma * ib, xg1 - i - gamma * ig
                s2, i2 = s - h2 * x1, i + h2 * k1i
                sb2, ib2 = sb - h2 * xb1, ib + h2 * k1ib
                sg2, ig2 = sg - h2 * xg1, ig + h2 * k1ig
                x2 = beta * i2 * s2
                xb2 = i2 * s2 + beta * (ib2 * s2 + i2 * sb2)
                xg2 = beta * (ig2 * s2 + i2 * sg2)
                k2i, k2ib, k2ig = x2 - gamma * i2, xb2 - gamma * ib2, xg2 - i2 - gamma * ig2
                s3, i3 = s - h2 * x2, i + h2 * k2i
                sb3, ib3 = sb - h2 * xb2, ib + h2 * k2ib
                sg3, ig3 = sg - h2 * xg2, ig + h2 * k2ig
                x3 = beta * i3 * s3
                xb3 = i3 * s3 + beta * (ib3 * s3 + i3 * sb3)
                xg3 = beta * (ig3 * s3 + i3 * sg3)
                k3i, k3ib, k3ig = x3 - gamma * i3, xb3 - gamma * ib3, xg3 - i3 - gamma * ig3
                s4, i4 = s - h * x3, i + h * k3i
                sb4, ib4 = sb - h * xb3, ib + h * k3ib
                sg4, ig4 = sg - h * xg3, ig + h * k3ig
                x4 = beta * i4 * s4
                xb4 = i4 * s4 + beta * (ib4 * s4 + i4 * sb4)
                xg4 = beta * (ig4 * s4 + i4 * sg4)
                k4i, k4ib, k4ig = x4 - gamma * i4, xb4 - gamma * ib4, xg4 - i4 - gamma * ig4
                sb = sb - h6 * (xb1 + 2.0 * (xb2 + xb3) + xb4)
                ib = ib + h6 * (k1ib + 2.0 * (k2ib + k3ib) + k4ib)
                sg = sg - h6 * (xg1 + 2.0 * (xg2 + xg3) + xg4)
                ig = ig + h6 * (k1ig + 2.0 * (k2ig + k3ig) + k4ig)
                outflow = h6 * (x1 + 2.0 * (x2 + x3) + x4)
                c = c + outflow
            else:
                x1 = beta * i * s
                k1i = x1 - gamma * i
                s2, i2 = s - h2 * x1, i + h2 * k1i
                x2 = beta * i2 * s2
                k2i = x2 - gamma * i2
                s3, i3 = s - h2 * x2, i + h2 * k2i
                x3 = beta * i3 * s3
                k3i = x3 - gamma * i3
                s4, i4 = s - h * x3, i + h * k3i
                x4 = beta * i4 * s4
                k4i = x4 - gamma * i4
                outflow = h6 * (x1 + 2.0 * (x2 + x3) + x4)
            s = s - outflow
            i = i + h6 * (k1i + 2.0 * (k2i + k3i) + k4i)
            if row_end:
                record[0](s)
                record[1](i)
                if sens:
                    for rec, v in zip(record[2:], (sb, ib, sg, ig, c)):
                        rec(v)
    out = tuple(np.array(row) for row in rows)
    ok = np.abs(np.stack(out)) < _STATE_GUARD
    if not ok.all():
        bad = int(np.flatnonzero(~ok.reshape(len(out), len(out[0]), -1).all(axis=(0, 2)))[0])
        step = bad * stride
        raise IntegrationError(
            f"state beyond {_STATE_GUARD:g} at substep {step} (t = {step * h:.6g} days)",
            step=step,
            time=step * h,
        )
    return out


def integrate_exact(
    params: SirParams,
    init: InitialCondition,
    horizon: int,
    steps_per_day: int = DEFAULT_STEPS_PER_DAY,
) -> Trajectory:
    """Integrate the full nonlinear system and sample it at whole days."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 day, got {horizon}")
    if steps_per_day < 1:
        raise ValueError(f"steps_per_day must be >= 1, got {steps_per_day}")
    horizon = int(horizon)
    spd = int(steps_per_day)
    n = horizon * spd
    h = 1.0 / spd
    fine_s, fine_i = _rk4(float(params.beta), float(params.gamma),
                          (float(init.s0), float(init.i0)), n, h, 1)
    fine_t = np.arange(n + 1) * h
    return Trajectory(
        times=np.arange(horizon + 1, dtype=float),
        s=fine_s[::spd].copy(),
        i=fine_i[::spd].copy(),
        params=params,
        init=init,
        kind="exact",
        steps_per_day=spd,
        fine_times=fine_t,
        fine_s=fine_s,
        fine_i=fine_i,
    )


def integrate_day_grid_batch(betas, gammas, init: InitialCondition, horizon: int,
                             steps_per_day: int = DEFAULT_STEPS_PER_DAY):
    """Vectorized RK4 for many parameter pairs on a shared day grid.

    Returns (s, i) arrays of shape (horizon + 1, len(betas)). Used by the
    direction sweeps, where integrating ~90 perturbed parameter sets one by
    one would dominate the runtime.
    """
    betas = np.asarray(betas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if betas.shape != gammas.shape or betas.ndim != 1:
        raise ValueError("betas and gammas must be 1-d arrays of equal length")
    spd = int(steps_per_day)
    y0 = (np.full(betas.shape, init.s0), np.full(betas.shape, init.i0))
    return _rk4(betas, gammas, y0, int(horizon) * spd, 1.0 / spd, spd)


def linearized_state(params: SirParams, init: InitialCondition, t):
    """Closed-form (s, i) of the frozen-s system at time(s) t."""
    delta = params.delta()
    growth = np.exp(delta * np.asarray(t, dtype=float))
    s = init.s0 - (params.beta / delta) * (growth - 1.0) * init.i0
    i = growth * init.i0
    return s, i


def integrate_linearized(params: SirParams, init: InitialCondition, horizon: int) -> Trajectory:
    """Evaluate the frozen-s closed form at each whole day (no stepping).

    delta = 0 would be a removable singularity of the formula; such parameters
    are already rejected by SirParams, so no special-casing is needed here.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 day, got {horizon}")
    times = np.arange(int(horizon) + 1, dtype=float)
    s, i = linearized_state(params, init, times)
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(i))):
        bad = int(np.flatnonzero(~(np.isfinite(s) & np.isfinite(i)))[0])
        raise IntegrationError(f"linearized state overflowed at day {bad}", time=float(bad))
    return Trajectory(
        times=times,
        s=np.asarray(s),
        i=np.asarray(i),
        params=params,
        init=init,
        kind="linearized",
    )


def incidence(traj: Trajectory) -> np.ndarray:
    """Expected new-infection counts per day: delta_t = N * (s_{t-1} - s_t)."""
    if len(traj.times) < 2:
        raise InsufficientDataError("incidence needs at least two day samples")
    n = traj.init.population
    return n * (traj.s[:-1] - traj.s[1:])


def peak_time(traj: Trajectory) -> float:
    """Time of maximal infected proportion, at substep resolution.

    The discrete maximizer is refined by a quadratic through the three
    bracketing substep samples, so downstream cutoffs like 0.8 * peak are not
    quantized to whole substeps.
    """
    if traj.kind != "exact":
        raise ValueError("peak_time requires an exact trajectory")
    t = traj.fine_times
    i = traj.fine_i
    m = int(np.argmax(i))
    if m == len(i) - 1 or i[m] <= i[-1]:
        raise HorizonTooShortError(
            "infections still rising at the end of the horizon; integrate further",
            required=2 * traj.horizon,
        )
    if m == 0:
        return 0.0
    y0, y1, y2 = i[m - 1], i[m], i[m + 1]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    return float(t[m] + offset * (t[1] - t[0]))


@functools.lru_cache(maxsize=64)
def peak_time_for(params: SirParams, init: InitialCondition,
                  steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> float:
    """Peak time located by integrating with a doubling horizon.

    Memoized: the arguments are frozen and hashable and the result depends
    on nothing else, so repeated validation against one null (every
    ``lrt.TestSpec`` does it) integrates the epidemic once.
    """
    horizon = 64
    while True:
        traj = integrate_exact(params, init, horizon, steps_per_day)
        try:
            return peak_time(traj)
        except HorizonTooShortError:
            horizon *= 2
            if horizon > _MAX_PEAK_HORIZON:
                raise


@dataclass(frozen=True)
class EpidemicSummary:
    """Headline outbreak metrics used when comparing parameter choices."""

    peak_time: float
    attack_fraction_at_peak_plus_10: float
    duration: int


def epidemic_summary(traj: Trajectory) -> EpidemicSummary:
    """Peak time, attack fraction 10 days past the peak, and duration.

    Duration is the first whole day after the peak on which strictly fewer
    than 10 individuals are infectious.
    """
    t_star = peak_time(traj)
    if t_star + 10.0 > traj.horizon:
        raise HorizonTooShortError(
            f"need {t_star + 10.0:.1f} days to evaluate the post-peak attack fraction",
            required=int(math.ceil(t_star + 10.0)),
        )
    s_at = float(np.interp(t_star + 10.0, traj.fine_times, traj.fine_s))
    n = traj.init.population
    days = traj.times
    after = days > t_star
    below = n * traj.i < 10.0
    hits = np.flatnonzero(after & below)
    if hits.size == 0:
        raise HorizonTooShortError(
            "fewer than 10 infectious individuals never reached; integrate further",
            required=2 * traj.horizon,
        )
    return EpidemicSummary(
        peak_time=t_star,
        attack_fraction_at_peak_plus_10=1.0 - s_at,
        duration=int(days[hits[0]]),
    )


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, "t,s,i,r", (f"{fmt(t)},{fmt(s)},{fmt(i)},{fmt(r)}"
                                for t, s, i, r in zip(traj.times, traj.s, traj.i, traj.r)))
