"""SIR parameters, trajectories, and the two integrators.

The exact system

    ds/dt = -beta * i * s
    di/dt = beta * i * s - gamma * i

is integrated with classical fixed-step RK4 (default 50 substeps per day),
which is plenty for these smooth, non-stiff dynamics and keeps day grids
deterministic. The removed compartment is never stored: r = 1 - s - i by
construction, so the conservation identity cannot drift. The RK4 kernel has
two bodies: ``_rk4``, a scalar loop for one parameter pair, and
``_rk4_lanes``, an in-place array loop whose lanes are many parameter pairs
on one grid. Both return (s, i, c), c being the outflow from s: the running
sum of every substep's decrement of s, which equals s0 - s in exact
arithmetic without the rounding of s near 1. Daily incidence is read from c
(``incidence``) by every caller. One entry, ``_state_paths``, picks the body
by lane count: a scalar loop per lane for a narrow batch, one lane-body call
for a wide one. Every batch goes through it (``integrate_day_grid_batch``
and the sensitivity passes), and each lane has the bits of its scalar loop
either way.

The companion closed form freezes s at 1 in the transmission term, giving
exponential growth of infections; it is evaluated directly, with no stepping:

    s(t) = s0 - c(t),  c(t) = (beta/delta) * (exp(delta*t) - 1) * i0
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

# Lanes from which one _rk4_lanes call beats a _rk4 loop per lane. Measured
# crossover (best of 7, 2-vCPU x86_64 virtual machine): 16 lanes at 600
# substeps and stride 1, 18 to 20 at 3000 substeps and day stride.
_LANE_BODY_LANES = 18


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
    """A discretized (s, i) path sampled at whole days, with its outflow c.

    c is the outflow from s since t = 0: s0 - s in exact arithmetic, without
    the rounding of s near 1 (``incidence`` reads it). ``kind`` is "exact"
    for RK4 solutions and "linearized" for the closed form. Those of
    ``integrate_exact`` also carry the substep grid (``fine_times`` etc.) so
    peak location can be resolved below day granularity; one read off a
    day-grid batch has the day samples alone.
    """

    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    c: np.ndarray
    params: SirParams
    init: InitialCondition
    kind: str
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
    """Classical RK4 of the SIR state (s, i) for one parameter pair: the scalar body.

    ``beta`` and ``gamma`` are floats and ``y0`` holds (s, i). The state is
    recorded at t = 0 and after every ``stride`` substeps of size ``h``
    (callers pass n_steps = horizon * steps_per_day and stride 1; stride
    steps_per_day records the day samples alone). The arrays (s, i, c) come
    back, each of shape (n_steps // stride + 1,); the first recorded row with
    a value at or beyond _STATE_GUARD raises (``_check_guard``). c is the
    outflow from s since t = 0, the running sum of every substep's decrement
    of s: it equals s0 - s in exact arithmetic but carries no rounding of s
    near 1, so daily incidence is read from it. Parameter sensitivities are
    the tangent of this path (``inference.integrate_with_sensitivities``).

    ds/dt = -x with x = beta*i*s, so s subtracts h*x where the textbook
    scheme adds h*(-x); negation is exact, so the values are those of the
    textbook scheme bit for bit. ``_rk4_lanes`` is the lane body, and every
    lane has the bits of this loop; ``_state_paths`` picks between them.
    """
    s, i = y0
    c = 0.0
    h2 = 0.5 * h
    h6 = h / 6.0
    rows = ([s], [i], [c])
    # True after the last substep of each recorded row: cheaper than testing
    # k % stride, and than a loop per row, which costs most at stride 1.
    row_ends = islice(cycle((False,) * (stride - 1) + (True,)), n_steps)
    record_s, record_i, record_c = (row.append for row in rows)
    # A lane that blows up runs on as inf/NaN; the guard below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for row_end in row_ends:
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
            out = h6 * (x1 + 2.0 * (x2 + x3) + x4)
            s = s - out
            c = c + out
            i = i + h6 * (k1i + 2.0 * (k2i + k3i) + k4i)
            if row_end:
                record_s(s)
                record_i(i)
                record_c(c)
    return _check_guard(tuple(np.array(row) for row in rows), stride, h)


def _rk4_lanes(beta, gamma, y0, n_steps, h, stride):
    """The lane body of the RK4 kernel: ``_rk4`` for equal-length 1-d arrays
    ``beta`` and ``gamma``, one lane per parameter pair, returning (s, i, c)
    of shape (n_steps // stride + 1, lanes) unguarded. ``_state_paths`` calls
    it for a batch of at least _LANE_BODY_LANES lanes, where it is the faster body.

    Steps z = (u, i) with u = -s, so that both derivatives come from one
    product: with bi = beta*i, K = (bi*u, bi*u + gamma*i) = -(ds/dt, di/dt),
    each stage state is z - a*K and the step is z - h/6*(K1 + 2(K2 + K3) + K4).
    The u row of that increment is minus the substep's outflow, so c
    subtracts it. Negation commutes with rounding, so every lane keeps the
    bits of the scalar loop. At ~100 lanes numpy's cost per call outweighs
    the arithmetic, so a substep is 25 ufunc calls writing into buffers made
    before the loop, with operands of one shape: a scalar operand or a
    broadcast costs more per call.
    """
    lanes = len(beta)
    rec = np.empty((n_steps // stride + 1, 3, lanes))  # recorded (u, i, c) rows
    rec[0] = zc = np.stack((np.negative(y0[0]), y0[1], np.zeros(lanes)))
    z, c = zc[:2], zc[2]
    bg = np.empty((2, lanes))  # (beta*i, gamma): one product gives (bi*u, gamma*i)
    bg[1] = gamma
    w = np.empty((2, lanes))  # stage state
    acc = np.empty((2, lanes))
    k = np.empty((4, 2, lanes))
    k1, k2, k3, k4 = k
    (k1u, k1i), (k2u, k2i), (k3u, k3i), (k4u, k4i) = k
    bi, zi, wi, acc_u = bg[0], z[1], w[1], acc[0]
    h2, h1, h6 = (np.full((2, lanes), c) for c in (0.5 * h, h, h / 6.0))
    mul, add, sub = np.multiply, np.add, np.subtract
    # A lane that blows up runs on as inf/NaN; the guard reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rec[1:]:
            for _ in range(stride):
                mul(beta, zi, bi)
                mul(bg, z, k1)
                add(k1u, k1i, k1i)
                mul(h2, k1, acc)
                sub(z, acc, w)
                mul(beta, wi, bi)
                mul(bg, w, k2)
                add(k2u, k2i, k2i)
                mul(h2, k2, acc)
                sub(z, acc, w)
                mul(beta, wi, bi)
                mul(bg, w, k3)
                add(k3u, k3i, k3i)
                mul(h1, k3, acc)
                sub(z, acc, w)
                mul(beta, wi, bi)
                mul(bg, w, k4)
                add(k4u, k4i, k4i)
                add(k2, k3, acc)
                add(acc, acc, acc)  # 2*(K2 + K3), exactly
                add(k1, acc, acc)
                add(acc, k4, acc)
                mul(h6, acc, acc)
                sub(z, acc, z)
                sub(c, acc_u, c)
            row[...] = zc
    return np.negative(rec[:, 0], out=rec[:, 0]), rec[:, 1], rec[:, 2]


def _state_paths(betas, gammas, y0, n_steps, h, stride) -> list:
    """The RK4 state paths of many rate pairs on one grid: the kernel's one batched entry.

    Lane k steps (``betas[k]``, ``gammas[k]``) from ``y0`` = (s0, i0) on
    ``_rk4``'s grid (``n_steps`` substeps of size ``h``, recorded every
    ``stride``). Its entry is the (s, i, c) arrays of its scalar loop, or the
    IntegrationError that loop raises, so a lane that blows up fails alone.
    Below _LANE_BODY_LANES lanes each lane runs ``_rk4``; from there one
    ``_rk4_lanes`` call steps them all and each lane's columns pass the
    guard alone. Either way a lane has the bits of its scalar loop.
    """
    outcomes = []
    if len(betas) < _LANE_BODY_LANES:
        for beta, gamma in zip(betas, gammas):
            try:
                outcomes.append(_rk4(float(beta), float(gamma), y0, n_steps, h, stride))
            except IntegrationError as exc:
                outcomes.append(exc)
        return outcomes
    starts = tuple(np.full(len(betas), float(v)) for v in y0)
    s, i, c = _rk4_lanes(np.asarray(betas, dtype=float), np.asarray(gammas, dtype=float), starts,
                         n_steps, h, stride)
    ok = (np.abs(np.stack((s, i, c))) < _STATE_GUARD).all(axis=(0, 1))
    for k, lane_ok in enumerate(ok):
        path = (s[:, k], i[:, k], c[:, k])
        try:
            outcomes.append(path if lane_ok else _check_guard(path, stride, h))
        except IntegrationError as exc:
            outcomes.append(exc)
    return outcomes


def _check_guard(out, stride, h):
    """Return the recorded arrays ``out`` if every value keeps |x| < _STATE_GUARD.

    Otherwise (NaN fails too) raise IntegrationError at the first recorded
    row, ``stride`` substeps of size ``h`` apart, where one does not.
    """
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


def _day_grid(horizon, steps_per_day):
    """The checked (horizon, steps_per_day) of an integration, as ints."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 day, got {horizon}")
    if steps_per_day < 1:
        raise ValueError(f"steps_per_day must be >= 1, got {steps_per_day}")
    return int(horizon), int(steps_per_day)


def integrate_exact(
    params: SirParams,
    init: InitialCondition,
    horizon: int,
    steps_per_day: int = DEFAULT_STEPS_PER_DAY,
) -> Trajectory:
    """Integrate the full nonlinear system and sample it at whole days."""
    horizon, spd = _day_grid(horizon, steps_per_day)
    n = horizon * spd
    h = 1.0 / spd
    fine_s, fine_i, fine_c = _rk4(float(params.beta), float(params.gamma),
                                  (float(init.s0), float(init.i0)), n, h, 1)
    fine_t = np.arange(n + 1) * h
    return Trajectory(
        times=np.arange(horizon + 1, dtype=float),
        s=fine_s[::spd].copy(),
        i=fine_i[::spd].copy(),
        c=fine_c[::spd].copy(),
        params=params,
        init=init,
        kind="exact",
        fine_times=fine_t,
        fine_s=fine_s,
        fine_i=fine_i,
    )


def integrate_day_grid_batch(betas, gammas, init: InitialCondition, horizon: int,
                             steps_per_day: int = DEFAULT_STEPS_PER_DAY):
    """RK4 for many parameter pairs on a shared day grid, sampled at whole days.

    Returns (s, i, c) arrays of shape (horizon + 1, len(betas)), c the
    outflow from s (see ``Trajectory``). The direction sweeps and the LRT
    hypotheses integrate through it. ``_state_paths``
    steps the lanes at day stride, and the guard checks every lane's day
    samples; each lane has the bits of ``integrate_exact``'s day samples.
    When lanes fail, the IntegrationError of the earliest failing substep
    is raised.
    """
    horizon, spd = _day_grid(horizon, steps_per_day)
    betas = np.asarray(betas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    if betas.shape != gammas.shape or betas.ndim != 1 or betas.size == 0:
        raise ValueError("betas and gammas must be nonempty 1-d arrays of equal length")
    paths = _state_paths(betas, gammas, (float(init.s0), float(init.i0)), horizon * spd,
                         1.0 / spd, spd)
    errors = [path for path in paths if isinstance(path, IntegrationError)]
    if errors:
        raise min(errors, key=lambda exc: exc.step)
    return tuple(np.column_stack(rows) for rows in zip(*paths))


def linearized_state(params: SirParams, init: InitialCondition, t):
    """Closed-form (s, i) of the frozen-s system at time(s) t."""
    delta = params.delta()
    growth = np.exp(delta * np.asarray(t, dtype=float))
    s = init.s0 - (params.beta / delta) * (growth - 1.0) * init.i0
    i = growth * init.i0
    return s, i


def integrate_linearized(params: SirParams, init: InitialCondition, horizon: int) -> Trajectory:
    """Evaluate the frozen-s closed form at each whole day (no stepping).

    Its outflow is c(t) = (beta/delta) * expm1(delta*t) * i0, so s = s0 - c.
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
        c=(params.beta / params.delta()) * np.expm1(params.delta() * times) * init.i0,
        params=params,
        init=init,
        kind="linearized",
    )


def incidence(traj: Trajectory) -> np.ndarray:
    """Expected new-infection counts per day: delta_t = N * (c_t - c_{t-1}).

    c is the trajectory's outflow from s, so this is N * (s_{t-1} - s_t) in
    exact arithmetic without that difference's rounding floor of N*eps per
    count (s is near 1 before the peak). Exact and linearized trajectories
    both take this one path.
    """
    if len(traj.times) < 2:
        raise InsufficientDataError("incidence needs at least two day samples")
    return traj.init.population * np.diff(traj.c)


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
