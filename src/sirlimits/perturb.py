"""Parameter perturbations on a circle and trajectory separation analysis.

For a direction omega, the perturbed parameters are

    beta_eps = beta + eps * cos(omega)
    gamma_eps = gamma + eps * sin(omega)

so the Euclidean distance between parameter pairs is exactly eps. The key
quantity is how far the perturbed trajectory drifts from the base one. Early
in the epidemic, while s stays close to 1, the frozen-s (frozen-susceptible)
closed form describes that separation. Along the slope-one line in
(beta, gamma) space, omega = pi/4 or 5*pi/4, the frozen-s separation is

    (eps / (delta * sqrt(2))) * (exp(delta * t) - 1) * i0,

and it bounds the exact slope-one separation from above before the peak. It
is not a floor over all directions. To first order in eps the frozen-s
difference is (ds, di) = eps * i0 * M(t) @ (cos(omega), sin(omega)) with
E = exp(delta * t) and

    M(t) = [[gamma (E - 1) / delta^2 - beta t E / delta,
             -beta (E - 1) / delta^2 + beta t E / delta],
            [t E, -t E]],

so the least separation over all directions is eps * i0 * sigma_min(M(t)),
the smallest singular value. It tends to delta / sqrt(beta^2 + delta^2)
times the slope-one value, and the least-separated directions approach
slope-one as t grows. The numeric machinery here sweeps directions, measures
separations, and quantifies how accurate the frozen-s closed form is, both
empirically via log relative error fits and through an a-priori exponential
bound.

A sweep is one ``Separations`` result of (direction, day) arrays. A
``Perturbation`` carries its base rates, so the error measures take the
perturbation alone. Sweeps and bounds allow 0 <= eps < delta; a
``Perturbation`` itself needs 0 < eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import CELL, fmt, write_csv
from .errors import FitDegenerateError, PerturbationTooLargeError
from .sir import (
    DEFAULT_STEPS_PER_DAY,
    InitialCondition,
    SirParams,
    integrate_day_grid_batch,
    integrate_exact,
    peak_time,
)

_FIT_PER_ARC = 25  # error_fit's directions on each arc around a slope-one direction
_FIT_HALF_WIDTH = math.pi / 12.0  # half-width of each arc
_MIN_FIT_POINTS = 5  # fewest usable days for one direction's line

#: Benchmark configurations: every (beta, gamma, eps) row crossed with the
#: four population sizes. R0 spans 1.5 to 12.
REFERENCE_POPULATIONS = (10_000, 100_000, 1_000_000, 10_000_000)
REFERENCE_RATES = (
    (0.21, 0.14, 0.03),
    (0.21, 0.07, 0.03),
    (0.42, 0.07, 0.06),
    (1.68, 0.14, 0.10),
)


def reference_grid():
    """All 16 (params, init, eps) benchmark combinations."""
    out = []
    for beta, gamma, eps in REFERENCE_RATES:
        for n in REFERENCE_POPULATIONS:
            out.append((SirParams(beta, gamma), InitialCondition.from_population(n), eps))
    return out


@dataclass(frozen=True)
class Perturbation:
    """A point on the radius-eps circle around ``base`` in rate space."""

    base: SirParams
    epsilon: float
    omega: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.base.delta():
            raise PerturbationTooLargeError(
                f"need 0 < epsilon < delta = {self.base.delta():.6g}, got {self.epsilon}"
            )
        if not 0.0 <= self.omega < 2.0 * math.pi:
            raise ValueError(f"omega must lie in [0, 2*pi), got {self.omega}")

    def direction_factor(self) -> float:
        """cos(omega) - sin(omega); the growth-rate shift is eps times this."""
        return math.cos(self.omega) - math.sin(self.omega)

    def beta_eps(self) -> float:
        return self.base.beta + self.epsilon * math.cos(self.omega)

    def gamma_eps(self) -> float:
        return self.base.gamma + self.epsilon * math.sin(self.omega)

    def delta_eps(self) -> float:
        """Perturbed growth rate; PerturbationTooLargeError unless it is positive."""
        delta_e = self.base.delta() + self.epsilon * self.direction_factor()
        if delta_e <= 0.0:
            raise PerturbationTooLargeError(
                f"perturbed delta is {delta_e:.6g} <= 0 at omega = {self.omega:.6g}"
            )
        return delta_e

    def perturbed(self) -> SirParams:
        return SirParams(self.beta_eps(), self.gamma_eps())


def _check_epsilon(base: SirParams, epsilon: float) -> None:
    """The sweeps' and bounds' rule: 0 <= epsilon < delta, zero allowed."""
    if not 0.0 <= epsilon < base.delta():
        raise PerturbationTooLargeError(
            f"need 0 <= epsilon < delta = {base.delta():.6g}, got {epsilon}"
        )


def lower_bound(base: SirParams, init: InitialCondition, epsilon: float, t) -> float:
    """Frozen-s separation along slope-one at time t.

    Evaluates eps * i0 * (exp(delta * t) - 1) / (delta * sqrt(2)), the
    separation of the frozen-s flow at omega = pi/4 or 5*pi/4. Before the
    peak it bounds the exact slope-one separation from above. It is not a
    floor over all directions: that minimum is eps * i0 * sigma_min(M(t)),
    see the module docstring.
    """
    _check_epsilon(base, epsilon)
    delta = base.delta()
    return (epsilon / (delta * math.sqrt(2.0))) * (np.exp(delta * np.asarray(t, dtype=float)) - 1.0) * init.i0


def linearized_difference(base: SirParams, init: InitialCondition,
                          epsilon: float, omega: float, t):
    """Closed-form (s, i) difference between perturbed and base frozen-s flows.

    At omega = pi/4 this reduces to ((1 - e^{delta t}), 0) * eps*i0/(delta*sqrt(2)).
    """
    t = np.asarray(t, dtype=float)
    pert = Perturbation(base, epsilon, omega)
    beta, delta = base.beta, base.delta()
    beta_e = pert.beta_eps()
    delta_e = pert.delta_eps()
    growth = np.exp(delta * t)
    shift = np.exp(epsilon * pert.direction_factor() * t)
    ds = (beta_e / delta_e - beta / delta + (beta / delta - (beta_e / delta_e) * shift) * growth) * init.i0
    di = (shift - 1.0) * growth * init.i0
    return ds, di


@dataclass(frozen=True)
class Separations:
    """Per-day distances between each perturbed and the base exact trajectory.

    ``distance`` and ``s_distance`` are (direction, day) arrays: row k holds
    direction ``omegas[k]`` on the day grid ``times``, and each row is
    contiguous. ``distance[:, day]`` is every direction's separation on one day.
    """

    times: np.ndarray
    omegas: np.ndarray
    distance: np.ndarray
    s_distance: np.ndarray


def separation_sweep(base: SirParams, init: InitialCondition, epsilon: float,
                     omegas, horizon: int,
                     steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> Separations:
    """Exact-trajectory separations for each direction, on one day grid.

    All perturbed systems are integrated in one vectorized batch together
    with the base system; each row of the result has the bits of the
    one-direction sweep. epsilon = 0 is allowed and yields zero rows.
    """
    omegas = np.asarray(list(omegas), dtype=float)
    if np.any((omegas < 0.0) | (omegas >= 2.0 * math.pi)):
        raise ValueError("all omegas must lie in [0, 2*pi)")
    _check_epsilon(base, epsilon)
    betas = np.concatenate([[base.beta], base.beta + epsilon * np.cos(omegas)])
    gammas = np.concatenate([[base.gamma], base.gamma + epsilon * np.sin(omegas)])
    s, i, _ = integrate_day_grid_batch(betas, gammas, init, horizon, steps_per_day)
    ds = np.ascontiguousarray((s[:, 1:] - s[:, :1]).T)
    di = np.ascontiguousarray((i[:, 1:] - i[:, :1]).T)
    return Separations(
        times=np.arange(int(horizon) + 1, dtype=float),
        omegas=omegas,
        distance=np.hypot(ds, di),
        s_distance=np.abs(ds),
    )


@dataclass(frozen=True)
class ApproximationErrorSeries:
    """Per-day gap between exact and closed-form separations.

    error[t] = ||exact separation|| - ||closed-form separation||, and
    rel_log_error[t] = log|error| - log||exact separation||. Days where either
    norm vanishes (day 0 structurally) carry NaN in rel_log_error.
    """

    times: np.ndarray
    exact_distance: np.ndarray
    linearized_distance: np.ndarray
    error: np.ndarray
    rel_log_error: np.ndarray


def _closed_form_error(base: SirParams, init: InitialCondition, epsilon: float, omega: float,
                       times, exact):
    """The closed form's separation at ``times``, its error against the exact
    separation ``exact``, and the relative log error, NaN where either vanishes."""
    ds, di = linearized_difference(base, init, epsilon, omega, times)
    linearized = np.hypot(ds, di)
    err = exact - linearized
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.log(np.abs(err)) - np.log(exact)
    return linearized, err, np.where((exact == 0.0) | (err == 0.0), np.nan, rel)


def approximation_error(init: InitialCondition, pert: Perturbation, horizon: int,
                        steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> ApproximationErrorSeries:
    """Measure how well the closed form tracks the exact separation of
    ``pert`` from its base.

    The base and the perturbed rates are the two lanes of one
    ``integrate_day_grid_batch`` call, which runs them as scalar loops; the
    exact separation has the bits of ``separation_sweep``'s.
    PerturbationTooLargeError is raised unless the perturbed growth rate is
    positive, and a perturbed recovery rate that is not positive raises
    DegenerateParameterError.
    """
    pert.delta_eps()
    moved = pert.perturbed()
    s, i, _ = integrate_day_grid_batch([pert.base.beta, moved.beta],
                                       [pert.base.gamma, moved.gamma], init, horizon,
                                       steps_per_day)
    times = np.arange(int(horizon) + 1, dtype=float)
    exact = np.hypot(s[:, 1] - s[:, 0], i[:, 1] - i[:, 0])
    linearized, err, rel = _closed_form_error(pert.base, init, pert.epsilon, pert.omega, times,
                                              exact)
    return ApproximationErrorSeries(
        times=times,
        exact_distance=exact,
        linearized_distance=linearized,
        error=err,
        rel_log_error=rel,
    )


@dataclass(frozen=True)
class ErrorFit:
    """Averaged linear fit of log relative error against time.

    ``crossing_time`` solves slope * t + intercept = 0, i.e. the day the
    closed-form error reaches the same order as the separation itself;
    ``percent_of_peak`` expresses it relative to the base peak time.
    """

    slope: float
    intercept: float
    crossing_time: float
    percent_of_peak: float
    t_star: float
    angle_slopes: np.ndarray
    angle_intercepts: np.ndarray
    omegas: np.ndarray


def fit_angles() -> np.ndarray:
    """Evenly spaced directions around pi/4 and 5*pi/4 (endpoints excluded on the right)."""
    return np.concatenate([
        np.linspace(c - _FIT_HALF_WIDTH, c + _FIT_HALF_WIDTH, _FIT_PER_ARC, endpoint=False)
        for c in (math.pi / 4, 5 * math.pi / 4)
    ])


def error_fit(base: SirParams, init: InitialCondition, epsilon: float, horizon: int,
              steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> ErrorFit:
    """Average per-direction OLS lines of log relative error over whole days.

    Fits run over days [1, 0.95 * t_star] with NaN days dropped; the horizon
    must reach past the base peak so t_star is resolvable.
    """
    base_traj = integrate_exact(base, init, horizon, steps_per_day)
    t_star = peak_time(base_traj)  # raises HorizonTooShortError pre-peak
    omegas = fit_angles()
    sweep = separation_sweep(base, init, epsilon, omegas, horizon, steps_per_day)
    days = sweep.times
    t_hi = 0.95 * t_star
    window = (days >= 1.0) & (days <= t_hi)
    if not np.any(window):
        raise FitDegenerateError(f"empty fit window [1, {t_hi:.2f}]")

    slopes = np.empty(len(omegas))
    intercepts = np.empty(len(omegas))
    for k, (omega, distance) in enumerate(zip(omegas, sweep.distance)):
        _, _, rel = _closed_form_error(base, init, epsilon, omega, days, distance)
        mask = window & np.isfinite(rel)
        if mask.sum() < _MIN_FIT_POINTS:
            raise FitDegenerateError(
                f"only {int(mask.sum())} usable fit points at omega = {omega:.4f}"
            )
        slope, intercept = np.polyfit(days[mask], rel[mask], 1)
        slopes[k] = slope
        intercepts[k] = intercept

    slope = float(np.mean(slopes))
    intercept = float(np.mean(intercepts))
    if slope <= 0.0:
        raise FitDegenerateError(f"averaged slope is not positive: {slope:.4g}")
    crossing = -intercept / slope
    return ErrorFit(
        slope=slope,
        intercept=intercept,
        crossing_time=crossing,
        percent_of_peak=100.0 * crossing / t_star,
        t_star=t_star,
        angle_slopes=slopes,
        angle_intercepts=intercepts,
        omegas=omegas,
    )


def theoretical_error_bound(init: InitialCondition, pert: Perturbation, t) -> float:
    """A-priori ceiling on |error| between the exact and the closed-form
    separations of ``pert`` from its base.

    Grows exponentially in t, so it is loose late in the epidemic, but it
    holds for every initial condition, direction, and time, and it vanishes
    proportionally to i0.
    """
    t = np.asarray(t, dtype=float)
    base = pert.base
    beta, gamma, delta = base.beta, base.gamma, base.delta()
    beta_e = pert.beta_eps()
    gamma_e = pert.gamma_eps()
    delta_e = pert.delta_eps()
    term_pert = math.sqrt(2.0 * beta_e**2 + gamma_e**2) / delta_e * (np.exp(delta_e * t) - 1.0)
    term_base = math.sqrt(2.0 * beta**2 + gamma**2) / delta * (np.exp(delta * t) - 1.0)
    return (term_pert + term_base) * init.i0


def write_sweep_csv(sweep: Separations, path) -> None:
    """One row (omega, t, distance, s_distance) per day of each direction.

    The days' t cells are formatted once, and each direction's rows are one
    ``%`` over a row template of its omega and those days.
    """
    days = [f",{fmt(t)},{CELL},{CELL}" for t in sweep.times]

    def lines():
        for omega, distance, s_distance in zip(sweep.omegas, sweep.distance, sweep.s_distance):
            omega = fmt(omega)
            cells = np.column_stack((distance, s_distance)).ravel().tolist()
            yield (omega + f"\n{omega}".join(days)) % tuple(cells)

    write_csv(path, "omega,t,distance,s_distance", lines())


def write_error_fit_csv(fit: ErrorFit, path) -> None:
    write_csv(path, "omega,slope,intercept", (
        f"{fmt(omega)},{fmt(slope)},{fmt(intercept)}"
        for omega, slope, intercept in zip(fit.omegas, fit.angle_slopes, fit.angle_intercepts)
    ))
