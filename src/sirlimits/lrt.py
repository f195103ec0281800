"""Likelihood-ratio testing between nearby SIR parameter values.

The simple test compares theta_0 against its perturbation theta_eps(omega)
from daily observations Y_1..Y_T. Under Gaussian noise with a fixed variance
sequence the likelihood-ratio statistic is Gaussian under both hypotheses and
everything reduces to the signal-to-noise functional

    V_T = sum_t p^2 * (delta_eps_t - delta0_t)^2 / sigma_t^2,

giving an exact type II error 1 - Phi(Phi^{-1}(alpha) + sqrt(V_T)) for the
level-alpha most powerful test. Replacing the incidences by their frozen-s
closed forms yields two computable approximations whose worst case over
directions sits near omega = pi/4 and 5*pi/4; with infection-proportional
noise the pi/4 value collapses to a formula free of the population size and
of the SIR rates, and inverts in closed form for the detectable perturbation
size at a target power.

Exact formulas use numerically integrated incidences N * (c_t - c_{t-1}),
c being the outflow from s that the RK4 kernel accumulates; differences of s
near 1 would put a rounding floor under V_T (2.6e-8 relative at 50 substeps a
day, 1.7e-7 at 200 on the benchmark's power grid) that more substeps do not
lower. Read from c, V_T converges at fourth order, and by default the
hypotheses are integrated on ``lrt_steps_per_day(null)`` substeps a day: at
least 10, and enough that beta * h <= 0.021 for the null's beta. The
closed-form approximations use the frozen-s incidences, including the
pre-peak substitute i_t = exp(delta * t) * i0 inside infection-proportional
noise. The noise sequence sigma_t is always materialized from the
null-parameter trajectory, and the same sequence drives both hypotheses and
the Monte Carlo simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from ._csv import fmt, write_csv
from .errors import (
    HorizonPastPeakError,
    IndistinguishableHypothesesError,
    InsufficientDataError,
    NoDetectablePerturbationError,
    PerturbationTooLargeError,
)
from .perturb import Perturbation
from .simulate import (
    NoiseModel,
    ObservationSeries,
    check_reporting_rate,
    replicate_normals,
    sigma_sequence,
)
from .sir import (
    InitialCondition,
    SirParams,
    Trajectory,
    _daily_counts,
    integrate_day_grid_batch,
    peak_time_for,
)

_WORST_CASE_ANGLES = 150  # equally spaced directions on worst_case_direction's grid
# Default RK4 grid of the hypotheses: at least LRT_STEPS_PER_DAY substeps a
# day, and enough that the null's beta times the step is at most
# _LRT_BETA_STEP. Measured against 400 substeps a day at the rates (0.21,
# 0.07), (0.21, 0.14), (0.42, 0.07) and (1.68, 0.14), N 1e5 and 1e7, every
# noise kind and perturbations up to 0.8 min(delta, gamma), V_T came within
# 3e-8 relative at that grid; (0.42, 0.07) at a flat 10 substeps was 2.6e-7
# off, and (1.68, 0.14) 5e-5.
LRT_STEPS_PER_DAY = 10
_LRT_BETA_STEP = 0.021


def lrt_steps_per_day(null: SirParams) -> int:
    """Default substeps a day of an LRT on ``null``: the fewest, and at least
    LRT_STEPS_PER_DAY, whose step h keeps null.beta * h <= 0.021 (the
    rounding of the division aside, so beta 0.21 gives 10)."""
    return max(LRT_STEPS_PER_DAY, math.ceil(round(null.beta / _LRT_BETA_STEP, 9)))


def _check_design(alpha: float, p: float, T: int, **scales: float) -> None:
    """The rule every test design follows: alpha in (0, 1), the reporting
    rate p in (0, 1], T >= 1 and each named scale finite and positive."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    check_reporting_rate(p)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not all(0.0 < scale < math.inf for scale in scales.values()):
        raise ValueError(f"{' and '.join(scales)} must be finite and > 0, "
                         f"got {' and '.join(map(str, scales.values()))}")


def _type2(alpha: float, root_v: float) -> float:
    """1 - Phi(Phi^{-1}(alpha) + sqrt(V_T)): the type II error of the
    level-alpha test whose signal-to-noise root sqrt(V_T) is ``root_v``."""
    return float(1.0 - ndtr(ndtri(alpha) + root_v))


@dataclass(frozen=True)
class TestSpec:
    """A fully specified simple hypothesis test on daily observations: the
    null is the perturbation's base, the alternative its perturbed rates."""

    __test__ = False  # not a pytest class, despite the name

    pert: Perturbation
    alpha: float
    T: int
    p: float
    noise: NoiseModel
    init: InitialCondition
    steps_per_day: int | None = None  # None: lrt_steps_per_day(null_params)

    def __post_init__(self):
        _check_design(self.alpha, self.p, self.T)
        if self.steps_per_day is None:
            object.__setattr__(self, "steps_per_day", lrt_steps_per_day(self.null_params))
        t_star = peak_time_for(self.null_params, self.init, self.steps_per_day)
        if self.T >= t_star:
            raise HorizonPastPeakError(
                f"T = {self.T} must precede the null peak time {t_star:.2f}"
            )
        object.__setattr__(self, "_t_star", t_star)

    @property
    def null_params(self) -> SirParams:
        return self.pert.base

    @property
    def t_star(self) -> float:
        return self._t_star

    def alternative_params(self) -> SirParams:
        return self.pert.perturbed()


def _hypotheses(null: SirParams, alternatives: list, init: InitialCondition, T: int,
                steps_per_day: int):
    """The null's day samples and the daily incidence N*(c_t - c_{t-1}) of the
    null and of each alternative, rows in that order, from one
    ``integrate_day_grid_batch`` call with a lane per hypothesis."""
    rates = [null, *alternatives]
    s, i, c = integrate_day_grid_batch([r.beta for r in rates], [r.gamma for r in rates], init,
                                       T, steps_per_day)
    null_days = Trajectory(times=np.arange(T + 1, dtype=float), s=s[:, 0], i=i[:, 0],
                           c=c[:, 0], params=null, init=init, kind="exact")
    return null_days, _daily_counts(init.population, c.T)


def _materialize(spec: TestSpec):
    """Null/alternative incidences and the sigma_t sequence (from the null)."""
    null_days, (d0, de) = _hypotheses(spec.null_params, [spec.alternative_params()], spec.init,
                                      spec.T, spec.steps_per_day)
    return d0, de, sigma_sequence(spec.noise, null_days, spec.T)


def _v(spec: TestSpec, d0, de, sigma) -> float:
    return float(np.sum((spec.p * (de - d0)) ** 2 / sigma**2))


def v_statistic(spec: TestSpec) -> float:
    """Signal-to-noise functional V_T from exact incidences."""
    return _v(spec, *_materialize(spec))


@dataclass(frozen=True)
class LrtDecision:
    log_lr: float
    threshold: float
    reject: bool


def _root_v(v: float) -> float:
    """sqrt(V_T); IndistinguishableHypothesesError unless V_T > 0."""
    if v <= 0.0:
        raise IndistinguishableHypothesesError(
            "V_T = 0: the hypotheses produce identical observation distributions"
        )
    return math.sqrt(v)


def _threshold(spec: TestSpec, v: float) -> float:
    return -float(ndtri(spec.alpha)) * _root_v(v) - 0.5 * v


def lrt_threshold(spec: TestSpec) -> float:
    """log eta calibrated so the type I error equals alpha exactly."""
    return _threshold(spec, v_statistic(spec))


def lrt_decide(obs: ObservationSeries, spec: TestSpec) -> LrtDecision:
    """Evaluate the log likelihood ratio of the observations and decide."""
    y = np.asarray(obs.values, dtype=float)
    if len(y) < spec.T:
        raise InsufficientDataError(
            f"observations cover {len(y)} days, need T = {spec.T}"
        )
    y = y[: spec.T]
    d0, de, sigma = _materialize(spec)
    log_lr = float(
        np.sum(((y - spec.p * d0) ** 2 - (y - spec.p * de) ** 2) / (2.0 * sigma**2))
    )
    threshold = _threshold(spec, _v(spec, d0, de, sigma))
    return LrtDecision(log_lr=log_lr, threshold=threshold, reject=log_lr >= threshold)


def type2_exact(spec: TestSpec) -> float:
    """Exact Gaussian type II error of the level-alpha LRT."""
    return _type2(spec.alpha, _root_v(v_statistic(spec)))


def _approx_weights(spec: TestSpec, days: np.ndarray) -> tuple[np.ndarray, float]:
    """Terms of the closed-form argument: per-day weights w_t and a prefactor c
    so that the Phi argument is Phi^{-1}(alpha) + c * sqrt(sum w_t * bracket_t^2).

    For case2 noise the substitute sigma_t = N*sigma*i0*e^{delta t} cancels the
    growth and the population algebraically, leaving w_t = 1 and c = p/sigma;
    doing the cancellation here keeps the value genuinely independent of N
    and i0 instead of merely approximately so. For case3 the substitute
    sigma_t^2 = sigma^2*N*i0*e^{delta t} gives w_t = e^{delta t}, c = p*sqrt(N*i0)/sigma.
    """
    n = spec.init.population
    noise = spec.noise
    delta = spec.null_params.delta()
    if noise.kind == "known_sequence":
        return np.exp(2.0 * delta * days) / noise.sd(spec.T) ** 2, spec.p * n * spec.init.i0
    if noise.kind == "case1":
        return np.exp(2.0 * delta * days), spec.p * spec.init.i0 / noise.sigma
    if noise.kind == "case2":
        return np.ones_like(days), spec.p / noise.sigma
    return np.exp(delta * days), spec.p * math.sqrt(n * spec.init.i0) / noise.sigma


def _approx_bracket(spec: TestSpec, days: np.ndarray, variant: str) -> np.ndarray:
    pert = spec.pert
    beta = spec.null_params.beta
    delta = spec.null_params.delta()
    beta_e = pert.beta_eps()
    delta_e = pert.delta_eps()
    shift = np.exp(pert.epsilon * pert.direction_factor() * days)
    if variant == "first":
        return beta_e * ((1.0 - math.exp(-delta_e)) / delta_e) * shift - beta * (
            (1.0 - math.exp(-delta)) / delta
        )
    if variant == "second":
        return beta_e * shift - beta
    raise ValueError(f"variant must be 'first' or 'second', got {variant!r}")


def type2_approx(spec: TestSpec, variant: str = "first") -> float:
    """Closed-form type II error based on the frozen-s incidences.

    ``variant="first"`` keeps the exact one-day increment factors of the
    closed-form incidence; ``variant="second"`` further approximates them
    away, which makes the pi/4 case collapse to the fully explicit formula.
    """
    days = np.arange(1.0, spec.T + 1.0)
    weights, prefactor = _approx_weights(spec, days)
    bracket = _approx_bracket(spec, days, variant)
    return _type2(spec.alpha, prefactor * math.sqrt(float(np.sum(weights * bracket**2))))


def case2_pi4_type2(alpha: float, epsilon: float, sigma: float, p: float, T: int) -> float:
    """Fully explicit slope-one-direction type II error under
    infection-proportional noise: free of N, beta, and gamma."""
    _check_design(alpha, p, T, sigma=sigma)
    return _type2(alpha, p * epsilon * math.sqrt(T) / (sigma * math.sqrt(2.0)))


def worst_case_direction(null_params: SirParams, init: InitialCondition,
                         epsilon: float, alpha: float, T: int, p: float,
                         noise: NoiseModel) -> tuple[float, float]:
    """Direction maximizing the closed-form type II error over an angle grid.

    Angles whose perturbed delta would be non-positive are skipped; they are
    maximally distinguishable and cannot attain the supremum.
    """
    best_omega = None
    best_value = -math.inf
    for omega in np.linspace(0.0, 2.0 * math.pi, _WORST_CASE_ANGLES, endpoint=False):
        try:
            spec = TestSpec(pert=Perturbation(null_params, epsilon, float(omega)),
                            alpha=alpha, T=T, p=p, noise=noise, init=init)
            value = type2_approx(spec)
        except PerturbationTooLargeError:
            continue
        if value > best_value:
            best_value = value
            best_omega = float(omega)
    if best_omega is None:
        raise PerturbationTooLargeError("no grid angle admits a valid perturbation")
    return best_omega, best_value


def epsilon_for_power(target_type2: float, alpha: float, sigma: float,
                      p: float, T: int, delta: float) -> float:
    """Perturbation size whose slope-one test has the target type II error.

    Inverts the first closed form at omega = pi/4 under infection-proportional
    noise. Targets at or above 1 - alpha are unattainable (any valid test
    already achieves that much), so they are rejected.
    """
    if not 0.0 < target_type2 < 1.0:
        raise ValueError(f"target_type2 must lie in (0, 1), got {target_type2}")
    _check_design(alpha, p, T, sigma=sigma, delta=delta)
    if target_type2 >= 1.0 - alpha:
        raise NoDetectablePerturbationError(
            f"target type II {target_type2} >= 1 - alpha = {1.0 - alpha}: implied epsilon <= 0"
        )
    numer = float(ndtri(1.0 - target_type2) - ndtri(alpha)) * sigma * delta * math.exp(delta) * math.sqrt(2.0)
    denom = (math.exp(delta) - 1.0) * p * math.sqrt(T)
    return numer / denom


@dataclass(frozen=True)
class GammaTestResult:
    """Power of the recovery-rate test at known growth rate delta.

    Testing gamma_0 against gamma_0 + eps_hat on the slope-one line is the
    same as the two-parameter test with epsilon = |eps_hat| * sqrt(2) at
    omega = pi/4 (eps_hat > 0) or 5*pi/4 (eps_hat < 0).
    """

    type2: float
    epsilon: float
    omega: float


def gamma_test_power(epsilon_hat: float, alpha: float, sigma: float,
                     p: float, T: int) -> GammaTestResult:
    """``case2_pi4_type2`` at epsilon = |eps_hat| * sqrt(2), the test of gamma_0
    against gamma_0 + eps_hat at known delta (see ``GammaTestResult``)."""
    if epsilon_hat == 0.0:
        raise IndistinguishableHypothesesError("epsilon_hat = 0 leaves nothing to test")
    epsilon = abs(epsilon_hat) * math.sqrt(2.0)
    omega = math.pi / 4.0 if epsilon_hat > 0.0 else 5.0 * math.pi / 4.0
    return GammaTestResult(type2=case2_pi4_type2(alpha, epsilon, sigma, p, T), epsilon=epsilon,
                           omega=omega)


@dataclass(frozen=True)
class EmpiricalRate:
    """A Monte Carlo error-rate estimate with its binomial standard error."""

    value: float
    stderr: float
    replicates: int


def _standard_normals(replicates: int, seed: int, T: int) -> np.ndarray:
    """``replicate_normals(seed, replicates, T)``, once the replicate floor is checked."""
    if replicates < 100:
        raise ValueError(f"need at least 100 replicates, got {replicates}")
    return replicate_normals(seed, replicates, T)


def _empirical_rate(spec: TestSpec, d0, de, sigma, v, xi,
                    under_alternative: bool) -> EmpiricalRate:
    """Monte Carlo rate of the LRT's wrong decisions on data drawn under the
    alternative (type II) or the null (type I); ``v`` is the V_T of (d0, de,
    sigma), and row r of ``xi`` is replicate r's noise, sigma_t times its
    standard normals."""
    threshold = _threshold(spec, v)
    mean = spec.p * (de if under_alternative else d0)
    w = spec.p * (de - d0) / sigma**2
    const = float(np.sum(((mean - spec.p * d0) ** 2 - (mean - spec.p * de) ** 2) / (2.0 * sigma**2)))
    log_lr = const + xi @ w
    wrong = log_lr < threshold if under_alternative else log_lr >= threshold
    value = float(np.mean(wrong))
    replicates = len(xi)
    return EmpiricalRate(
        value=value,
        stderr=math.sqrt(max(value * (1.0 - value), 1e-12) / replicates),
        replicates=replicates,
    )


def _empirical(spec: TestSpec, replicates: int, seed: int, under_alternative: bool) -> EmpiricalRate:
    z = _standard_normals(replicates, seed, spec.T)
    d0, de, sigma = _materialize(spec)
    return _empirical_rate(spec, d0, de, sigma, _v(spec, d0, de, sigma), sigma * z,
                           under_alternative)


def empirical_type2(spec: TestSpec, replicates: int, seed: int) -> EmpiricalRate:
    """Monte Carlo type II error: data under the alternative, LRT at level alpha."""
    return _empirical(spec, replicates, seed, under_alternative=True)


def empirical_type1(spec: TestSpec, replicates: int, seed: int) -> EmpiricalRate:
    """Monte Carlo type I error: data under the null, LRT at level alpha."""
    return _empirical(spec, replicates, seed, under_alternative=False)


@dataclass(frozen=True)
class PowerResult:
    """All type II error views of one test specification."""

    type2_exact: float
    type2_approx1: float
    type2_approx2: float
    v_T: float
    type2_empirical: float | None = None
    empirical_stderr: float | None = None


def _power_point(spec: TestSpec, d0, de, sigma, xi) -> PowerResult:
    """Every type II view of ``spec`` from its incidences, its sigma_t and,
    unless ``xi`` is None, the Monte Carlo noise rows."""
    v = _v(spec, d0, de, sigma)
    emp = stderr = None
    if xi is not None:
        rate = _empirical_rate(spec, d0, de, sigma, v, xi, under_alternative=True)
        emp, stderr = rate.value, rate.stderr
    return PowerResult(
        type2_exact=_type2(spec.alpha, _root_v(v)),
        type2_approx1=type2_approx(spec, "first"),
        type2_approx2=type2_approx(spec, "second"),
        v_T=v,
        type2_empirical=emp,
        empirical_stderr=stderr,
    )


def power_summary(spec: TestSpec, replicates: int | None = None,
                  seed: int = 0) -> PowerResult:
    """Every type II view of ``spec``, from one integration of each hypothesis."""
    z = None if replicates is None else _standard_normals(replicates, seed, spec.T)
    d0, de, sigma = _materialize(spec)
    return _power_point(spec, d0, de, sigma, None if z is None else sigma * z)


def power_grid(null_params: SirParams, init: InitialCondition, noises, omegas, epsilons,
               alpha: float, T: int, p: float, steps_per_day: int | None = None,
               replicates: int | None = None, seed: int = 0) -> list:
    """``power_summary`` at every point of the noises x omegas x epsilons grid
    (sequences, nested in that order); returns (omega, epsilon, noise.sigma,
    PowerResult) rows in the same order. ``steps_per_day`` defaults to
    ``lrt_steps_per_day(null_params)``, as each TestSpec's does.

    Every point's TestSpec is built before anything is integrated. The null
    and each distinct alternative are integrated once, as the lanes of one
    day-grid batch, sigma_t once per noise model, and the Monte Carlo
    normals are drawn once: every point uses
    ``seed``, so all points share their replicate streams (common random
    numbers), exactly as separate ``power_summary`` calls would.
    """
    specs = [
        TestSpec(pert=Perturbation(null_params, eps, omega), alpha=alpha, T=T, p=p, noise=noise,
                 init=init, steps_per_day=steps_per_day)
        for noise in noises for omega in omegas for eps in epsilons
    ]
    if not specs:
        return []
    z = None if replicates is None else _standard_normals(replicates, seed, T)
    alternatives = list(dict.fromkeys(spec.alternative_params() for spec in specs))
    null_days, (d0, *incidences) = _hypotheses(null_params, alternatives, init, T,
                                               specs[0].steps_per_day)
    alt = dict(zip(alternatives, incidences))
    rows = []
    for noise in noises:
        sigma = sigma_sequence(noise, null_days, T)
        xi = None if z is None else sigma * z
        for omega in omegas:
            for eps in epsilons:
                spec = specs[len(rows)]
                rows.append((omega, eps, noise.sigma,
                             _power_point(spec, d0, alt[spec.alternative_params()], sigma, xi)))
    return rows


def write_power_csv(rows, path) -> None:
    """rows: iterables of (omega, epsilon, sigma, PowerResult)."""
    write_csv(
        path,
        "omega,epsilon,sigma,type2_exact,type2_approx1,type2_approx2,type2_empirical,stderr",
        (f"{fmt(omega)},{fmt(epsilon)},{fmt(sigma)},{fmt(res.type2_exact)},"
         f"{fmt(res.type2_approx1)},{fmt(res.type2_approx2)},"
         f"{fmt(res.type2_empirical)},{fmt(res.empirical_stderr)}"
         for omega, epsilon, sigma, res in rows),
    )
