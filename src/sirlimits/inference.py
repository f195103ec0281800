"""Gaussian likelihood of SIR parameters and maximum likelihood fitting.

The log-likelihood of observed daily counts y_1..y_T is the full Gaussian
log-density, normalization terms included (they matter whenever the noise
scale itself is inferred):

    ll = sum_k [ -(y_k - p*delta_k)^2 / (2 v_k) - log(2*pi*v_k) / 2 ]

with delta_k = N*(s_{k-1} - s_k) from exact integration of the candidate
parameters. The variance v_k follows the observation noise model; when
``sigma_inferred`` is set the per-day variance is N * i_k * sigma^2 with i_k
taken from the candidate model's own trajectory (fully coupled).

Gradients come from forward sensitivities: the SIR system is augmented with
d(s, i)/d(beta) and d(s, i)/d(gamma) and integrated together, then chained
through delta_k and, where the variance is parameter-coupled, through i_k.
Optimization is quasi-Newton (L-BFGS-B) over (log beta, log gamma[, log
sigma]) so positivity needs no constraints, multi-started from a moment-based
initializer: the growth rate delta is read off a regression of log y_t on t
and beta starts at twice that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._csv import fmt, write_csv
from .errors import (
    DegenerateParameterError,
    DegenerateVarianceError,
    InsufficientDataError,
    IntegrationError,
    OptimizationFailureError,
)
from .simulate import NoiseModel, ObservationSeries, observe_batch, sigma_sequence
from .sir import DEFAULT_STEPS_PER_DAY, InitialCondition, SirParams, _rk4, integrate_exact

_PENALTY = 1e12
_GRADIENT_TOL = 1e-8  # L-BFGS-B projected-gradient tolerance of every fit
_MAX_ITERATIONS = 500  # L-BFGS-B iteration cap of every fit
_MOMENT_FLOOR = 0.02  # least growth rate the moment initializer starts from


def integrate_with_sensitivities(params: SirParams, init: InitialCondition,
                                 horizon: int, steps_per_day: int):
    """Day-sampled state and parameter sensitivities.

    Returns six arrays of length horizon + 1: s, i, ds/dbeta, di/dbeta,
    ds/dgamma, di/dgamma. Sensitivities start at zero.
    """
    spd = int(steps_per_day)
    y0 = (float(init.s0), float(init.i0), 0.0, 0.0, 0.0, 0.0)
    return _rk4(float(params.beta), float(params.gamma), y0, int(horizon) * spd, 1.0 / spd, spd)


@dataclass(frozen=True)
class LikelihoodSpec:
    """Everything the likelihood needs besides the candidate parameters.

    ``noise`` defaults to the observation series' own model. When
    ``sigma_inferred`` is set the noise must be of the infection-proportional
    kind and the scale sigma becomes a free parameter of the likelihood.
    """

    obs: ObservationSeries
    init: InitialCondition
    noise: NoiseModel | None = None
    sigma_inferred: bool = False
    steps_per_day: int = DEFAULT_STEPS_PER_DAY

    def __post_init__(self):
        if self.noise is None:
            object.__setattr__(self, "noise", self.obs.noise)
        if self.sigma_inferred and self.noise.kind != "case2":
            raise ValueError("sigma_inferred requires infection-proportional (case2) noise")
        if self.noise.kind == "known_sequence" and len(self.noise.sigma_t) < self.T:
            raise InsufficientDataError(
                f"known_sequence provides {len(self.noise.sigma_t)} days, need {self.T}"
            )

    @property
    def T(self) -> int:
        return len(self.obs)

    @property
    def p(self) -> float:
        return self.obs.reporting_rate


def _variance_terms(spec: LikelihoodSpec, sigma, i_days, ib, ig):
    """Per-day variance v_k and its parameter derivatives (dv/db, dv/dg, dv/dsigma)."""
    T = spec.T
    n = spec.init.population
    ik = i_days[1 : T + 1]
    if spec.sigma_inferred:
        if sigma is None:
            raise ValueError("sigma is required when sigma_inferred is set")
        v = n * ik * sigma**2
        dv_b = n * sigma**2 * ib[1 : T + 1]
        dv_g = n * sigma**2 * ig[1 : T + 1]
        dv_s = 2.0 * n * ik * sigma
        return v, dv_b, dv_g, dv_s
    noise = spec.noise
    if noise.kind == "known_sequence":
        sig = np.asarray(noise.sigma_t[:T], dtype=float)
        return sig**2, None, None, None
    if noise.kind == "case1":
        return np.full(T, (n * noise.sigma) ** 2), None, None, None
    # case2 with fixed sigma: sigma_t = N * sigma * i_k of the candidate model
    sig = n * noise.sigma * ik
    v = sig**2
    dv_b = 2.0 * (n * noise.sigma) ** 2 * ik * ib[1 : T + 1]
    dv_g = 2.0 * (n * noise.sigma) ** 2 * ik * ig[1 : T + 1]
    return v, dv_b, dv_g, None


def _loglik_core(params: SirParams, sigma, spec: LikelihoodSpec, want_grad: bool):
    s, i, sb, ib, sg, ig = integrate_with_sensitivities(
        params, spec.init, spec.T, spec.steps_per_day
    )
    n = spec.init.population
    p = spec.p
    y = spec.obs.values
    T = spec.T
    delta = n * (s[:T] - s[1 : T + 1])
    v, dv_b, dv_g, dv_s = _variance_terms(spec, sigma, i, ib, ig)
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~(v > 0.0) | ~np.isfinite(v))[0]) + 1
        raise DegenerateVarianceError(f"variance must be positive; day {bad} has v = {v[bad - 1]}")
    r = y - p * delta
    ll = float(np.sum(-0.5 * r * r / v - 0.5 * np.log(2.0 * math.pi * v)))
    if not want_grad:
        return ll, None
    ddelta_b = n * (sb[:T] - sb[1 : T + 1])
    ddelta_g = n * (sg[:T] - sg[1 : T + 1])
    g_b = float(np.sum(r * p * ddelta_b / v))
    g_g = float(np.sum(r * p * ddelta_g / v))
    if dv_b is not None:
        quad_b = np.sum(0.5 * r * r / v**2 * dv_b)
        quad_g = np.sum(0.5 * r * r / v**2 * dv_g)
        norm_b = np.sum(-0.5 * dv_b / v)
        norm_g = np.sum(-0.5 * dv_g / v)
        g_b += float(quad_b + norm_b)
        g_g += float(quad_g + norm_g)
    grad = [g_b, g_g]
    if spec.sigma_inferred:
        grad.append(float(np.sum(0.5 * r * r / v**2 * dv_s - 0.5 * dv_s / v)))
    return ll, np.array(grad)


def log_likelihood(params: SirParams, sigma: float | None, spec: LikelihoodSpec) -> float:
    """Full Gaussian log-likelihood of the candidate parameters."""
    ll, _ = _loglik_core(params, sigma, spec, want_grad=False)
    return ll


def log_likelihood_gradient(params: SirParams, sigma: float | None,
                            spec: LikelihoodSpec) -> np.ndarray:
    """Gradient with respect to (beta, gamma[, sigma])."""
    _, grad = _loglik_core(params, sigma, spec, want_grad=True)
    return grad


@dataclass(frozen=True)
class MleResult:
    """A fitted maximum: point estimates plus convergence diagnostics."""

    beta_hat: float
    gamma_hat: float
    sigma_hat: float | None
    loglik: float
    converged: bool
    iterations: int
    grad_norm: float

    @property
    def r0_hat(self) -> float:
        return self.beta_hat / self.gamma_hat

    @property
    def delta_hat(self) -> float:
        return self.beta_hat - self.gamma_hat

    def params(self) -> SirParams:
        return SirParams(self.beta_hat, self.gamma_hat)


def moment_start(obs: ObservationSeries) -> SirParams:
    """Moment-based initializer: delta from the log-slope of positive counts."""
    y = np.asarray(obs.values, dtype=float)
    t = np.arange(1.0, len(y) + 1.0)
    pos = y > 0.0
    if pos.sum() >= 2:
        slope = np.polyfit(t[pos], np.log(y[pos]), 1)[0]
    else:
        slope = 0.1
    delta0 = max(float(slope), _MOMENT_FLOOR)
    return SirParams(2.0 * delta0, delta0)


def _profile_sigma_start(params: SirParams, spec: LikelihoodSpec) -> float:
    """Closed-form sigma maximizer at fixed (beta, gamma), used to seed starts."""
    s, i, *_ = integrate_with_sensitivities(params, spec.init, spec.T, spec.steps_per_day)
    n = spec.init.population
    T = spec.T
    delta = n * (s[:T] - s[1 : T + 1])
    ik = i[1 : T + 1]
    if np.any(ik <= 0.0):
        return 1.0
    r = spec.obs.values - spec.p * delta
    s2 = float(np.mean(r * r / (n * ik)))
    return max(math.sqrt(s2), 1e-6)


def default_starts(spec: LikelihoodSpec, n_starts: int = 8) -> list[SirParams]:
    """Log-spaced grid along the slope-one ridge through the moment initializer."""
    anchor = moment_start(spec.obs)
    delta0 = anchor.delta()
    if n_starts == 1:
        return [anchor]
    starts = []
    for mult in np.geomspace(0.5, 64.0, n_starts):
        beta = anchor.beta * float(mult)
        if beta <= delta0:
            beta = delta0 * 1.5
        starts.append(SirParams(beta, beta - delta0))
    return starts


_LOG_BOUNDS = (math.log(1e-6), math.log(500.0))


def _fit_single(spec: LikelihoodSpec, start: SirParams, sigma_start: float | None):
    x0 = [math.log(start.beta), math.log(start.gamma)]
    if spec.sigma_inferred:
        x0.append(math.log(sigma_start))
    x0 = np.asarray(x0)
    ndim = len(x0)

    def objective(x):
        theta = np.exp(x)
        try:
            params = SirParams(theta[0], theta[1])
            sigma = theta[2] if spec.sigma_inferred else None
            ll, grad = _loglik_core(params, sigma, spec, want_grad=True)
        except (DegenerateParameterError, IntegrationError, DegenerateVarianceError):
            return _PENALTY * (1.0 + float(np.dot(x, x))), 2.0 * _PENALTY * x
        if not math.isfinite(ll):
            return _PENALTY * (1.0 + float(np.dot(x, x))), 2.0 * _PENALTY * x
        return -ll, -grad * theta  # chain rule for log coordinates

    res = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[_LOG_BOUNDS] * ndim,
        options={"maxiter": _MAX_ITERATIONS, "ftol": 1e-14, "gtol": _GRADIENT_TOL,
                 "maxcor": 20},
    )
    theta = np.exp(res.x)
    if theta[0] - theta[1] <= 0.0 or not math.isfinite(res.fun) or res.fun >= _PENALTY:
        raise OptimizationFailureError(f"start {start} converged to an invalid point")
    # res.jac is in log coordinates; undo the chain rule for the true gradient.
    grad_norm = float(np.linalg.norm(np.asarray(res.jac) / theta))
    # On ridge-conditioned problems the requested gradient tolerance can sit
    # below the double-precision floor and L-BFGS-B ends "abnormally" at the
    # optimum; the first-order condition is the meaningful convergence test.
    converged = bool(res.success) or grad_norm <= 1e-6 * max(1.0, abs(float(res.fun)))
    return MleResult(
        beta_hat=float(theta[0]),
        gamma_hat=float(theta[1]),
        sigma_hat=float(theta[2]) if spec.sigma_inferred else None,
        loglik=-float(res.fun),
        converged=converged,
        iterations=int(res.nit),
        grad_norm=grad_norm,
    )


def fit_mle(spec: LikelihoodSpec, starts: list[SirParams] | None = None,
            n_starts: int = 8) -> MleResult:
    """Best local maximum across multi-started quasi-Newton ascents.

    Starts rank by (converged, loglik): a start that passed the first-order
    test beats one that did not, whatever their log-likelihoods, so a start
    stopped a rounding error above the optimum cannot displace a converged one.
    """
    if starts is None:
        starts = default_starts(spec, n_starts)
    best = None
    diagnostics = []
    for idx, start in enumerate(starts):
        sig0 = _profile_sigma_start(start, spec) if spec.sigma_inferred else None
        try:
            result = _fit_single(spec, start, sig0)
        except (OptimizationFailureError, IntegrationError, DegenerateVarianceError) as exc:
            diagnostics.append(f"start {idx} ({start.beta:.4g}, {start.gamma:.4g}): {exc}")
            continue
        if best is None or (result.converged, result.loglik) > (best.converged, best.loglik):
            best = result
    if best is None:
        raise OptimizationFailureError("all optimizer starts failed", diagnostics=diagnostics)
    return best


@dataclass(frozen=True)
class MleEnsemble:
    """Replicate fits against independently simulated data sets.

    ``indices[k]`` is the replicate number of ``replicates[k]``; failed
    replicates are listed in ``failures`` instead.
    """

    replicates: list[MleResult]
    indices: list[int]
    failures: list[tuple[int, str]]
    seed_base: int
    true_params: SirParams

    def betas(self) -> np.ndarray:
        return np.array([r.beta_hat for r in self.replicates])

    def gammas(self) -> np.ndarray:
        return np.array([r.gamma_hat for r in self.replicates])

    def r0s(self) -> np.ndarray:
        return np.array([r.r0_hat for r in self.replicates])

    def deltas(self) -> np.ndarray:
        return np.array([r.delta_hat for r in self.replicates])

    def slope_beta_on_gamma(self) -> float:
        """OLS slope of beta_hat regressed on gamma_hat."""
        g = self.gammas()
        b = self.betas()
        gc = g - g.mean()
        return float(np.dot(gc, b - b.mean()) / np.dot(gc, gc))

    def r0_range(self) -> tuple[float, float]:
        r = self.r0s()
        return float(r.min()), float(r.max())

    def to_csv(self, path) -> None:
        write_ensemble_csv(self, path)


def _ensemble_fit_one(args):
    y, sigma_t, p, noise, init, population, seed_base, index, fit_spd, n_starts = args
    obs = ObservationSeries(
        values=y,
        reporting_rate=p,
        noise=noise,
        seed=seed_base,
        sigma_t=sigma_t,
        population=population,
    )
    spec = LikelihoodSpec(obs=obs, init=init, noise=noise, sigma_inferred=False,
                          steps_per_day=fit_spd)
    try:
        return index, fit_mle(spec, n_starts=n_starts), None
    except OptimizationFailureError as exc:
        return index, None, str(exc)


def mle_ensemble(true_params: SirParams, init: InitialCondition, noise: NoiseModel,
                 p: float, T: int, replicates: int, seed: int,
                 workers: int = 1, fit_steps_per_day: int = 10,
                 data_steps_per_day: int = DEFAULT_STEPS_PER_DAY, n_starts: int = 2,
                 max_failure_fraction: float = 0.05,
                 fit_noise: NoiseModel | None = None) -> MleEnsemble:
    """Replicate study of the MLE sampling distribution.

    Data for replicate r are drawn with a seed derived deterministically from
    (seed, r), so results do not depend on worker count or execution order.
    Fits default to 10 substeps per day: integration error there is orders of
    magnitude below the observation noise, and the ensemble is fit-bound.
    ``fit_noise`` lets the likelihood assume a different noise scale than the
    generator, e.g. a nominal positive scale when the data are exactly
    noiseless (a zero variance has no Gaussian density).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    truth = integrate_exact(true_params, init, T, data_steps_per_day)
    ys = observe_batch(truth, noise, p, T, seed, replicates)
    if fit_noise is None:
        fit_noise = noise
    sigma_t = sigma_sequence(fit_noise, truth, T)
    jobs = [
        (ys[r], sigma_t, p, fit_noise, init, init.population, seed, r, fit_steps_per_day, n_starts)
        for r in range(replicates)
    ]
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            outcomes = pool.map(_ensemble_fit_one, jobs, chunksize=8)
    else:
        outcomes = [_ensemble_fit_one(job) for job in jobs]
    outcomes.sort(key=lambda item: item[0])
    results = []
    indices = []
    failures = []
    for index, result, message in outcomes:
        if result is None:
            failures.append((index, message))
        else:
            results.append(result)
            indices.append(index)
    if len(failures) > max_failure_fraction * replicates:
        raise OptimizationFailureError(
            f"{len(failures)} of {replicates} replicate fits failed",
            diagnostics=[f"replicate {i}: {m}" for i, m in failures],
        )
    return MleEnsemble(replicates=results, indices=indices, failures=failures,
                       seed_base=int(seed), true_params=true_params)


def write_ensemble_csv(ensemble: MleEnsemble, path) -> None:
    write_csv(path, "replicate,beta_hat,gamma_hat,sigma_hat,loglik,converged", (
        f"{idx},{fmt(r.beta_hat)},{fmt(r.gamma_hat)},{fmt(r.sigma_hat)},{fmt(r.loglik)},"
        f"{int(r.converged)}"
        for idx, r in zip(ensemble.indices, ensemble.replicates)
    ))
