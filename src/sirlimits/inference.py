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
The same pass gives the expected (Fisher) information
J_mu'V^-1 J_mu + J_v'V^-2 J_v / 2 over (beta, gamma[, sigma]), J_mu and J_v
being the Jacobians of the mean p*delta_k and of v_k; ``fisher_information``
returns it. Every noise model is fit by Levenberg-Marquardt Fisher scoring
in log coordinates (log beta, log gamma[, log sigma]), so positivity needs no
constraints. When v_k does not depend on the parameters (``known_sequence``
and ``case1`` noise) the information is the Gauss-Newton matrix of a weighted
least-squares fit. Fits are multi-started from a moment-based initializer:
the growth rate delta is read off a regression of log y_t on t and beta
starts at twice that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize  # noqa: F401  (perfbench/tracing.py wraps it by name)

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

_MAX_ITERATIONS = 500  # cap on Levenberg-Marquardt trials
_FIRST_ORDER_TOL = 1e-6  # converged: |projected gradient| <= this * max(1, |ll|)
_DECREMENT_TOL = 1e-14  # fits stop at a scoring decrement below this * max(1, |ll|)
_LM_DAMPING = 1e-3  # initial Marquardt damping of a fit
_MAX_LOG_STEP = 0.5  # longest step in any log coordinate
_MOMENT_FLOOR = 0.02  # least growth rate the moment initializer starts from
_MAX_FAILURE_FRACTION = 0.05  # mle_ensemble raises when more replicate fits than this fail


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
    if spec.sigma_inferred:
        ik = i_days[1 : T + 1]
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
    ik = i_days[1 : T + 1]
    sig = n * noise.sigma * ik
    v = sig**2
    dv_b = 2.0 * (n * noise.sigma) ** 2 * ik * ib[1 : T + 1]
    dv_g = 2.0 * (n * noise.sigma) ** 2 * ik * ig[1 : T + 1]
    return v, dv_b, dv_g, None


def _check_variance(v) -> None:
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~(v > 0.0) | ~np.isfinite(v))[0]) + 1
        raise DegenerateVarianceError(f"variance must be positive; day {bad} has v = {v[bad - 1]}")


def _normal_ll(r, v) -> float:
    return float(np.sum(-0.5 * r * r / v - 0.5 * np.log(2.0 * math.pi * v)))


@dataclass(frozen=True)
class _Point:
    """One evaluation: ll, its parts r'Wr and sum(log v), and the gradient and
    expected information over (beta, gamma[, sigma])."""

    ll: float
    wrss: float
    logdet: float
    grad: np.ndarray
    info: np.ndarray


def _evaluate(params: SirParams, sigma: float | None, spec: LikelihoodSpec) -> _Point:
    """ll, its exact gradient and the Fisher information from one sensitivity pass.

    With mu = p*delta, r = y - mu, W = 1/v, J_mu the Jacobian of mu (zero in
    sigma) and J_v that of v, the gradient is J_mu'Wr + J_v'(r^2 W^2 - W) / 2
    and the information is J_mu'W J_mu + J_v'W^2 J_v / 2. Fixed variance has
    no J_v.
    """
    s, i, sb, ib, sg, ig = integrate_with_sensitivities(params, spec.init, spec.T,
                                                        spec.steps_per_day)
    n = spec.init.population
    p = spec.p
    T = spec.T
    v, dv_b, dv_g, dv_s = _variance_terms(spec, sigma, i, ib, ig)
    _check_variance(v)
    r = spec.obs.values - p * (n * (s[:T] - s[1 : T + 1]))
    jac = (p * n) * np.stack((sb[:T] - sb[1 : T + 1], sg[:T] - sg[1 : T + 1]))
    wjac = jac / v
    grad, info = wjac @ r, wjac @ jac.T
    if dv_b is not None:
        jv = np.stack((dv_b, dv_g) if dv_s is None else (dv_b, dv_g, dv_s))
        pad = len(jv) - 2  # J_mu has a zero sigma column
        grad = np.pad(grad, (0, pad)) + 0.5 * (jv @ ((r * r / v - 1.0) / v))
        info = np.pad(info, (0, pad)) + 0.5 * ((jv / v**2) @ jv.T)
    return _Point(_normal_ll(r, v), float(np.dot(r, r / v)), float(np.sum(np.log(v))),
                  grad, info)


def log_likelihood(params: SirParams, sigma: float | None, spec: LikelihoodSpec) -> float:
    """Full Gaussian log-likelihood of the candidate parameters."""
    return _evaluate(params, sigma, spec).ll


def log_likelihood_gradient(params: SirParams, sigma: float | None,
                            spec: LikelihoodSpec) -> np.ndarray:
    """Gradient with respect to (beta, gamma[, sigma])."""
    return _evaluate(params, sigma, spec).grad


def fisher_information(params: SirParams, sigma: float | None,
                       spec: LikelihoodSpec) -> np.ndarray:
    """Expected information over (beta, gamma[, sigma]): the matrix fits step with.

    J = sum_k grad(mu_k) grad(mu_k)' / v_k + sum_k grad(v_k) grad(v_k)' / (2 v_k^2),
    the second sum present only when v_k depends on the parameters. It does
    not depend on the observed values.
    """
    return _evaluate(params, sigma, spec).info


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


def _free_coordinates(x, grad) -> np.ndarray:
    """Coordinates not held at a bound by a gradient pointing out of the box."""
    lo, hi = _LOG_BOUNDS
    return ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))


def _projected_grad_norm(x, grad) -> float:
    return float(np.linalg.norm(grad[_free_coordinates(x, grad)]))


def _first_order_ok(x, point: _Point) -> bool:
    return _projected_grad_norm(x, point.grad) <= _FIRST_ORDER_TOL * max(1.0, abs(point.ll))


def _model_rise(step, grad, info) -> float:
    """Rise of ll that the scoring model predicts for a step."""
    return float(step @ grad - 0.5 * step @ info @ step)


_TRIAL_ERRORS = (DegenerateParameterError, IntegrationError, DegenerateVarianceError)


def _fit_scoring(spec: LikelihoodSpec, start: SirParams) -> MleResult:
    """Levenberg-Marquardt Fisher scoring in (log beta, log gamma[, log sigma]).

    Each evaluation yields ll, its gradient g and the expected information
    F, which for fixed variance is the Gauss-Newton matrix J'WJ of the
    weighted least squares in r = y - p*delta. A step solves
    (F + lambda * d * I) step = g over the free coordinates, d being the
    largest diagonal entry of F seen so far (a scalar form of More's 1978
    scaling), and each log coordinate moves at most _MAX_LOG_STEP; lambda
    follows Nielsen's update, and a coordinate at a bound whose gradient
    points out of the box is held there. Steps are accepted and rated on the
    fall of r'Wr + sum(log v), summed as the two differences: ll adds a large
    constant whose rounding would mask the last gains, and with fixed
    variance the second difference is exactly zero. A trial that cannot be
    evaluated is a rejected step. An inferred sigma starts at its profile
    maximizer.

    The fit stops once the projected gradient passes the first-order test and
    the scoring decrement g'F^-1 g / 2 is below
    tol = _DECREMENT_TOL * max(1, |ll|). Once a step promises less than tol,
    the objective can no longer rank it against rounding, and it is accepted
    when it shrinks the projected gradient; when it does not, the fit stops
    there.
    """
    lo, hi = _LOG_BOUNDS

    def evaluate(x):
        theta = np.exp(x)
        return _evaluate(SirParams(float(theta[0]), float(theta[1])),
                         float(theta[2]) if spec.sigma_inferred else None, spec)

    x = [math.log(start.beta), math.log(start.gamma)]
    if spec.sigma_inferred:
        x.append(math.log(_profile_sigma_start(start, spec)))
    x = np.clip(x, lo, hi)
    try:
        point = evaluate(x)
    except _TRIAL_ERRORS as exc:
        raise OptimizationFailureError(f"start {start} cannot be evaluated: {exc}") from exc
    damping, growth, scale = _LM_DAMPING, 2.0, 0.0
    accepted = 0
    for _ in range(_MAX_ITERATIONS):
        theta = np.exp(x)
        grad = point.grad * theta  # log coordinates
        info = point.info * np.outer(theta, theta)
        free = _free_coordinates(x, point.grad)
        tol = _DECREMENT_TOL * max(1.0, abs(point.ll))
        g_free, info_free = grad[free], info[np.ix_(free, free)]
        try:
            if (_first_order_ok(x, point)
                    and 0.5 * g_free @ np.linalg.solve(info_free, g_free) <= tol):
                break
            scale = max(scale, float(np.max(np.diag(info))))
            step = np.zeros(len(x))
            step[free] = np.linalg.solve(info_free + damping * scale * np.eye(len(g_free)), g_free)
        except np.linalg.LinAlgError:
            break
        promised = _model_rise(step, grad, info)
        trial_x = np.clip(x + np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP), lo, hi)
        predicted = _model_rise(trial_x - x, grad, info)
        try:
            trial = evaluate(trial_x)
        except _TRIAL_ERRORS:
            trial = None
        fall = None if trial is None else (point.wrss - trial.wrss) + (point.logdet - trial.logdet)
        if trial is not None and (
                fall > 0.0
                or (promised <= tol and _projected_grad_norm(trial_x, trial.grad)
                    < _projected_grad_norm(x, point.grad))):
            gain = 0.5 * fall / predicted if predicted > 0.0 else 0.0
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
            x, point = trial_x, trial
            accepted += 1
        elif promised <= tol:
            break
        else:
            damping *= growth
            growth *= 2.0
    theta = np.exp(x)
    return MleResult(
        beta_hat=float(theta[0]),
        gamma_hat=float(theta[1]),
        sigma_hat=float(theta[2]) if spec.sigma_inferred else None,
        loglik=point.ll,
        converged=_first_order_ok(x, point),
        iterations=accepted,
        grad_norm=float(np.linalg.norm(point.grad)),
    )


def fit_mle(spec: LikelihoodSpec, starts: list[SirParams] | None = None,
            n_starts: int = 8) -> MleResult:
    """Best local maximum across multi-started ascents.

    Starts rank by (converged, loglik): a start that passed the first-order
    test beats one that did not, whatever their log-likelihoods, so a start
    stopped a rounding error above the optimum cannot displace a converged one.
    """
    if starts is None:
        starts = default_starts(spec, n_starts)
    best = None
    diagnostics = []
    for idx, start in enumerate(starts):
        try:
            result = _fit_scoring(spec, start)
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
                 n_starts: int = 2) -> MleEnsemble:
    """Replicate study of the MLE sampling distribution.

    Data for replicate r are drawn with a seed derived deterministically from
    (seed, r), so results do not depend on worker count or execution order.
    Fits default to 10 substeps per day: integration error there is orders of
    magnitude below the observation noise, and the ensemble is fit-bound.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    truth = integrate_exact(true_params, init, T)
    ys = observe_batch(truth, noise, p, T, seed, replicates)
    sigma_t = sigma_sequence(noise, truth, T)
    jobs = [
        (ys[r], sigma_t, p, noise, init, init.population, seed, r, fit_steps_per_day, n_starts)
        for r in range(replicates)
    ]
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            outcomes = pool.map(_ensemble_fit_one, jobs,
                                chunksize=max(1, len(jobs) // (4 * workers)))
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
    if len(failures) > _MAX_FAILURE_FRACTION * replicates:
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
