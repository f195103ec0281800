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
Fits run in log coordinates, so positivity needs no constraints. The noise
model picks the optimizer. When v_k does not depend on the rates
(``known_sequence`` and ``case1`` noise, sigma not inferred) the fit is
weighted least squares, the sensitivities are its Jacobian, and
Levenberg-Marquardt over (log beta, log gamma) solves it. When it does
(``case2``, sigma fixed or inferred) the fit is quasi-Newton (L-BFGS-B) over
(log beta, log gamma[, log sigma]). Both are multi-started from a
moment-based initializer: the growth rate delta is read off a regression of
log y_t on t and beta starts at twice that.
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
_GRADIENT_TOL = 1e-8  # L-BFGS-B projected-gradient tolerance
_MAX_ITERATIONS = 500  # cap on L-BFGS-B iterations and on Levenberg-Marquardt trials
_FIRST_ORDER_TOL = 1e-6  # converged: |projected gradient| <= this * max(1, |ll|)
_DECREMENT_TOL = 1e-14  # least-squares fits stop at a Gauss-Newton decrement below this * max(1, |ll|)
_LM_DAMPING = 1e-3  # initial Marquardt damping of a least-squares fit
_MAX_LOG_STEP = 0.5  # longest least-squares step in either log rate
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

    @property
    def fixed_variance(self) -> bool:
        """True when v_k does not depend on the rates: the fit is weighted least squares."""
        return not self.sigma_inferred and self.noise.kind in ("known_sequence", "case1")


def _variance_terms(spec: LikelihoodSpec, sigma, i_days, ib, ig):
    """Per-day variance v_k and its parameter derivatives (dv/db, dv/dg, dv/dsigma).

    Fixed-variance specs need no trajectory: ``i_days`` may then be None.
    """
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
    _check_variance(v)
    r = y - p * delta
    ll = _normal_ll(r, v)
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


@dataclass(frozen=True)
class _LsqPoint:
    """One evaluation of a fixed-variance fit: log rates, ll, r'Wr, and the
    gradient J'Wr and Gauss-Newton matrix J'WJ in (beta, gamma)."""

    x: np.ndarray
    ll: float
    wrss: float
    grad: np.ndarray
    gn: np.ndarray


def _least_squares_point(x, spec: LikelihoodSpec, v) -> _LsqPoint:
    theta = np.exp(x)
    params = SirParams(float(theta[0]), float(theta[1]))
    s, _, sb, _, sg, _ = integrate_with_sensitivities(params, spec.init, spec.T,
                                                      spec.steps_per_day)
    n = spec.init.population
    p = spec.p
    T = spec.T
    r = spec.obs.values - p * (n * (s[:T] - s[1 : T + 1]))
    jac = (p * n) * np.stack((sb[:T] - sb[1 : T + 1], sg[:T] - sg[1 : T + 1]))
    wjac = jac / v
    return _LsqPoint(x, _normal_ll(r, v), float(np.dot(r, r / v)), wjac @ r, wjac @ jac.T)


def _free_coordinates(point: _LsqPoint) -> np.ndarray:
    """Coordinates not held at a bound by a gradient pointing out of the box."""
    lo, hi = _LOG_BOUNDS
    x, grad = point.x, point.grad
    return ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))


def _projected_grad_norm(point: _LsqPoint) -> float:
    return float(np.linalg.norm(point.grad[_free_coordinates(point)]))


def _first_order_ok(point: _LsqPoint) -> bool:
    return _projected_grad_norm(point) <= _FIRST_ORDER_TOL * max(1.0, abs(point.ll))


def _model_rise(step, grad, gn) -> float:
    """Rise of ll that the Gauss-Newton model predicts for a step."""
    return float(step @ grad - 0.5 * step @ gn @ step)


_TRIAL_ERRORS = (DegenerateParameterError, IntegrationError, DegenerateVarianceError)


def _fit_least_squares(spec: LikelihoodSpec, start: SirParams) -> MleResult:
    """Levenberg-Marquardt in (log beta, log gamma) for a fixed-variance spec.

    With v fixed, ll = -r'Wr / 2 + const for r = y - p*delta and W = 1/v, and
    the sensitivities give the Jacobian J of p*delta, so each evaluation
    yields the gradient g = J'Wr and the Gauss-Newton matrix H = J'WJ. A step
    solves (H + lambda * d * I) step = g over the free coordinates, d being
    the largest diagonal entry of H seen so far (a scalar form of More's 1978
    scaling), and each log rate moves at most _MAX_LOG_STEP; lambda follows
    Nielsen's update, and a coordinate at a bound whose gradient points out
    of the box is held there. A step is accepted when r'Wr falls: ll adds a
    large constant whose rounding would mask the last gains. A trial that
    cannot be evaluated is a rejected step.

    The fit stops once the projected gradient passes the first-order test and
    the Gauss-Newton decrement g'H^-1 g / 2 is below
    tol = _DECREMENT_TOL * max(1, |ll|). Once a step promises less than tol,
    r'Wr can no longer rank it against rounding, and it is accepted when it
    shrinks the projected gradient; when it does not, the fit stops there.
    """
    lo, hi = _LOG_BOUNDS
    x = np.clip([math.log(start.beta), math.log(start.gamma)], lo, hi)
    try:
        v = _variance_terms(spec, None, None, None, None)[0]
        _check_variance(v)
        point = _least_squares_point(x, spec, v)
    except _TRIAL_ERRORS as exc:
        raise OptimizationFailureError(f"start {start} cannot be evaluated: {exc}") from exc
    damping, growth, scale = _LM_DAMPING, 2.0, 0.0
    accepted = 0
    for _ in range(_MAX_ITERATIONS):
        theta = np.exp(point.x)
        grad = point.grad * theta  # log coordinates
        gn = point.gn * np.outer(theta, theta)
        free = _free_coordinates(point)
        tol = _DECREMENT_TOL * max(1.0, abs(point.ll))
        g_free, gn_free = grad[free], gn[np.ix_(free, free)]
        try:
            if (_first_order_ok(point)
                    and 0.5 * g_free @ np.linalg.solve(gn_free, g_free) <= tol):
                break
            scale = max(scale, float(np.max(np.diag(gn))))
            step = np.zeros(2)
            step[free] = np.linalg.solve(gn_free + damping * scale * np.eye(len(g_free)), g_free)
        except np.linalg.LinAlgError:
            break
        promised = _model_rise(step, grad, gn)
        trial_x = np.clip(point.x + np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP), lo, hi)
        predicted = _model_rise(trial_x - point.x, grad, gn)
        try:
            trial = _least_squares_point(trial_x, spec, v)
        except _TRIAL_ERRORS:
            trial = None
        if trial is not None and (
                trial.wrss < point.wrss
                or (promised <= tol and _projected_grad_norm(trial) < _projected_grad_norm(point))):
            gain = 0.5 * (point.wrss - trial.wrss) / predicted if predicted > 0.0 else 0.0
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
            point = trial
            accepted += 1
        elif promised <= tol:
            break
        else:
            damping *= growth
            growth *= 2.0
    beta, gamma = np.exp(point.x)
    return MleResult(
        beta_hat=float(beta),
        gamma_hat=float(gamma),
        sigma_hat=None,
        loglik=point.ll,
        converged=_first_order_ok(point),
        iterations=accepted,
        grad_norm=float(np.linalg.norm(point.grad)),
    )


def _fit_quasi_newton(spec: LikelihoodSpec, start: SirParams, sigma_start: float | None):
    """L-BFGS-B in (log beta, log gamma[, log sigma]) for rate-dependent variance."""
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
        except _TRIAL_ERRORS:
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
    converged = bool(res.success) or grad_norm <= _FIRST_ORDER_TOL * max(1.0, abs(float(res.fun)))
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
        sig0 = _profile_sigma_start(start, spec) if spec.sigma_inferred else None
        try:
            if spec.fixed_variance:
                result = _fit_least_squares(spec, start)
            else:
                result = _fit_quasi_newton(spec, start, sig0)
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
