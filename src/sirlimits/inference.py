"""Gaussian likelihood of SIR parameters and maximum likelihood fitting.

The log-likelihood of observed daily counts y_1..y_T is the full Gaussian
log-density, normalization terms included (they matter whenever the noise
scale itself is inferred):

    ll = sum_k [ -(y_k - p*delta_k)^2 / (2 v_k) - log(2*pi*v_k) / 2 ]

with delta_k = N*(c_k - c_{k-1}) from exact integration of the candidate
parameters, c being the outflow from s that the sensitivity pass
accumulates. It equals N*(s_{k-1} - s_k) in exact arithmetic, but with s near
1 that difference carries a rounding floor of N*eps per count, which the
optimizer would otherwise wander on. The variance v_k follows the
observation noise model; when ``sigma_inferred`` is set the per-day variance
is N * i_k * sigma^2 with i_k taken from the candidate model's own
trajectory (fully coupled).

Gradients come from forward sensitivities: the SIR system is augmented with
d(s, i)/d(beta) and d(s, i)/d(gamma) and integrated together, then chained
through delta_k and, where the variance is parameter-coupled, through i_k.
The same pass gives the expected (Fisher) information
J_mu'V^-1 J_mu + J_v'V^-2 J_v / 2 over (beta, gamma[, sigma]), J_mu and J_v
being the Jacobians of the mean p*delta_k and of v_k; ``fisher_information``
returns it. Every noise model is fit by Levenberg-Marquardt Fisher scoring
in ridge coordinates (log delta, log gamma[, log sigma]) with
beta = delta + gamma: the data pin down the growth rate delta and leave a
flat slope-one ridge along gamma, and positivity, delta > 0 included, needs
no constraints. When v_k does not depend on the parameters (``known_sequence``
and ``case1`` noise) the information is the Gauss-Newton matrix of a weighted
least-squares fit. Fits are multi-started from a moment-based initializer:
the growth rate delta is read off a regression of log y_t on t and beta
starts at twice that. A replicate study (``mle_ensemble``) also starts every
replicate at the optimum of its pooled series.
"""

from __future__ import annotations

import contextlib
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
    """Day-sampled state, parameter sensitivities and cumulative outflow.

    Returns seven arrays of length horizon + 1: s, i, ds/dbeta, di/dbeta,
    ds/dgamma, di/dgamma, and c, the outflow from s since t = 0. c equals
    s0 - s in exact arithmetic but does not carry the rounding of s near 1
    (``sir._rk4``). Sensitivities and c start at zero.
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


def _residuals(c, spec: LikelihoodSpec) -> np.ndarray:
    """r = y - p*delta, with delta_k = N*(c_k - c_{k-1}) from the cumulative outflow."""
    T = spec.T
    return spec.obs.values - spec.p * (spec.init.population * (c[1 : T + 1] - c[:T]))


def _evaluate(params: SirParams, sigma: float | None, spec: LikelihoodSpec) -> _Point:
    """ll, its exact gradient and the Fisher information from one sensitivity pass."""
    return _evaluate_pass(integrate_with_sensitivities(params, spec.init, spec.T,
                                                       spec.steps_per_day), sigma, spec)


def _evaluate_pass(states, sigma: float | None, spec: LikelihoodSpec) -> _Point:
    """The evaluation of ``_evaluate`` from the arrays of its sensitivity pass.

    With mu = p*delta, r = y - mu, W = 1/v, J_mu the Jacobian of mu (zero in
    sigma) and J_v that of v, the gradient is J_mu'Wr + J_v'(r^2 W^2 - W) / 2
    and the information is J_mu'W J_mu + J_v'W^2 J_v / 2. Fixed variance has
    no J_v.
    """
    _, i, sb, ib, sg, ig, c = states
    T = spec.T
    v, dv_b, dv_g, dv_s = _variance_terms(spec, sigma, i, ib, ig)
    _check_variance(v)
    r = _residuals(c, spec)
    jac = (spec.p * spec.init.population) * np.stack((sb[:T] - sb[1 : T + 1],
                                                      sg[:T] - sg[1 : T + 1]))
    wjac = jac / v
    if dv_b is None:
        grad, info = wjac @ r, wjac @ jac.T
    else:
        jv = np.stack((dv_b, dv_g) if dv_s is None else (dv_b, dv_g, dv_s))
        grad = 0.5 * (jv @ ((r * r / v - 1.0) / v))
        info = 0.5 * ((jv / v**2) @ jv.T)
        grad[:2] += wjac @ r  # J_mu has a zero sigma column
        info[:2, :2] += wjac @ jac.T
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


def _profile_sigma_start(states, spec: LikelihoodSpec) -> float:
    """Closed-form sigma maximizer at the rates of the sensitivity pass
    ``states``, used to seed starts."""
    n = spec.init.population
    ik = states[1][1 : spec.T + 1]
    if np.any(ik <= 0.0):
        return 1.0
    r = _residuals(states[6], spec)
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


_LOG_BOUNDS = (math.log(1e-6), math.log(500.0))  # on delta, gamma and sigma


def _rates(x) -> SirParams:
    """(beta, gamma) at x = (log delta, log gamma[, log sigma]): beta = delta + gamma."""
    delta, gamma = math.exp(x[0]), math.exp(x[1])
    return SirParams(delta + gamma, gamma)


def _tangent(x) -> np.ndarray:
    """T = d(beta, gamma[, sigma]) / dx at x = (log delta, log gamma[, log sigma]).

    T = [[delta, gamma, 0], [0, gamma, 0], [0, 0, sigma]].
    """
    tangent = np.diag(np.exp(x))
    tangent[0, 1] = tangent[1, 1]
    return tangent


def _free_coordinates(x, grad) -> np.ndarray:
    """Coordinates of x not held at a bound by a gradient over x pointing out of the box."""
    lo, hi = _LOG_BOUNDS
    return ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))


def _projected_grad_norm(x, point: _Point) -> float:
    """Norm of the (beta, gamma[, sigma]) gradient along the moves left free at x.

    Inside the box it is |grad|. A coordinate of x held at a bound leaves
    (beta, gamma[, sigma]) free to move only in the span of the columns of T
    that belong to the free coordinates, and the gradient is projected
    orthogonally on that span: with gamma held it is the beta component; with
    delta held, the component along the ridge direction (1, 1, 0) / sqrt(2).
    """
    tangent = _tangent(x)
    free = _free_coordinates(x, point.grad @ tangent)
    if free.all():
        return float(np.linalg.norm(point.grad))
    basis = np.linalg.qr(tangent[:, free])[0]
    return float(np.linalg.norm(point.grad @ basis))


def _first_order_ok(x, point: _Point) -> bool:
    return _projected_grad_norm(x, point) <= _FIRST_ORDER_TOL * max(1.0, abs(point.ll))


def _model_rise(step, grad, info) -> float:
    """Rise of ll that the scoring model predicts for a step."""
    return float(step @ grad - 0.5 * step @ info @ step)


_TRIAL_ERRORS = (DegenerateParameterError, IntegrationError, DegenerateVarianceError)


def _fit_scoring(spec: LikelihoodSpec, start: SirParams) -> MleResult:
    """Levenberg-Marquardt Fisher scoring in x = (log delta, log gamma[, log sigma]).

    The data pin down the growth rate delta = beta - gamma and leave gamma on
    a flat slope-one ridge. In these coordinates the ridge runs along the
    log gamma axis, and beta = delta + gamma keeps delta > 0, so no trial
    step can cross the delta -> 0 edge. Each evaluation yields ll, its
    gradient g and the expected information F over theta = (beta, gamma[,
    sigma]); for fixed variance F is the Gauss-Newton matrix J'WJ of the
    weighted least squares in r = y - p*delta_k. The chain rule takes them to
    x as T'g and T'FT, T = d(theta)/dx (``_tangent``). A step solves
    (T'FT + lambda * d * I) step = T'g over the free coordinates, d being the
    largest diagonal entry of T'FT seen so far (a scalar form of More's 1978
    scaling), and each coordinate of x moves at most _MAX_LOG_STEP; lambda
    follows Nielsen's update. Every coordinate of x stays within _LOG_BOUNDS,
    and one at a bound whose gradient T'g points out of the box is held there.
    Steps are accepted and rated on the fall of r'Wr + sum(log v), summed as
    the two differences: ll adds a large constant whose rounding would mask
    the last gains, and with fixed variance the second difference is exactly
    zero. The incidence delta_k comes from the kernel's cumulative outflow,
    so ll carries no rounding floor of N*eps per count for steps to be
    accepted on. A trial that cannot be evaluated is a rejected step. An
    inferred sigma starts at its profile maximizer, read from the sensitivity
    pass that also gives the first evaluation.

    The fit stops once the projected gradient passes the first-order test and
    the scoring decrement g'F^-1 g / 2, the same in any coordinates, is below
    tol = _DECREMENT_TOL * max(1, |ll|). The first-order test is on the theta
    gradient, projected at a bound as ``_projected_grad_norm`` describes. Once
    a step promises less than tol, the objective can no longer rank it
    against rounding, and it is accepted when it shrinks the projected
    gradient; when it does not, the fit stops there.
    """
    lo, hi = _LOG_BOUNDS
    x = np.clip([math.log(start.delta()), math.log(start.gamma)], lo, hi)
    sigma = None
    try:
        states = integrate_with_sensitivities(_rates(x), spec.init, spec.T, spec.steps_per_day)
        if spec.sigma_inferred:
            x = np.append(x, np.clip(math.log(_profile_sigma_start(states, spec)), lo, hi))
            sigma = math.exp(x[2])
        point = _evaluate_pass(states, sigma, spec)
    except _TRIAL_ERRORS as exc:
        raise OptimizationFailureError(f"start {start} cannot be evaluated: {exc}") from exc

    def evaluate(x):
        return _evaluate(_rates(x), math.exp(x[2]) if spec.sigma_inferred else None, spec)

    damping, growth, scale = _LM_DAMPING, 2.0, 0.0
    accepted = 0
    for _ in range(_MAX_ITERATIONS):
        tangent = _tangent(x)
        grad = point.grad @ tangent
        info = tangent.T @ point.info @ tangent
        free = _free_coordinates(x, grad)
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
                or (promised <= tol and _projected_grad_norm(trial_x, trial)
                    < _projected_grad_norm(x, point))):
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
    rates = _rates(x)
    return MleResult(
        beta_hat=rates.beta,
        gamma_hat=rates.gamma,
        sigma_hat=math.exp(x[2]) if spec.sigma_inferred else None,
        loglik=point.ll,
        converged=_first_order_ok(x, point),
        iterations=accepted,
        grad_norm=float(np.linalg.norm(point.grad)),
    )


def _rank(result: MleResult):
    return result.converged, result.loglik


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
        if best is None or _rank(result) > _rank(best):
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


def _ensemble_spec(y, sigma_t, p, noise, init, seed, steps_per_day) -> LikelihoodSpec:
    obs = ObservationSeries(values=y, reporting_rate=p, noise=noise, seed=seed,
                            sigma_t=sigma_t, population=init.population)
    return LikelihoodSpec(obs=obs, init=init, noise=noise, steps_per_day=steps_per_day)


def _ensemble_fit_one(job):
    index, spec, pooled, n_starts = job
    warm = [pooled] + (default_starts(spec, n_starts - 1) if n_starts > 1 else [])
    try:
        fit = fit_mle(spec, warm)
    except OptimizationFailureError as exc:
        return index, None, str(exc)
    if not fit.converged:
        # A warm start can stall short of the replicate's own optimum, as on
        # the delta -> 0 edge of uninformative data; the replicate's own
        # default starts then get their turn.
        with contextlib.suppress(OptimizationFailureError):
            fit = max(fit, fit_mle(spec, n_starts=n_starts), key=_rank)
    return index, fit, None


def mle_ensemble(true_params: SirParams, init: InitialCondition, noise: NoiseModel,
                 p: float, T: int, replicates: int, seed: int,
                 workers: int = 1, fit_steps_per_day: int = 10,
                 n_starts: int = 2) -> MleEnsemble:
    """Replicate study of the MLE sampling distribution.

    Data for replicate r are drawn with a seed derived deterministically from
    (seed, r), so results do not depend on worker count or execution order.

    The pooled series, the mean of the replicate rows, is fit first under
    the replicates' noise model with each sd divided by sqrt(replicates),
    which is the exact law of the mean; its fit uses ``default_starts`` with
    ``n_starts`` starts and raises OptimizationFailureError when it fails.
    Every replicate then starts at the pooled optimum, about one Cramer-Rao
    sd from its own, plus ``n_starts - 1`` starts of its own
    ``default_starts``, so ``n_starts`` counts the starts of each replicate.
    A replicate whose warm-started fit ends unconverged is fit again from
    its own ``default_starts(n_starts)`` and keeps the better result by
    fit_mle's rule (converged first, then log-likelihood).

    The pooled fit is paid once per study, so the saving grows with the
    replicate count. On the benchmark design (T = 120, sd sqrt(100 N), 5
    substeps per day) the whole study needs 11 sensitivity integrations
    against 10 for fitting every replicate from its own starts at 1
    replicate and 1 start, 60 against 49 at 1 replicate and 2 starts, 22
    against 20 and 76 against 93 at 2 replicates, and 35 against 41 and 126
    against 189 at 4. A replicate whose warm-started fit stops unconverged,
    as can happen at very small noise, pays for both fits: at sd 1e-3 (T =
    40, 3 replicates, 2 starts) the study needs 170 against 127, one
    replicate being fit twice.

    Fits default to 10 substeps per day, and the ensemble is fit-bound. At
    the acceptance design (N = 1e7, T = 120, sd sqrt(100 N)) halving the
    step moves the daily incidence by at most 2.2e-7 sd at 5 substeps per
    day and 1.4e-8 sd at 10 (tests/test_inference.py).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    truth = integrate_exact(true_params, init, T)
    ys = observe_batch(truth, noise, p, T, seed, replicates)
    sigma_t = sigma_sequence(noise, truth, T)
    root = math.sqrt(replicates)
    pooled_noise = (NoiseModel.known(noise.sigma_t / root) if noise.kind == "known_sequence"
                    else NoiseModel(kind=noise.kind, sigma=noise.sigma / root))
    pooled_spec = _ensemble_spec(ys.mean(axis=0), sigma_t / root, p, pooled_noise, init, seed,
                                 fit_steps_per_day)
    try:
        pooled = fit_mle(pooled_spec, n_starts=n_starts).params()
    except OptimizationFailureError as exc:
        raise OptimizationFailureError(
            f"the pooled fit of {replicates} replicates failed: {exc}",
            diagnostics=exc.diagnostics,
        ) from exc
    jobs = [
        (r, _ensemble_spec(ys[r], sigma_t, p, noise, init, seed, fit_steps_per_day),
         pooled, n_starts)
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
