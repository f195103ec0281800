"""Gaussian likelihood of SIR parameters and maximum likelihood fitting.

The log-likelihood of observed daily counts y_1..y_T is the full Gaussian
log-density, normalization terms included (they matter whenever the noise
scale itself is inferred):

    ll = sum_k [ -(y_k - p*delta_k)^2 / (2 v_k) - log(2*pi*v_k) / 2 ]

with delta_k = N*(c_k - c_{k-1}) from exact integration of the candidate
parameters, c being the outflow from s that the RK4 kernel accumulates
(``sir.incidence``). It equals N*(s_{k-1} - s_k) in exact arithmetic, but
with s near 1 that difference carries a rounding floor of N*eps per count,
which the optimizer would otherwise wander on. The variance v_k follows the noise
model's law (``NoiseModel.variance``) with i_k taken from the candidate
model's own trajectory; a model without sigma makes sigma a free parameter.

Gradients come from forward sensitivities: d(s, i)/d(beta, gamma) is the
exact tangent of the RK4 state path, formed for every substep at once and
propagated by one banded solve (``_sensitivity_passes``, one lane per rate
pair), then chained through delta_k and, where the variance is
parameter-coupled, through i_k.
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
starts at twice that. ``closed_form_start`` gives one start instead, the
maximizer of the frozen-s closed form, which profiles to a 1-D search in
delta with no stepping. The starts of a fit step in lockstep, as the lanes of
one batch (``_fit_scoring``): each iteration evaluates every active start
in one batched sensitivity pass, and each start keeps its own damping,
accept/reject, bounds, stopping rule and failure, so its result is the one
it reaches fit alone. Above 10 substeps per day the starts are fit in two
levels (``_fit_start``): the walk along the ridge runs on a 10-substep grid
and a few passes on the requested grid polish its optimum; a start that
does not converge that way is also fit on the requested grid alone. Each lane
carries its own observed row, so a replicate study (``mle_ensemble``) fits
each worker's block of replicates as the lanes of one lockstep fit, every
replicate started at the optimum of their pooled series. A fit from such a
guessed start, this one or ``closed_form_start``, falls back to the default
starts where none of its starts converged (``_fit_specs``): a spec's fit is
one list of every start's outcome, and one rule (``_best``) chooses.
A sensitivity pass runs the state loop of all its lanes as one batch of the
kernel's entry (``sir._state_paths``), which picks the scalar or the lane
body by lane count, and then forms their tangents in chunks of bounded size,
so the batch's arrays stay small however many replicates it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import minimize  # noqa: F401  (perfbench/tracing.py wraps it by name)
from scipy.optimize import minimize_scalar

from ._csv import fmt, write_csv
from .errors import (
    DegenerateParameterError,
    DegenerateVarianceError,
    IntegrationError,
    OptimizationFailureError,
)
from .simulate import NoiseModel, ObservationSeries, check_variance, observe_batch
from .sir import DEFAULT_STEPS_PER_DAY, InitialCondition, SirParams, _check_guard, _state_paths
from .sir import _LANE_BODY_LANES, _STATE_GUARD, _day_grid, integrate_exact

_MAX_ITERATIONS = 500  # cap on Levenberg-Marquardt trials
_FIRST_ORDER_TOL = 1e-6  # converged: |projected gradient| <= this * max(1, |ll|)
_DECREMENT_TOL = 1e-14  # fits stop at a scoring decrement below this * max(1, |ll|)
_LM_DAMPING = 1e-3  # initial Marquardt damping of a fit
_MAX_LOG_STEP = 0.5  # longest step in any log coordinate
_MOMENT_FLOOR = 0.02  # least growth rate the moment initializer starts from
_MAX_FAILURE_FRACTION = 0.05  # mle_ensemble raises when more replicate fits than this fail
_SEARCH_STEPS_PER_DAY = 10  # finer fits search on this grid, then polish on their own
_CHUNK_LANE_SUBSTEPS = 4096  # lanes x substeps of one batch of a sensitivity pass
_STATE_LANE_SUBSTEPS = 1 << 18  # lanes x substeps of one state-loop group of that pass


def integrate_with_sensitivities(params: SirParams, init: InitialCondition,
                                 horizon: int, steps_per_day: int):
    """Day-sampled state, parameter sensitivities and cumulative outflow.

    Returns seven arrays of length horizon + 1: s, i, ds/dbeta, di/dbeta,
    ds/dgamma, di/dgamma, and c, the outflow from s since t = 0. c equals
    s0 - s in exact arithmetic but does not carry the rounding of s near 1.
    Sensitivities and c start at zero. This is the one-lane case of
    ``_sensitivity_passes``, which describes the pass.
    """
    return tuple(_one_lane(_sensitivity_passes([params], init, horizon, steps_per_day)))


def _sensitivity_passes(rates: list[SirParams], init: InitialCondition, horizon: int,
                        steps_per_day: int) -> list:
    """The sensitivity passes of many rate pairs at once, one lane per entry of ``rates``.

    Each lane's entry is the seven arrays of ``integrate_with_sensitivities``
    as the rows of one array, or the IntegrationError that lane raised; an
    error in ``rates`` is passed through as that lane's entry. The state loop
    of every valid lane runs first, as one batch of the kernel's entry
    (``sir._state_paths``, stride 1), which picks the scalar or the lane body
    by lane count; a lane that blows up there fails alone with its one-lane
    message. A batch wider than _STATE_LANE_SUBSTEPS lanes x substeps runs
    that loop in groups of that size (at least _LANE_BODY_LANES lanes each),
    so the recorded paths stay bounded however many lanes there are. The
    array half then runs in chunks of at most _CHUNK_LANE_SUBSTEPS lanes x
    substeps (at least one lane each), so its (lane, substep) arrays stay
    cache-sized; ``_sensitivity_chunk`` describes it.
    """
    spd = int(steps_per_day)
    n, h = int(horizon) * spd, 1.0 / spd
    y0 = (float(init.s0), float(init.i0))
    width = max(1, _CHUNK_LANE_SUBSTEPS // max(1, n))
    group = max(_LANE_BODY_LANES, _STATE_LANE_SUBSTEPS // max(1, n))
    outcomes = []
    for g in range(0, len(rates), group):
        block = rates[g : g + group]
        valid = [params for params in block if not isinstance(params, Exception)]
        paths = iter(_state_paths([params.beta for params in valid],
                                  [params.gamma for params in valid], y0, n, h, 1))
        states = [params if isinstance(params, Exception) else next(paths) for params in block]
        for k in range(0, len(block), width):
            outcomes += _sensitivity_chunk(block[k : k + width], states[k : k + width], h, spd)
    return outcomes


def _sensitivity_chunk(rates: list[SirParams], states: list, h: float, spd: int) -> list:
    """The array half of ``_sensitivity_passes`` for one chunk of its lanes.

    ``states`` holds each lane's state path from the kernel, (s, i, c) on
    the substep grid of size ``h`` with ``spd`` substeps a day, or the error
    that lane raised, which is passed through; c, the outflow, is the
    kernel's own. The four RK4 stages of every substep are formed again as
    (lane, substep) arrays, with the kernel's elementwise operations.
    RK4 commutes with linearization, so the sensitivities are the exact
    tangent of that discrete path: differentiating the stages gives each
    substep's z_{n+1} = M_n z_n + F_n, z = d(s, i)/d(beta, gamma), with M_n
    and F_n the step's derivatives in (s, i) and in (beta, gamma). With z_0 = 0 these
    equations form one unit lower-triangular system of bandwidth 3 in the
    interleaved unknowns, with a right-hand side per rate. The lanes sit in
    it as consecutive blocks with no coupling between blocks, and one
    ``dtbtrs`` call solves them all by plain substitution. All seven arrays
    of a lane pass the kernel's guard.

    A lane's arrays are those of its one-lane pass bit for bit: every
    operation is elementwise across lanes, and the zero coupling between
    blocks adds nothing while the tangents stay finite.
    """
    outcomes = list(states)
    lanes = [k for k, state in enumerate(states) if not isinstance(state, Exception)]
    if not lanes:
        return outcomes
    beta = np.array([[float(rates[k].beta)] for k in lanes])
    gamma = np.array([[float(rates[k].gamma)] for k in lanes])
    s, i, c = np.array([states[k] for k in lanes]).swapaxes(0, 1)  # [lane, substep]
    n = s.shape[1] - 1
    s0, i0 = s[:, :-1], i[:, :-1]
    ds, di = np.eye(4)[:2, :, None, None]  # d(s, i) by the seeds (s, i, beta, gamma)
    stages, (ss, ii, dss, dii) = [], (s0, i0, ds, di)
    for a in (0.5 * h, 0.5 * h, h, None):
        x, dx = beta * ii * ss, (beta * ii) * dss + (beta * ss) * dii
        dx[2] += ii * ss
        dk = dx - gamma * dii
        dk[3] -= ii
        stages.append((dx, dk))
        if a is not None:
            ss, ii, dss, dii = s0 - a * x, i0 + a * (x - gamma * ii), ds - a * dx, di + a * dk
    dx, dk = (h / 6.0 * (v1 + 2.0 * (v2 + v3) + v4) for v1, v2, v3, v4 in zip(*stages))
    step = np.stack((ds - dx, di + dk))  # [out, seed, lane, substep]: (M_n | F_n)
    # A in lower band storage, ab[d, j] = A[j + d, j]: in lane l's block,
    # -M_{m+1}[o, u] sits at row 2(m + 1) + o, column j = 2m + u, so on band
    # row d = 2 + o - u; the last substep of a block couples to nothing
    ab = np.zeros((4, len(lanes), n, 2))
    ab[0] = 1.0
    ab[[2, 1, 3, 2], :, :-1, [0, 1, 0, 1]] = -step[:, :2, :, 1:].reshape(4, len(lanes), -1)
    z, _ = dtbtrs(ab.reshape(4, -1), step[:, 2:].transpose(2, 3, 0, 1).reshape(-1, 2),
                  uplo="L", diag="U")
    z = z.reshape(len(lanes), n, 2, 2)[:, spd - 1 :: spd]  # [lane, day, out, rate]
    z = np.concatenate((np.zeros((len(lanes), 1, 2, 2)), z), axis=1)
    days = np.array((s[:, ::spd], i[:, ::spd], z[..., 0, 0], z[..., 1, 0], z[..., 0, 1],
                     z[..., 1, 1], c[:, ::spd])).swapaxes(0, 1)  # [lane, array, day]
    guarded = (np.abs(days) < _STATE_GUARD).all(axis=(1, 2))
    for lane, k in enumerate(lanes):
        try:
            outcomes[k] = days[lane] if guarded[lane] else _check_guard(tuple(days[lane]), spd, h)
        except IntegrationError as exc:
            outcomes[k] = exc
    return outcomes


@dataclass(frozen=True)
class LikelihoodSpec:
    """Everything the likelihood needs besides the candidate parameters.

    ``noise`` defaults to the observation series' own model. A case1, case2
    or case3 model without sigma (``noise.sigma_free``) makes the scale sigma
    a free parameter of the likelihood. The day grid (T days at
    ``steps_per_day``) is checked as every integration checks it (``sir._day_grid``).
    """

    obs: ObservationSeries
    init: InitialCondition
    noise: NoiseModel | None = None
    steps_per_day: int = DEFAULT_STEPS_PER_DAY

    def __post_init__(self):
        if self.noise is None:
            object.__setattr__(self, "noise", self.obs.noise)
        _day_grid(self.T, self.steps_per_day)
        if self.noise.kind == "known_sequence":
            self.noise.sd(self.T)  # raises unless the sequence covers every observed day

    @classmethod
    def from_values(cls, values, p: float, noise: NoiseModel, init: InitialCondition,
                    steps_per_day: int) -> "LikelihoodSpec":
        """The spec that fits the observed ``values`` at reporting rate p under
        ``noise``; the series' seed, which no fit reads, is left zero."""
        obs = ObservationSeries(values=values, reporting_rate=p, noise=noise, seed=0,
                                population=init.population)
        return cls(obs=obs, init=init, noise=noise, steps_per_day=steps_per_day)

    @property
    def T(self) -> int:
        return len(self.obs)

    @property
    def p(self) -> float:
        return self.obs.reporting_rate


def _variance_terms(spec: LikelihoodSpec, sigmas, i, ib, ig):
    """Per-day variances v_k and their Jacobians J_v over (beta, gamma[, sigma]),
    one row per lane of the day-sampled i, ib and ig.

    Where v does not depend on i (``known_sequence`` and ``case1``), dv/di
    is 0 and the (beta, gamma) rows of J_v are zeros, so fixed variance has
    J_v = 0. ``sigmas``, one per lane, are read only when the noise leaves
    sigma free. The law (``NoiseModel.variance``) takes every lane at once,
    sigma being a (lanes, 1) column, and each row keeps the bits of its
    one-lane law.
    """
    T = spec.T
    noise = spec.noise
    free = noise.sigma_free
    if free and None in sigmas:
        raise ValueError(f"sigma is required: the {noise.kind} noise leaves it to inference")
    n, ik = spec.init.population, i[:, 1 : T + 1]
    sigma = np.array(sigmas, dtype=float)[:, None] if free else None
    v, dv_di = noise.variance(n, ik, sigma)
    rows = [dv_di * ib[:, 1 : T + 1], dv_di * ig[:, 1 : T + 1]]
    if free:
        # v = sigma^2 u, u being the law at sigma = 1: dv/dsigma = 2 v / sigma = 2 u sigma
        rows.append(2.0 * noise.variance(n, ik, 1.0)[0] * sigma)
    return v, np.stack(rows, axis=1)


@dataclass(frozen=True)
class _Point:
    """One evaluation: ll, its parts r'Wr and sum(log v), and the gradient and
    expected information over (beta, gamma[, sigma])."""

    ll: float
    wrss: float
    logdet: float
    grad: np.ndarray
    info: np.ndarray


def _observed(spec: LikelihoodSpec, lanes: int) -> np.ndarray:
    """spec's observed row as the row of each of ``lanes`` lanes."""
    return np.broadcast_to(np.asarray(spec.obs.values, dtype=float), (lanes, spec.T))


def _residuals(c, y, spec: LikelihoodSpec) -> np.ndarray:
    """r = y - p*delta, with delta_k = N*(c_k - c_{k-1}) from the cumulative
    outflow c along the last axis, and y the observed row (or rows) it is scored against."""
    T = spec.T
    return y - spec.p * (spec.init.population * (c[..., 1 : T + 1] - c[..., :T]))


def _one_lane(outcomes):
    """The value of a one-lane batch, raising the error it holds instead."""
    [outcome] = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _evaluate(params: SirParams, sigma: float | None, spec: LikelihoodSpec) -> _Point:
    """ll, its exact gradient and the Fisher information from one sensitivity pass."""
    passes = _sensitivity_passes([params], spec.init, spec.T, spec.steps_per_day)
    return _one_lane(_evaluate_passes(passes, [sigma], _observed(spec, 1), spec))


def _evaluate_passes(passes, sigmas, ys, spec: LikelihoodSpec) -> list:
    """The evaluation of ``_evaluate`` for every lane from the arrays of its
    sensitivity pass and its own observed row ``ys[lane]``, or the
    DegenerateVarianceError its variance raised; an error in ``passes`` is
    passed through. The lanes share spec's init, T, steps_per_day, p and noise.

    With mu = p*delta, r = y - mu, W = 1/v, J_mu the Jacobian of mu (zero in
    sigma) and J_v that of v, the gradient is J_mu'Wr + J_v'(r^2 W^2 - W) / 2
    and the information is J_mu'W J_mu + J_v'W^2 J_v / 2. Fixed variance has
    J_v = 0, whose terms are exact zeros, so the J_mu terms keep their bits.
    The lanes are stacked on a leading axis; stacked products and sums over
    the last axis give each lane the bits of its one-lane evaluation.
    """
    T = spec.T
    lanes = [k for k, states in enumerate(passes) if not isinstance(states, Exception)]
    outcomes = list(passes)
    if not lanes:
        return outcomes
    _, i, sb, ib, sg, ig, c = np.array([passes[k] for k in lanes]).swapaxes(0, 1)
    v, jv = _variance_terms(spec, [sigmas[k] for k in lanes], i, ib, ig)
    positive = ((v > 0.0) & np.isfinite(v)).all(axis=1)
    if not positive.all():
        for lane in np.flatnonzero(~positive):
            try:
                check_variance(v[lane])
            except DegenerateVarianceError as exc:
                outcomes[lanes[lane]] = exc
        lanes = [k for k, ok in zip(lanes, positive) if ok]
        if not lanes:
            return outcomes
        sb, sg, c, v, jv = sb[positive], sg[positive], c[positive], v[positive], jv[positive]
    r = _residuals(c, ys[lanes], spec)
    jac = (spec.p * spec.init.population) * np.stack((sb[:, :T] - sb[:, 1 : T + 1],
                                                      sg[:, :T] - sg[:, 1 : T + 1]), axis=1)
    wjac = jac / v[:, None]
    grad = 0.5 * (jv @ ((r * r / v - 1.0) / v)[..., None])[..., 0]
    info = 0.5 * ((jv / (v**2)[:, None]) @ jv.transpose(0, 2, 1))
    grad[:, :2] += (wjac @ r[..., None])[..., 0]  # J_mu has a zero sigma column
    info[:, :2, :2] += wjac @ jac.transpose(0, 2, 1)
    ll = np.sum(-0.5 * r * r / v - 0.5 * np.log(2.0 * math.pi * v), axis=-1)
    wrss = (r[:, None, :] @ (r / v)[..., None])[:, 0, 0]
    logdet = np.sum(np.log(v), axis=-1)
    for k, *point in zip(lanes, ll.tolist(), wrss.tolist(), logdet.tolist(), grad, info):
        outcomes[k] = _Point(*point)
    return outcomes


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
    the second sum zero when v_k does not depend on the parameters. It does
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


def _profile_sigma_start(states, y, spec: LikelihoodSpec) -> float:
    """Closed-form sigma maximizer at the rates of the sensitivity pass
    ``states`` against the observed row y, used to seed starts:
    sigma^2 = mean(r^2 / u), u being the variance law at sigma = 1."""
    u, _ = spec.noise.variance(spec.init.population, states[1][1 : spec.T + 1], 1.0)
    if np.any(u <= 0.0):
        return 1.0
    r = _residuals(states[6], y, spec)
    s2 = float(np.mean(r * r / u))
    return max(math.sqrt(s2), 1e-6)


def default_starts(spec: LikelihoodSpec, n_starts: int = 8) -> list[SirParams]:
    """Log-spaced grid along the slope-one ridge through the moment initializer.

    Raises ValueError unless n_starts >= 1.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
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
_PROFILE_GRID = 64  # log-spaced delta points the closed-form profile is scanned on


def _frozen_profile(spec: LikelihoodSpec, log_delta):
    """The frozen-s log-likelihood at each log delta, maximized over A (and a
    free sigma), and the maximizing A: two arrays shaped like ``log_delta``.

    i_k = i0 e^{delta k}, the mean is A m_k with m_k = N i_k (1 - e^{-delta})
    and v_k = sigma^2 u_k, u_k the variance law at sigma = 1 when sigma is
    free and v_k itself otherwise. A is the weighted least-squares
    coefficient sum(y m / u) / sum(m^2 / u), and a free sigma^2 is
    mean(r^2 / u). Where that sigma^2 is zero the profile is -inf.
    """
    T, n = spec.T, spec.init.population
    noise = spec.noise
    delta = np.exp(np.asarray(log_delta, dtype=float))[..., None]
    i = spec.init.i0 * np.exp(delta * np.arange(1.0, T + 1.0))
    m = n * i * -np.expm1(-delta)
    u, _ = noise.variance(n, i, 1.0 if noise.sigma_free else None)
    y = np.asarray(spec.obs.values, dtype=float)
    amp = np.sum(m * y / u, axis=-1) / np.sum(m * m / u, axis=-1)
    q = np.sum((y - amp[..., None] * m) ** 2 / u, axis=-1)
    logu = np.broadcast_to(np.sum(np.log(2.0 * math.pi * u), axis=-1), q.shape)
    if not noise.sigma_free:
        return -0.5 * (q + logu), amp
    s2 = q / T
    positive = s2 > 0.0
    ll = -0.5 * (T + T * np.log(np.where(positive, s2, 1.0)) + logu)
    return np.where(positive, ll, -np.inf), amp


def closed_form_start(spec: LikelihoodSpec) -> SirParams | None:
    """The maximizer of the frozen-s likelihood (``sir.linearized_state``),
    or None where it gives no start.

    Its i_k depend on delta alone and its mean on A = p beta / delta besides,
    so A and a free sigma have closed-form maxima at each delta and the
    likelihood profiles to one coordinate (``_frozen_profile``). The profile
    is scanned on _PROFILE_GRID log-spaced points of the delta of _LOG_BOUNDS
    for which i0 e^{delta T} stays below the state guard, and a bounded Brent
    search in log delta refines the best bracket. Then beta = A delta / p and
    gamma = beta - delta. None when a known variance has a zero day, no delta
    has a finite profile, the best scanned delta is an end of the scan (the
    profile has no interior maximum, as with flat counts), or the maximizer
    has A <= p (so gamma <= 0). Early in an outbreak the RK4 optimum lies
    close by, on the same ridge.
    """
    noise = spec.noise
    if noise.kind == "known_sequence" and not np.all(noise.sigma_t[: spec.T] > 0.0):
        return None
    lo, hi = _LOG_BOUNDS
    hi = min(hi, math.log(math.log(_STATE_GUARD / spec.init.i0) / spec.T))
    grid = np.linspace(lo, hi, _PROFILE_GRID)
    ll, _ = _frozen_profile(spec, grid)
    best = int(np.argmax(ll))
    if not (np.isfinite(ll[best]) and 0 < best < len(grid) - 1):
        return None
    x = float(minimize_scalar(lambda x: -_frozen_profile(spec, x)[0],
                              bounds=(grid[best - 1], grid[best + 1]), method="bounded",
                              options={"xatol": 1e-12}).x)
    amp = float(_frozen_profile(spec, x)[1])
    if not amp > spec.p:
        return None
    delta = math.exp(x)
    beta = amp * delta / spec.p
    try:
        return SirParams(beta, beta - delta)
    except DegenerateParameterError:
        return None


def _rates(x) -> SirParams:
    """(beta, gamma) at x = (log delta, log gamma[, log sigma]): beta = delta + gamma."""
    delta, gamma = math.exp(x[0]), math.exp(x[1])
    return SirParams(delta + gamma, gamma)


def _rates_at(xs) -> list:
    """The rates at every row of xs, or the DegenerateParameterError they raise."""
    out = []
    for x in xs:
        try:
            out.append(_rates(x))
        except DegenerateParameterError as exc:
            out.append(exc)
    return out


def _free_coordinates(x, grad) -> np.ndarray:
    """Coordinates of x not held at a bound by a gradient over x pointing out of the box."""
    lo, hi = _LOG_BOUNDS
    return ~(((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0)))


class _Iterate(NamedTuple):
    """An evaluated x with what a scoring step reads from it, each formed once.

    ``grad`` and ``info`` are T'g and T'FT, the gradient and information over
    x. ``free`` marks the coordinates of x not held at a bound by a gradient
    over x pointing out of the box. ``projected_grad_norm`` is the norm of the
    (beta, gamma[, sigma]) gradient along the moves left free at x. Inside the
    box it is |g|. A coordinate of x held at a bound leaves (beta, gamma[,
    sigma]) free to move only in the span of the columns of T that belong to
    the free coordinates, and g is projected orthogonally on that span: with
    gamma held it is the beta component; with delta held, the component along
    the ridge direction (1, 1, 0) / sqrt(2).
    """

    x: np.ndarray
    point: _Point
    grad: np.ndarray
    info: np.ndarray
    free: np.ndarray
    projected_grad_norm: float

    @property
    def first_order_ok(self) -> bool:
        return self.projected_grad_norm <= _FIRST_ORDER_TOL * max(1.0, abs(self.point.ll))

    @property
    def decrement_tol(self) -> float:
        return _DECREMENT_TOL * max(1.0, abs(self.point.ll))


def _iterates(xs, points) -> list:
    """The _Iterate at every row of xs from its evaluation in ``points``; an
    error in ``points`` is passed through.

    T = d(beta, gamma[, sigma]) / dx at x = (log delta, log gamma[, log sigma])
    is [[delta, gamma, 0], [0, gamma, 0], [0, 0, sigma]]. The chain rule and
    the norms are stacked products over the lanes; a lane with a coordinate
    held at a bound projects its gradient alone.
    """
    lanes = [k for k, point in enumerate(points) if isinstance(point, _Point)]
    if not lanes:
        return list(points)
    xs = xs[lanes]
    grad = np.array([points[k].grad for k in lanes])
    info = np.array([points[k].info for k in lanes])
    tangent = np.zeros(info.shape)
    diag = np.arange(xs.shape[1])
    tangent[:, diag, diag] = np.exp(xs)
    tangent[:, 0, 1] = tangent[:, 1, 1]
    grad_x = (grad[:, None] @ tangent)[:, 0]
    info_x = tangent.transpose(0, 2, 1) @ info @ tangent
    free = _free_coordinates(xs, grad_x)
    norms = np.sqrt((grad[:, None] @ grad[..., None])[:, 0, 0])
    out = list(points)
    for lane, k in enumerate(lanes):
        norm = norms[lane]
        if not free[lane].all():
            norm = np.linalg.norm(grad[lane] @ np.linalg.qr(tangent[lane][:, free[lane]])[0])
        out[k] = _Iterate(xs[lane], points[k], grad_x[lane], info_x[lane], free[lane], float(norm))
    return out


def _evaluate_at(xs, ys, spec: LikelihoodSpec, passes=None) -> list:
    """The _Iterate at every row of xs, scored against the same row of ys, or
    the error that its evaluation raised.

    ``passes`` are the sensitivity passes at the rates of xs when already run.
    """
    if passes is None:
        passes = _sensitivity_passes(_rates_at(xs), spec.init, spec.T, spec.steps_per_day)
    sigmas = [math.exp(x[2]) if spec.noise.sigma_free else None for x in xs]
    return _iterates(xs, _evaluate_passes(passes, sigmas, ys, spec))


def _model_rises(steps, grad, info) -> list[float]:
    """Rise of ll that the scoring model predicts for each lane's step."""
    rises = steps[:, None] @ grad[..., None] - (0.5 * steps)[:, None] @ info @ steps[..., None]
    return rises[:, 0, 0].tolist()


def _solve(a, b):
    """Stacked solutions of a x = b, and a mask of the lanes whose a is nonsingular
    (their x is zero where it is not)."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.zeros_like(b), np.zeros(1, dtype=bool)
        xs, ok = zip(*(_solve(a[k : k + 1], b[k : k + 1]) for k in range(len(b))))
        return np.concatenate(xs), np.concatenate(ok)


@dataclass
class _Lane:
    """One start's Levenberg-Marquardt state in a lockstep fit, and the
    observed row it fits."""

    current: _Iterate
    y: np.ndarray
    damping: float = _LM_DAMPING
    growth: float = 2.0
    scale: float = 0.0
    accepted: int = 0


def _scoring_steps(lanes: list[_Lane], grad, info, free):
    """Each lane's damped scoring step over x, and which lanes stop instead.

    A lane stops when its iterate passes the first-order test and its
    scoring decrement is below its tolerance, or when a system it solves is
    singular. A coordinate held at a bound gets a zero gradient and an
    identity row and column, so all lanes solve full-size systems in one
    stack, with the bits of their systems over the free coordinates alone.
    """
    eye = np.eye(grad.shape[1])
    g = np.where(free, grad, 0.0)
    f = np.where(free[:, :, None] & free[:, None, :], info, eye)
    tested = [lane.current.first_order_ok for lane in lanes]
    solved, decrements = [True] * len(lanes), [math.inf] * len(lanes)
    if any(tested):
        sol, solved = _solve(f, g)
        decrements = ((0.5 * g)[:, None] @ sol[..., None])[:, 0, 0].tolist()
    peaks = info.diagonal(axis1=1, axis2=2).max(axis=1).tolist()
    stop, damped = [], []
    for lane, test, ok, decrement, peak in zip(lanes, tested, solved, decrements, peaks):
        stop.append(test and (not ok or decrement <= lane.current.decrement_tol))
        if not stop[-1]:
            lane.scale = max(lane.scale, peak)
        damped.append(lane.damping * lane.scale)
    sol, solved = _solve(f + np.multiply.outer(damped, eye), g)
    return np.where(free, sol, 0.0), np.array(stop) | ~solved


def _fit_scoring(spec: LikelihoodSpec, starts: list[SirParams], ys) -> list:
    """Levenberg-Marquardt Fisher scoring in x = (log delta, log gamma[, log sigma]),
    every start a lane of one lockstep fit.

    Start k fits the observed row ``ys[k]`` of the array ``ys``; the lanes
    share everything else of spec. It fits on spec's substep grid alone and
    returns, per start, its MleResult or the OptimizationFailureError of a
    start that cannot be evaluated; ``_fit_start`` runs it once, or as its
    search, polish and fallback phases above _SEARCH_STEPS_PER_DAY. Each
    iteration evaluates the trial steps of all active lanes in one batch
    (``_sensitivity_passes``, ``_evaluate_passes``, ``_iterates``), whose
    lanes keep the bits of one-lane evaluations. Every lane keeps its own
    damping, growth, scale, accept/reject, bounds, stopping rule and
    failure, and leaves the batch when it stops, so a start's result does
    not depend on the other lanes.

    The data pin down the growth rate delta = beta - gamma and leave gamma
    on a flat slope-one ridge. In these coordinates the ridge runs along the
    log gamma axis, and beta = delta + gamma keeps delta > 0, so no trial
    step can cross the delta -> 0 edge. Each evaluation yields ll, its
    gradient g and the expected information F over theta = (beta, gamma[,
    sigma]); for fixed variance F is the Gauss-Newton matrix J'WJ of the
    weighted least squares in r = y - p*delta_k. The chain rule takes them
    to x as T'g and T'FT, T = d(theta)/dx, formed once per evaluation with
    the bound bookkeeping (``_Iterate``). A step solves
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

    A lane stops once the projected gradient passes the first-order test and
    the scoring decrement g'F^-1 g / 2, the same in any coordinates, is below
    tol = _DECREMENT_TOL * max(1, |ll|). The first-order test is on the theta
    gradient, projected at a bound as ``_Iterate`` describes. Once a step
    promises less than tol, the objective can no longer rank it against
    rounding, and it is accepted when it shrinks the projected gradient; when
    it does not, the lane stops there. Each lane makes at most
    _MAX_ITERATIONS trials.
    """
    lo, hi = _LOG_BOUNDS
    infer_sigma = spec.noise.sigma_free
    xs = np.clip([[math.log(start.delta()), math.log(start.gamma)] for start in starts], lo, hi)
    passes = _sensitivity_passes(_rates_at(xs), spec.init, spec.T, spec.steps_per_day)
    if infer_sigma:
        logs = [0.0 if isinstance(states, Exception) else
                math.log(_profile_sigma_start(states, y, spec)) for states, y in zip(passes, ys)]
        xs = np.column_stack((xs, np.clip(logs, lo, hi)))
    first = _evaluate_at(xs, ys, spec, passes)
    lanes = [_Lane(it, y) if isinstance(it, _Iterate) else None for it, y in zip(first, ys)]
    active = [lane for lane in lanes if lane is not None]
    for _ in range(_MAX_ITERATIONS):
        if not active:
            break
        xs, _, grads, infos, frees, _ = zip(*(lane.current for lane in active))
        x, grad, info, free = map(np.array, (xs, grads, infos, frees))
        steps, stop = _scoring_steps(active, grad, info, free)
        if stop.all():
            break
        promised = _model_rises(steps, grad, info)
        trial_x = np.clip(x + np.clip(steps, -_MAX_LOG_STEP, _MAX_LOG_STEP), lo, hi)
        predicted = _model_rises(trial_x - x, grad, info)
        moving = np.flatnonzero(~stop)
        still = []
        trial_ys = np.array([active[k].y for k in moving])
        for k, trial in zip(moving, _evaluate_at(trial_x[moving], trial_ys, spec)):
            lane = active[k]
            current, tol = lane.current, lane.current.decrement_tol
            if isinstance(trial, _Iterate):
                fall = ((current.point.wrss - trial.point.wrss)
                        + (current.point.logdet - trial.point.logdet))
            if isinstance(trial, _Iterate) and (
                    fall > 0.0
                    or (promised[k] <= tol
                        and trial.projected_grad_norm < current.projected_grad_norm)):
                gain = 0.5 * fall / predicted[k] if predicted[k] > 0.0 else 0.0
                lane.damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                lane.growth = 2.0
                lane.current = trial
                lane.accepted += 1
            elif promised[k] <= tol:
                continue
            else:
                lane.damping *= lane.growth
                lane.growth *= 2.0
            still.append(lane)
        active = still
    results = []
    for start, lane, it in zip(starts, lanes, first):
        if lane is None:
            results.append(OptimizationFailureError(f"start {start} cannot be evaluated: {it}"))
            continue
        x, point = lane.current.x, lane.current.point
        rates = _rates(x)
        results.append(MleResult(
            beta_hat=rates.beta,
            gamma_hat=rates.gamma,
            sigma_hat=math.exp(x[2]) if infer_sigma else None,
            loglik=point.ll,
            converged=lane.current.first_order_ok,
            iterations=lane.accepted,
            grad_norm=float(np.linalg.norm(point.grad)),
        ))
    return results


def _best(outcomes: list):
    """The first MleResult of highest (converged, loglik) in ``outcomes``, each
    an MleResult or the error of a fit that failed; the last outcome when none
    is an MleResult.

    A fit that passed the first-order test beats one that did not, whatever
    their log-likelihoods, so a fit stopped a rounding error above the
    optimum cannot displace a converged one.
    """
    results = [outcome for outcome in outcomes if isinstance(outcome, MleResult)]
    return max(results, key=lambda r: (r.converged, r.loglik)) if results else outcomes[-1]


def _converged(outcome) -> bool:
    """Whether a fit's outcome is an MleResult that passed the first-order
    test: the one rule by which a fit falls back (``_fit_start``, ``_fit_specs``)."""
    return isinstance(outcome, MleResult) and outcome.converged


def _fit_start(spec: LikelihoodSpec, starts: list[SirParams], ys) -> list:
    """Every start's fit on spec's grid, searched on the _SEARCH_STEPS_PER_DAY
    grid: per start, its MleResult or the OptimizationFailureError it ended in.
    Start k fits the observed row ``ys[k]`` as ``_fit_scoring`` does.

    A fit at no more substeps than that is one lockstep ``_fit_scoring``. A
    finer one runs each start in two levels, as lockstep phases over the
    starts: the search fits every start on the coarse grid, and the polish
    fits every searched start on spec's grid from its search optimum, with
    the same stopping rule, so a result is always an optimum of spec's grid.
    A polished start's ``iterations`` count the accepted steps of both. The
    fallback then fits every start that did not converge (``_converged``:
    its search or polish failed, or its polish ended unconverged) on spec's
    grid from the start itself, and its result is the better of the two by
    ``_best``, the polish on a tie. After a failed search that is the
    full-grid fit, or that fit's own error.
    """
    if spec.steps_per_day <= _SEARCH_STEPS_PER_DAY:
        return _fit_scoring(spec, starts, ys)
    results = _fit_scoring(replace(spec, steps_per_day=_SEARCH_STEPS_PER_DAY), starts, ys)
    searched = [k for k, search in enumerate(results) if isinstance(search, MleResult)]
    if searched:
        polishes = _fit_scoring(spec, [results[k].params() for k in searched], ys[searched])
        for k, polish in zip(searched, polishes):
            results[k] = (replace(polish, iterations=results[k].iterations + polish.iterations)
                          if isinstance(polish, MleResult) else polish)
    redo = [k for k, result in enumerate(results) if not _converged(result)]
    if redo:
        for k, refit in zip(redo, _fit_scoring(spec, [starts[k] for k in redo], ys[redo])):
            results[k] = _best([results[k], refit])
    return results


class StartFit(NamedTuple):
    """How one start of a multi-started fit ended: its ``result``, or the
    ``error`` message of a start that failed."""

    start: SirParams
    result: MleResult | None
    error: str | None = None


def fit_starts(spec: LikelihoodSpec, starts: list[SirParams] | None = None,
               n_starts: int = 8) -> list[StartFit]:
    """Every start's fit, in the order of ``starts`` (``default_starts`` when None).

    The starts step together as the lanes of one lockstep fit
    (``_fit_start``), and each start's result is the one it reaches fit alone.
    Raises ValueError when ``starts`` is empty.
    """
    if starts is None:
        starts = default_starts(spec, n_starts)
    if not starts:
        raise ValueError("starts must hold at least one start")
    return _fit_rows([spec], [starts])[0]


def _fit_rows(specs: list[LikelihoodSpec], starts: list[list[SirParams]]) -> list:
    """``fit_starts(specs[k], starts[k])`` for every k, all starts of all
    specs the lanes of one lockstep fit (``_fit_start``).

    The specs differ in their observed rows alone; each lane fits its own
    spec's row, so every entry is what ``fit_starts`` gives that spec alone.
    A spec with no starts adds no lanes and gets an empty list.
    """
    owners = [k for k, own in enumerate(starts) for _ in own]
    flat = [start for own in starts for start in own]
    ys = np.array([np.asarray(specs[k].obs.values, dtype=float) for k in owners])
    fits = [[] for _ in specs]
    for k, start, result in zip(owners, flat, _fit_start(specs[0], flat, ys) if flat else []):
        fits[k].append(StartFit(start, result) if isinstance(result, MleResult)
                       else StartFit(start, None, str(result)))
    return fits


def best_fit(fits: list[StartFit]) -> MleResult:
    """The best result of ``fits`` by ``_best``: converged first, then
    loglik, the earliest start on a tie. Raises OptimizationFailureError,
    with every start's failure, when all failed.
    """
    best = _best([fit.result for fit in fits]) if fits else None
    if best is None:
        raise OptimizationFailureError("all optimizer starts failed", diagnostics=[
            f"start {idx} ({fit.start.beta:.4g}, {fit.start.gamma:.4g}): {fit.error}"
            for idx, fit in enumerate(fits) if fit.result is None])
    return best


def _fit_specs(specs: list[LikelihoodSpec], starts: list[list[SirParams]],
               n_starts: int) -> list:
    """Per spec, every start's StartFit: those of its own ``starts[k]``, then,
    where none of them converged (``_converged``, the rule ``_fit_start``
    falls back by), those of ``default_starts(specs[k], n_starts)``.

    A guessed start can stall short of the spec's own optimum, as on the
    delta -> 0 edge of uninformative data, so a spec whose own starts all
    fail, end unconverged or are missing is fit again from its default
    starts. Each round is one lockstep fit over its specs (``_fit_rows``),
    which must differ in their observed rows alone. ``best_fit`` over a
    spec's list chooses its fit; a spec with no starts thus gets exactly
    ``fit_mle(specs[k], n_starts=n_starts)``'s outcome.
    """
    fits = _fit_rows(specs, starts)
    redo = [k for k, own in enumerate(fits) if not any(_converged(fit.result) for fit in own)]
    if redo:
        refits = _fit_rows([specs[k] for k in redo], [default_starts(specs[k], n_starts)
                                                       for k in redo])
        for k, more in zip(redo, refits):
            fits[k] += more
    return fits


def fit_mle(spec: LikelihoodSpec, starts: list[SirParams] | None = None,
            n_starts: int = 8) -> MleResult:
    """Best local maximum across multi-started ascents: ``best_fit(fit_starts(...))``.

    The starts step in lockstep, one batched sensitivity pass per iteration
    for all of them. Above _SEARCH_STEPS_PER_DAY substeps per day, most of
    the walk along the ridge runs on that coarser grid and a few passes on
    spec's grid polish it (``_fit_start``).
    """
    return best_fit(fit_starts(spec, starts, n_starts))


@dataclass(frozen=True)
class MleEnsemble:
    """Replicate fits against independently simulated data sets.

    ``indices[k]`` is the replicate number of ``replicates[k]``; failed
    replicates are listed in ``failures`` instead.
    """

    replicates: list[MleResult]
    indices: list[int]
    failures: list[tuple[int, str]]

    def betas(self) -> np.ndarray:
        return np.array([r.beta_hat for r in self.replicates])

    def gammas(self) -> np.ndarray:
        return np.array([r.gamma_hat for r in self.replicates])

    def r0s(self) -> np.ndarray:
        return np.array([r.r0_hat for r in self.replicates])

    def deltas(self) -> np.ndarray:
        return np.array([r.delta_hat for r in self.replicates])

    def slope_beta_on_gamma(self) -> float | None:
        """OLS slope of beta_hat regressed on gamma_hat; None when the
        gamma_hat have no spread, as with one replicate."""
        g = self.gammas()
        b = self.betas()
        gc = g - g.mean()
        spread = np.dot(gc, gc)
        return float(np.dot(gc, b - b.mean()) / spread) if spread > 0.0 else None

    def r0_range(self) -> tuple[float, float]:
        r = self.r0s()
        return float(r.min()), float(r.max())


def _fit_replicates(job) -> list:
    """Each replicate of a block fit as ``mle_ensemble`` describes, as the lanes
    of one lockstep fit: per replicate, (its MleResult, None) or (None, its
    failure's message and every start's reason), in the order of the block."""
    specs, pooled, n_starts = job
    warm = [[pooled] + (default_starts(spec, n_starts - 1) if n_starts > 1 else [])
            for spec in specs]
    outcomes = []
    for fits in _fit_specs(specs, warm, n_starts):
        try:
            outcomes.append((best_fit(fits), None))
        except OptimizationFailureError as exc:
            outcomes.append((None, exc.detail()))
    return outcomes


def mle_ensemble(true_params: SirParams, init: InitialCondition, noise: NoiseModel,
                 p: float, T: int, replicates: int, seed: int,
                 workers: int = 1, fit_steps_per_day: int = 10,
                 n_starts: int = 2) -> MleEnsemble:
    """Replicate study of the MLE sampling distribution.

    Data for replicate r are drawn with a seed derived deterministically from
    (seed, r). The replicates are split into ``workers`` contiguous blocks,
    one per worker process, and each block is fit as the lanes of one
    lockstep fit whose lanes are (replicate, start) pairs; every replicate's
    result, or failure message, is what ``fit_mle`` gives it alone by the
    rules below, so results do not depend on the worker count.

    The pooled series, the mean of the replicate rows, is fit first under
    the replicates' noise model with each sd divided by sqrt(replicates),
    which is the exact law of the mean; its fit uses ``default_starts`` with
    ``n_starts`` starts and raises OptimizationFailureError when it fails.
    Every replicate then starts at the pooled optimum, about one Cramer-Rao
    sd from its own, plus ``n_starts - 1`` starts of its own
    ``default_starts``, so ``n_starts`` counts the starts of each replicate.
    A replicate none of whose warm starts converged is fit again from its own
    ``default_starts(n_starts)``, and its result is the best of all its
    starts by fit_mle's rule (converged first, then log-likelihood, the
    earliest start on a tie); the refits of a block run as one more lockstep
    fit (``_fit_specs``).

    The pooled fit is paid once per study, and a replicate started near its
    own optimum needs fewer steps than from its default starts alone, so the
    saving grows with the replicate count. A replicate whose warm-started fit
    fails or stops unconverged, as can happen at very small noise, pays for
    both fits. Costs count lane-passes, one per lane of a sensitivity pass;
    they do not depend on the worker count. The lanes of a block share each
    batched pass, so a block takes as many batched passes as its slowest
    lane, plus those of its refits. On the benchmark design (T = 120, sd
    sqrt(100 N), 5 substeps per day, seed 1) with 4 replicates and 2 starts,
    the study needs 134 lane-passes against 201 for fitting every replicate
    from its own default starts.

    Fits default to 10 substeps per day, and the ensemble is fit-bound. At
    the acceptance design (N = 1e7, T = 120, sd sqrt(100 N)) halving the
    step moves the daily incidence by at most 2.2e-7 sd at 5 substeps per
    day and 1.4e-8 sd at 10 (tests/test_inference.py).
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _day_grid(T, fit_steps_per_day)
    truth = integrate_exact(true_params, init, T)
    ys = observe_batch(truth, noise, p, T, seed, replicates)
    root = math.sqrt(replicates)
    pooled_noise = (NoiseModel.known(noise.sigma_t / root) if noise.kind == "known_sequence"
                    else NoiseModel(kind=noise.kind, sigma=noise.sigma / root))
    pooled_spec = LikelihoodSpec.from_values(ys.mean(axis=0), p, pooled_noise, init,
                                             fit_steps_per_day)
    try:
        pooled = fit_mle(pooled_spec, n_starts=n_starts).params()
    except OptimizationFailureError as exc:
        raise OptimizationFailureError(
            f"the pooled fit of {replicates} replicates failed: {exc}",
            diagnostics=exc.diagnostics,
        ) from exc
    specs = [LikelihoodSpec.from_values(ys[r], p, noise, init, fit_steps_per_day)
             for r in range(replicates)]
    blocks = min(workers, replicates)
    edges = [b * replicates // blocks for b in range(blocks + 1)]
    jobs = [(specs[lo:hi], pooled, n_starts) for lo, hi in zip(edges, edges[1:])]
    if blocks > 1:
        import multiprocessing as mp

        with mp.Pool(blocks) as pool:
            outcomes = pool.map(_fit_replicates, jobs)
    else:
        outcomes = [_fit_replicates(job) for job in jobs]
    results = []
    indices = []
    failures = []
    for index, (result, message) in enumerate(outcome for block in outcomes for outcome in block):
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
    return MleEnsemble(replicates=results, indices=indices, failures=failures)


def write_ensemble_csv(ensemble: MleEnsemble, path) -> None:
    write_csv(path, "replicate,beta_hat,gamma_hat,sigma_hat,loglik,converged", (
        f"{idx},{fmt(r.beta_hat)},{fmt(r.gamma_hat)},{fmt(r.sigma_hat)},{fmt(r.loglik)},"
        f"{int(r.converged)}"
        for idx, r in zip(ensemble.indices, ensemble.replicates)
    ))
