"""Independent reference for the benchmark's checks.

Nothing here calls sirlimits. The SIR equations are solved with scipy's
adaptive DOP853 at tight tolerances, in the cumulative-infection variable
c = 1 - s so that the small early incidences keep their relative accuracy,
and Gaussian log-densities come from ``scipy.stats.norm``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy
from scipy.integrate import solve_ivp

# scipy.stats is reached as an attribute of scipy, which imports it on first
# use: the set-up the benchmark times imports only what the program needs.

RTOL = 1e-12


def _solve(rhs, y0, horizon, t_eval=None, events=None):
    sol = solve_ivp(rhs, (0.0, float(horizon)), y0, method="DOP853", rtol=RTOL,
                    atol=1e-30, t_eval=t_eval, events=events)
    if sol.status == -1:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol


def cumulative(betas, gammas, population, horizon):
    """Cumulative infections c = 1 - s and prevalence i at days 0..horizon.

    Starts from one infection in ``population``. Returns two arrays of shape
    (horizon + 1, len(betas)). All parameter sets are solved as one system,
    so the step size suits the most demanding one.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    m = betas.size

    def rhs(_t, y):
        c, i = y[:m], y[m:]
        x = betas * i * (1.0 - c)
        return np.concatenate([x, x - gammas * i])

    days = np.arange(int(horizon) + 1, dtype=float)
    sol = _solve(rhs, np.full(2 * m, 1.0 / population), horizon, t_eval=days)
    return sol.y[:m].T, sol.y[m:].T


def peak_time(beta, gamma, population):
    """Time at which i peaks, i.e. s falls to gamma / beta."""
    i0 = 1.0 / population
    target = 1.0 - gamma / beta

    def rhs(_t, y):
        x = beta * y[1] * (1.0 - y[0])
        return [x, x - gamma * y[1]]

    def crossing(_t, y):
        return y[0] - target

    crossing.terminal = True
    sol = _solve(rhs, [i0, i0], 100_000.0, events=crossing)
    if not sol.t_events[0].size:
        raise RuntimeError("reference found no peak")
    return float(sol.t_events[0][0])


def incidence_jacobian(beta, gamma, population, horizon):
    """Derivatives of the incidences on days 1..horizon in (beta, gamma), shape (T, 2).

    Integrates the forward sensitivity equations of (c, i) alongside the state.
    """

    def rhs(_t, y):
        c, i, cb, ib, cg, ig = y
        s = 1.0 - c
        x = beta * i * s
        xb = i * s + beta * (ib * s - i * cb)
        xg = beta * (ig * s - i * cg)
        return [x, x - gamma * i, xb, xb - gamma * ib, xg, xg - i - gamma * ig]

    i0 = 1.0 / population
    days = np.arange(int(horizon) + 1, dtype=float)
    sol = _solve(rhs, [i0, i0, 0.0, 0.0, 0.0, 0.0], horizon, t_eval=days)
    return population * np.stack([np.diff(sol.y[2]), np.diff(sol.y[4])], axis=1)


def loglik(y, mean, sd):
    """Sum of Gaussian log-densities of y under N(mean, sd^2)."""
    return float(np.sum(scipy.stats.norm.logpdf(y, loc=mean, scale=sd)))


def case2_profile(y, p, inc, i_days, population):
    """sigma^2 maximising the case-2 likelihood at fixed rates, and that maximum.

    With sd_k = sigma * sqrt(N * i_k), the maximiser is mean(r^2 / (N * i_k)).
    ``inc`` and ``i_days`` may carry a trailing axis of parameter sets.
    """
    y = np.asarray(y, dtype=float).reshape(-1, *([1] * (np.ndim(inc) - 1)))
    scale = population * i_days
    r = y - p * inc
    sigma2 = np.mean(r * r / scale, axis=0)
    ll = np.sum(scipy.stats.norm.logpdf(y, loc=p * inc, scale=np.sqrt(sigma2 * scale)), axis=0)
    return sigma2, ll


def type2(alpha, v):
    """Type II error of the level-alpha likelihood-ratio test with signal-to-noise v."""
    return float(scipy.stats.norm.sf(scipy.stats.norm.ppf(alpha) + math.sqrt(v)))


def frozen_s_separation(beta, gamma, eps, omegas, i0, days):
    """Distance between perturbed and base frozen-s flows, shape (days, angles)."""
    t = np.asarray(days, dtype=float)[:, None]
    omegas = np.asarray(omegas, dtype=float)[None, :]
    delta = beta - gamma
    f = np.cos(omegas) - np.sin(omegas)
    beta_e = beta + eps * np.cos(omegas)
    delta_e = delta + eps * f
    grow = np.exp(delta * t)
    shift = np.exp(eps * f * t)
    ds = (beta_e / delta_e - beta / delta + (beta / delta - beta_e / delta_e * shift) * grow) * i0
    di = (shift - 1.0) * grow * i0
    return np.hypot(ds, di)


def frozen_s_error_bound(beta, gamma, eps, omegas, i0, days):
    """A-priori ceiling on |exact - frozen-s separation|, shape (days, angles)."""
    t = np.asarray(days, dtype=float)[:, None]
    omegas = np.asarray(omegas, dtype=float)[None, :]
    delta = beta - gamma
    beta_e = beta + eps * np.cos(omegas)
    gamma_e = gamma + eps * np.sin(omegas)
    delta_e = beta_e - gamma_e
    pert = np.sqrt(2.0 * beta_e**2 + gamma_e**2) / delta_e * np.expm1(delta_e * t)
    base = math.sqrt(2.0 * beta**2 + gamma**2) / delta * np.expm1(delta * t)
    return (pert + base) * i0
