"""Real-data case study: fitting reported daily cases across reporting rates.

The first day of the series anchors the model clock (one observed case, one
initial infection: s0 = 1 - 1/N, i0 = 1/N) and the remaining counts are the
observations y_1..y_T. The noise is the case3 law, per-day variance
N * i_k * sigma^2 taken from the candidate model's own trajectory, with sigma
inferred jointly with the rates. Because beta and the reporting rate p are
not jointly identifiable, p is fixed per fit and swept over a grid instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._csv import fmt, write_csv
from .data import CaseData
from .errors import OptimizationFailureError
from .inference import LikelihoodSpec, MleResult, default_starts, fit_mle
from .simulate import NoiseModel, ObservationSeries, sigma_sequence
from .sir import DEFAULT_STEPS_PER_DAY, InitialCondition, incidence, integrate_exact


def nyc_likelihood_spec(data: CaseData, p: float,
                        steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> LikelihoodSpec:
    """Likelihood specification for a case-count series at reporting rate p."""
    counts = np.asarray(data.counts, dtype=float)
    if len(counts) < 2:
        raise ValueError("need at least two daily counts (day zero plus one observation)")
    noise = NoiseModel(kind="case3", sigma=None)
    obs = ObservationSeries(
        values=counts[1:],
        reporting_rate=p,
        noise=noise,
        seed=0,
        sigma_t=np.zeros(len(counts) - 1),
        population=data.population,
    )
    return LikelihoodSpec(
        obs=obs,
        init=InitialCondition.from_population(data.population),
        noise=noise,
        steps_per_day=steps_per_day,
    )


@dataclass(frozen=True)
class SweepRow:
    """One reporting rate's fit, or the error that prevented it."""

    p: float
    beta_hat: float | None
    gamma_hat: float | None
    sigma_hat: float | None
    r0_hat: float | None
    loglik: float | None
    converged: bool
    error: str | None = None


def reporting_rate_sweep(data: CaseData, p_values, n_starts: int = 8,
                         steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> list[SweepRow]:
    """Fit the model once per reporting rate; failures are recorded in-table.

    Each fit is warm-started with the previous rate's optimum in addition to
    the standard multi-start grid, which keeps the sweep on one likelihood
    branch as p varies.
    """
    rows: list[SweepRow] = []
    previous: MleResult | None = None
    for p in p_values:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"reporting rate must lie in (0, 1], got {p}")
        spec = nyc_likelihood_spec(data, float(p), steps_per_day)
        starts = default_starts(spec, n_starts)
        if previous is not None:
            starts = [previous.params()] + starts
        try:
            fit = fit_mle(spec, starts=starts)
        except OptimizationFailureError as exc:
            rows.append(SweepRow(p=float(p), beta_hat=None, gamma_hat=None,
                                 sigma_hat=None, r0_hat=None, loglik=None,
                                 converged=False, error=str(exc)))
            continue
        rows.append(SweepRow(
            p=float(p),
            beta_hat=fit.beta_hat,
            gamma_hat=fit.gamma_hat,
            sigma_hat=fit.sigma_hat,
            r0_hat=fit.r0_hat,
            loglik=fit.loglik,
            converged=fit.converged,
        ))
        previous = fit
    return rows


@dataclass(frozen=True)
class FittedBand:
    """Fitted mean observations with a central predictive band."""

    days: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float


def fitted_band(data: CaseData, fit: MleResult, p: float, level: float = 0.95,
                steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> FittedBand:
    """Per-day fitted mean p*N*(s_{k-1}-s_k) with mean +/- z * sigma * sqrt(N i_k)."""
    if not fit.converged:
        raise OptimizationFailureError("refusing to draw a band from a non-converged fit")
    if fit.sigma_hat is None:
        raise ValueError("fit has no sigma estimate; the band width is undefined")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    T = len(data) - 1
    n = data.population
    traj = integrate_exact(fit.params(), InitialCondition.from_population(n), T, steps_per_day)
    mean = p * incidence(traj)
    z = ndtri(0.5 * (1.0 + level))
    half = z * sigma_sequence(NoiseModel(kind="case3", sigma=fit.sigma_hat), traj)
    return FittedBand(
        days=np.arange(1.0, T + 1.0),
        mean=mean,
        lower=mean - half,
        upper=mean + half,
        level=level,
    )


def write_nyc_table_csv(rows: list[SweepRow], path) -> None:
    write_csv(path, "p,beta_hat,gamma_hat,sigma_hat,r0_hat,loglik,converged,error", (
        f"{fmt(row.p)},{fmt(row.beta_hat)},{fmt(row.gamma_hat)},{fmt(row.sigma_hat)},"
        f"{fmt(row.r0_hat)},{fmt(row.loglik)},{int(row.converged)},"
        + (row.error.replace(",", ";").replace("\n", " ") if row.error else "")
        for row in rows
    ))
