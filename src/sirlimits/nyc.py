"""Real-data case study: fitting reported daily cases across reporting rates.

The first day of the series anchors the model clock (one observed case, one
initial infection: s0 = 1 - 1/N, i0 = 1/N) and the remaining counts are the
observations y_1..y_T. The noise is the case3 law, per-day variance
N * i_k * sigma^2 taken from the candidate model's own trajectory, with sigma
inferred jointly with the rates. Because beta and the reporting rate p are
not jointly identifiable, p is fixed per fit and swept over a grid instead.

Each p is fit from one start, the maximizer of the frozen-s closed form
(``inference.closed_form_start``), and falls back to the default multi-start
fit only when that start is missing or its fit fails or ends unconverged,
by the rule that every guessed start of the package follows
(``inference._fit_specs``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._csv import fmt, write_csv
from .data import CaseData
from .errors import InsufficientDataError, OptimizationFailureError
from .inference import LikelihoodSpec, MleResult, _fit_specs, best_fit, closed_form_start
from .simulate import NoiseModel, sigma_sequence
from .sir import DEFAULT_STEPS_PER_DAY, InitialCondition, incidence, integrate_exact


def nyc_likelihood_spec(data: CaseData, p: float,
                        steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> LikelihoodSpec:
    """Likelihood specification for a case-count series at reporting rate p."""
    counts = np.asarray(data.counts, dtype=float)
    if len(counts) < 2:
        raise InsufficientDataError("need at least two daily counts (day zero plus one observation)")
    return LikelihoodSpec.from_values(counts[1:], p, NoiseModel(kind="case3", sigma=None),
                                      InitialCondition.from_population(data.population),
                                      steps_per_day)


@dataclass(frozen=True)
class SweepRow:
    """One reporting rate's fit: its MleResult, or None and the ``error`` that
    prevented it, with every start's reason when all of them failed."""

    p: float
    fit: MleResult | None
    error: str | None = None


def reporting_rate_sweep(data: CaseData, p_values, n_starts: int = 8,
                         steps_per_day: int = DEFAULT_STEPS_PER_DAY) -> list[SweepRow]:
    """Fit the model once per reporting rate; failures are recorded in-table.

    Each p is fit from one start, the frozen-s closed-form optimum
    (``closed_form_start``). In that regime p enters only through
    A = p * beta / delta, so every p's start lies on one curve, delta and A
    fixed and r0 = A / (A - p), and the early-outbreak RK4 optimum lies close
    to it. Where there is no closed-form start, or its fit fails or ends
    unconverged, the p is also fit from its default starts
    (``inference._fit_specs``) and the row holds the best of every start's
    fit (``best_fit``): what ``fit_mle(spec, n_starts=n_starts)`` gives when
    the closed-form fit does no better. ``n_starts`` sizes that fallback
    alone. Every p and ``n_starts`` are checked before the first fit.
    """
    specs = [nyc_likelihood_spec(data, float(p), steps_per_day) for p in p_values]
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    rows: list[SweepRow] = []
    for spec in specs:
        start = closed_form_start(spec)
        [fits] = _fit_specs([spec], [[] if start is None else [start]], n_starts)
        try:
            rows.append(SweepRow(spec.p, best_fit(fits)))
        except OptimizationFailureError as exc:
            rows.append(SweepRow(spec.p, None, exc.detail()))
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
    """Per-day fitted mean p*N*(c_k - c_{k-1}) (``sir.incidence``) with
    mean +/- z * sigma * sqrt(N i_k).

    The series' T, initial condition and reporting rate are read from the
    spec its fit scores (``nyc_likelihood_spec``), so the band refuses what
    that spec refuses: fewer than two counts, or p outside (0, 1].
    """
    if not fit.converged:
        raise OptimizationFailureError("refusing to draw a band from a non-converged fit")
    if fit.sigma_hat is None:
        raise ValueError("fit has no sigma estimate; the band width is undefined")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    spec = nyc_likelihood_spec(data, p, steps_per_day)
    traj = integrate_exact(fit.params(), spec.init, spec.T, spec.steps_per_day)
    mean = spec.p * incidence(traj)
    z = ndtri(0.5 * (1.0 + level))
    half = z * sigma_sequence(NoiseModel(kind="case3", sigma=fit.sigma_hat), traj, spec.T)
    return FittedBand(
        days=np.arange(1.0, spec.T + 1.0),
        mean=mean,
        lower=mean - half,
        upper=mean + half,
        level=level,
    )


def write_nyc_table_csv(rows: list[SweepRow], path) -> None:
    """One line per row; a failed fit leaves its cells empty, converged 0, and
    its error with commas and newlines replaced."""
    write_csv(path, "p,beta_hat,gamma_hat,sigma_hat,r0_hat,loglik,converged,error", (
        f"{fmt(row.p)},"
        + (",,,,,0," if row.fit is None else
           f"{fmt(row.fit.beta_hat)},{fmt(row.fit.gamma_hat)},{fmt(row.fit.sigma_hat)},"
           f"{fmt(row.fit.r0_hat)},{fmt(row.fit.loglik)},{int(row.fit.converged)},")
        + (row.error.replace(",", ";").replace("\n", " ") if row.error else "")
        for row in rows
    ))
