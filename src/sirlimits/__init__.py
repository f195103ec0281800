"""Practical identifiability limits of the SIR epidemic model.

The package integrates SIR dynamics, quantifies how little nearby parameter
pairs separate trajectories before the epidemic peak, fits parameters by
maximum likelihood from noisy daily counts, and evaluates the power of
likelihood-ratio tests between nearby parameter values, both exactly and in
closed form.
"""

__version__ = "0.1.0"

from .data import CaseData, load_cases, load_nyc_fixture, nyc_fixture_path
from .errors import SirLimitsError
from .inference import (
    LikelihoodSpec,
    MleEnsemble,
    MleResult,
    StartFit,
    best_fit,
    fisher_information,
    fit_mle,
    fit_starts,
    log_likelihood,
    log_likelihood_gradient,
    mle_ensemble,
)
from .lrt import (
    EmpiricalRate,
    GammaTestResult,
    LrtDecision,
    PowerResult,
    TestSpec,
    empirical_type1,
    empirical_type2,
    epsilon_for_power,
    gamma_test_power,
    lrt_decide,
    lrt_threshold,
    power_grid,
    power_summary,
    type2_approx,
    type2_exact,
    worst_case_direction,
)
from .nyc import FittedBand, SweepRow, fitted_band, reporting_rate_sweep
from .perturb import (
    ApproximationErrorSeries,
    ErrorFit,
    Perturbation,
    Separations,
    approximation_error,
    error_fit,
    lower_bound,
    reference_grid,
    separation_sweep,
    theoretical_error_bound,
)
from .simulate import NoiseModel, ObservationSeries, observe, sigma_sequence
from .sir import (
    EpidemicSummary,
    InitialCondition,
    SirParams,
    Trajectory,
    epidemic_summary,
    incidence,
    integrate_exact,
    integrate_linearized,
    peak_time,
    peak_time_for,
)

__all__ = [name for name in dir() if not name.startswith("_")]
