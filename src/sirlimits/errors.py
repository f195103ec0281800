"""Exception taxonomy shared across the package.

Every failure mode raised by library code derives from SirLimitsError so
callers (and the CLI) can distinguish domain errors from programming bugs.
"""


class SirLimitsError(Exception):
    """Base class for all errors raised by sirlimits."""


class DegenerateParameterError(SirLimitsError):
    """Parameters violate delta = beta - gamma > 0 (or another hard invariant)."""


class IntegrationError(SirLimitsError):
    """The ODE solver produced a non-finite state."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class InsufficientDataError(SirLimitsError):
    """An operation received fewer samples than it needs."""


class HorizonTooShortError(SirLimitsError):
    """The trajectory does not extend far enough for the requested quantity.

    ``required`` carries a hint (in days) for how far to extend, when known.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class HorizonPastPeakError(SirLimitsError, ValueError):
    """A test horizon T reaches the null peak time; the test is defined only before it."""


class PerturbationTooLargeError(SirLimitsError):
    """Perturbation magnitude incompatible with delta > 0."""


class FitDegenerateError(SirLimitsError):
    """A least-squares fit has too few usable points."""


class DegenerateVarianceError(SirLimitsError):
    """An observation variance is zero or negative where positivity is required."""


class OptimizationFailureError(SirLimitsError):
    """Every optimizer start failed; carries per-start diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class IndistinguishableHypothesesError(SirLimitsError):
    """Null and alternative produce identical observation distributions."""


class NoDetectablePerturbationError(SirLimitsError):
    """Requested power target is unattainable (implied perturbation size <= 0)."""


class CaseDataError(SirLimitsError):
    """Raised when a case-count file fails validation.

    ``code`` is a stable machine-readable tag: malformed-csv, missing-column,
    bad-date, negative-count, duplicate-date, missing-date, empty-series.
    """

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class ConfigError(SirLimitsError):
    """Experiment configuration failed schema validation."""
