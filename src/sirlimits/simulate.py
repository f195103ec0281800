"""Noisy daily observations of an epidemic trajectory.

Observations follow Y_t = p * delta_t + xi_t with xi_t ~ N(0, sigma_t^2),
where delta_t is the expected new-infection count on day t and p the
reporting rate. Four variance structures are supported:

* known_sequence -- explicit per-day standard deviations;
* case1          -- sigma_t = N * sigma, proportional to population;
* case2          -- sigma_t = N * sigma * i_t, proportional to infections;
* case3          -- sigma_t = sigma * sqrt(N * i_t).

Gaussian draws come from the counter-based Philox generator keyed by the
series seed, so replicate r / day t is independent of iteration order and
identical output is guaranteed for identical seeds, across runs and worker
counts. Observations are deliberately left unrounded and may be negative:
the likelihood machinery treats Y_t as continuous.

``write_observations_csv`` writes a series as a ``t,y`` table whose t runs
1..T, the format the ``fit`` experiment reads back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csv import fmt, write_csv, write_json
from .errors import DegenerateVarianceError, InsufficientDataError
from .sir import Trajectory, incidence

_KINDS = ("known_sequence", "case1", "case2", "case3")


@dataclass(frozen=True)
class NoiseModel:
    """Variance specification for the observation model."""

    kind: str
    sigma: float | None = None
    sigma_t: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"noise kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "known_sequence":
            if self.sigma_t is None:
                raise ValueError("known_sequence noise needs an explicit sigma_t array")
            arr = np.array(self.sigma_t, dtype=float)  # a copy, so the checks below keep holding
            if not np.all((arr >= 0.0) & (arr < np.inf)):
                raise ValueError("known_sequence standard deviations must be finite and >= 0")
            arr.setflags(write=False)
            object.__setattr__(self, "sigma_t", arr)
        elif self.kind == "case1":
            if self.sigma is not None and not 0.0 < self.sigma < 1.0:
                raise ValueError(f"case1 needs sigma in (0, 1), got {self.sigma}")
        elif self.sigma is not None and not 0.0 < self.sigma < np.inf:
            raise ValueError(f"{self.kind} needs a finite sigma > 0, got {self.sigma}")

    @property
    def sigma_free(self) -> bool:
        """Whether sigma is left to inference: a case1, case2 or case3 model without sigma."""
        return self.kind != "known_sequence" and self.sigma is None

    def variance(self, n: int, i, sigma=None):
        """Per-day variance v and dv/di over the days of i, its last axis, for
        population n and infected fractions i.

        ``sigma`` defaults to the model's own and may be a (lanes, 1) column
        against (lanes, days) rows of i: every operation is an elementwise
        product or square, so each row has the bits of its one-lane law. A
        known sequence gives its sds squared, broadcast to i's shape, and
        dv/di = 0.
        """
        if self.kind == "known_sequence":
            return np.broadcast_to(self.sd(np.shape(i)[-1]) ** 2, np.shape(i)), 0.0
        if sigma is None:
            sigma = self.sigma
        if self.kind == "case1":
            return np.full(np.shape(i), (n * sigma) ** 2), 0.0
        if self.kind == "case2":
            return (n * sigma * i) ** 2, 2.0 * (n * sigma) ** 2 * i
        return n * i * sigma**2, n * sigma**2

    def sd(self, T: int) -> np.ndarray:
        """A known sequence's first T standard deviations; InsufficientDataError
        when it has fewer."""
        if len(self.sigma_t) < T:
            raise InsufficientDataError(f"known_sequence provides {len(self.sigma_t)} days, need {T}")
        return self.sigma_t[:T]

    @classmethod
    def known(cls, sigma_t) -> "NoiseModel":
        return cls(kind="known_sequence", sigma_t=np.asarray(sigma_t, dtype=float))

    @classmethod
    def case1(cls, sigma: float) -> "NoiseModel":
        return cls(kind="case1", sigma=float(sigma))

    @classmethod
    def case2(cls, sigma: float) -> "NoiseModel":
        return cls(kind="case2", sigma=float(sigma))


def check_reporting_rate(p: float) -> None:
    """Raise ValueError unless the reporting rate p lies in (0, 1]."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"reporting rate must lie in (0, 1], got {p}")


def check_variance(v) -> None:
    """Raise DegenerateVarianceError unless every day's variance is positive and finite."""
    if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~(v > 0.0) | ~np.isfinite(v))[0]) + 1
        raise DegenerateVarianceError(f"variance must be positive; day {bad} has v = {v[bad - 1]}")


def sigma_sequence(noise: NoiseModel, traj: Trajectory, T: int) -> np.ndarray:
    """Per-day standard deviations sigma_1..sigma_T for the given trajectory:
    a known sequence's own first T sds, else the square root of the noise
    model's variance (``NoiseModel.variance``) along the trajectory.

    Raises InsufficientDataError unless 1 <= T <= the trajectory's horizon:
    the one check of T that ``observe`` and ``observe_batch`` rely on.
    """
    horizon = traj.horizon
    if T < 1 or T > horizon:
        raise InsufficientDataError(f"T must lie in [1, {horizon}], got {T}")
    if noise.kind == "known_sequence":
        return noise.sd(T)
    if noise.sigma is None:
        raise DegenerateVarianceError(f"{noise.kind} noise has no sigma; it was left to inference")
    v, _ = noise.variance(traj.init.population, traj.i[1 : T + 1])
    check_variance(v)
    return np.sqrt(v)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def replicate_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic per-replicate seed, independent of execution order."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(index,))


def replicate_normals(seed: int, replicates: int, T: int) -> np.ndarray:
    """A (replicates, T) array of standard normals; row r is drawn from replicate_seed(seed, r)."""
    return np.array([
        np.random.Generator(np.random.Philox(replicate_seed(seed, r))).standard_normal(T)
        for r in range(replicates)
    ]).reshape(replicates, T)


@dataclass(frozen=True)
class ObservationSeries:
    """Observed counts Y_1..Y_T plus everything needed to reproduce them."""

    values: np.ndarray
    reporting_rate: float
    noise: NoiseModel
    seed: int
    population: int

    def __post_init__(self):
        check_reporting_rate(self.reporting_rate)

    def __len__(self) -> int:
        return len(self.values)


def observe(traj: Trajectory, noise: NoiseModel, p: float, T: int, seed: int) -> ObservationSeries:
    """Draw one noisy series of daily observations from a trajectory."""
    sig = sigma_sequence(noise, traj, T)
    mean = p * incidence(traj)[:T]
    z = _generator(int(seed)).standard_normal(T)
    return ObservationSeries(
        values=mean + sig * z,
        reporting_rate=p,
        noise=noise,
        seed=int(seed),
        population=traj.init.population,
    )


def observe_batch(traj: Trajectory, noise: NoiseModel, p: float, T: int,
                  seed: int, replicates: int) -> np.ndarray:
    """Matrix of ``replicates`` observation rows: p * incidence + sigma_t times
    the normals of ``replicate_normals(seed, replicates, T)``.

    Row r draws from replicate_seed(seed, r), a stream of its own; it is not
    the series ``observe`` draws for any seed, which comes from SeedSequence(seed).
    """
    sig = sigma_sequence(noise, traj, T)
    mean = p * incidence(traj)[:T]
    return mean + sig * replicate_normals(seed, replicates, T)


def write_observations_csv(obs: ObservationSeries, path, sidecar_path) -> None:
    """The series as a ``t,y`` table, t running 1..T, and its reporting rate,
    noise, population and seed as JSON at ``sidecar_path``."""
    write_csv(path, "t,y", (f"{t},{fmt(y)}" for t, y in enumerate(obs.values, start=1)))
    write_json(sidecar_path, {
        "reporting_rate": obs.reporting_rate,
        "noise_kind": obs.noise.kind,
        "sigma": obs.noise.sigma,
        "population": obs.population,
        "seed": obs.seed,
    })
