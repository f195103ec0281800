"""Declarative experiment configurations for the command-line driver.

A configuration is a JSON document with an ``experiment`` name plus the
blocks that experiment needs. Validation is strict: unknown keys anywhere are
rejected, so typos fail loudly instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateParameterError
from .simulate import NoiseModel
from .sir import InitialCondition, SirParams

# experiment name -> (required keys, optional keys)
_SCHEMA = {
    "simulate": ({"params", "population", "horizon", "noise", "p", "T"}, {"steps_per_day"}),
    "sweep-directions": ({"params", "population", "epsilon", "horizon"}, {"n_angles", "steps_per_day"}),
    "error-fit": ({"params", "population", "epsilon", "horizon"}, {"steps_per_day"}),
    "fit": ({"observations", "population", "p", "noise"}, {"steps_per_day", "n_starts"}),
    "ensemble": ({"params", "population", "noise", "p", "T", "replicates"},
                 {"fit_steps_per_day", "n_starts"}),
    "power": ({"params", "population", "noise", "alpha", "T", "p", "omegas", "epsilons"},
              {"sigmas", "steps_per_day"}),
    "power-empirical": ({"params", "population", "noise", "alpha", "T", "p", "omegas", "epsilons",
                         "replicates"}, {"sigmas", "steps_per_day"}),
    "epsilon-invert": ({"targets"}, set()),
    "nyc-table": ({"p_values"}, {"data", "population", "n_starts", "steps_per_day"}),
}

EXPERIMENTS = tuple(_SCHEMA)

_COMMON_KEYS = {"experiment", "seed", "threads"}

# keys that count days, substeps, starts, angles or workers
_COUNT_KEYS = ("threads", "horizon", "T", "steps_per_day", "fit_steps_per_day", "n_starts", "n_angles")

_TARGET_KEYS = {"target_type2", "alpha", "sigma", "p", "T", "delta"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration: the experiment name plus its raw blocks."""

    experiment: str
    raw: dict
    seed: int
    threads: int

    def get(self, key, default=None):
        return self.raw.get(key, default)


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def parse_params(block) -> SirParams:
    if not isinstance(block, dict):
        raise ConfigError("params must be an object with beta and gamma")
    _check_keys(block, {"beta", "gamma"}, "params")
    try:
        return SirParams(float(block["beta"]), float(block["gamma"]))
    except KeyError as exc:
        raise ConfigError(f"params is missing {exc}") from exc
    except (TypeError, ValueError, DegenerateParameterError) as exc:
        raise ConfigError(f"params: {exc}") from exc


def parse_noise(block) -> NoiseModel:
    if not isinstance(block, dict):
        raise ConfigError("noise must be an object with a kind")
    _check_keys(block, {"kind", "sigma", "sigma_t"}, "noise")
    kind = block.get("kind")
    try:
        if kind == "known_sequence":
            if "sigma_t" not in block:
                raise ConfigError("known_sequence noise needs sigma_t")
            return NoiseModel.known(np.asarray(block["sigma_t"], dtype=float))
        if kind in ("case1", "case2", "case3"):
            sigma = block.get("sigma")
            return NoiseModel(kind=kind, sigma=None if sigma is None else float(sigma))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"noise: {exc}") from exc
    raise ConfigError(f"noise kind must be known_sequence, case1, case2 or case3, got {kind!r}")


def parse_init(config: ExperimentConfig) -> InitialCondition:
    population = config.get("population")
    if population is None:
        raise ConfigError("population is required")
    return InitialCondition.from_population(int(population))


def _check_count(value, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")


def _check_rate(value, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value <= 1.0:
        raise ConfigError(f"{where} must lie in (0, 1], got {value!r}")


def _check_positive(value, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < np.inf:
        raise ConfigError(f"{where} must be finite and > 0, got {value!r}")


def _check_alpha(value, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 < value < 1.0:
        raise ConfigError(f"{where} must lie in (0, 1), got {value!r}")


def validate_config(raw: dict, experiment: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    name = raw.get("experiment", experiment)
    if name is None:
        raise ConfigError("configuration needs an 'experiment' name")
    if experiment is not None and name != experiment:
        raise ConfigError(
            f"config is for experiment {name!r} but {experiment!r} was requested"
        )
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    required, optional = _SCHEMA[name]
    _check_keys(raw, required | optional | _COMMON_KEYS, "configuration")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"{name} config is missing: {', '.join(sorted(missing))}")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0 or seed > 2**64 - 1:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    for key in _COUNT_KEYS:
        _check_count(raw.get(key, 1), key)
    if "population" in raw:
        _check_count(raw["population"], "population")
    if "p" in raw:
        _check_rate(raw["p"], "p")
    if "p_values" in raw:
        if not isinstance(raw["p_values"], list):
            raise ConfigError("p_values must be a list of reporting rates")
        for idx, value in enumerate(raw["p_values"]):
            _check_rate(value, f"p_values[{idx}]")

    if name == "ensemble" and int(raw.get("replicates", 0)) < 1:
        raise ConfigError("ensemble needs replicates >= 1")
    if name == "power-empirical" and int(raw.get("replicates", 0)) < 100:
        raise ConfigError("power-empirical needs replicates >= 100")
    if name in ("power", "power-empirical"):
        _check_alpha(raw["alpha"], "alpha")
    if name in ("power", "power-empirical") and raw.get("sigmas") is not None:
        noise_block = raw.get("noise") or {}
        if noise_block.get("kind") == "known_sequence":
            raise ConfigError("a sigmas sweep needs case1, case2 or case3 noise")
    if name == "epsilon-invert":
        targets = raw.get("targets")
        if not isinstance(targets, list) or not targets:
            raise ConfigError("epsilon-invert needs a non-empty list of targets")
        for idx, target in enumerate(targets):
            where = f"targets[{idx}]"
            if not isinstance(target, dict):
                raise ConfigError(f"{where} must be an object")
            _check_keys(target, _TARGET_KEYS, where)
            missing = _TARGET_KEYS - set(target)
            if missing:
                raise ConfigError(f"{where} is missing: {', '.join(sorted(missing))}")
            _check_alpha(target["alpha"], f"{where}.alpha")
            _check_rate(target["p"], f"{where}.p")
            _check_count(target["T"], f"{where}.T")
            _check_positive(target["sigma"], f"{where}.sigma")
            _check_positive(target["delta"], f"{where}.delta")

    return ExperimentConfig(experiment=name, raw=raw, seed=seed, threads=raw.get("threads", 1))


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return validate_config(raw, experiment)
