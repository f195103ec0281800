"""Declarative experiment configurations for the command-line driver.

A configuration is a JSON document with an ``experiment`` name plus the
blocks that experiment needs. Validation is strict: unknown keys anywhere are
rejected, so typos fail loudly instead of silently falling back to defaults.
Each key has one parser in ``_PARSERS``: it checks the value and returns the
typed value the runners read, and its ConfigError names the key path, such as
``omegas[0]`` or ``targets[1].T``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .data import NYC_POPULATION, nyc_fixture_path
from .errors import ConfigError, DegenerateParameterError
from .simulate import NoiseModel
from .sir import DEFAULT_STEPS_PER_DAY, InitialCondition, SirParams

_SPD = DEFAULT_STEPS_PER_DAY

# experiment name -> (required keys, {optional key: default}); every experiment also takes seed
_SCHEMA = {
    "simulate": ({"params", "population", "horizon", "noise", "p", "T"}, {"steps_per_day": _SPD}),
    "sweep-directions": ({"params", "population", "epsilon", "horizon"},
                         {"n_angles": 90, "steps_per_day": _SPD}),
    "error-fit": ({"params", "population", "epsilon", "horizon"}, {"steps_per_day": _SPD}),
    "fit": ({"observations", "population", "p", "noise"}, {"steps_per_day": _SPD, "n_starts": 8}),
    "ensemble": ({"params", "population", "noise", "p", "T", "replicates"},
                 {"fit_steps_per_day": 10, "n_starts": 2, "threads": 1}),
    "power": ({"params", "population", "noise", "alpha", "T", "p", "omegas", "epsilons"},
              {"sigmas": None, "steps_per_day": _SPD}),
    "power-empirical": ({"params", "population", "noise", "alpha", "T", "p", "omegas", "epsilons",
                         "replicates"}, {"sigmas": None, "steps_per_day": _SPD}),
    "epsilon-invert": ({"targets"}, {}),
    "nyc-table": ({"p_values"}, {"data": nyc_fixture_path(), "n_starts": 8, "steps_per_day": _SPD,
                                 "population": InitialCondition.from_population(NYC_POPULATION)}),
}

EXPERIMENTS = tuple(_SCHEMA)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration: the experiment name, the raw JSON that the
    manifest hashes and echoes, and every key's parsed value, defaults filled in."""

    experiment: str
    raw: dict
    values: dict

    def __getitem__(self, key):
        return self.values[key]


def _check_keys(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _integer(lo, hi, law: str):
    def parse(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise ConfigError(f"{where} must be {law}, got {value!r}")
        return value
    return parse


def _real(ok, law: str):
    def parse(value, where: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must {law}, got {value!r}")
        try:
            real = float(value)
        except OverflowError:
            raise ConfigError(f"{where} must {law}, got an integer too large for a float") from None
        if not ok(real):
            raise ConfigError(f"{where} must {law}, got {value!r}")
        return real
    return parse


def _list_of(item):
    def parse(value, where: str) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list, got {value!r}")
        return [item(entry, f"{where}[{k}]") for k, entry in enumerate(value)]
    return parse


def _fields(block, where: str, parsers: dict, optional=frozenset()) -> dict:
    """Parse an object block field by field; every field not in ``optional`` is required."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    _check_keys(block, set(parsers), where)
    missing = set(parsers) - set(optional) - set(block)
    if missing:
        raise ConfigError(f"{where} is missing: {', '.join(sorted(missing))}")
    return {key: parsers[key](value, f"{where}.{key}") for key, value in block.items()}


_count = _integer(1, math.inf, "a positive integer")
_seed = _integer(0, 2**64 - 1, "an unsigned 64-bit integer")
_finite = _real(math.isfinite, "be a finite number")
_positive = _real(lambda v: 0.0 < v < math.inf, "be finite and > 0")
_rate = _real(lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
_level = _real(lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_angle = _real(lambda v: 0.0 <= v < 2.0 * math.pi, "lie in [0, 2*pi)")


def _file(value, where: str) -> Path:
    if not isinstance(value, str) or not Path(value).is_file():
        raise ConfigError(f"{where} must name an existing file, got {value!r}")
    return Path(value)


def _params(block, where: str) -> SirParams:
    try:
        return SirParams(**_fields(block, where, {"beta": _finite, "gamma": _finite}))
    except DegenerateParameterError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _noise_model(where: str, **fields) -> NoiseModel:
    try:
        return NoiseModel(**fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _noise(block, where: str) -> NoiseModel:
    """A known_sequence block takes sigma_t; the other kinds take sigma, left out when
    inferred. NoiseModel checks the kind."""
    known = isinstance(block, dict) and block.get("kind") == "known_sequence"
    scale = {"sigma_t": _list_of(_finite)} if known else {"sigma": _finite}
    fields = _fields(block, where, {"kind": lambda kind, _: kind, **scale}, optional={"sigma"})
    return _noise_model(where, **fields)


def _population(value, where: str) -> InitialCondition:
    try:
        return InitialCondition.from_population(_count(value, where))
    except OverflowError:
        raise ConfigError(f"{where} must be a positive integer a float can hold, "
                          f"got an integer too large for a float") from None


_TARGET = {"target_type2": _level, "alpha": _level, "sigma": _positive, "p": _rate, "T": _count,
           "delta": _positive}

_PARSERS = {
    "seed": _seed,
    "threads": _count,
    "horizon": _count,
    "T": _count,
    "steps_per_day": _count,
    "fit_steps_per_day": _count,
    "n_starts": _count,
    "n_angles": _count,
    "replicates": _count,
    "population": _population,
    "params": _params,
    "noise": _noise,
    "p": _rate,
    "alpha": _level,
    "epsilon": _positive,
    "observations": _file,
    "data": _file,
    "omegas": _list_of(_angle),
    "epsilons": _list_of(_positive),
    "sigmas": _list_of(_positive),
    "p_values": _list_of(_rate),
    "targets": _list_of(lambda block, where: _fields(block, where, _TARGET)),
}


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
    required, defaults = _SCHEMA[name]
    _check_keys(raw, required | set(defaults) | {"experiment", "seed"}, "configuration")
    missing = required - set(raw)
    if missing:
        raise ConfigError(f"{name} config is missing: {', '.join(sorted(missing))}")

    values = {"seed": 0, **defaults}
    values.update((key, _PARSERS[key](value, key)) for key, value in raw.items() if key != "experiment")
    if name == "power-empirical" and values["replicates"] < 100:
        raise ConfigError("power-empirical needs replicates >= 100")
    if values.get("sigmas") is not None:
        kind = values["noise"].kind
        if kind == "known_sequence":
            raise ConfigError("a sigmas sweep needs case1, case2 or case3 noise")
        values["sigmas"] = [_noise_model(f"sigmas[{k}]", kind=kind, sigma=sigma)
                            for k, sigma in enumerate(values["sigmas"])]
    return ExperimentConfig(experiment=name, raw=raw, values=values)


def load_config(path, experiment: str | None = None, **overrides) -> ExperimentConfig:
    """Read a JSON configuration, replace the keys in ``overrides`` and validate it once."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw = {"experiment": experiment, **raw, **overrides}
    return validate_config(raw, experiment)
