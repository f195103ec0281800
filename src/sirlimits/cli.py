"""Command-line driver: every experiment as a subcommand emitting plot-ready files.

Usage:

    sirlimits <experiment> --config CONFIG.json --out DIR [--seed N] [--threads K]

Each run writes its CSV/JSON artifacts plus a ``manifest.json`` recording the
configuration hash, effective seed, library versions, and a content hash for
every output, so a rerun can be verified byte-for-byte. Failures exit nonzero
after printing a machine-readable error JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    EXPERIMENTS,
    ExperimentConfig,
    load_config,
    parse_init,
    parse_noise,
    parse_params,
    validate_config,
)
from .data import NYC_POPULATION, load_cases, nyc_fixture_path
from .errors import ConfigError, SirLimitsError
from .inference import LikelihoodSpec, StartFit, best_fit, fit_starts, mle_ensemble
from .inference import write_ensemble_csv
from .lrt import epsilon_for_power, power_grid, write_power_csv
from .nyc import reporting_rate_sweep, write_nyc_table_csv
from .perturb import error_fit, separation_sweep, write_error_fit_csv, write_sweep_csv
from .simulate import NoiseModel, ObservationSeries, observe, write_observations_csv
from .sir import DEFAULT_STEPS_PER_DAY, integrate_exact, write_trajectory_csv

_JSON_KW = dict(indent=2, sort_keys=True)


def _write_json(payload, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, **_JSON_KW)
        fh.write("\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(config: ExperimentConfig, out_dir: Path, outputs: list[Path]) -> Path:
    canonical = json.dumps(config.raw, sort_keys=True, separators=(",", ":"))
    manifest = {
        "experiment": config.experiment,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": config.raw,
        "seed": config.seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "sirlimits": __version__,
        },
        "outputs": [
            {"path": p.name, "sha256": _sha256(p)} for p in sorted(outputs)
        ],
    }
    path = out_dir / "manifest.json"
    _write_json(manifest, path)
    return path


def _steps_per_day(config: ExperimentConfig) -> int:
    return int(config.get("steps_per_day", DEFAULT_STEPS_PER_DAY))


def _run_simulate(config: ExperimentConfig, out: Path) -> list[Path]:
    params = parse_params(config.get("params"))
    init = parse_init(config)
    noise = parse_noise(config.get("noise"))
    traj = integrate_exact(params, init, int(config.get("horizon")), _steps_per_day(config))
    obs = observe(traj, noise, float(config.get("p")), int(config.get("T")), config.seed)
    paths = [out / "trajectory.csv", out / "observations.csv", out / "observations.json"]
    write_trajectory_csv(traj, paths[0])
    write_observations_csv(obs, paths[1], sidecar_path=paths[2])
    return paths


def _run_sweep(config: ExperimentConfig, out: Path) -> list[Path]:
    params = parse_params(config.get("params"))
    init = parse_init(config)
    n_angles = int(config.get("n_angles", 90))
    omegas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    curves = separation_sweep(
        params, init, float(config.get("epsilon")), omegas,
        int(config.get("horizon")), _steps_per_day(config),
    )
    path = out / "sweep.csv"
    write_sweep_csv(curves, path)
    return [path]


def _run_error_fit(config: ExperimentConfig, out: Path) -> list[Path]:
    params = parse_params(config.get("params"))
    init = parse_init(config)
    fit = error_fit(params, init, float(config.get("epsilon")),
                    int(config.get("horizon")), _steps_per_day(config))
    csv_path = out / "error_fit.csv"
    json_path = out / "error_fit.json"
    write_error_fit_csv(fit, csv_path)
    _write_json(
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "crossing_time": fit.crossing_time,
            "percent_of_peak": fit.percent_of_peak,
            "peak_time": fit.t_star,
        },
        json_path,
    )
    return [csv_path, json_path]


def _load_observation_csv(path: Path) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().lower()
        if header != "t,y":
            raise ConfigError(f"{path}: expected observation header 't,y'")
        for line in fh:
            if line.strip():
                _, y = line.split(",")
                rows.append(float(y))
    if not rows:
        raise ConfigError(f"{path}: no observations")
    return np.asarray(rows)


def _start_record(fit: StartFit) -> dict:
    """One start of a fit in fit.json: where it began, then how it ended."""
    record = {"beta": fit.start.beta, "gamma": fit.start.gamma}
    if fit.result is None:
        record["error"] = fit.error
    else:
        record.update(converged=fit.result.converged, loglik=fit.result.loglik,
                      iterations=fit.result.iterations)
    return record


def _run_fit(config: ExperimentConfig, out: Path) -> list[Path]:
    values = _load_observation_csv(Path(config.get("observations")))
    init = parse_init(config)
    noise = parse_noise(config.get("noise"))
    obs = ObservationSeries(
        values=values,
        reporting_rate=float(config.get("p")),
        noise=noise,
        seed=config.seed,
        sigma_t=np.zeros(len(values)),
        population=init.population,
    )
    spec = LikelihoodSpec(obs=obs, init=init, noise=noise, steps_per_day=_steps_per_day(config))
    fits = fit_starts(spec, n_starts=int(config.get("n_starts", 8)))
    result = best_fit(fits)
    path = out / "fit.json"
    _write_json(
        {
            "beta_hat": result.beta_hat,
            "gamma_hat": result.gamma_hat,
            "sigma_hat": result.sigma_hat,
            "r0_hat": result.r0_hat,
            "delta_hat": result.delta_hat,
            "loglik": result.loglik,
            "converged": result.converged,
            "iterations": result.iterations,
            "grad_norm": result.grad_norm,
            "starts": [_start_record(fit) for fit in fits],
        },
        path,
    )
    return [path]


def _run_ensemble(config: ExperimentConfig, out: Path) -> list[Path]:
    ensemble = mle_ensemble(
        true_params=parse_params(config.get("params")),
        init=parse_init(config),
        noise=parse_noise(config.get("noise")),
        p=float(config.get("p")),
        T=int(config.get("T")),
        replicates=int(config.get("replicates")),
        seed=config.seed,
        workers=config.threads,
        fit_steps_per_day=int(config.get("fit_steps_per_day", 10)),
        n_starts=int(config.get("n_starts", 2)),
    )
    csv_path = out / "ensemble.csv"
    json_path = out / "ensemble.json"
    write_ensemble_csv(ensemble, csv_path)
    lo, hi = ensemble.r0_range()
    _write_json(
        {
            "replicates": len(ensemble.replicates),
            "failures": len(ensemble.failures),
            "slope_beta_on_gamma": ensemble.slope_beta_on_gamma(),
            "r0_min": lo,
            "r0_max": hi,
            "delta_std": float(np.std(ensemble.deltas())),
            "beta_std": float(np.std(ensemble.betas())),
        },
        json_path,
    )
    return [csv_path, json_path]


def _run_power(config: ExperimentConfig, out: Path, empirical: bool) -> list[Path]:
    params = parse_params(config.get("params"))
    init = parse_init(config)
    base_noise = parse_noise(config.get("noise"))
    omegas = [float(w) for w in config.get("omegas")]
    epsilons = [float(e) for e in config.get("epsilons")]
    sigmas = config.get("sigmas")
    noises = ([base_noise] if sigmas is None
              else [NoiseModel(kind=base_noise.kind, sigma=float(s)) for s in sigmas])
    rows = power_grid(
        params, init, noises, omegas, epsilons,
        alpha=float(config.get("alpha")),
        T=int(config.get("T")),
        p=float(config.get("p")),
        steps_per_day=_steps_per_day(config),
        replicates=int(config.get("replicates", 0)) if empirical else None,
        seed=config.seed,
    )
    path = out / "power.csv"
    write_power_csv(rows, path)
    return [path]


def _run_epsilon_invert(config: ExperimentConfig, out: Path) -> list[Path]:
    results = []
    for target in config.get("targets"):
        eps = epsilon_for_power(
            target_type2=float(target["target_type2"]),
            alpha=float(target["alpha"]),
            sigma=float(target["sigma"]),
            p=float(target["p"]),
            T=int(target["T"]),
            delta=float(target["delta"]),
        )
        results.append({**target, "epsilon": eps})
    path = out / "epsilon_invert.json"
    _write_json({"results": results}, path)
    return [path]


def _run_nyc_table(config: ExperimentConfig, out: Path) -> list[Path]:
    data_path = config.get("data")
    data_path = nyc_fixture_path() if data_path is None else Path(data_path)
    population = int(config.get("population", NYC_POPULATION))
    data = load_cases(data_path, population)
    rows = reporting_rate_sweep(
        data,
        [float(p) for p in config.get("p_values")],
        n_starts=int(config.get("n_starts", 8)),
        steps_per_day=_steps_per_day(config),
    )
    path = out / "nyc_table.csv"
    write_nyc_table_csv(rows, path)
    return [path]


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep-directions": _run_sweep,
    "error-fit": _run_error_fit,
    "fit": _run_fit,
    "ensemble": _run_ensemble,
    "power": lambda cfg, out: _run_power(cfg, out, empirical=False),
    "power-empirical": lambda cfg, out: _run_power(cfg, out, empirical=True),
    "epsilon-invert": _run_epsilon_invert,
    "nyc-table": _run_nyc_table,
}


def run_experiment(config: ExperimentConfig, out_dir) -> list[Path]:
    """Dispatch a validated configuration and write its artifacts + manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = _RUNNERS[config.experiment](config, out)
    outputs.append(_write_manifest(config, out, outputs))
    return outputs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirlimits",
        description="Practical identifiability experiments for the SIR model",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True, help="path to the JSON configuration")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=None, help="override worker count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.experiment)
        raw = dict(config.raw)
        raw["experiment"] = config.experiment
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.threads is not None:
            raw["threads"] = args.threads
        config = validate_config(raw, args.experiment)
        outputs = run_experiment(config, args.out)
    except SirLimitsError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
