"""Command-line driver: every experiment as a subcommand emitting plot-ready files.

Usage:

    sirlimits <experiment> --config CONFIG.json --out DIR [--seed N]
    sirlimits ensemble --config CONFIG.json --out DIR [--seed N] [--threads K]

Each run writes its CSV/JSON artifacts plus a ``manifest.json`` recording the
configuration hash, effective seed, library versions, and a content hash for
every output, so a rerun can be verified byte-for-byte. Failures exit nonzero
after printing a machine-readable error JSON.

``fit`` reads its observations from a ``t,y`` file, the format ``simulate``
writes: one row per day, t running 1, 2, ..., T in order. A skipped,
repeated or non-integer day is a ConfigError naming the file and line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_json
from .config import EXPERIMENTS, ExperimentConfig, load_config
from .data import load_cases
from .errors import ConfigError, SirLimitsError
from .inference import LikelihoodSpec, StartFit, best_fit, fit_starts, mle_ensemble
from .inference import write_ensemble_csv
from .lrt import epsilon_for_power, power_grid, write_power_csv
from .nyc import reporting_rate_sweep, write_nyc_table_csv
from .perturb import error_fit, separation_sweep, write_error_fit_csv, write_sweep_csv
from .simulate import observe, write_observations_csv
from .sir import integrate_exact, write_trajectory_csv

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
        "seed": config["seed"],
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
    write_json(path, manifest)
    return path


def _run_simulate(config: ExperimentConfig, out: Path) -> list[Path]:
    traj = integrate_exact(config["params"], config["population"], config["horizon"],
                           config["steps_per_day"])
    obs = observe(traj, config["noise"], config["p"], config["T"], config["seed"])
    paths = [out / "trajectory.csv", out / "observations.csv", out / "observations.json"]
    write_trajectory_csv(traj, paths[0])
    write_observations_csv(obs, paths[1], sidecar_path=paths[2])
    return paths


def _run_sweep(config: ExperimentConfig, out: Path) -> list[Path]:
    omegas = np.linspace(0.0, 2.0 * math.pi, config["n_angles"], endpoint=False)
    sweep = separation_sweep(config["params"], config["population"], config["epsilon"], omegas,
                             config["horizon"], config["steps_per_day"])
    path = out / "sweep.csv"
    write_sweep_csv(sweep, path)
    return [path]


def _run_error_fit(config: ExperimentConfig, out: Path) -> list[Path]:
    fit = error_fit(config["params"], config["population"], config["epsilon"],
                    config["horizon"], config["steps_per_day"])
    csv_path = out / "error_fit.csv"
    json_path = out / "error_fit.json"
    write_error_fit_csv(fit, csv_path)
    write_json(json_path, {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "crossing_time": fit.crossing_time,
        "percent_of_peak": fit.percent_of_peak,
        "peak_time": fit.t_star,
    })
    return [csv_path, json_path]


def _load_observation_csv(path: Path) -> np.ndarray:
    """The y column of a ``t,y`` file whose t reads 1, 2, ..., T in order."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().lower()
        if header != "t,y":
            raise ConfigError(f"{path}: expected observation header 't,y'")
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                day = len(rows) + 1
                try:
                    t, y = line.split(",")
                    y = float(y) if int(t) == day else math.nan
                except ValueError:  # a field count other than 2, or t or y not a number
                    y = math.nan
                if not math.isfinite(y):
                    raise ConfigError(f"{path}: line {lineno}: expected 't,y' with t = {day} "
                                      f"and a finite y, got {line.strip()!r}")
                rows.append(y)
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
    spec = LikelihoodSpec.from_values(_load_observation_csv(config["observations"]), config["p"],
                                      config["noise"], config["population"],
                                      config["steps_per_day"])
    fits = fit_starts(spec, n_starts=config["n_starts"])
    result = best_fit(fits)
    path = out / "fit.json"
    write_json(path, {**asdict(result), "r0_hat": result.r0_hat, "delta_hat": result.delta_hat,
                      "starts": [_start_record(fit) for fit in fits]})
    return [path]


def _run_ensemble(config: ExperimentConfig, out: Path) -> list[Path]:
    ensemble = mle_ensemble(
        true_params=config["params"],
        init=config["population"],
        noise=config["noise"],
        p=config["p"],
        T=config["T"],
        replicates=config["replicates"],
        seed=config["seed"],
        workers=config["threads"],
        fit_steps_per_day=config["fit_steps_per_day"],
        n_starts=config["n_starts"],
    )
    csv_path = out / "ensemble.csv"
    json_path = out / "ensemble.json"
    write_ensemble_csv(ensemble, csv_path)
    lo, hi = ensemble.r0_range()
    write_json(json_path, {
        "replicates": len(ensemble.replicates),
        "failures": len(ensemble.failures),
        "slope_beta_on_gamma": ensemble.slope_beta_on_gamma(),
        "r0_min": lo,
        "r0_max": hi,
        "delta_std": float(np.std(ensemble.deltas())),
        "beta_std": float(np.std(ensemble.betas())),
    })
    return [csv_path, json_path]


def _run_power(config: ExperimentConfig, out: Path) -> list[Path]:
    """power, or power-empirical: the one whose config has replicates."""
    rows = power_grid(
        config["params"], config["population"], config["sigmas"] or [config["noise"]],
        config["omegas"], config["epsilons"],
        alpha=config["alpha"],
        T=config["T"],
        p=config["p"],
        steps_per_day=config["steps_per_day"],
        replicates=config.values.get("replicates"),
        seed=config["seed"],
    )
    path = out / "power.csv"
    write_power_csv(rows, path)
    return [path]


def _run_epsilon_invert(config: ExperimentConfig, out: Path) -> list[Path]:
    results = [{**raw, "epsilon": epsilon_for_power(**target)}
               for raw, target in zip(config.raw["targets"], config["targets"])]
    path = out / "epsilon_invert.json"
    write_json(path, {"results": results})
    return [path]


def _run_nyc_table(config: ExperimentConfig, out: Path) -> list[Path]:
    data = load_cases(config["data"], config["population"].population)
    rows = reporting_rate_sweep(data, config["p_values"], n_starts=config["n_starts"],
                                steps_per_day=config["steps_per_day"])
    path = out / "nyc_table.csv"
    write_nyc_table_csv(rows, path)
    return [path]


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep-directions": _run_sweep,
    "error-fit": _run_error_fit,
    "fit": _run_fit,
    "ensemble": _run_ensemble,
    "power": _run_power,
    "power-empirical": _run_power,
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
        if name == "ensemble":
            sp.add_argument("--threads", type=int, default=None, help="override the worker count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key in ("seed", "threads")
                 if (value := getattr(args, key, None)) is not None}
    try:
        outputs = run_experiment(load_config(args.config, args.experiment, **overrides), args.out)
    # OSError: a path the OS refuses to read or write; UnicodeDecodeError: an input that is not text
    except (SirLimitsError, OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
