import json
import math

import pytest

from sirlimits.cli import _start_record, main, run_experiment
from sirlimits.config import load_config, validate_config
from sirlimits.errors import ConfigError
from sirlimits.inference import StartFit
from sirlimits.sir import SirParams


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def write_text(path, text):
    path.write_text(text)
    return str(path)


PARAMS = {"beta": 0.21, "gamma": 0.07}

# the smallest valid configuration of each experiment, without its experiment name
SMALL_CONFIGS = {
    "simulate": {"params": PARAMS, "population": 10**6, "horizon": 20,
                 "noise": {"kind": "case1", "sigma": 0.01}, "p": 1.0, "T": 10},
    "ensemble": {"params": PARAMS, "population": 10**6, "noise": {"kind": "case1", "sigma": 0.1},
                 "p": 1.0, "T": 10, "replicates": 1, "n_starts": 1},
    "nyc-table": {"p_values": [0.05]},
    "sweep-directions": {"params": PARAMS, "population": 10**5, "epsilon": 0.03, "horizon": 10},
    "power": {"params": PARAMS, "population": 10**7, "noise": {"kind": "case2", "sigma": 0.3},
              "alpha": 0.05, "T": 40, "p": 1.0, "omegas": [0.0], "epsilons": [0.03]},
    "power-empirical": {"params": PARAMS, "population": 10**7, "noise": {"kind": "case2", "sigma": 0.3},
                        "alpha": 0.05, "T": 40, "p": 1.0, "omegas": [0.0], "epsilons": [0.03],
                        "replicates": 100},
}

TARGET = {"target_type2": 0.5, "alpha": 0.05, "sigma": 0.2, "p": 1.0, "T": 60, "delta": 0.14}


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"experiment": "simulate", "bogus": 1})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            validate_config({"experiment": "shrug"})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            validate_config({"experiment": "simulate", "params": PARAMS})

    def test_zero_replicate_ensemble_rejected(self):
        with pytest.raises(ConfigError, match="replicates"):
            validate_config({
                "experiment": "ensemble", "params": PARAMS, "population": 1000,
                "noise": {"kind": "case1", "sigma": 0.1}, "p": 1.0, "T": 10,
                "replicates": 0,
            })

    def test_experiment_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "simulate"})
        with pytest.raises(ConfigError, match="requested"):
            load_config(path, "ensemble")

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"experiment": "epsilon-invert", "targets": [
                {"target_type2": 0.5, "alpha": 0.05, "sigma": 0.2, "p": 1.0, "T": 60, "delta": 0.14}
            ], "seed": -3})


class TestRunners:
    def simulate_config(self):
        return {
            "experiment": "simulate",
            "params": PARAMS,
            "population": 10**7,
            "horizon": 40,
            "noise": {"kind": "case1", "sigma": 0.01},
            "p": 1.0,
            "T": 30,
            "seed": 7,
        }

    def test_simulate_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        config = validate_config(self.simulate_config())
        outputs = run_experiment(config, out)
        names = sorted(p.name for p in outputs)
        assert names == ["manifest.json", "observations.csv", "observations.json", "trajectory.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "simulate"
        assert manifest["seed"] == 7
        listed = {entry["path"] for entry in manifest["outputs"]}
        assert listed == {"observations.csv", "observations.json", "trajectory.csv"}
        for entry in manifest["outputs"]:
            assert len(entry["sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        config = validate_config(self.simulate_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_experiment(config, out1)
        run_experiment(config, out2)
        for name in ("trajectory.csv", "observations.csv", "observations.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_power_csv_schema(self, tmp_path):
        config = validate_config({
            "experiment": "power",
            "params": PARAMS,
            "population": 10**7,
            "noise": {"kind": "case2", "sigma": 0.3},
            "alpha": 0.05,
            "T": 60,
            "p": 1.0,
            "omegas": [math.pi / 4],
            "epsilons": [0.02, 0.04],
        })
        out = tmp_path / "power"
        run_experiment(config, out)
        lines = (out / "power.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "omega,epsilon,sigma,type2_exact,type2_approx1,type2_approx2,"
            "type2_empirical,stderr"
        )
        assert len(lines) == 3
        # analytic runs leave the empirical columns empty
        assert lines[1].endswith(",,")

    def test_epsilon_invert(self, tmp_path):
        config = validate_config({
            "experiment": "epsilon-invert",
            "targets": [
                {"target_type2": 0.5, "alpha": 0.05, "sigma": 0.2, "p": 1.0, "T": 60, "delta": 0.14},
            ],
        })
        out = tmp_path / "inv"
        run_experiment(config, out)
        payload = json.loads((out / "epsilon_invert.json").read_text())
        assert payload["results"][0]["epsilon"] == pytest.approx(0.064, abs=1e-3)

    def test_sweep_and_error_fit(self, tmp_path):
        config = validate_config({
            "experiment": "sweep-directions",
            "params": PARAMS,
            "population": 10**5,
            "epsilon": 0.03,
            "n_angles": 8,
            "horizon": 30,
            "steps_per_day": 10,
        })
        out = tmp_path / "sweep"
        run_experiment(config, out)
        assert (out / "sweep.csv").exists()

    def test_power_empirical_runner(self, tmp_path):
        config = validate_config({
            "experiment": "power-empirical",
            "params": PARAMS,
            "population": 10**7,
            "noise": {"kind": "case2", "sigma": 0.3},
            "alpha": 0.05,
            "T": 40,
            "p": 1.0,
            "omegas": [math.pi / 4],
            "epsilons": [0.03],
            "sigmas": [0.2, 0.4],
            "replicates": 200,
            "seed": 5,
        })
        out = tmp_path / "pe"
        run_experiment(config, out)
        lines = (out / "power.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        last = lines[-1].split(",")
        assert last[6] != ""  # empirical column populated
        assert float(last[7]) > 0.0

    def test_error_fit_runner(self, tmp_path):
        config = validate_config({
            "experiment": "error-fit",
            "params": PARAMS,
            "population": 10**5,
            "epsilon": 0.03,
            "horizon": 92,
            "steps_per_day": 20,
        })
        out = tmp_path / "ef"
        run_experiment(config, out)
        summary = json.loads((out / "error_fit.json").read_text())
        assert summary["slope"] > 0.0
        assert summary["crossing_time"] > 0.0
        lines = (out / "error_fit.csv").read_text().strip().splitlines()
        assert len(lines) == 51

    @pytest.mark.parametrize("noise, fit_noise", [
        ({"kind": "case1", "sigma": 1e-5}, {"kind": "case1", "sigma": 1e-5}),
        ({"kind": "case1", "sigma": 1e-5}, {"kind": "case1"}),
        ({"kind": "case2", "sigma": 0.3}, {"kind": "case2"}),
        ({"kind": "case3", "sigma": 5.0}, {"kind": "case3"}),
    ], ids=["case1-fixed", "case1", "case2", "case3"])
    def test_fit_runner(self, tmp_path, noise, fit_noise):
        sim = validate_config({
            "experiment": "simulate",
            "params": PARAMS,
            "population": 10**7,
            "horizon": 60,
            "noise": noise,
            "p": 1.0,
            "T": 60,
            "seed": 7,
        })
        sim_out = tmp_path / "sim"
        run_experiment(sim, sim_out)
        config = validate_config({
            "experiment": "fit",
            "observations": str(sim_out / "observations.csv"),
            "population": 10**7,
            "p": 1.0,
            "noise": fit_noise,
            "steps_per_day": 10,
            "n_starts": 2,
        })
        out = tmp_path / "fit"
        run_experiment(config, out)
        payload = json.loads((out / "fit.json").read_text())
        assert set(payload) == {"beta_hat", "gamma_hat", "sigma_hat", "loglik", "converged",
                                "iterations", "grad_norm", "r0_hat", "delta_hat", "starts"}
        assert payload["converged"]
        assert math.isfinite(payload["grad_norm"])
        # the growth rate is the robustly identified combination
        assert payload["delta_hat"] == pytest.approx(0.14, rel=0.05)
        # sigma is inferred exactly when the noise block leaves it out
        assert (payload["sigma_hat"] is None) == ("sigma" in fit_noise)
        # every start is recorded, and the best one carries the top-level fit
        starts = payload["starts"]
        assert len(starts) == 2
        assert all({"beta", "gamma", "converged", "loglik", "iterations"} == set(start)
                   for start in starts)
        assert payload["loglik"] in [start["loglik"] for start in starts]

    def test_a_failed_start_is_recorded_with_its_message(self):
        start = SirParams(0.3, 0.1)
        record = _start_record(StartFit(start, None, "start cannot be evaluated: day 6"))
        assert record == {"beta": 0.3, "gamma": 0.1, "error": "start cannot be evaluated: day 6"}

    def test_fit_without_noise_block_is_rejected(self):
        with pytest.raises(ConfigError, match="noise"):
            validate_config({"experiment": "fit", "observations": "obs.csv",
                             "population": 10**7, "p": 1.0})
        with pytest.raises(ConfigError, match="sigma_inferred"):
            validate_config({"experiment": "fit", "observations": "obs.csv",
                             "population": 10**7, "p": 1.0, "sigma_inferred": True})

    def test_nyc_table_runner(self, tmp_path):
        config = validate_config({
            "experiment": "nyc-table",
            "p_values": [0.05],
            "n_starts": 2,
        })
        out = tmp_path / "nyc"
        run_experiment(config, out)
        lines = (out / "nyc_table.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.05")

    def test_ensemble_runner(self, tmp_path):
        config = validate_config({
            "experiment": "ensemble",
            "params": PARAMS,
            "population": 10**7,
            "noise": {"kind": "known_sequence", "sigma_t": [31622.8] * 30},
            "p": 1.0,
            "T": 30,
            "replicates": 4,
            "n_starts": 1,
            "fit_steps_per_day": 5,
            "seed": 3,
        })
        out = tmp_path / "ens"
        run_experiment(config, out)
        summary = json.loads((out / "ensemble.json").read_text())
        assert summary["replicates"] == 4
        lines = (out / "ensemble.csv").read_text().strip().splitlines()
        assert len(lines) == 5


class TestMain:
    def test_cli_happy_path(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "experiment": "epsilon-invert",
            "targets": [
                {"target_type2": 0.5, "alpha": 0.05, "sigma": 0.2, "p": 1.0, "T": 60, "delta": 0.07},
            ],
        })
        out = tmp_path / "run"
        code = main(["epsilon-invert", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()

    def test_cli_error_json(self, tmp_path, capsys):
        config = write_config(tmp_path, {"experiment": "epsilon-invert", "targets": []})
        code = main(["epsilon-invert", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ConfigError"

    @pytest.mark.parametrize("experiment, key, value", [
        ("simulate", "horizon", 0),
        ("simulate", "T", 0),
        ("simulate", "steps_per_day", 0),
        ("simulate", "steps_per_day", 2.5),
        ("ensemble", "fit_steps_per_day", 0),
        ("nyc-table", "n_starts", -1),
        ("sweep-directions", "n_angles", -2),
        ("sweep-directions", "n_angles", 0),
    ])
    def test_cli_error_json_for_non_positive_counts(self, tmp_path, capsys, experiment, key, value):
        raw = {"experiment": experiment, **SMALL_CONFIGS[experiment], key: value}
        config = write_config(tmp_path, raw)
        code = main([experiment, "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]

    @pytest.mark.parametrize("experiment, change, key", [
        ("power", {"alpha": 0.0}, "alpha"),
        ("power", {"alpha": 1.0}, "alpha"),
        ("power-empirical", {"alpha": -0.1}, "alpha"),
        ("epsilon-invert", {"targets": [{**TARGET, "alpha": 0.0}]}, "targets[0].alpha"),
        ("epsilon-invert", {"targets": [TARGET, {**TARGET, "T": 0}]}, "targets[1].T"),
        ("simulate", {"p": 1.5}, "p"),
        ("power", {"p": 0}, "p"),
        ("nyc-table", {"p_values": [0.1, 0]}, "p_values[1]"),
        ("epsilon-invert", {"targets": [{**TARGET, "p": 0.0}]}, "targets[0].p"),
        ("simulate", {"population": 0}, "population"),
        ("simulate", {"population": 2.5}, "population"),
        ("simulate", {"noise": {"kind": "case1", "sigma": 2.0}}, "noise"),
        ("simulate", {"noise": {"kind": "known_sequence", "sigma_t": [1.0, -1.0]}}, "noise"),
        ("simulate", {"noise": {"kind": "case3", "sigma": "x"}}, "noise"),
        ("simulate", {"params": {"beta": "x", "gamma": 0.07}}, "params"),
        ("simulate", {"params": {"beta": 0.07, "gamma": 0.21}}, "params"),
        ("epsilon-invert", {"targets": [{**TARGET, "delta": 0.0}]}, "targets[0].delta"),
        ("epsilon-invert", {"targets": [TARGET, {**TARGET, "sigma": -0.2}]}, "targets[1].sigma"),
        ("sweep-directions", {"epsilon": "abc"}, "epsilon"),
        ("ensemble", {"replicates": "x"}, "replicates"),
        ("ensemble", {"replicates": 1000.0}, "replicates"),
        ("power", {"epsilons": ["x"]}, "epsilons[0]"),
        ("power", {"omegas": [7.0]}, "omegas[0]"),
        ("power", {"omegas": 0.7}, "omegas"),
        ("power", {"sigmas": [-1]}, "sigmas[0]"),
        ("sweep-directions", {"threads": 2}, "threads"),
        ("sweep-directions", {"population": 10**400}, "population"),
        ("sweep-directions", {"epsilon": 10**400}, "epsilon"),
        ("simulate", {"noise": {"kind": "case4"}}, "noise"),
    ])
    def test_cli_error_json_for_out_of_range_values(self, tmp_path, capsys, experiment, change, key):
        raw = {"experiment": experiment, **SMALL_CONFIGS.get(experiment, {}), **change}
        config = write_config(tmp_path, raw)
        code = main([experiment, "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ConfigError"
        assert key in payload["message"]

    @pytest.mark.parametrize("experiment, change, error, text", [
        ("fit", lambda d: {"observations": str(d / "absent.csv")}, "ConfigError", "absent.csv"),
        ("nyc-table", lambda d: {"data": str(d / "absent.csv")}, "ConfigError", "absent.csv"),
        ("fit", lambda d: {"observations": write_text(d / "o.csv", "t,y\n1,3\n2,abc\n")},
         "ConfigError", "o.csv: line 3"),
        ("fit", lambda d: {"observations": write_text(d / "o.csv", "t,y\n1,3\n2,4,5\n")},
         "ConfigError", "o.csv: line 3"),
        ("fit", lambda d: {"observations": write_text(d / "o.csv", "t,y\n1,3\n2,4\n4,6\n")},
         "ConfigError", "o.csv: line 4"),
        ("fit", lambda d: {"observations": write_text(d / "o.csv", "t,y\n1,3\n1,4\n2,6\n")},
         "ConfigError", "o.csv: line 3"),
        ("fit", lambda d: {"observations": write_text(d / "o.csv", "t,y\n1,3\n2.5,4\n")},
         "ConfigError", "o.csv: line 3"),
        ("nyc-table", lambda d: {"data": write_text(d / "d.csv", "date,count\n2020-03-01,1\n")},
         "InsufficientDataError", "two daily counts"),
        ("power", lambda d: {"T": 200}, "HorizonPastPeakError", "T = 200"),
    ], ids=["observations-absent", "data-absent", "y-not-a-number", "three-fields", "t-skips-a-day",
            "t-repeats-a-day", "t-not-an-integer", "data-one-row", "T-past-peak"])
    def test_cli_error_json_for_unusable_inputs(self, tmp_path, capsys, experiment, change, error, text):
        fit = {"population": 10**7, "p": 1.0, "noise": {"kind": "case1", "sigma": 0.01}}
        base = fit if experiment == "fit" else SMALL_CONFIGS[experiment]
        config = write_config(tmp_path, {"experiment": experiment, **base, **change(tmp_path)})
        code = main([experiment, "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == error
        assert text in payload["message"]

    def test_a_fit_whose_starts_all_fail_lists_why(self, tmp_path, capsys):
        # a zero sd on day 6 leaves no start a likelihood to evaluate; the
        # error JSON carries each start's reason, not the bare message alone
        run_experiment(validate_config({
            "experiment": "simulate", "params": PARAMS, "population": 10**7, "horizon": 60,
            "noise": {"kind": "case3", "sigma": 5.0}, "p": 1.0, "T": 60, "seed": 1,
        }), tmp_path / "sim")
        sd = [2e4] * 60
        sd[5] = 0.0
        config = write_config(tmp_path, {
            "experiment": "fit", "observations": str(tmp_path / "sim" / "observations.csv"),
            "population": 10**7, "p": 1.0, "noise": {"kind": "known_sequence", "sigma_t": sd},
            "n_starts": 3,
        })
        code = main(["fit", "--config", str(config), "--out", str(tmp_path / "fit")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "OptimizationFailureError"
        assert payload["message"] == "all optimizer starts failed"
        assert len(payload["diagnostics"]) == 3
        assert all("day 6" in reason for reason in payload["diagnostics"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_replicate_ensemble_writes_strict_json(self, tmp_path):
        # one replicate has no gamma spread to regress on: the slope is null, not NaN
        raw = {"experiment": "ensemble", **SMALL_CONFIGS["ensemble"], "T": 30}
        config = write_config(tmp_path, raw)
        assert main(["ensemble", "--config", str(config), "--out", str(tmp_path / "e")]) == 0
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((tmp_path / "e" / "ensemble.json").read_text(), parse_constant=refuse)
        assert summary["replicates"] == 1
        assert summary["slope_beta_on_gamma"] is None

    def test_cli_error_json_for_a_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "ConfigError"
        assert "absent.json" in payload["message"]

    def test_threads_is_an_ensemble_flag(self, tmp_path, capsys):
        sweep = write_config(tmp_path, {"experiment": "sweep-directions", **SMALL_CONFIGS["sweep-directions"]})
        with pytest.raises(SystemExit) as exc:
            main(["sweep-directions", "--config", str(sweep), "--out", str(tmp_path / "s"), "--threads", "2"])
        assert exc.value.code == 2
        ensemble = write_config(tmp_path, {"experiment": "ensemble", **SMALL_CONFIGS["ensemble"],
                                           "replicates": 2})
        assert main(["ensemble", "--config", str(ensemble), "--out", str(tmp_path / "e"), "--threads", "1"]) == 0
        assert json.loads((tmp_path / "e" / "manifest.json").read_text())["config"]["threads"] == 1

    def test_cli_seed_override(self, tmp_path):
        raw = {
            "experiment": "simulate",
            "params": PARAMS,
            "population": 10**6,
            "horizon": 20,
            "noise": {"kind": "case1", "sigma": 0.01},
            "p": 1.0,
            "T": 10,
            "seed": 1,
        }
        config = write_config(tmp_path, raw)
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(out2), "--seed", "99"]) == 0
        obs1 = (out1 / "observations.csv").read_text()
        obs2 = (out2 / "observations.csv").read_text()
        assert obs1 != obs2
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["seed"] == 99
