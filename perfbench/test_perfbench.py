"""Fast tests of the benchmark's checks and tracer.

Each check must pass the program's own output and fail the same output once
it is corrupted. The workloads here are cut down to a few seconds in all.
"""

import copy
import math

import pytest

from perfbench.tracing import Tracer
from perfbench.workloads import Ensemble, Nyc, Power, Sweep
from sirlimits import perturb
from sirlimits.sir import InitialCondition, SirParams


def _outputs(workload, tmp_path_factory, name):
    out = tmp_path_factory.mktemp(name)
    workload.run_pass(out)
    return workload, workload.read(out)


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    return _outputs(Ensemble(seed=3, replicates=3, workers=1), tmp_path_factory, "ensemble")


@pytest.fixture(scope="module")
def nyc(tmp_path_factory):
    return _outputs(Nyc(seed=0, p_values=(0.1,), n_starts=1), tmp_path_factory, "nyc")


@pytest.fixture(scope="module")
def power(tmp_path_factory):
    workload = Power(seed=5, sigmas=(0.3,), omegas=(math.pi / 4,), epsilons=(0.03, 0.06))
    return _outputs(workload, tmp_path_factory, "power")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    grid = [(SirParams(0.42, 0.07), InitialCondition.from_population(10_000), 0.06)]
    return _outputs(Sweep(seed=0, grid=grid), tmp_path_factory, "sweep")


@pytest.mark.parametrize("fixture", ["ensemble", "nyc", "power", "sweep"])
def test_clean_output_passes(fixture, request):
    workload, outputs = request.getfixturevalue(fixture)
    verdict = workload.check(outputs)
    assert verdict.failed == {} and verdict.errors == []


def _move_along_ridge(row, step):
    for key in ("beta_hat", "gamma_hat"):
        row[key] = repr(float(row[key]) + step)


def test_ensemble_fails_beta_moved_along_ridge(ensemble):
    workload, rows = ensemble
    rows = copy.deepcopy(rows)
    _move_along_ridge(rows[1], 0.01)
    assert list(workload.check(rows).failed) == ["1"]


def test_ensemble_fails_converged_flipped(ensemble):
    workload, rows = ensemble
    rows = copy.deepcopy(rows)
    rows[2]["converged"] = "0"
    assert list(workload.check(rows).failed) == ["2"]


def test_ensemble_fails_rows_renumbered_after_a_failed_replicate(ensemble):
    workload, rows = ensemble
    rows = copy.deepcopy([rows[0], rows[2]])
    rows[1]["replicate"] = "1"  # replicate 2 written under index 1
    assert sorted(workload.check(rows).failed) == ["1", "2"]


def test_nyc_fails_beta_moved_along_ridge(nyc):
    workload, rows = nyc
    rows = copy.deepcopy(rows)
    _move_along_ridge(rows[0], 0.05)
    assert list(workload.check(rows).failed) == ["0.1"]


def test_nyc_fails_converged_flipped(nyc):
    workload, rows = nyc
    rows = copy.deepcopy(rows)
    rows[0]["converged"] = "0"
    reasons = workload.check(rows).failed["0.1"]
    assert any("fitted_band refused" in r for r in reasons)


def test_power_fails_type2_shifted_by_standard_errors(power):
    workload, rows = power
    rows = copy.deepcopy(rows)
    value, stderr = float(rows[0]["type2_empirical"]), float(rows[0]["stderr"])
    rows[0]["type2_empirical"] = repr(value + 8.0 * stderr)
    assert len(workload.check(rows).failed) == 1


def test_sweep_fails_one_distance_scaled(sweep):
    workload, tables = sweep
    tables = copy.deepcopy(tables)
    tables[0][10, 13, 2] *= 1.001
    assert len(workload.check(tables).failed) == 1


def test_tracer_self_time_excludes_children_and_restores_functions():
    original = perturb.integrate_day_grid_batch
    tracer = Tracer()
    with tracer:
        assert perturb.integrate_day_grid_batch is not original
        perturb.separation_sweep(SirParams(0.21, 0.07), InitialCondition.from_population(10**4),
                                 0.03, [0.0, 1.0], horizon=5)
    assert perturb.integrate_day_grid_batch is original
    m = tracer.metrics(passes=1)
    sweep_total = m["perturb.separation_sweep.total_s"][0]
    batch_total = m["sir.integrate_day_grid_batch.total_s"][0]
    assert m["perturb.separation_sweep.calls"][0] == 1
    assert m["perturb.separation_sweep.self_s"][0] == pytest.approx(sweep_total - batch_total)
    assert m["sir.integrate_day_grid_batch.lane_substeps_per_s"][0] == pytest.approx(3 * 5 * 50 / batch_total)
