import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sirlimits._csv import fmt
from sirlimits.errors import (
    DegenerateParameterError,
    FitDegenerateError,
    HorizonTooShortError,
    PerturbationTooLargeError,
)
from sirlimits.perturb import (
    Perturbation,
    approximation_error,
    error_fit,
    fit_angles,
    linearized_difference,
    lower_bound,
    reference_grid,
    separation_sweep,
    theoretical_error_bound,
    write_sweep_csv,
)
from sirlimits.sir import InitialCondition, SirParams, integrate_exact, peak_time

BASE = SirParams(0.21, 0.07)
INIT7 = InitialCondition.from_population(10**7)


class TestPerturbation:
    def test_rejects_epsilon_at_least_delta(self):
        with pytest.raises(PerturbationTooLargeError):
            Perturbation(BASE, 0.14, 0.0)
        with pytest.raises(PerturbationTooLargeError):
            Perturbation(BASE, 0.2, 0.0)
        with pytest.raises(PerturbationTooLargeError):
            Perturbation(BASE, 0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True))
    def test_perturbed_distance_is_epsilon(self, omega):
        pert = Perturbation(BASE, 0.03, omega)
        moved = pert.perturbed()
        dist = math.hypot(moved.beta - BASE.beta, moved.gamma - BASE.gamma)
        assert dist == pytest.approx(0.03, rel=1e-12)

    def test_quarter_circle_shifts(self):
        pert = Perturbation(BASE, 0.03, math.pi / 4)
        assert pert.direction_factor() == pytest.approx(0.0, abs=1e-15)
        assert pert.delta_eps() == pytest.approx(BASE.delta())
        assert pert.beta_eps() == pytest.approx(0.21 + 0.03 / math.sqrt(2))


class TestLowerBound:
    def test_zero_at_time_zero(self):
        assert lower_bound(BASE, INIT7, 0.03, 0) == 0.0

    def test_direct_substitution_value(self):
        # (0.03 / (0.14 * sqrt(2))) * (e^{0.14*60} - 1) * 1e-7
        expected = (0.03 / (0.14 * math.sqrt(2.0))) * (math.exp(8.4) - 1.0) * 1e-7
        assert lower_bound(BASE, INIT7, 0.03, 60) == pytest.approx(expected, rel=1e-15)
        assert lower_bound(BASE, INIT7, 0.03, 60) == pytest.approx(6.736808457656962e-05, rel=1e-12)

    def test_monotone_in_time_and_epsilon(self):
        t = np.arange(0, 80)
        values = lower_bound(BASE, INIT7, 0.03, t)
        assert np.all(np.diff(values) > 0.0)
        assert lower_bound(BASE, INIT7, 0.05, 40) > lower_bound(BASE, INIT7, 0.03, 40)

    def test_rejects_large_epsilon(self):
        with pytest.raises(PerturbationTooLargeError):
            lower_bound(BASE, INIT7, 0.14, 10)


class TestSeparationSweep:
    def test_zero_epsilon_gives_zero_curves(self):
        curves = separation_sweep(BASE, INIT7, 0.0, [0.0, 1.0, 4.0], horizon=30, steps_per_day=10)
        for curve in curves:
            assert np.all(curve.distance == 0.0)

    def test_curve_invariants(self):
        omegas = np.linspace(0.0, 2 * math.pi, 12, endpoint=False)
        curves = separation_sweep(BASE, INIT7, 0.03, omegas, horizon=60, steps_per_day=20)
        assert len(curves) == 12
        for curve in curves:
            assert curve.distance[0] == 0.0
            assert np.all(curve.distance >= 0.0)
            assert np.all(curve.distance >= curve.s_distance - 1e-15)

    def test_minimizing_angle_near_slope_one(self):
        traj = integrate_exact(BASE, INIT7, 130)
        t_star = peak_time(traj)
        omegas = np.linspace(0.0, 2 * math.pi, 90, endpoint=False)
        day = int(round(0.6 * t_star))
        curves = separation_sweep(BASE, INIT7, 0.03, omegas, horizon=day)
        distances = np.array([c.distance[day] for c in curves])
        best = omegas[int(np.argmin(distances))]
        gap = min(abs(best - math.pi / 4), abs(best - 5 * math.pi / 4))
        assert gap <= math.pi / 12

    def test_slope_one_direction_tracks_floor(self):
        # Directions slightly off slope-one can dip below the floor where
        # their susceptible difference changes sign, so the floor is a
        # per-direction statement: at pi/4 and 5*pi/4 both the full and the
        # s-only separation track it closely until well before the peak.
        traj = integrate_exact(BASE, INIT7, 130)
        t_star = peak_time(traj)
        horizon = int(0.7 * t_star) + 1
        curves = separation_sweep(
            BASE, INIT7, 0.03, [math.pi / 4, 5 * math.pi / 4], horizon=horizon
        )
        days = np.arange(5, horizon + 1)
        floor = lower_bound(BASE, INIT7, 0.03, days)
        for curve in curves:
            assert np.all(curve.distance[5:] >= 0.75 * floor)
            assert np.all(curve.distance[5:] <= floor * (1.0 + 1e-9))
            assert np.all(curve.s_distance[5:] >= 0.75 * floor)

    def test_sweep_csv(self, tmp_path):
        curves = separation_sweep(BASE, INIT7, 0.03, [0.0, math.pi], horizon=5, steps_per_day=5)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(curves, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "omega,t,distance,s_distance"
        assert len(lines) == 1 + 2 * 6

    @pytest.mark.parametrize("epsilon,omegas,horizon", [
        (0.03, np.linspace(0.0, 2 * math.pi, 7, endpoint=False), 40),
        (0.0, [0.0, 1.0, 4.0], 12),  # all-zero curves
        (0.03, [math.pi / 4], 25),  # a single angle
        (0.03, [0.0, 2.0, 5.0], 1),  # a 1-day horizon
    ])
    def test_sweep_csv_bytes_match_a_cell_by_cell_reference(self, tmp_path, epsilon, omegas,
                                                            horizon):
        curves = separation_sweep(BASE, INIT7, epsilon, omegas, horizon=horizon, steps_per_day=5)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(curves, path)
        expected = "omega,t,distance,s_distance\n" + "".join(
            f"{fmt(c.omega)},{fmt(t)},{fmt(d)},{fmt(sd)}\n"
            for c in curves for t, d, sd in zip(c.times, c.distance, c.s_distance)
        )
        assert path.read_bytes() == expected.encode()


class TestApproximationError:
    def test_day_zero_flagged_absent(self):
        pert = Perturbation(BASE, 0.03, math.pi / 4)
        series = approximation_error(BASE, INIT7, pert, horizon=40)
        assert math.isnan(series.rel_log_error[0])
        assert np.all(np.isfinite(series.rel_log_error[1:]))

    def test_norm_identity_reassembles(self):
        pert = Perturbation(BASE, 0.03, 1.1)
        series = approximation_error(BASE, INIT7, pert, horizon=50)
        np.testing.assert_allclose(
            series.linearized_distance + series.error,
            series.exact_distance,
            rtol=1e-12, atol=1e-300,
        )

    def test_slope_one_closed_form_is_the_lower_bound(self):
        # at omega = pi/4 the closed-form separation equals the floor to
        # machine precision (cos(pi/4) - sin(pi/4) is zero only up to an ulp,
        # so the infected component is tiny rather than exactly zero)
        ds, di = linearized_difference(BASE, INIT7, 0.03, math.pi / 4, np.arange(0, 70))
        floor = lower_bound(BASE, INIT7, 0.03, np.arange(0, 70))
        assert np.all(np.abs(di)[1:] <= 1e-12 * np.abs(ds)[1:])
        np.testing.assert_allclose(np.abs(ds), floor, rtol=1e-12)
        np.testing.assert_allclose(np.hypot(ds, di), floor, rtol=1e-12)

    def test_relative_error_small_before_cutoff(self):
        traj = integrate_exact(BASE, INIT7, 130)
        t_star = peak_time(traj)
        pert = Perturbation(BASE, 0.03, math.pi / 4 + 0.05)
        series = approximation_error(BASE, INIT7, pert, horizon=int(0.8 * t_star))
        assert np.all(series.rel_log_error[1:] < 0.0)

    def test_exact_distance_is_the_sweep_distance(self):
        # the second input is 96 days at 50 substeps per day, past the peak
        for omega, horizon in [(1.1, 50), (math.pi / 4 + 0.05, 96)]:
            pert = Perturbation(BASE, 0.03, omega)
            series = approximation_error(BASE, INIT7, pert, horizon=horizon)
            [curve] = separation_sweep(BASE, INIT7, 0.03, [omega], horizon)
            assert series.exact_distance.tobytes() == curve.distance.tobytes()
            assert series.times.tobytes() == curve.times.tobytes()

    def test_rejects_a_flipped_perturbed_growth_rate(self):
        tight = SirParams(0.21, 0.18)  # delta = 0.03
        with pytest.raises(PerturbationTooLargeError):
            approximation_error(tight, INIT7, Perturbation(tight, 0.025, 3 * math.pi / 4), 10)

    def test_rejects_a_perturbed_recovery_rate_that_is_not_positive(self):
        pert = Perturbation(BASE, 0.1, 3 * math.pi / 2)
        with pytest.raises(DegenerateParameterError, match="gamma"):
            approximation_error(BASE, INIT7, pert, horizon=40)

    def test_rejects_perturbation_of_another_base(self):
        pert = Perturbation(SirParams(0.42, 0.07), 0.03, 0.3)
        with pytest.raises(ValueError, match="anchored"):
            approximation_error(BASE, INIT7, pert, horizon=40)

    def test_linearized_difference_rejects_flipped_delta(self):
        tight = SirParams(0.21, 0.18)  # delta = 0.03
        with pytest.raises(PerturbationTooLargeError):
            linearized_difference(tight, INIT7, 0.025, 3 * math.pi / 4, 10)


class TestErrorFit:
    def test_fit_angle_layout(self):
        omegas = fit_angles()
        assert len(omegas) == 50
        lo = omegas[:25]
        hi = omegas[25:]
        assert np.all((lo >= math.pi / 4 - math.pi / 12) & (lo < math.pi / 4 + math.pi / 12))
        assert np.all((hi >= 5 * math.pi / 4 - math.pi / 12) & (hi < 5 * math.pi / 4 + math.pi / 12))

    def test_requires_horizon_past_peak(self):
        with pytest.raises(HorizonTooShortError):
            error_fit(BASE, INIT7, 0.03, horizon=60)

    def test_angle_lines_come_from_the_sweep_distances(self):
        # the per-angle lines, refitted from separation_sweep's distances, are
        # bit-equal to error_fit's own
        horizon = 130
        fit = error_fit(BASE, INIT7, 0.03, horizon)
        days = np.arange(horizon + 1, dtype=float)
        window = (days >= 1.0) & (days <= 0.95 * fit.t_star)
        curves = separation_sweep(BASE, INIT7, 0.03, fit_angles(), horizon)
        for k, curve in enumerate(curves):
            ds, di = linearized_difference(BASE, INIT7, 0.03, curve.omega, days)
            err = curve.distance - np.hypot(ds, di)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.log(np.abs(err)) - np.log(curve.distance)
            mask = window & np.isfinite(rel)
            slope, intercept = np.polyfit(days[mask], rel[mask], 1)
            assert (fit.angle_slopes[k], fit.angle_intercepts[k]) == (slope, intercept)

    def test_degenerate_when_peak_too_early(self):
        fast = SirParams(1.68, 0.14)
        init = InitialCondition.from_population(100)
        with pytest.raises(FitDegenerateError):
            error_fit(fast, init, 0.1, horizon=30, steps_per_day=20)


class TestTheoreticalBound:
    def test_zero_at_time_zero(self):
        pert = Perturbation(BASE, 0.03, 0.3)
        assert theoretical_error_bound(BASE, INIT7, pert, 0) == 0.0

    def test_scales_linearly_with_seed_proportion(self):
        pert = Perturbation(BASE, 0.03, 0.3)
        small = theoretical_error_bound(BASE, InitialCondition.from_population(10**4), pert, 30)
        large = theoretical_error_bound(BASE, InitialCondition.from_population(10**8), pert, 30)
        assert large / small == pytest.approx(1e-4, rel=1e-9)

    def test_rejects_perturbation_of_another_base(self):
        pert = Perturbation(SirParams(0.42, 0.07), 0.03, 0.3)
        with pytest.raises(ValueError, match="anchored"):
            theoretical_error_bound(BASE, INIT7, pert, 30)

    def test_bounds_measured_error_on_two_configurations(self):
        for params, init, eps in [reference_grid()[5], reference_grid()[10]]:
            for omega in (0.3, math.pi / 4, 2.5, 4.1):
                pert = Perturbation(params, eps, omega)
                series = approximation_error(params, init, pert, horizon=60, steps_per_day=20)
                bound = theoretical_error_bound(params, init, pert, series.times)
                assert np.all(np.abs(series.error) <= bound * (1.0 + 1e-9) + 1e-15)


def test_reference_grid_shape():
    grid = reference_grid()
    assert len(grid) == 16
    r0s = sorted({round(p.r0(), 6) for p, _, _ in grid})
    assert r0s == [1.5, 3.0, 6.0, 12.0]
