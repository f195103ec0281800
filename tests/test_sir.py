import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sirlimits import inference, sir
from sirlimits.errors import (
    DegenerateParameterError,
    HorizonTooShortError,
    InsufficientDataError,
    IntegrationError,
)
from sirlimits.inference import integrate_with_sensitivities
from sirlimits.perturb import reference_grid
from sirlimits.sir import (
    InitialCondition,
    SirParams,
    epidemic_summary,
    incidence,
    integrate_day_grid_batch,
    integrate_exact,
    integrate_linearized,
    linearized_state,
    peak_time,
    peak_time_for,
    write_trajectory_csv,
)

BASE = SirParams(0.21, 0.07)
INIT7 = InitialCondition.from_population(10**7)


def rk4_three_compartment(params, init, horizon, spd):
    """Independent oracle: integrate (s, i, r) as three explicit equations."""
    h = 1.0 / spd
    state = np.array([init.s0, init.i0, 1.0 - init.s0 - init.i0])

    def rhs(y):
        x = params.beta * y[1] * y[0]
        return np.array([-x, x - params.gamma * y[1], params.gamma * y[1]])

    out = [state.copy()]
    for k in range(horizon * spd):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % spd == 0:
            out.append(state.copy())
    return np.array(out)


class TestParams:
    def test_derived_quantities(self):
        assert BASE.delta() == pytest.approx(0.14)
        assert BASE.r0() == pytest.approx(3.0)

    @pytest.mark.parametrize("beta,gamma", [(0.07, 0.21), (0.1, 0.1), (-0.2, 0.1), (0.2, -0.1), (0.0, 0.1)])
    def test_rejects_non_growing(self, beta, gamma):
        with pytest.raises(DegenerateParameterError):
            SirParams(beta, gamma)

    def test_init_from_population(self):
        init = InitialCondition.from_population(1000)
        assert init.s0 == pytest.approx(0.999)
        assert init.i0 == pytest.approx(0.001)
        assert init.population == 1000

    def test_init_validation(self):
        with pytest.raises(ValueError):
            InitialCondition(s0=0.9, i0=0.2, population=100)
        with pytest.raises(ValueError):
            InitialCondition(s0=0.5, i0=0.1, population=0)


class TestExactIntegration:
    def test_peak_time_near_120_days(self):
        start = time.perf_counter()
        traj = integrate_exact(BASE, INIT7, 130)
        t_star = peak_time(traj)
        elapsed = time.perf_counter() - start
        assert 118.0 <= t_star <= 122.0
        assert elapsed < 1.0

    def test_disease_free_equilibrium(self):
        init = InitialCondition(s0=0.99, i0=0.0, population=1000)
        traj = integrate_exact(BASE, init, 50)
        assert np.all(traj.s == traj.s[0])
        assert np.all(traj.i == 0.0)
        assert np.all(incidence(traj) == 0.0)

    def test_step_refinement_agreement(self):
        coarse = integrate_exact(BASE, INIT7, 130, steps_per_day=10)
        fine = integrate_exact(BASE, INIT7, 130, steps_per_day=100)
        assert np.max(np.abs(coarse.s - fine.s)) < 1e-6
        assert np.max(np.abs(coarse.i - fine.i)) < 1e-6

    def test_fourth_order_convergence(self):
        # successive halvings of the substep should shrink the change ~16x
        t10 = integrate_exact(BASE, INIT7, 130, steps_per_day=10)
        t20 = integrate_exact(BASE, INIT7, 130, steps_per_day=20)
        t40 = integrate_exact(BASE, INIT7, 130, steps_per_day=40)
        d1 = np.max(np.abs(t10.i - t20.i))
        d2 = np.max(np.abs(t20.i - t40.i))
        assert 8.0 < d1 / d2 < 32.0

    def test_conservation_against_three_compartment_oracle(self):
        oracle = rk4_three_compartment(BASE, INIT7, 130, 50)
        traj = integrate_exact(BASE, INIT7, 130, 50)
        assert np.max(np.abs(traj.r - oracle[:, 2])) < 1e-9
        assert np.max(np.abs(traj.s + traj.i + traj.r - 1.0)) < 1e-9

    def test_susceptible_strictly_decreasing_while_infected(self):
        traj = integrate_exact(BASE, INIT7, 200)
        active = traj.i[:-1] > 1e-15
        assert np.all(traj.s[1:][active] < traj.s[:-1][active])

    def test_infected_bounded_as_proportion(self):
        traj = integrate_exact(BASE, INIT7, 300)
        assert np.all((traj.i >= 0.0) & (traj.i <= 1.0))
        assert np.all((traj.s >= 0.0) & (traj.s <= 1.0))

    def test_removed_nondecreasing(self):
        traj = integrate_exact(BASE, INIT7, 300)
        assert np.all(np.diff(traj.r) >= -1e-12)

    def test_blowup_raises_integration_error(self):
        wild = SirParams(400.0, 0.1)
        init = InitialCondition(s0=0.5, i0=0.5, population=100)
        with pytest.raises(IntegrationError):
            integrate_exact(wild, init, 50, steps_per_day=1)

    def test_blowup_guard_shared_by_every_integrator(self):
        wild = SirParams(400.0, 0.1)
        init = InitialCondition(s0=0.5, i0=0.5, population=100)
        with pytest.raises(IntegrationError) as exact:
            integrate_exact(wild, init, 50, steps_per_day=1)
        with pytest.raises(IntegrationError) as batch:
            integrate_day_grid_batch([BASE.beta, wild.beta], [BASE.gamma, wild.gamma],
                                     init, 50, steps_per_day=1)
        with pytest.raises(IntegrationError) as sens:
            integrate_with_sensitivities(wild, init, 50, 1)
        # the same arithmetic blows up at the same substep in every lane
        assert batch.value.step == exact.value.step
        assert 1 <= sens.value.step <= exact.value.step

    @pytest.mark.parametrize("lanes", [1, 2, 91])
    def test_batch_matches_integrate_exact_lane_by_lane(self, lanes):
        # the kernel's array path gives every lane the bits of its scalar path
        omegas = np.linspace(0.0, 2.0 * math.pi, lanes, endpoint=False)
        betas = BASE.beta + 0.03 * np.cos(omegas)
        gammas = BASE.gamma + 0.03 * np.sin(omegas)
        s, i, c = integrate_day_grid_batch(betas, gammas, INIT7, 96)
        assert s.shape == i.shape == c.shape == (97, lanes)
        for k, (beta, gamma) in enumerate(zip(betas, gammas)):
            traj = integrate_exact(SirParams(beta, gamma), INIT7, 96)
            np.testing.assert_array_equal(s[:, k], traj.s)
            np.testing.assert_array_equal(i[:, k], traj.i)
            np.testing.assert_array_equal(c[:, k], traj.c)

    @pytest.mark.parametrize("lanes", [1, 2, sir._LANE_BODY_LANES - 1, sir._LANE_BODY_LANES, 91])
    def test_batch_failure_names_the_earliest_substep_of_any_lane(self, lanes):
        init = InitialCondition(s0=0.999, i0=1e-3, population=1000)
        late, early = SirParams(6.0, 0.1), SirParams(12.0, 0.1)
        steps = []
        for params in (late, early):
            with pytest.raises(IntegrationError) as exact:
                integrate_exact(params, init, 50, steps_per_day=1)
            steps.append(exact.value.step)
        assert steps[1] < steps[0]
        lane_params = ([BASE] * (lanes - 2) + [late, early])[-lanes:]  # one lane: early alone
        with pytest.raises(IntegrationError) as batch:
            integrate_day_grid_batch([p.beta for p in lane_params], [p.gamma for p in lane_params],
                                     init, 50, steps_per_day=1)
        assert batch.value.step == steps[1]

    @settings(max_examples=60, deadline=None)
    @given(lanes=st.integers(1, 100),
           rates=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(1e-3, 6.0)),
                          min_size=1, max_size=8),
           steps_per_day=st.sampled_from([1, 2, 5, 50]),
           horizon=st.integers(1, 30),
           population=st.sampled_from([100, 10**4, 10**7]))
    def test_batch_lanes_have_the_bits_of_integrate_exact(self, lanes, rates, steps_per_day,
                                                           horizon, population):
        # lane k runs the (gamma, delta) pair k % len(rates); at one substep
        # per day the fastest pairs blow up
        init = InitialCondition.from_population(population)
        pairs = [SirParams(gamma + delta, gamma) for gamma, delta in rates[:lanes]]
        lane_params = [pairs[k % len(pairs)] for k in range(lanes)]
        trajs, fail_steps = {}, []
        for p in pairs:
            try:
                trajs[p] = integrate_exact(p, init, horizon, steps_per_day)
            except IntegrationError:
                # the batch guards whole days only: the lane's first bad day
                with pytest.raises(IntegrationError) as day_grid:
                    sir._rk4(p.beta, p.gamma, (init.s0, init.i0), horizon * steps_per_day,
                             1.0 / steps_per_day, steps_per_day)
                fail_steps.append(day_grid.value.step)
        betas = [p.beta for p in lane_params]
        gammas = [p.gamma for p in lane_params]
        if fail_steps:
            with pytest.raises(IntegrationError) as batch:
                integrate_day_grid_batch(betas, gammas, init, horizon, steps_per_day)
            assert batch.value.step == min(fail_steps)
            return
        s, i, c = integrate_day_grid_batch(betas, gammas, init, horizon, steps_per_day)
        assert s.shape == i.shape == c.shape == (horizon + 1, lanes)
        for k, p in enumerate(lane_params):
            np.testing.assert_array_equal(s[:, k], trajs[p].s)
            np.testing.assert_array_equal(i[:, k], trajs[p].i)
            np.testing.assert_array_equal(c[:, k], trajs[p].c)

    @pytest.mark.parametrize("lanes", [1, 20])
    @pytest.mark.parametrize("steps_per_day", [5, 50])
    def test_kernel_outflow_is_the_sensitivity_pass_outflow(self, lanes, steps_per_day):
        # one lane runs the scalar body, 20 the lane body; either way c equals
        # the c row of the sensitivity pass bit for bit, and (s, i) keep the
        # bits of the scalar loop
        assert (lanes >= sir._LANE_BODY_LANES) == (lanes == 20)
        rng = np.random.default_rng(3)
        rates = [SirParams(0.21 + d, 0.07 + g)
                 for d, g in zip(0.01 * rng.standard_normal(lanes), 0.005 * rng.standard_normal(lanes))]
        s, i, c = integrate_day_grid_batch([p.beta for p in rates], [p.gamma for p in rates],
                                           INIT7, 60, steps_per_day)
        passes = inference._sensitivity_passes(rates, INIT7, 60, steps_per_day)
        for k, params in enumerate(rates):
            traj = integrate_exact(params, INIT7, 60, steps_per_day)
            s_scalar, i_scalar, c_scalar = sir._rk4(params.beta, params.gamma,
                                                    (INIT7.s0, INIT7.i0), 60 * steps_per_day,
                                                    1.0 / steps_per_day, steps_per_day)
            sens = integrate_with_sensitivities(params, INIT7, 60, steps_per_day)
            for got in (traj.c, c[:, k], sens[6], c_scalar):
                np.testing.assert_array_equal(got, passes[k][6])
            for got_s, got_i in ((traj.s, traj.i), (s[:, k], i[:, k]), (sens[0], sens[1]),
                                 (passes[k][0], passes[k][1])):
                np.testing.assert_array_equal(got_s, s_scalar)
                np.testing.assert_array_equal(got_i, i_scalar)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate_exact(BASE, INIT7, 0)
        with pytest.raises(ValueError):
            integrate_exact(BASE, INIT7, 10, steps_per_day=0)

    @pytest.mark.parametrize("horizon,steps_per_day", [(0, 50), (-3, 50), (10, 0)])
    def test_batch_checks_the_grid_as_integrate_exact_does(self, horizon, steps_per_day):
        with pytest.raises(ValueError) as exact:
            integrate_exact(BASE, INIT7, horizon, steps_per_day)
        with pytest.raises(ValueError) as batch:
            integrate_day_grid_batch([BASE.beta], [BASE.gamma], INIT7, horizon, steps_per_day)
        assert str(batch.value) == str(exact.value)

    def test_batch_rejects_zero_lanes(self):
        with pytest.raises(ValueError, match="nonempty"):
            integrate_day_grid_batch([], [], INIT7, 10)


class TestPeak:
    def test_peak_characterization_on_reference_grid(self):
        # at the peak, s equals 1/r0
        for params, init, _ in reference_grid():
            traj = integrate_exact(params, init, 64)
            try:
                t_star = peak_time(traj)
            except HorizonTooShortError:
                t_star = peak_time_for(params, init)
                traj = integrate_exact(params, init, int(math.ceil(t_star)) + 5)
            s_at_peak = float(np.interp(t_star, traj.fine_times, traj.fine_s))
            assert abs(s_at_peak - 1.0 / params.r0()) < 1e-4

    def test_horizon_too_short(self):
        traj = integrate_exact(BASE, INIT7, 60)
        with pytest.raises(HorizonTooShortError):
            peak_time(traj)

    def test_peak_time_for_doubles_horizon(self):
        t_star = peak_time_for(BASE, INIT7)
        assert 118.0 <= t_star <= 122.0


class TestLinearized:
    def test_initial_condition_exact(self):
        traj = integrate_linearized(BASE, INIT7, 10)
        assert traj.s[0] == INIT7.s0
        assert traj.i[0] == INIT7.i0

    def test_exponential_growth_value(self):
        traj = integrate_linearized(BASE, INIT7, 60)
        assert traj.i[60] == pytest.approx(math.exp(0.14 * 60) / 1e7, rel=1e-12)

    def test_independent_closed_form(self):
        # spot-check against a separately coded expression
        delta = BASE.delta()
        traj = integrate_linearized(BASE, INIT7, 40)
        for t in (0, 7, 23, 40):
            expected_s = INIT7.s0 - (BASE.beta / delta) * (math.exp(delta * t) - 1.0) * INIT7.i0
            assert traj.s[t] == pytest.approx(expected_s, rel=1e-14)

    def test_early_time_agreement_with_exact(self):
        exact = integrate_exact(BASE, INIT7, 130, steps_per_day=100)
        t_star = peak_time(exact)
        lin = integrate_linearized(BASE, INIT7, 130)
        cutoff = int(0.5 * t_star)
        rel = np.abs(lin.i[1 : cutoff + 1] - exact.i[1 : cutoff + 1]) / exact.i[1 : cutoff + 1]
        assert np.all(rel < 0.05)
        # the relative gap grows with time
        assert rel[-1] > rel[ len(rel) // 4 ]


class TestIncidence:
    def test_linearized_closed_form_identity(self):
        lin = integrate_linearized(BASE, INIT7, 50)
        inc = incidence(lin)
        delta = BASE.delta()
        t = np.arange(1, 51)
        expected = BASE.beta * ((math.exp(-delta) - 1.0) / (-delta)) * 1e7 * INIT7.i0 * np.exp(delta * t)
        # read from the closed-form outflow, with no rounding floor of s near 1
        np.testing.assert_allclose(inc, expected, rtol=1e-13)

    def test_linearized_outflow_is_the_closed_form_drop_in_s(self):
        # N * (s_{t-1} - s_t) of the closed form agrees up to the rounding of s
        # near 1, N * eps per count; c carries none of it
        lin = integrate_linearized(BASE, INIT7, 50)
        np.testing.assert_array_equal(lin.c[0], 0.0)
        np.testing.assert_allclose(incidence(lin), INIT7.population * (lin.s[:-1] - lin.s[1:]),
                                   rtol=1e-13, atol=INIT7.population * 2.0 * np.finfo(float).eps)
        np.testing.assert_allclose(lin.s, INIT7.s0 - lin.c, rtol=0.0, atol=np.finfo(float).eps)

    def test_telescoping_total(self):
        traj = integrate_exact(BASE, INIT7, 400)
        total = incidence(traj).sum()
        assert total == pytest.approx(1e7 * (traj.s[0] - traj.s[-1]), rel=1e-12)

    def test_nonnegative_for_exact(self):
        traj = integrate_exact(BASE, INIT7, 300)
        assert np.all(incidence(traj) >= 0.0)

    def test_requires_two_samples(self):
        traj = integrate_exact(BASE, INIT7, 5)
        short = type(traj)(
            times=traj.times[:1], s=traj.s[:1], i=traj.i[:1], c=traj.c[:1],
            params=traj.params, init=traj.init, kind="exact",
        )
        with pytest.raises(InsufficientDataError):
            incidence(short)


class TestSummary:
    def test_identical_parameters_identical_summary(self):
        a = epidemic_summary(integrate_exact(BASE, INIT7, 400))
        b = epidemic_summary(integrate_exact(BASE, INIT7, 400))
        assert a == b

    def test_summary_fields_consistent(self):
        traj = integrate_exact(BASE, INIT7, 400)
        summary = epidemic_summary(traj)
        assert summary.duration >= summary.peak_time
        day = summary.duration
        assert 1e7 * traj.i[day] < 10.0
        assert 1e7 * traj.i[day - 1] >= 10.0
        assert 0.0 < summary.attack_fraction_at_peak_plus_10 < 1.0

    def test_horizon_too_short_with_hint(self):
        traj = integrate_exact(BASE, INIT7, 125)
        with pytest.raises(HorizonTooShortError) as excinfo:
            epidemic_summary(traj)
        assert excinfo.value.required is not None


def test_trajectory_csv_roundtrip_precision(tmp_path):
    traj = integrate_exact(BASE, INIT7, 30)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,s,i,r"
    parsed = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    np.testing.assert_array_equal(parsed[:, 1], traj.s)
    np.testing.assert_array_equal(parsed[:, 2], traj.i)


def test_linearized_state_matches_trajectory():
    s, i = linearized_state(BASE, INIT7, np.arange(11))
    traj = integrate_linearized(BASE, INIT7, 10)
    np.testing.assert_array_equal(traj.s, s)
    np.testing.assert_array_equal(traj.i, i)
