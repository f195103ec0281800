import math

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from sirlimits.errors import (
    IndistinguishableHypothesesError,
    InsufficientDataError,
    NoDetectablePerturbationError,
)
from sirlimits import lrt, sir
from sirlimits.lrt import (
    EmpiricalRate,
    TestSpec,
    case2_pi4_type2,
    empirical_type1,
    empirical_type2,
    epsilon_for_power,
    gamma_test_power,
    lrt_decide,
    lrt_threshold,
    power_grid,
    power_summary,
    type2_approx,
    type2_exact,
    v_statistic,
    worst_case_direction,
    write_power_csv,
)
from sirlimits.perturb import Perturbation
from sirlimits.simulate import NoiseModel, ObservationSeries, replicate_seed, sigma_sequence
from sirlimits.sir import InitialCondition, SirParams, incidence, integrate_exact

BASE = SirParams(0.21, 0.07)
INIT7 = InitialCondition.from_population(10**7)
PI4 = math.pi / 4.0


def make_spec(epsilon=0.03, omega=PI4, alpha=0.05, T=60, p=1.0, noise=None):
    return TestSpec(
        pert=Perturbation(BASE, epsilon, omega),
        alpha=alpha,
        T=T,
        p=p,
        noise=noise or NoiseModel.case2(0.3),
        init=INIT7,
    )


def noiseless_obs(params, spec):
    traj = integrate_exact(params, spec.init, spec.T, spec.steps_per_day)
    return ObservationSeries(
        values=spec.p * incidence(traj),
        reporting_rate=spec.p,
        noise=spec.noise,
        seed=0,
        population=spec.init.population,
    )


class TestSpecValidation:
    def test_horizon_must_precede_peak(self):
        with pytest.raises(ValueError):
            make_spec(T=121)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            make_spec(alpha=0.0)

    def test_zero_epsilon_rejected_at_construction(self):
        with pytest.raises(Exception):
            make_spec(epsilon=0.0)


class TestThreshold:
    def test_alpha_half_gives_minus_half_v(self):
        spec = make_spec(alpha=0.5)
        v = v_statistic(spec)
        assert lrt_threshold(spec) == pytest.approx(-0.5 * v, rel=1e-12)

    def test_monotone_decreasing_in_alpha(self):
        thresholds = [lrt_threshold(make_spec(alpha=a)) for a in (0.01, 0.05, 0.2, 0.5)]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


class TestDecide:
    def test_noiseless_null_data(self):
        spec = make_spec()
        decision = lrt_decide(noiseless_obs(BASE, spec), spec)
        v = v_statistic(spec)
        assert decision.log_lr == pytest.approx(-0.5 * v, rel=1e-6)
        assert not decision.reject

    def test_noiseless_alternative_data(self):
        spec = make_spec()
        decision = lrt_decide(noiseless_obs(spec.alternative_params(), spec), spec)
        v = v_statistic(spec)
        assert decision.log_lr == pytest.approx(0.5 * v, rel=1e-6)
        # +V/2 clears the threshold only once sqrt(V) >= -ppf(alpha); with a
        # quieter noise level the same data are decisively rejected
        assert decision.reject == (math.sqrt(v) >= -ndtri(spec.alpha))
        loud = make_spec(noise=NoiseModel.case2(0.05))
        decisive = lrt_decide(noiseless_obs(loud.alternative_params(), loud), loud)
        assert decisive.reject

    def test_short_observations_rejected(self):
        spec = make_spec()
        obs = noiseless_obs(BASE, make_spec(T=30))
        with pytest.raises(InsufficientDataError):
            lrt_decide(obs, spec)


class TestType2:
    def test_limits(self):
        tiny = make_spec(epsilon=1e-6)
        assert type2_exact(tiny) == pytest.approx(0.95, abs=1e-3)
        quiet = make_spec(noise=NoiseModel.case2(1e-9))
        assert type2_exact(quiet) == pytest.approx(0.0, abs=1e-3)

    def test_exact_between_zero_and_one_and_monotone(self):
        values = [type2_exact(make_spec(epsilon=e)) for e in (0.01, 0.02, 0.04, 0.06)]
        assert all(0.0 < v < 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        sig_values = [type2_exact(make_spec(noise=NoiseModel.case2(s))) for s in (0.1, 0.3, 0.6, 1.0)]
        assert all(a < b for a, b in zip(sig_values, sig_values[1:]))
        t_values = [type2_exact(make_spec(T=t)) for t in (20, 40, 60, 80)]
        assert all(a > b for a, b in zip(t_values, t_values[1:]))
        p_values = [type2_exact(make_spec(p=p)) for p in (0.1, 0.4, 0.7, 1.0)]
        assert all(a > b for a, b in zip(p_values, p_values[1:]))

    def test_approx_first_tighter_than_second_at_slope_one(self):
        for noise in (NoiseModel.case2(0.3), NoiseModel(kind="case3", sigma=3.0)):
            spec = make_spec(noise=noise)
            exact = type2_exact(spec)
            first = type2_approx(spec, "first")
            second = type2_approx(spec, "second")
            assert abs(first - exact) <= abs(second - exact)
            assert abs(first - exact) < 0.01

    def test_second_variant_reduces_to_explicit_formula_at_pi4(self):
        spec = make_spec()
        explicit = case2_pi4_type2(0.05, 0.03, 0.3, 1.0, 60)
        assert type2_approx(spec, "second") == pytest.approx(explicit, rel=1e-12)

    def test_first_variant_keeps_increment_factor_at_pi4(self):
        spec = make_spec()
        delta = BASE.delta()
        factor = (1.0 - math.exp(-delta)) / delta
        arg = ndtri(0.05) + (1.0 / 0.3) * (0.03 / math.sqrt(2.0)) * factor * math.sqrt(60)
        assert type2_approx(spec, "first") == pytest.approx(1.0 - ndtr(arg), rel=1e-12)

    def test_population_invariance_of_case2_closed_form(self):
        reference = None
        for n in (10**4, 10**5, 10**6, 10**7):
            spec = TestSpec(
                pert=Perturbation(BASE, 0.03, PI4),
                alpha=0.05, T=30, p=1.0,
                noise=NoiseModel.case2(0.3),
                init=InitialCondition.from_population(n),
            )
            value = type2_approx(spec, "second")
            if reference is None:
                reference = value
            assert value == reference  # bitwise: population cancels algebraically

    def test_rate_invariance_of_case2_closed_form_at_pi4(self):
        # T = 8 stays ahead of the fastest benchmark peak (~12 days)
        explicit = case2_pi4_type2(0.05, 0.03, 0.3, 1.0, 8)
        for beta, gamma in ((0.21, 0.14), (0.21, 0.07), (0.42, 0.07), (1.68, 0.14)):
            params = SirParams(beta, gamma)
            spec = TestSpec(
                pert=Perturbation(params, 0.03, PI4),
                alpha=0.05, T=8, p=1.0,
                noise=NoiseModel.case2(0.3),
                init=INIT7,
            )
            assert type2_approx(spec, "second") == pytest.approx(explicit, rel=1e-12)

    def test_known_sequence_closed_form_reads_its_first_T_days(self):
        # a one-day sequence used to broadcast over all 60 days in the closed form
        sd = np.linspace(20.0, 400.0, 80)
        assert type2_approx(make_spec(noise=NoiseModel.known(sd))) == type2_approx(
            make_spec(noise=NoiseModel.known(sd[:60])))
        short = make_spec(p=0.8, noise=NoiseModel.known([20.0]))
        for form in (type2_exact, type2_approx, lambda spec: type2_approx(spec, "second")):
            with pytest.raises(InsufficientDataError, match="provides 1 days, need 60"):
                form(short)

    def test_vanishing_perturbation_all_directions(self):
        for omega in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
            spec = make_spec(epsilon=1e-12, omega=float(omega))
            assert type2_approx(spec, "first") == pytest.approx(0.95, abs=1e-9)


class TestWorstCase:
    def test_grid_maximizer_near_slope_one(self):
        # the closed forms genuinely peak ~0.055 rad past pi/4 (keeping the
        # one-day increment factors shifts the least-identifiable direction a
        # few degrees), so the maximizer is near, not at, the slope-one angle
        omega_star, value = worst_case_direction(
            BASE, INIT7, epsilon=0.03, alpha=0.05, T=60, p=1.0,
            noise=NoiseModel.case2(0.3),
        )
        gap = min(abs(omega_star - PI4), abs(omega_star - 5 * PI4))
        assert gap <= 0.08
        assert value == pytest.approx(type2_approx(make_spec(), "first"), abs=0.06)
        assert value >= type2_approx(make_spec(), "first") - 1e-12

    def test_orthogonal_direction_much_weaker(self):
        e2_pi4 = type2_approx(make_spec(omega=PI4), "first")
        e2_3pi4 = type2_approx(make_spec(omega=3 * PI4), "first")
        assert e2_3pi4 < e2_pi4


class TestEpsilonInversion:
    def test_reference_values(self):
        eps_fast = epsilon_for_power(0.5, 0.05, 0.2, 1.0, 60, 0.14)
        eps_slow = epsilon_for_power(0.5, 0.05, 0.2, 1.0, 60, 0.07)
        assert eps_fast == pytest.approx(0.064, abs=1e-3)
        assert eps_slow == pytest.approx(0.062, abs=1e-3)

    def test_round_trip_through_first_variant(self):
        target = 0.37
        eps = epsilon_for_power(target, 0.05, 0.2, 1.0, 60, BASE.delta())
        spec = make_spec(epsilon=eps, noise=NoiseModel.case2(0.2))
        assert type2_approx(spec, "first") == pytest.approx(target, abs=1e-6)

    def test_unattainable_target(self):
        with pytest.raises(NoDetectablePerturbationError):
            epsilon_for_power(0.96, 0.05, 0.2, 1.0, 60, 0.14)

    @pytest.mark.parametrize("sigma, delta", [(0.2, 0.0), (-0.2, 0.14), (math.inf, 0.14),
                                              (0.2, math.nan)])
    def test_rejects_non_positive_scales(self, sigma, delta):
        # delta = 0 divided by zero, and sigma < 0 gave a negative epsilon
        with pytest.raises(ValueError, match="sigma and delta"):
            epsilon_for_power(0.5, 0.05, sigma, 1.0, 60, delta)


class TestGammaTest:
    def test_matches_explicit_case2_formula(self):
        result = gamma_test_power(0.02, alpha=0.05, sigma=0.3, p=1.0, T=60)
        explicit = case2_pi4_type2(0.05, 0.02 * math.sqrt(2.0), 0.3, 1.0, 60)
        assert result.type2 == pytest.approx(explicit, rel=1e-12)
        assert result.epsilon == pytest.approx(0.02 * math.sqrt(2.0))
        assert result.omega == PI4

    def test_sign_symmetry(self):
        up = gamma_test_power(0.02, 0.05, 0.3, 1.0, 60)
        down = gamma_test_power(-0.02, 0.05, 0.3, 1.0, 60)
        assert up.type2 == down.type2
        assert down.omega == 5 * PI4

    def test_large_shift_detected(self):
        assert gamma_test_power(5.0, 0.05, 0.3, 1.0, 60).type2 < 1e-12

    def test_zero_shift_rejected(self):
        with pytest.raises(IndistinguishableHypothesesError):
            gamma_test_power(0.0, 0.05, 0.3, 1.0, 60)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_closed_forms_reject_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        gamma_test_power(0.02, alpha, 0.3, 1.0, 60)
    with pytest.raises(ValueError, match="alpha"):
        case2_pi4_type2(alpha, 0.03, 0.3, 1.0, 60)


@pytest.mark.parametrize("closed_form, args, message", [
    (epsilon_for_power, (0.5, 0.05, 0.2, 0.0, 60, 0.14), "reporting rate"),  # ZeroDivisionError
    (epsilon_for_power, (0.5, 0.05, 0.2, -1.0, 60, 0.14), "reporting rate"),  # gave -0.064
    (gamma_test_power, (0.01, 0.05, 0.0, 1.0, 60), "sigma"),  # ZeroDivisionError
    (case2_pi4_type2, (0.05, 0.01, 0.0, 1.0, 60), "sigma"),  # ZeroDivisionError
    (gamma_test_power, (0.01, 0.05, 0.3, 1.0, -1), "T must"),  # math domain error
    (gamma_test_power, (0.01, 0.05, 0.3, 2.0, 60), "reporting rate"),  # gave a value
    (case2_pi4_type2, (0.05, 0.01, 0.3, 1.0, 0), "T must"),  # gave 1 - alpha
], ids=["eps-p0", "eps-p-neg", "gamma-sigma0", "case2-sigma0", "gamma-T-neg", "gamma-p2",
        "case2-T0"])
def test_closed_forms_reject_invalid_designs(closed_form, args, message):
    with pytest.raises(ValueError, match=message):
        closed_form(*args)


def test_closed_forms_return_python_floats():
    # scipy.special returns numpy scalars; the public values stay plain floats
    spec = make_spec()
    values = [type2_exact(spec), type2_approx(spec, "first"), type2_approx(spec, "second"),
              lrt_threshold(spec), case2_pi4_type2(0.05, 0.03, 0.3, 1.0, 60),
              epsilon_for_power(0.5, 0.05, 0.2, 1.0, 60, 0.14),
              gamma_test_power(0.02, 0.05, 0.3, 1.0, 60).type2]
    assert [type(v) for v in values] == [float] * len(values)


class TestEmpirical:
    def test_type1_calibrated(self):
        for alpha, eps, sigma, seed in [(0.05, 0.03, 0.3, 1), (0.1, 0.02, 0.5, 2)]:
            spec = make_spec(epsilon=eps, alpha=alpha, noise=NoiseModel.case2(sigma))
            rate = empirical_type1(spec, replicates=2000, seed=seed)
            band = 3 * math.sqrt(alpha * (1 - alpha) / 2000)
            assert abs(rate.value - alpha) <= band

    def test_type2_matches_exact(self):
        spec = make_spec()
        rate = empirical_type2(spec, replicates=2000, seed=4)
        assert abs(rate.value - type2_exact(spec)) <= 3 * rate.stderr + 1e-9

    def test_near_noiseless_never_fails_to_reject(self):
        spec = make_spec(noise=NoiseModel.case2(1e-6))
        rate = empirical_type2(spec, replicates=200, seed=5)
        assert rate.value == 0.0

    def test_deterministic_under_seed(self):
        spec = make_spec()
        a = empirical_type2(spec, replicates=300, seed=11)
        b = empirical_type2(spec, replicates=300, seed=11)
        assert a == b

    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            empirical_type2(make_spec(), replicates=10, seed=0)


def test_power_summary_and_csv(tmp_path):
    spec = make_spec()
    res = power_summary(spec, replicates=200, seed=3)
    assert res.v_T > 0
    assert res.type2_empirical is not None
    path = tmp_path / "power.csv"
    write_power_csv([(PI4, 0.03, 0.3, res)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("omega,epsilon,sigma,type2_exact")
    assert len(lines) == 2



def count_calls(monkeypatch, module, name="integrate_exact"):
    """Replace ``module.name`` by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_decide_integrates_each_hypothesis_once(monkeypatch):
    spec = make_spec()
    obs = noiseless_obs(spec.alternative_params(), spec)
    calls = count_calls(monkeypatch, lrt)
    decision = lrt_decide(obs, spec)
    assert len(calls) == 2
    assert decision.threshold == lrt_threshold(spec)


def test_worst_case_search_runs_one_peak_search(monkeypatch):
    # a null that no other test validates, so its peak search is not memoized
    null = SirParams(0.317, 0.113)
    sir_calls = count_calls(monkeypatch, sir)
    lrt_calls = count_calls(monkeypatch, lrt)
    omega, _ = worst_case_direction(null, INIT7, 0.02, 0.05, 40, 1.0, NoiseModel.case2(0.3))
    assert len(sir_calls) + len(lrt_calls) <= 2
    assert min(abs(omega - PI4), abs(omega - 5 * PI4)) < 0.3


GRID_OMEGAS = (0.0, PI4, math.pi)
GRID_EPSILONS = (0.01, 0.03)


@pytest.mark.parametrize("replicates", [None, 200])
@pytest.mark.parametrize("noises", [
    [NoiseModel.case1(s) for s in (1e-4, 3e-4)],
    [NoiseModel.case2(s) for s in (0.1, 0.3)],
    [NoiseModel(kind="case3", sigma=s) for s in (3.0, 10.0)],
    [NoiseModel.known(np.linspace(20.0, 400.0, 60))],
], ids=["case1", "case2", "case3", "known_sequence"])
def test_power_grid_equals_power_summary_per_point(noises, replicates):
    rows = power_grid(BASE, INIT7, noises, GRID_OMEGAS, GRID_EPSILONS, alpha=0.05, T=60,
                      p=0.8, replicates=replicates, seed=9)
    expected = [
        (omega, eps, noise.sigma,
         power_summary(make_spec(epsilon=eps, omega=omega, p=0.8, noise=noise),
                       replicates=replicates, seed=9))
        for noise in noises for omega in GRID_OMEGAS for eps in GRID_EPSILONS
    ]
    assert [row[:3] for row in rows] == [row[:3] for row in expected]  # sigma -> omega -> eps
    assert [row[3] for row in rows] == [row[3] for row in expected]
    assert all((row[3].type2_empirical is None) == (replicates is None) for row in rows)


def test_power_grid_integrates_each_distinct_hypothesis_once(monkeypatch):
    # the grid of the ``power`` benchmark workload: 8 sigmas x 3 omegas x 7
    # epsilons, 21 distinct alternatives
    sigmas = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0)
    epsilons = (0.004, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
    exact_calls = count_calls(monkeypatch, lrt)
    lane_calls = []
    rk4_lanes = sir._rk4_lanes

    def counted_rk4_lanes(beta, *args):
        lane_calls.append(len(beta))
        return rk4_lanes(beta, *args)

    monkeypatch.setattr(sir, "_rk4_lanes", counted_rk4_lanes)
    rows = power_grid(BASE, INIT7, [NoiseModel.case2(s) for s in sigmas], GRID_OMEGAS, epsilons,
                      alpha=0.05, T=60, p=1.0)
    assert len(rows) == 168
    assert len(exact_calls) == 1 + 21
    assert lane_calls == []  # no batched integration


def reference_rate(spec, replicates, seed, under_alternative):
    """The Monte Carlo estimate one replicate at a time: a Philox generator
    per replicate, seeded by replicate_seed(seed, r), and one np.dot per row."""
    null = integrate_exact(spec.null_params, spec.init, spec.T, spec.steps_per_day)
    alt = integrate_exact(spec.alternative_params(), spec.init, spec.T, spec.steps_per_day)
    d0, de = incidence(null), incidence(alt)
    sigma = sigma_sequence(spec.noise, null, spec.T)
    p = spec.p
    mean = p * (de if under_alternative else d0)
    w = p * (de - d0) / sigma**2
    const = float(np.sum(((mean - p * d0) ** 2 - (mean - p * de) ** 2) / (2.0 * sigma**2)))
    v = float(np.sum((p * (de - d0)) ** 2 / sigma**2))
    threshold = -ndtri(spec.alpha) * math.sqrt(v) - 0.5 * v
    wrong = 0
    for r in range(replicates):
        gen = np.random.Generator(np.random.Philox(replicate_seed(seed, r)))
        log_lr = const + float(np.dot(w, sigma * gen.standard_normal(spec.T)))
        wrong += bool(log_lr < threshold if under_alternative else log_lr >= threshold)
    value = wrong / replicates
    return EmpiricalRate(value=value, stderr=math.sqrt(max(value * (1.0 - value), 1e-12) / replicates),
                         replicates=replicates)


@pytest.mark.parametrize("seed", [0, 17, 2**40 + 3])
@pytest.mark.parametrize("T, sigma, replicates", [(6, 0.05, 100), (60, 0.3, 2000), (60, 0.2, 777)])
def test_empirical_rates_match_one_generator_per_replicate(seed, T, sigma, replicates):
    spec = make_spec(T=T, noise=NoiseModel.case2(sigma))
    assert empirical_type2(spec, replicates, seed) == reference_rate(spec, replicates, seed, True)
    assert empirical_type1(spec, replicates, seed) == reference_rate(spec, replicates, seed, False)
