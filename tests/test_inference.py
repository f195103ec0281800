import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from sirlimits import inference, sir
from sirlimits.data import load_nyc_fixture
from sirlimits.errors import (
    DegenerateParameterError,
    DegenerateVarianceError,
    InsufficientDataError,
    IntegrationError,
    OptimizationFailureError,
)
from sirlimits.inference import (
    LikelihoodSpec,
    fisher_information,
    fit_mle,
    integrate_with_sensitivities,
    log_likelihood,
    log_likelihood_gradient,
    mle_ensemble,
    moment_start,
    write_ensemble_csv,
)
from sirlimits.nyc import nyc_likelihood_spec, reporting_rate_sweep
from sirlimits.simulate import NoiseModel, ObservationSeries, observe, observe_batch, sigma_sequence
from sirlimits.sir import InitialCondition, SirParams, incidence, integrate_exact
from sirlimits.sir import integrate_linearized

BASE = SirParams(0.21, 0.07)
INIT7 = InitialCondition.from_population(10**7)


from conftest import fd_gradient


def make_obs(params, init, noise, p, T, seed, horizon=None):
    traj = integrate_exact(params, init, horizon or T)
    return observe(traj, noise, p, T, seed)


def ensemble_design_spec(seed, replicate):
    """Replicate ``replicate`` of data seed ``seed`` on the acceptance
    ensemble's design: N = 1e7, T = 120, sd sqrt(1e9), fit at 5 substeps per day."""
    T = 120
    noise = NoiseModel.known(np.full(T, math.sqrt(100 * 1e7)))
    truth = integrate_exact(BASE, INIT7, T)
    y = observe_batch(truth, noise, 1.0, T, seed, replicate + 1)[replicate]
    obs = ObservationSeries(values=y, reporting_rate=1.0, noise=noise, seed=seed,
                            population=10**7)
    return LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=5)


def sigma_inferred_spec(raw, kind="case3"):
    """The series of ``raw``, fit under the ``kind`` law with sigma inferred at
    10 substeps per day."""
    obs = ObservationSeries(values=raw.values, reporting_rate=1.0,
                            noise=NoiseModel(kind=kind, sigma=None), seed=raw.seed,
                            population=10**7)
    return LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)


def no_ascent_from(fit, spec):
    """Log-likelihood that scipy's L-BFGS-B gains, started at the fit."""
    sigma_inferred = spec.noise.sigma_free

    def negative(theta):
        try:
            params = SirParams(*theta[:2])
        except DegenerateParameterError:
            return 1e12, np.zeros(len(theta))
        sigma = theta[2] if sigma_inferred else None
        return (-log_likelihood(params, sigma, spec),
                -log_likelihood_gradient(params, sigma, spec))

    x0 = [fit.beta_hat, fit.gamma_hat] + ([fit.sigma_hat] if sigma_inferred else [])
    res = scipy_minimize(negative, x0, jac=True, method="L-BFGS-B",
                         bounds=[(1e-6, 500.0)] * len(x0))
    return -res.fun - fit.loglik


def reference_sensitivities(params, init, horizon, steps_per_day):
    """(s, i, sb, ib, sg, ig, c) at whole days from the forward-sensitivity RK4
    that steps the state, d(s, i)/d(beta, gamma) and the outflow c together,
    one substep at a time."""
    beta, gamma = params.beta, params.gamma
    h = 1.0 / steps_per_day
    h2, h6 = 0.5 * h, h / 6.0
    s, i, sb, ib, sg, ig, c = init.s0, init.i0, 0.0, 0.0, 0.0, 0.0, 0.0
    rows = [(s, i, sb, ib, sg, ig, c)]
    for step in range(1, horizon * steps_per_day + 1):
        x1 = beta * i * s
        xb1 = i * s + beta * (ib * s + i * sb)
        xg1 = beta * (ig * s + i * sg)
        k1i, k1ib, k1ig = x1 - gamma * i, xb1 - gamma * ib, xg1 - i - gamma * ig
        s2, i2 = s - h2 * x1, i + h2 * k1i
        sb2, ib2 = sb - h2 * xb1, ib + h2 * k1ib
        sg2, ig2 = sg - h2 * xg1, ig + h2 * k1ig
        x2 = beta * i2 * s2
        xb2 = i2 * s2 + beta * (ib2 * s2 + i2 * sb2)
        xg2 = beta * (ig2 * s2 + i2 * sg2)
        k2i, k2ib, k2ig = x2 - gamma * i2, xb2 - gamma * ib2, xg2 - i2 - gamma * ig2
        s3, i3 = s - h2 * x2, i + h2 * k2i
        sb3, ib3 = sb - h2 * xb2, ib + h2 * k2ib
        sg3, ig3 = sg - h2 * xg2, ig + h2 * k2ig
        x3 = beta * i3 * s3
        xb3 = i3 * s3 + beta * (ib3 * s3 + i3 * sb3)
        xg3 = beta * (ig3 * s3 + i3 * sg3)
        k3i, k3ib, k3ig = x3 - gamma * i3, xb3 - gamma * ib3, xg3 - i3 - gamma * ig3
        s4, i4 = s - h * x3, i + h * k3i
        sb4, ib4 = sb - h * xb3, ib + h * k3ib
        sg4, ig4 = sg - h * xg3, ig + h * k3ig
        x4 = beta * i4 * s4
        xb4 = i4 * s4 + beta * (ib4 * s4 + i4 * sb4)
        xg4 = beta * (ig4 * s4 + i4 * sg4)
        k4i, k4ib, k4ig = x4 - gamma * i4, xb4 - gamma * ib4, xg4 - i4 - gamma * ig4
        sb = sb - h6 * (xb1 + 2.0 * (xb2 + xb3) + xb4)
        ib = ib + h6 * (k1ib + 2.0 * (k2ib + k3ib) + k4ib)
        sg = sg - h6 * (xg1 + 2.0 * (xg2 + xg3) + xg4)
        ig = ig + h6 * (k1ig + 2.0 * (k2ig + k3ig) + k4ig)
        outflow = h6 * (x1 + 2.0 * (x2 + x3) + x4)
        c = c + outflow
        s = s - outflow
        i = i + h6 * (k1i + 2.0 * (k2i + k3i) + k4i)
        if step % steps_per_day == 0:
            rows.append((s, i, sb, ib, sg, ig, c))
    return tuple(np.array(col) for col in zip(*rows))


def sensitivity_design(name):
    """(params, init, horizon, steps_per_day): the NYC fixture at its p = 0.25
    optimum, the acceptance ensemble design, and a small population at high r0."""
    if name == "nyc_p025":
        spec = nyc_likelihood_spec(load_nyc_fixture(), 0.25)
        return fit_mle(spec).params(), spec.init, spec.T, spec.steps_per_day
    beta, gamma, n, horizon, spd = {"acceptance": (0.21, 0.07, 10**7, 120, 5),
                                    "small_n": (1.68, 0.14, 10**4, 30, 10)}[name]
    return SirParams(beta, gamma), InitialCondition.from_population(n), horizon, spd


class TestSensitivities:
    def test_state_matches_plain_integrator(self):
        s, i, *_ = integrate_with_sensitivities(BASE, INIT7, 60, 50)
        traj = integrate_exact(BASE, INIT7, 60, 50)
        np.testing.assert_allclose(s, traj.s, rtol=1e-13)
        np.testing.assert_allclose(i, traj.i, rtol=1e-13)

    def test_sensitivities_match_finite_differences(self):
        h = 1e-6
        up = integrate_exact(SirParams(BASE.beta + h, BASE.gamma), INIT7, 60, 50)
        dn = integrate_exact(SirParams(BASE.beta - h, BASE.gamma), INIT7, 60, 50)
        _, _, sb, ib, _, _, _ = integrate_with_sensitivities(BASE, INIT7, 60, 50)
        # the difference quotient carries an eps/h rounding floor of ~1e-10
        np.testing.assert_allclose(sb, (up.s - dn.s) / (2 * h), rtol=1e-4, atol=1e-9)
        np.testing.assert_allclose(ib, (up.i - dn.i) / (2 * h), rtol=1e-4, atol=1e-9)

    @pytest.mark.parametrize("design", ["nyc_p025", "acceptance", "small_n"])
    def test_matches_the_per_substep_recurrence(self, design):
        params, init, horizon, spd = sensitivity_design(design)
        s, i, *sens, c = integrate_with_sensitivities(params, init, horizon, spd)
        ref_s, ref_i, *ref_sens, ref_c = reference_sensitivities(params, init, horizon, spd)
        traj = integrate_exact(params, init, horizon, spd)
        for new, kernel, ref in ((s, traj.s, ref_s), (i, traj.i, ref_i), (c, ref_c, ref_c)):
            np.testing.assert_array_equal(new, kernel)
            np.testing.assert_array_equal(new, ref)
        np.testing.assert_allclose(sens, ref_sens, rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("steps_per_day", [1, 5])
    def test_blowup_raises_no_later_than_the_plain_integrator(self, steps_per_day):
        wild = SirParams(400.0, 0.1)
        init = InitialCondition(s0=0.5, i0=0.5, population=100)
        with pytest.raises(IntegrationError) as exact:
            integrate_exact(wild, init, 50, steps_per_day)
        with pytest.raises(IntegrationError) as sens:
            integrate_with_sensitivities(wild, init, 50, steps_per_day)
        assert 1 <= sens.value.step <= exact.value.step

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_lane_is_its_one_lane_pass(self):
        # a lane that blows up sits between lanes that do not: each lane of
        # the batch is its one-lane pass bit for bit, or raises what it raises alone
        init = InitialCondition(s0=0.5, i0=0.5, population=100)
        rates = [BASE, SirParams(400.0, 0.1), SirParams(1.68, 0.14), SirParams(0.42, 0.07)]
        batch = inference._sensitivity_passes(rates, init, 50, 5)
        assert isinstance(batch[1], IntegrationError)
        for params, lane in zip(rates, batch):
            try:
                alone = integrate_with_sensitivities(params, init, 50, 5)
            except IntegrationError as exc:
                assert str(lane) == str(exc)
            else:
                assert [a.tobytes() for a in lane] == [a.tobytes() for a in alone]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_wide_batch_is_one_lane_body_call_and_every_lane_its_one_lane_pass(
            self, monkeypatch):
        # 24 lanes on the ensemble design's grid (120 days, 5 substeps a day)
        # run their state loop as one lane-body call; the blow-up lane in the
        # middle fails alone, with its one-lane message
        init = InitialCondition(s0=0.5, i0=0.5, population=100)
        rates = [SirParams(0.21 + 0.01 * k, 0.07 + 0.002 * k) for k in range(23)]
        rates.insert(11, SirParams(400.0, 0.1))
        assert len(rates) > sir._LANE_BODY_LANES
        widths = []
        lane_body = sir._rk4_lanes

        def counted(beta, *args):
            widths.append(len(beta))
            return lane_body(beta, *args)

        monkeypatch.setattr(sir, "_rk4_lanes", counted)
        batch = inference._sensitivity_passes(rates, init, 120, 5)
        assert widths == [24]
        assert [k for k, lane in enumerate(batch) if isinstance(lane, IntegrationError)] == [11]
        for params, lane in zip(rates, batch):
            try:
                alone = integrate_with_sensitivities(params, init, 120, 5)
            except IntegrationError as exc:
                assert str(lane) == str(exc)
            else:
                assert [a.tobytes() for a in lane] == [a.tobytes() for a in alone]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_chunked_lanes_are_their_one_lane_passes(self):
        # 9 lanes of 700 substeps (NYC p = 0.25 at 50 per day) run in more
        # than one chunk; the middle lane blows up and fails alone
        spec = nyc_likelihood_spec(load_nyc_fixture(), 0.25)
        rates = inference.default_starts(spec)
        rates.insert(4, SirParams(400.0, 0.1))
        width = inference._CHUNK_LANE_SUBSTEPS // (spec.T * spec.steps_per_day)
        assert 1 <= width < len(rates)
        batch = inference._sensitivity_passes(rates, spec.init, spec.T, spec.steps_per_day)
        assert [k for k, lane in enumerate(batch) if isinstance(lane, IntegrationError)] == [4]
        for params, lane in zip(rates, batch):
            try:
                alone = integrate_with_sensitivities(params, spec.init, spec.T, spec.steps_per_day)
            except IntegrationError as exc:
                assert str(lane) == str(exc)
            else:
                assert [a.tobytes() for a in lane] == [a.tobytes() for a in alone]

    def test_zero_seed_zero_sensitivities(self):
        init = InitialCondition(s0=1.0, i0=0.0, population=1000)
        _, i, sb, ib, sg, ig, _ = integrate_with_sensitivities(BASE, init, 30, 10)
        assert np.all(i == 0.0)
        assert np.all(sb == 0.0)
        assert np.all(ib == 0.0)
        assert np.all(sg == 0.0)
        assert np.all(ig == 0.0)


class TestLogLikelihood:
    def test_noiseless_data_at_truth(self):
        sig = np.full(40, 2e4)
        noise = NoiseModel.known(sig)
        traj = integrate_exact(BASE, INIT7, 40)
        obs = ObservationSeries(
            values=0.8 * incidence(traj)[:40],
            reporting_rate=0.8,
            noise=noise,
            seed=0,
            population=10**7,
        )
        spec = LikelihoodSpec(obs=obs, init=INIT7)
        ll = log_likelihood(BASE, None, spec)
        expected = -0.5 * np.sum(np.log(2 * math.pi * sig**2))
        assert ll == pytest.approx(expected, rel=1e-9)

    def test_loglik_difference_matches_ratio_expansion(self):
        # ll(alt) - ll(null) must equal the quadratic expansion of the log
        # likelihood ratio, for any data
        sig = np.full(50, 3.1e4)
        noise = NoiseModel.known(sig)
        obs = make_obs(BASE, INIT7, noise, p=1.0, T=50, seed=5)
        spec = LikelihoodSpec(obs=obs, init=INIT7)
        alt = SirParams(0.231, 0.091)
        d0 = incidence(integrate_exact(BASE, INIT7, 50))
        de = incidence(integrate_exact(alt, INIT7, 50))
        y = obs.values
        expansion = np.sum(
            (2.0 * y * (de - d0) - (de**2 - d0**2)) / (2.0 * sig**2)
        )
        delta_ll = log_likelihood(alt, None, spec) - log_likelihood(BASE, None, spec)
        assert delta_ll == pytest.approx(expansion, rel=1e-9)

    def test_shuffled_data_lowers_likelihood(self):
        sig = np.full(60, 1e4)
        noise = NoiseModel.known(sig)
        traj = integrate_exact(BASE, INIT7, 60)
        clean = 1.0 * incidence(traj)[:60]
        rng = np.random.default_rng(2)
        shuffled = rng.permutation(clean)
        base_kwargs = dict(reporting_rate=1.0, noise=noise, seed=0, population=10**7)
        ll_clean = log_likelihood(BASE, None, LikelihoodSpec(
            obs=ObservationSeries(values=clean, **base_kwargs), init=INIT7))
        ll_shuffled = log_likelihood(BASE, None, LikelihoodSpec(
            obs=ObservationSeries(values=shuffled, **base_kwargs), init=INIT7))
        assert ll_shuffled < ll_clean


class TestGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences_known_noise(self, seed):
        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(0.15, 0.8))
        gamma = float(beta * rng.uniform(0.2, 0.8))
        params = SirParams(beta, gamma)
        noise = NoiseModel.known(np.full(30, 5e3))
        obs = make_obs(BASE, INIT7, noise, p=0.5, T=30, seed=seed)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=20)
        grad = log_likelihood_gradient(params, None, spec)
        fd = fd_gradient(params, None, spec)
        np.testing.assert_allclose(grad, fd, rtol=1e-4)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences_coupled_case2(self, seed):
        rng = np.random.default_rng(100 + seed)
        beta = float(rng.uniform(0.2, 0.5))
        params = SirParams(beta, beta * 0.4)
        noise = NoiseModel.case2(0.3)
        obs = make_obs(BASE, INIT7, noise, p=1.0, T=25, seed=seed)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=20)
        grad = log_likelihood_gradient(params, None, spec)
        # the coupled log-likelihood is large, so the difference quotient is
        # roundoff-limited below a 1e-4 relative step
        fd = fd_gradient(params, None, spec, rel_step=1e-4)
        np.testing.assert_allclose(grad, fd, rtol=1e-4)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences_sigma_inferred(self, seed):
        rng = np.random.default_rng(200 + seed)
        beta = float(rng.uniform(0.2, 0.5))
        params = SirParams(beta, beta * 0.5)
        noise = NoiseModel(kind="case3", sigma=None)
        raw = make_obs(BASE, INIT7, NoiseModel.case2(0.3), p=1.0, T=25, seed=seed)
        obs = ObservationSeries(values=raw.values, reporting_rate=1.0, noise=noise,
                                seed=seed, population=10**7)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=20)
        sigma = float(rng.uniform(0.5, 2.0))
        grad = log_likelihood_gradient(params, sigma, spec)
        fd = fd_gradient(params, sigma, spec, rel_step=1e-4)
        np.testing.assert_allclose(grad, fd, rtol=1e-4)


class TestFisherInformation:
    def test_matches_score_covariance_case2(self):
        # sd N * 0.3 * i_k: the variance moves with the rates, and the
        # information is the mean of g g' over series drawn from the model.
        T, replicates, steps_per_day = 40, 1000, 10
        noise = NoiseModel.case2(0.3)
        truth = integrate_exact(BASE, INIT7, T, steps_per_day)
        sigma_t = sigma_sequence(noise, truth, T)

        def spec(y):
            obs = ObservationSeries(values=y, reporting_rate=1.0, noise=noise, seed=17,
                                    population=10**7)
            return LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=steps_per_day)

        ys = observe_batch(truth, noise, 1.0, T, 17, replicates)
        scores = np.array([log_likelihood_gradient(BASE, None, spec(y)) for y in ys])
        products = scores[:, :, None] * scores[:, None, :]
        mean = products.mean(axis=0)
        stderr = products.std(axis=0, ddof=1) / math.sqrt(replicates)
        info = fisher_information(BASE, None, spec(ys[0]))
        assert np.all(np.abs(info - mean) <= 5.0 * stderr)
        # without the J_v'V^-2 J_v / 2 term the match fails
        _, _, sb, _, sg, _, _ = integrate_with_sensitivities(BASE, INIT7, T, steps_per_day)
        jac = 10**7 * np.stack([sb[:T] - sb[1:], sg[:T] - sg[1:]])
        mean_part = (jac / sigma_t**2) @ jac.T
        assert np.any(np.abs(mean_part - mean) > 5.0 * stderr)


class TestFixedVariance:
    # known_sequence noise, and case1 with sigma given, have J_v = 0: the
    # gradient and information are J_mu'V^-1 r and J_mu'V^-1 J_mu alone
    @pytest.mark.parametrize("noise", [NoiseModel.known(np.full(40, 2e4)), NoiseModel.case1(2e-3)],
                             ids=["known", "case1"])
    def test_gradient_and_information_are_the_mean_terms(self, noise):
        T, p, steps_per_day = 40, 0.8, 10
        obs = make_obs(BASE, INIT7, noise, p, T, seed=3)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=steps_per_day)
        params = SirParams(0.25, 0.1)
        _, _, sb, _, sg, _, c = integrate_with_sensitivities(params, INIT7, T, steps_per_day)
        jac = p * 10**7 * np.stack([sb[:T] - sb[1:], sg[:T] - sg[1:]])
        r = obs.values - p * 10**7 * np.diff(c)
        v = np.full(T, 2e4**2)
        np.testing.assert_allclose(log_likelihood_gradient(params, None, spec), jac @ (r / v),
                                   rtol=1e-12)
        np.testing.assert_allclose(fisher_information(params, None, spec), (jac / v) @ jac.T,
                                   rtol=1e-12)


class TestLikelihoodSpec:
    def test_known_sequence_shorter_than_observations_rejected(self):
        noise = NoiseModel.known(np.full(40, 3e4))
        obs = make_obs(BASE, INIT7, noise, 1.0, 40, seed=4)
        with pytest.raises(InsufficientDataError, match="provides 30 days, need 40"):
            LikelihoodSpec(obs=obs, init=INIT7, noise=NoiseModel.known(np.full(30, 3e4)))

    @pytest.mark.parametrize("p", [0.0, 1.5])
    def test_reporting_rate_outside_unit_interval_rejected(self, p):
        # both used to be fit and reported converged, p = 0 with a mean of zero
        # whatever the rates
        noise = NoiseModel.known(np.full(40, 3e4))
        values = incidence(integrate_exact(BASE, INIT7, 40))
        with pytest.raises(ValueError, match="reporting rate"):
            fit_mle(LikelihoodSpec(obs=ObservationSeries(values=values, reporting_rate=p,
                                                         noise=noise, seed=0,
                                                         population=10**7),
                                   init=INIT7))
        with pytest.raises(ValueError, match="reporting rate"):
            mle_ensemble(BASE, INIT7, NoiseModel.known(np.full(30, 3e4)), p=p, T=30,
                         replicates=3, seed=1, fit_steps_per_day=5, n_starts=1)


    @pytest.mark.parametrize("steps_per_day", [0, -1])
    def test_day_grid_without_substeps_rejected(self, steps_per_day):
        # both used to build, then fail in the first evaluation with a
        # ZeroDivisionError or an islice() error
        noise = NoiseModel.known(np.full(40, 3e4))
        obs = make_obs(BASE, INIT7, noise, 1.0, 40, seed=4)
        message = f"steps_per_day must be >= 1, got {steps_per_day}"
        with pytest.raises(ValueError, match=message):
            LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=steps_per_day)
        with pytest.raises(ValueError, match=message):
            mle_ensemble(BASE, INIT7, noise, p=1.0, T=40, replicates=2, seed=1,
                         fit_steps_per_day=steps_per_day, n_starts=1)

    def test_ensemble_refuses_its_fit_grid_before_simulating(self, monkeypatch):
        # the fit grid is checked with the other arguments, before any data is drawn
        calls = []
        for name in ("integrate_exact", "observe_batch"):
            monkeypatch.setattr(inference, name, lambda *args, name=name, **kw: calls.append(name))
        with pytest.raises(ValueError, match="steps_per_day must be >= 1, got 0"):
            mle_ensemble(BASE, INIT7, NoiseModel.known(np.full(40, 3e4)), p=1.0, T=40,
                         replicates=2, seed=1, fit_steps_per_day=0, n_starts=1)
        assert calls == []


class TestFit:
    def test_recovers_truth_from_noiseless_data(self):
        sig = np.full(60, 1e3)
        noise = NoiseModel.known(sig)
        traj = integrate_exact(BASE, INIT7, 60)
        obs = ObservationSeries(
            values=1.0 * incidence(traj)[:60],
            reporting_rate=1.0, noise=noise, seed=0, population=10**7,
        )
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=20)
        fit = fit_mle(spec, n_starts=4)
        assert fit.beta_hat == pytest.approx(0.21, rel=1e-4)
        assert fit.gamma_hat == pytest.approx(0.07, rel=1e-4)
        assert fit.converged

    def test_gradient_small_at_optimum(self):
        noise = NoiseModel.known(np.full(60, 2e4))
        obs = make_obs(BASE, INIT7, noise, p=1.0, T=60, seed=3)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        fit = fit_mle(spec, n_starts=4)
        grad = log_likelihood_gradient(fit.params(), None, spec)
        assert np.linalg.norm(grad) < 1e-6 * abs(fit.loglik)

    def test_monotone_accepted_steps(self, monkeypatch):
        # A fixed-variance fit runs Levenberg-Marquardt; capping its passes
        # and reading the result gives the iterate after each accepted step.
        noise = NoiseModel.known(np.full(40, 2e4))
        obs = make_obs(BASE, INIT7, noise, p=1.0, T=40, seed=8)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        iterates = {}
        for cap in range(1, 60):
            monkeypatch.setattr(inference, "_MAX_ITERATIONS", cap)
            fit = fit_mle(spec, starts=[moment_start(obs)])
            iterates.setdefault(fit.iterations, fit.loglik)
        trace = np.array([iterates[k] for k in sorted(iterates)])
        assert len(trace) > 2
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-7 * np.abs(trace[:-1]))

    def test_monotone_accepted_steps_sigma_inferred(self, monkeypatch):
        # Variance that depends on the rates: the same capped passes, over
        # (log beta, log gamma, log sigma).
        spec = sigma_inferred_spec(make_obs(BASE, INIT7, NoiseModel.case2(0.3), p=1.0, T=40, seed=8))
        iterates = {}
        for cap in range(1, 60):
            monkeypatch.setattr(inference, "_MAX_ITERATIONS", cap)
            fit = fit_mle(spec, starts=[moment_start(spec.obs)])
            iterates.setdefault(fit.iterations, fit.loglik)
        trace = np.array([iterates[k] for k in sorted(iterates)])
        assert len(trace) > 2
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-7 * np.abs(trace[:-1]))

    def test_replicate_that_stopped_on_the_ridge_reaches_the_optimum(self):
        # With one start, a relative-reduction stop once left this replicate
        # at ll -1436.11, 12.2 below the truth, with gradient norm 508, yet
        # flagged converged.
        spec = ensemble_design_spec(seed=31, replicate=22)
        fit = fit_mle(spec, n_starts=1)
        assert fit.loglik > log_likelihood(BASE, None, spec)
        assert fit.loglik == pytest.approx(-1423.665, abs=1e-3)
        assert fit.grad_norm <= 1e-6 * abs(fit.loglik)
        assert fit.converged

    @pytest.mark.parametrize("replicate", [0, 1, 2])
    def test_no_ascent_left_at_the_fixed_variance_optimum(self, replicate):
        # L-BFGS-B on the plain likelihood, started at the fit, finds no gain.
        spec = ensemble_design_spec(seed=2020, replicate=replicate)
        fit = fit_mle(spec, n_starts=1)
        assert no_ascent_from(fit, spec) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_ascent_left_at_the_case2_optimum(self, seed):
        # sd N * 0.3 * i_k of the candidate trajectory: the variance moves
        # with the rates and the information gains its J_v term.
        obs = make_obs(BASE, INIT7, NoiseModel.case2(0.3), p=1.0, T=40, seed=seed)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        fit = fit_mle(spec, n_starts=2)
        assert no_ascent_from(fit, spec) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_ascent_left_at_the_sigma_inferred_optimum(self, seed):
        # Data with sd 1.7 * sqrt(N i_k), the case3 law the fit assumes.
        truth = integrate_exact(BASE, INIT7, 40)
        sd = 1.7 * np.sqrt(10**7 * truth.i[1:41])
        spec = sigma_inferred_spec(observe(truth, NoiseModel.known(sd), 1.0, 40, seed))
        fit = fit_mle(spec, n_starts=2)
        assert no_ascent_from(fit, spec) <= 1e-8
        # at fixed rates sigma^2 = mean(r^2 / (N i_k)) maximizes ll exactly
        traj = integrate_exact(fit.params(), INIT7, 40, spec.steps_per_day)
        r = spec.obs.values - incidence(traj)
        profile = np.mean(r * r / (10**7 * traj.i[1:41]))
        assert fit.sigma_hat**2 == pytest.approx(profile, rel=1e-5)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("noise", [
        NoiseModel.case1(2e-6), NoiseModel.case2(0.3), NoiseModel(kind="case3", sigma=5.0),
    ], ids=["case1", "case2", "case3"])
    def test_recovers_growth_rate_and_sigma_under_each_law(self, noise, seed):
        # Simulate under the kind's law, fit it with sigma left out. gamma is
        # the ridge direction and may end on its bound, so it is not asserted.
        T = 60
        spec = sigma_inferred_spec(make_obs(BASE, INIT7, noise, p=1.0, T=T, seed=seed), noise.kind)
        fit = fit_mle(spec, n_starts=4)
        assert fit.converged
        cov = np.linalg.inv(fisher_information(BASE, noise.sigma, spec))
        along_delta = np.array([1.0, -1.0, 0.0])
        assert abs(fit.delta_hat - BASE.delta()) <= 4.0 * math.sqrt(along_delta @ cov @ along_delta)
        assert abs(fit.sigma_hat - noise.sigma) <= 4.0 * math.sqrt(cov[2, 2])

    def test_bound_active_fit_converges_on_the_projected_gradient(self):
        # The data of the CLI fit runner: the optimum sits at gamma = 1e-6,
        # the lower bound, with the gradient pointing out of the box.
        obs = make_obs(BASE, INIT7, NoiseModel.case1(1e-5), p=1.0, T=60, seed=7)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        fit = fit_mle(spec, n_starts=2)
        grad = log_likelihood_gradient(fit.params(), None, spec)
        assert fit.gamma_hat == pytest.approx(1e-6, rel=1e-12)
        assert grad[1] < 0.0
        assert fit.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-6)
        assert fit.grad_norm > 1e-6 * abs(fit.loglik)
        assert abs(grad[0]) <= 1e-6 * abs(fit.loglik)
        assert fit.converged

    def test_far_start_reaches_the_near_optimum(self, monkeypatch):
        # default_starts' far start sits 64 times the moment anchor up the
        # ridge; stepping in (log beta, log gamma), it ran all 500 iterations
        # and ended unconverged at ll -2028
        spec = ensemble_design_spec(seed=2020, replicate=0)
        near, far = inference.default_starts(spec, 2)
        assert (far.beta, far.gamma) == pytest.approx((3.26, 3.23), abs=0.01)
        near_fit = fit_mle(spec, starts=[near])
        counts = counting_passes(monkeypatch)
        far_fit = fit_mle(spec, starts=[far])
        assert 0 < counts[5] < 100
        assert far_fit.converged
        assert far_fit.beta_hat == pytest.approx(near_fit.beta_hat, rel=1e-6)
        assert far_fit.gamma_hat == pytest.approx(near_fit.gamma_hat, rel=1e-6)
        assert far_fit.loglik == pytest.approx(near_fit.loglik, abs=1e-9 * abs(near_fit.loglik))

    def test_projected_gradient_at_the_delta_bound_follows_the_ridge(self):
        # with log delta held at its lower bound, (beta, gamma) can move only
        # along beta = delta + gamma, the direction (1, 1) / sqrt(2)
        lo = inference._LOG_BOUNDS[0]
        point = inference._Point(ll=-10.0, wrss=0.0, logdet=0.0,
                                 grad=np.array([-3.0, 1.0]), info=np.eye(2))
        held = np.array([[lo, math.log(0.5)]])
        [at_bound] = inference._iterates(held, [point])
        assert at_bound.projected_grad_norm == pytest.approx(math.sqrt(2.0))
        inside = np.array([[math.log(0.1), math.log(0.5)]])
        assert inference._iterates(inside, [point])[0].projected_grad_norm == math.hypot(3.0, 1.0)

    def test_failed_trial_is_a_rejected_step(self, monkeypatch):
        noise = NoiseModel.known(np.full(40, 2e4))
        obs = make_obs(BASE, INIT7, noise, p=1.0, T=40, seed=8)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        clean = fit_mle(spec, starts=[moment_start(obs)])
        calls = []

        def on_the_second_pass(steps_per_day, lanes):
            calls.append(lanes)
            return len(calls) == 2

        failing_lane(monkeypatch, on_the_second_pass)
        fit = fit_mle(spec, starts=[moment_start(obs)])
        assert len(calls) > 2
        assert fit.converged
        assert fit.loglik == pytest.approx(clean.loglik, abs=1e-8)

    def test_start_that_cannot_be_evaluated_fails(self):
        sig = np.full(40, 2e4)
        obs = make_obs(BASE, INIT7, NoiseModel.known(sig), p=1.0, T=40, seed=8)
        sig[5] = 0.0
        spec = LikelihoodSpec(obs=obs, init=INIT7, noise=NoiseModel.known(sig),
                              steps_per_day=10)
        with pytest.raises(OptimizationFailureError) as info:
            fit_mle(spec, starts=[moment_start(obs)])
        assert "cannot be evaluated" in info.value.diagnostics[0]

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_start_counts_below_one_are_rejected(self, n_starts):
        obs = make_obs(BASE, INIT7, NoiseModel.known(np.full(40, 2e4)), p=1.0, T=40, seed=8)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        for fit in (fit_mle, inference.fit_starts):
            with pytest.raises(ValueError, match=f"n_starts must be >= 1, got {n_starts}"):
                fit(spec, n_starts=n_starts)
        with pytest.raises(ValueError, match=f"n_starts must be >= 1, got {n_starts}"):
            mle_ensemble(BASE, INIT7, NoiseModel.known(np.full(20, 3e4)), p=1.0, T=20,
                         replicates=3, seed=2, fit_steps_per_day=5, n_starts=n_starts)

    def test_an_empty_start_list_is_rejected(self):
        obs = make_obs(BASE, INIT7, NoiseModel.known(np.full(40, 2e4)), p=1.0, T=40, seed=8)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        for fit in (fit_mle, inference.fit_starts):
            with pytest.raises(ValueError, match="at least one start"):
                fit(spec, starts=[])

    def test_moment_start_close_on_clean_data(self):
        noise = NoiseModel.known(np.full(60, 1.0))
        traj = integrate_exact(BASE, INIT7, 60)
        obs = ObservationSeries(
            values=incidence(traj)[:60], reporting_rate=1.0,
            noise=noise, seed=0, population=10**7,
        )
        start = moment_start(obs)
        assert start.delta() == pytest.approx(0.14, rel=0.05)


def frozen_loglik(x, spec):
    """The frozen-s log-likelihood at x = (log delta, log A[, log sigma]), A =
    p beta / delta, from ``integrate_linearized`` and the noise laws written out."""
    p, n, noise = spec.p, spec.init.population, spec.noise
    delta, amp = math.exp(x[0]), math.exp(x[1])
    beta = amp * delta / p
    traj = integrate_linearized(SirParams(beta, beta - delta), spec.init, spec.T)
    r, i = spec.obs.values - p * incidence(traj), traj.i[1:]
    sigma = math.exp(x[2]) if noise.sigma_free else noise.sigma
    v = {"known_sequence": lambda: noise.sigma_t[: spec.T] ** 2,
         "case1": lambda: np.full(spec.T, (n * sigma) ** 2),
         "case2": lambda: (n * sigma * i) ** 2,
         "case3": lambda: n * i * sigma**2}[noise.kind]()
    return float(np.sum(-0.5 * r * r / v - 0.5 * np.log(2.0 * math.pi * v)))


def frozen_coordinates(params, spec):
    """(log delta, log A[, log sigma]) at the rates ``params``, a free sigma at
    its closed-form maximum mean(r^2 / u) there."""
    x = [math.log(params.delta()), math.log(spec.p * params.beta / params.delta())]
    if spec.noise.sigma_free:
        traj = integrate_linearized(params, spec.init, spec.T)
        r, i = spec.obs.values - spec.p * incidence(traj), traj.i[1:]
        n = spec.init.population
        u = {"case1": np.full(spec.T, float(n) ** 2), "case2": (n * i) ** 2,
             "case3": n * i}[spec.noise.kind]
        x.append(0.5 * math.log(np.mean(r * r / u)))
    return x


EARLY_TRUTH = integrate_exact(BASE, INIT7, 60)
EARLY_NOISES = [NoiseModel.known(0.3 * np.sqrt(10**7 * EARLY_TRUTH.i[1:])), NoiseModel.case1(1e-7),
                NoiseModel.case2(0.05), NoiseModel(kind="case3", sigma=0.5)]


def early_spec(noise, sigma_free, p=0.5, seed=3):
    """60 early-outbreak days of BASE at reporting rate p, drawn under
    ``noise`` and fit under its law, with sigma left out when ``sigma_free``."""
    obs = observe(EARLY_TRUTH, noise, p, 60, seed)
    fit_noise = NoiseModel(kind=noise.kind) if sigma_free else noise
    return LikelihoodSpec.from_values(obs.values, p, fit_noise, INIT7, 10)


class TestClosedFormStart:
    CASES = [(EARLY_NOISES[0], False)] + [(noise, free) for noise in EARLY_NOISES[1:]
                                          for free in (False, True)]
    IDS = ["known"] + [f"{noise.kind}-{'free' if free else 'fixed'}"
                       for noise in EARLY_NOISES[1:] for free in (False, True)]

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("noise, sigma_free", CASES, ids=IDS)
    def test_start_is_the_frozen_s_maximum(self, noise, sigma_free, seed):
        spec = early_spec(noise, sigma_free, seed=seed)
        start = inference.closed_form_start(spec)
        x = frozen_coordinates(start, spec)
        best = frozen_loglik(x, spec)
        # the quadratic model through central differences puts the maximum
        # within 1e-5 of the start in every coordinate; steps of 1e-4 keep
        # clear of the rounding of incidence taken from s near 1
        h = 1e-4
        for j in range(len(x)):
            up, dn = list(x), list(x)
            up[j] += h
            dn[j] -= h
            f_up, f_dn = frozen_loglik(up, spec), frozen_loglik(dn, spec)
            curvature = (2.0 * best - f_up - f_dn) / h**2
            assert curvature > 0.0
            assert abs((f_up - f_dn) / (2.0 * h)) <= 1e-5 * curvature
        for other in inference.default_starts(spec, 8):
            assert frozen_loglik(frozen_coordinates(other, spec), spec) <= best + 1e-9

    def test_no_start_without_growth_above_the_reporting_rate(self):
        # all-zero counts give A = 0; data this noisy put the frozen-s
        # maximum at A < p, so gamma would be negative
        zeros = LikelihoodSpec.from_values(np.zeros(60), 0.5, NoiseModel(kind="case3"), INIT7, 10)
        assert inference.closed_form_start(zeros) is None
        noisy = NoiseModel.known(1.7 * np.sqrt(10**7 * EARLY_TRUTH.i[1:41]))
        obs = observe(EARLY_TRUTH, noisy, 0.5, 40, 3)
        spec = LikelihoodSpec.from_values(obs.values, 0.5, noisy, INIT7, 10)
        assert inference.closed_form_start(spec) is None

    def test_no_start_with_a_zero_known_variance(self):
        spec = early_spec(EARLY_NOISES[0], False)
        sigma_t = spec.noise.sigma_t.copy()
        sigma_t[5] = 0.0
        assert inference.closed_form_start(replace(spec, noise=NoiseModel.known(sigma_t))) is None


def counting_passes(monkeypatch):
    """Counter of sensitivity passes by substeps per day, one per lane of
    every batched pass, counting from now on."""
    passes = inference._sensitivity_passes
    counts = Counter()

    def counted(rates, init, horizon, steps_per_day):
        counts[steps_per_day] += len(rates)
        return passes(rates, init, horizon, steps_per_day)

    monkeypatch.setattr(inference, "_sensitivity_passes", counted)
    return counts


def rows(spec, starts):
    """spec's own observed row for each of ``starts``, the rows a fit of them reads."""
    return inference._observed(spec, len(starts))


def failing_lane(monkeypatch, fails, lane=0):
    """Make lane ``lane`` of a batched pass raise IntegrationError whenever
    ``fails(steps_per_day, lanes)`` is true, from now on."""
    passes = inference._sensitivity_passes

    def forced(rates, init, horizon, steps_per_day):
        outcomes = passes(rates, init, horizon, steps_per_day)
        if fails(steps_per_day, len(rates)):
            outcomes[lane] = IntegrationError("forced failure")
        return outcomes

    monkeypatch.setattr(inference, "_sensitivity_passes", forced)


class TestTwoLevelFit:
    @pytest.mark.parametrize("steps_per_day", [5, 10])
    @pytest.mark.parametrize("noise", [NoiseModel.known(np.full(40, 2e4)), NoiseModel.case2(0.3)],
                             ids=["known", "case2"])
    def test_coarse_fits_take_the_single_level_path(self, noise, steps_per_day, monkeypatch):
        obs = make_obs(BASE, INIT7, noise, p=1.0, T=40, seed=8)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=steps_per_day)
        start = moment_start(obs)
        counts = counting_passes(monkeypatch)
        [single] = inference._fit_scoring(spec, [start], rows(spec, [start]))
        passes = counts[steps_per_day]
        assert fit_mle(spec, starts=[start]) == single
        assert counts == {steps_per_day: 2 * passes}

    @pytest.mark.parametrize("p", [0.1, 0.25])
    def test_nyc_starts_polish_in_a_few_full_grid_passes(self, p, monkeypatch):
        # 50 substeps per day: every default start searches at 10, then
        # polishes at 50 to the optimum a 50-substep fit alone reaches
        spec = nyc_likelihood_spec(load_nyc_fixture(), p)
        assert spec.steps_per_day == 50
        for start in inference.default_starts(spec):
            [single] = inference._fit_scoring(spec, [start], rows(spec, [start]))
            counts = counting_passes(monkeypatch)
            fit = fit_mle(spec, starts=[start])
            monkeypatch.undo()
            assert set(counts) == {10, 50}
            assert counts[50] <= 6
            assert single.converged and fit.converged
            assert fit.loglik == pytest.approx(single.loglik, abs=1e-9)

    def test_iterations_count_the_search_and_the_polish(self):
        spec = nyc_likelihood_spec(load_nyc_fixture(), 0.25)
        start = inference.default_starts(spec)[-1]
        coarse = replace(spec, steps_per_day=10)
        [search] = inference._fit_scoring(coarse, [start], rows(spec, [start]))
        [polish] = inference._fit_scoring(spec, [search.params()], rows(spec, [start]))
        fit = fit_mle(spec, starts=[start])
        assert (fit.beta_hat, fit.gamma_hat, fit.loglik) == (
            polish.beta_hat, polish.gamma_hat, polish.loglik)
        assert search.iterations > 10
        assert fit.iterations == search.iterations + polish.iterations

    def test_failed_search_falls_back_to_the_full_grid(self, monkeypatch):
        spec = nyc_likelihood_spec(load_nyc_fixture(), 0.25)
        start = inference.default_starts(spec)[0]
        [single] = inference._fit_scoring(spec, [start], rows(spec, [start]))
        failing_lane(monkeypatch, lambda steps_per_day, lanes: steps_per_day == 10)
        assert fit_mle(spec, starts=[start]) == single

    def test_unconverged_polish_falls_back_to_the_full_grid(self, monkeypatch):
        spec = nyc_likelihood_spec(load_nyc_fixture(), 0.25)
        start = inference.default_starts(spec)[0]
        [single] = inference._fit_scoring(spec, [start], rows(spec, [start]))
        fit_scoring = inference._fit_scoring
        calls = []

        def unconverged_polish(spec_, starts_, ys_):
            [start_] = starts_
            calls.append((spec_.steps_per_day, start_ == start))
            [result] = fit_scoring(spec_, starts_, ys_)
            if spec_.steps_per_day == 50 and start_ != start:
                return [replace(result, converged=False)]
            return [result]

        monkeypatch.setattr(inference, "_fit_scoring", unconverged_polish)
        assert fit_mle(spec, starts=[start]) == single
        assert calls == [(10, True), (50, False), (50, True)]


def lockstep_spec(name):
    """The NYC fixture at p = 0.1 or 0.25 (50 substeps per day, case3), or a
    simulated case1 or case2 series fit with sigma inferred (10 substeps per day)."""
    if name in ("case1", "case2"):
        noise = NoiseModel.case1(2e-6) if name == "case1" else NoiseModel.case2(0.3)
        return sigma_inferred_spec(make_obs(BASE, INIT7, noise, p=1.0, T=40, seed=8), name)
    return nyc_likelihood_spec(load_nyc_fixture(), {"nyc_p01": 0.1, "nyc_p025": 0.25}[name])


class TestLockstep:
    # one spec per variance law with sigma inferred, so each law's batched
    # variance Jacobian is checked against one-lane fits
    @pytest.mark.parametrize("name", ["nyc_p01", "nyc_p025", "case1", "case2"])
    def test_every_start_fits_as_it_does_alone(self, name):
        spec = lockstep_spec(name)
        starts = inference.default_starts(spec)
        lockstep = inference._fit_start(spec, starts, rows(spec, starts))
        alone = [inference._fit_start(spec, [start], rows(spec, [start]))[0] for start in starts]
        assert all(isinstance(result, inference.MleResult) for result in lockstep)
        assert lockstep == alone

    def test_the_search_takes_as_many_batches_as_its_slowest_start(self, monkeypatch):
        spec = lockstep_spec("nyc_p025")
        starts = inference.default_starts(spec)
        alone = []
        for start in starts:
            counts = counting_passes(monkeypatch)
            inference._fit_start(spec, [start], rows(spec, [start]))
            monkeypatch.undo()
            alone.append(counts[10])
        batches = Counter()

        def count_batches(steps_per_day, lanes):
            batches[steps_per_day] += 1
            return False

        failing_lane(monkeypatch, count_batches)
        inference._fit_start(spec, starts, rows(spec, starts))
        assert batches[10] == max(alone) < sum(alone)

    def test_a_failed_trial_leaves_the_other_lanes_alone(self, monkeypatch):
        spec = lockstep_spec("case2")
        starts = inference.default_starts(spec, 4)
        clean = inference._fit_scoring(spec, starts, rows(spec, starts))
        batches = []

        def on_the_third_batch(steps_per_day, lanes):
            batches.append(lanes)
            return len(batches) == 3

        failing_lane(monkeypatch, on_the_third_batch, lane=1)
        forced = inference._fit_scoring(spec, starts, rows(spec, starts))
        assert batches[2] == len(starts)  # every start still stepping, so lane 1 is start 1
        assert forced[:1] + forced[2:] == clean[:1] + clean[2:]
        assert forced[1].converged
        assert forced[1].loglik == pytest.approx(clean[1].loglik, abs=1e-8)

    def test_a_failed_first_search_pass_falls_back_for_that_start_only(self, monkeypatch):
        spec = lockstep_spec("nyc_p025")
        starts = inference.default_starts(spec, 4)
        clean = inference._fit_start(spec, starts, rows(spec, starts))
        [direct] = inference._fit_scoring(spec, [starts[1]], rows(spec, [starts[1]]))
        batches = []

        def on_the_first_batch(steps_per_day, lanes):
            batches.append(steps_per_day)
            return len(batches) == 1

        failing_lane(monkeypatch, on_the_first_batch, lane=1)
        fit_scoring = inference._fit_scoring
        phases = []

        def counted(spec_, starts_, ys_):
            phases.append(spec_.steps_per_day)
            return fit_scoring(spec_, starts_, ys_)

        monkeypatch.setattr(inference, "_fit_scoring", counted)
        forced = inference._fit_start(spec, starts, rows(spec, starts))
        assert batches[0] == 10
        # start 1 has no search optimum to polish, so the fallback phase fits
        # it on the full grid alone
        assert phases == [10, 50, 50]
        assert forced[1] == direct
        assert forced[:1] + forced[2:] == clean[:1] + clean[2:]

    def test_a_failed_search_and_an_unconverged_polish_share_the_fallback(self, monkeypatch):
        # start 1's search fails and start 2's polish reads unconverged: one
        # fallback phase fits both on the full grid from the start itself
        spec = lockstep_spec("nyc_p025")
        starts = inference.default_starts(spec, 4)
        clean = inference._fit_start(spec, starts, rows(spec, starts))
        [search] = inference._fit_scoring(replace(spec, steps_per_day=10), starts[2:3],
                                          rows(spec, starts[2:3]))
        [polish] = inference._fit_scoring(spec, [search.params()], rows(spec, starts[2:3]))
        full = [inference._fit_scoring(spec, [start], rows(spec, [start]))[0] for start in starts]
        batches = []

        def on_the_first_batch(steps_per_day, lanes):
            batches.append(steps_per_day)
            return len(batches) == 1

        failing_lane(monkeypatch, on_the_first_batch, lane=1)
        fit_scoring = inference._fit_scoring
        phases = []

        def unconverged_polish(spec_, starts_, ys_):
            phases.append((spec_.steps_per_day, len(starts_)))
            return [replace(result, converged=False)
                    if spec_.steps_per_day == 50 and start_ == search.params() else result
                    for start_, result in zip(starts_, fit_scoring(spec_, starts_, ys_))]

        monkeypatch.setattr(inference, "_fit_scoring", unconverged_polish)
        forced = inference._fit_start(spec, starts, rows(spec, starts))
        assert batches[0] == 10
        assert phases == [(10, 4), (50, 3), (50, 2)]
        assert forced[1] == full[1]
        polished = replace(polish, converged=False,
                           iterations=search.iterations + polish.iterations)
        assert forced[2] == inference._best([polished, full[2]])
        assert forced[:1] + forced[3:] == clean[:1] + clean[3:]

    def test_a_zero_variance_lane_fails_alone(self):
        # case2 with one lane's i zero on day 7: that lane's variance is zero
        # there, and every other lane is its one-lane evaluation bit for bit
        noise = NoiseModel.case2(0.3)
        spec = LikelihoodSpec(obs=make_obs(BASE, INIT7, noise, 1.0, 40, seed=8), init=INIT7,
                              steps_per_day=5)
        rates = [BASE, SirParams(0.3, 0.1), SirParams(0.25, 0.05)]
        passes = [states.copy() for states in inference._sensitivity_passes(
            rates, spec.init, spec.T, spec.steps_per_day)]
        passes[1][1, 7] = 0.0
        ys = rows(spec, rates)
        batch = inference._evaluate_passes(passes, [None] * 3, ys, spec)
        assert isinstance(batch[1], DegenerateVarianceError)
        assert str(batch[1]) == "variance must be positive; day 7 has v = 0.0"
        for k in (0, 2):
            [alone] = inference._evaluate_passes(passes[k : k + 1], [None], ys[k : k + 1], spec)
            assert (batch[k].ll, batch[k].wrss, batch[k].logdet) == (
                alone.ll, alone.wrss, alone.logdet)
            assert batch[k].grad.tobytes() == alone.grad.tobytes()
            assert batch[k].info.tobytes() == alone.info.tobytes()

    def test_a_singular_system_fails_alone(self):
        a = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]], [[4.0, 1.0], [0.5, 2.0]]])
        b = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
        x, ok = inference._solve(a, b)
        assert ok.tolist() == [True, False, True]
        assert x[1].tolist() == [0.0, 0.0]
        for k in (0, 2):
            alone, solved = inference._solve(a[k : k + 1], b[k : k + 1])
            assert solved.tolist() == [True]
            assert x[k].tobytes() == alone[0].tobytes()

    def test_fit_starts_reports_every_start(self):
        sig = np.full(40, 2e4)
        obs = make_obs(BASE, INIT7, NoiseModel.known(sig), p=1.0, T=40, seed=8)
        spec = LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=10)
        good = moment_start(obs)
        bad = LikelihoodSpec(obs=obs, init=INIT7, noise=NoiseModel.known(np.where(
            np.arange(40) == 5, 0.0, sig)), steps_per_day=10)
        fits = inference.fit_starts(spec, [good, good])
        assert [fit.start for fit in fits] == [good, good]
        assert fits[0] == fits[1] and fits[0].error is None
        assert inference.best_fit(fits) == fits[0].result == fit_mle(spec, starts=[good])
        [failed] = inference.fit_starts(bad, [good])
        assert failed.result is None and "cannot be evaluated" in failed.error


def replicate_specs(replicates=3, T=40, seed=5):
    """Replicate rows at sd 10 against 53 cases on day 40, an informative
    design, as fit at 5 substeps per day."""
    noise = NoiseModel.known(np.full(T, 10.0))
    ys = observe_batch(integrate_exact(BASE, INIT7, T), noise, 1.0, T, seed, replicates)
    return [LikelihoodSpec.from_values(y, 1.0, noise, INIT7, 5) for y in ys]


def failing_fits(monkeypatch, fails):
    """From now on, fail every start of spec k in the c-th call of
    ``_fit_rows`` (both counted from 0), with the message "forced failure c",
    whenever ``fails(c, k)`` is true. Returns the starts of every call."""
    fit_rows = inference._fit_rows
    calls = []

    def forced(specs, starts):
        rows = fit_rows(specs, starts)
        c = len(calls)
        calls.append(starts)
        return [[inference.StartFit(fit.start, None, f"forced failure {c}") for fit in own]
                if fails(c, k) else own for k, own in enumerate(rows)]

    monkeypatch.setattr(inference, "_fit_rows", forced)
    return calls


class TestBestFits:
    # the one fallback rule: a guessed start that fails, ends unconverged or
    # is missing gets a second try from the spec's default starts

    @pytest.mark.parametrize("n_starts", [1, 3])
    def test_a_spec_without_starts_gets_the_default_start_fit(self, n_starts):
        specs = replicate_specs()[:2]
        fits = [inference.best_fit(own)
                for own in inference._fit_specs(specs, [[], [BASE]], n_starts)]
        assert fits[0] == fit_mle(specs[0], n_starts=n_starts)
        assert fits[1] == fit_mle(specs[1], starts=[BASE]) and fits[1].converged

    def test_specs_without_starts_add_no_lanes(self, monkeypatch):
        monkeypatch.setattr(inference, "_fit_start", lambda *args: pytest.fail("no lanes"))
        assert inference._fit_rows(replicate_specs()[:2], [[], []]) == [[], []]

    def test_a_failed_warm_fit_gets_its_default_start_refit(self, monkeypatch):
        specs = replicate_specs()
        job = (specs, BASE, 2)
        clean = inference._fit_replicates(job)
        calls = failing_fits(monkeypatch, lambda c, k: c == 0 and k == 1)
        forced = inference._fit_replicates(job)
        monkeypatch.undo()
        assert calls[1:] == [[inference.default_starts(specs[1], 2)]]
        assert forced[:1] + forced[2:] == clean[:1] + clean[2:]
        assert forced[1] == (fit_mle(specs[1], n_starts=2), None)

    def test_a_failed_refit_is_the_outcome(self, monkeypatch):
        # the error lists every start of both rounds: the warm start, then
        # the two default starts
        failing_fits(monkeypatch, lambda c, k: True)
        [fits] = inference._fit_specs(replicate_specs()[:1], [[BASE]], 2)
        with pytest.raises(OptimizationFailureError) as info:
            inference.best_fit(fits)
        outcome = info.value
        assert len(outcome.diagnostics) == 3
        assert outcome.diagnostics[0].endswith("forced failure 0")
        assert all(d.endswith("forced failure 1") for d in outcome.diagnostics[1:])

    def test_a_failed_replicate_keeps_every_start_reason(self, monkeypatch):
        # every start of every replicate fails in both rounds: the warm start
        # (call 1) and the default start (call 2); call 0 is the pooled fit
        monkeypatch.setattr(inference, "_MAX_FAILURE_FRACTION", 0.0)
        failing_fits(monkeypatch, lambda c, k: c >= 1)
        noise = NoiseModel.known(np.full(30, 3e4))
        with pytest.raises(OptimizationFailureError, match="3 of 3") as info:
            mle_ensemble(BASE, INIT7, noise, p=1.0, T=30, replicates=3, seed=13,
                         fit_steps_per_day=5, n_starts=1)
        assert len(info.value.diagnostics) == 3
        for r, diagnostic in enumerate(info.value.diagnostics):
            head, reasons = diagnostic.split(": all optimizer starts failed: ")
            assert head == f"replicate {r}"
            reasons = [reason.split(": ") for reason in reasons.split("; ")]
            assert [(start.split(" (")[0], why) for start, why in reasons] == [
                ("start 0", "forced failure 1"), ("start 1", "forced failure 2")]


class TestFitCost:
    # lane-passes, one per lane of a sensitivity pass, by substeps per day:
    # the work a fit path does, which no refactor of it may change

    def test_nyc_pass_is_one_lane_per_batch(self, monkeypatch):
        # each p is one fit of its closed-form start: a 10-substep search and
        # a 50-substep polish, every batch of one lane
        counts = counting_passes(monkeypatch)
        batches = Counter()

        def count_batches(steps_per_day, lanes):
            batches[steps_per_day] += 1
            return False

        failing_lane(monkeypatch, count_batches)
        reporting_rate_sweep(load_nyc_fixture(), [0.1, 0.25])
        assert counts == {10: 26, 50: 4}
        assert batches == counts

    def test_ensemble_design_costs_less_than_its_default_start_fits(self, monkeypatch):
        # the design of mle_ensemble's docstring
        T = 120
        noise = NoiseModel.known(np.full(T, math.sqrt(100 * 1e7)))
        counts = counting_passes(monkeypatch)
        mle_ensemble(BASE, INIT7, noise, p=1.0, T=T, replicates=4, seed=1,
                     fit_steps_per_day=5, n_starts=2)
        assert counts == {5: 134}
        counts.clear()
        for y in observe_batch(integrate_exact(BASE, INIT7, T), noise, 1.0, T, 1, 4):
            fit_mle(LikelihoodSpec.from_values(y, 1.0, noise, INIT7, 5), n_starts=2)
        assert counts == {5: 201}


class TestEnsemble:
    def test_low_noise_replicates_recover_truth(self):
        # sd 1e-5 against daily counts of 0.2 to 50: every replicate's rates
        # land within about 1e-5 relative of the truth
        noise = NoiseModel.known(np.full(40, 1e-5))
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=40, replicates=3,
                                seed=9, fit_steps_per_day=20, n_starts=2)
        for fit in ensemble.replicates:
            assert fit.beta_hat == pytest.approx(0.21, rel=1e-4)
            assert fit.gamma_hat == pytest.approx(0.07, rel=1e-4)
        assert ensemble.failures == []

    @pytest.mark.parametrize("sd", [1e-2, 1e-1])
    def test_small_noise_replicates_converge(self, sd):
        # sds of 1e-2 and 1e-1 against daily counts of 0.2 to 50: on a
        # likelihood whose incidence carried a rounding floor of N*eps, no
        # replicate passed the first-order test
        noise = NoiseModel.known(np.full(40, sd))
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=40, replicates=3,
                                seed=9, fit_steps_per_day=20, n_starts=2)
        assert ensemble.failures == []
        assert all(fit.converged for fit in ensemble.replicates)

    @pytest.mark.parametrize("n_starts", [1, 2])
    @pytest.mark.parametrize("noise, T", [
        (NoiseModel.known(np.full(40, 10.0)), 40), (NoiseModel.case1(2e-6), 40),
        (NoiseModel.case2(0.3), 40), (NoiseModel.known(np.full(30, 3e4)), 30),
    ])
    def test_each_replicate_reaches_its_own_optimum(self, noise, T, n_starts):
        # warm-started at the pooled optimum, no replicate ends below a fit
        # of its own row from its own default starts. sds of 10 and 20 against
        # 53 cases on day 40 are informative; an sd of 3e4 against 13 cases on
        # day 30 is not, and with one start the warm start of replicate 0
        # stalls unconverged on the delta -> 0 edge, 8.2e-5 below its own fit
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=T, replicates=4, seed=5,
                                fit_steps_per_day=5, n_starts=n_starts)
        assert ensemble.indices == [0, 1, 2, 3]
        truth = integrate_exact(BASE, INIT7, T)
        ys = observe_batch(truth, noise, 1.0, T, 5, 4)
        for index, fit in zip(ensemble.indices, ensemble.replicates):
            obs = ObservationSeries(values=ys[index], reporting_rate=1.0, noise=noise, seed=5,
                                    population=10**7)
            own = fit_mle(LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=5),
                          n_starts=n_starts)
            assert fit.loglik >= own.loglik - 1e-8 * max(1.0, abs(own.loglik))

    def test_pooled_fit_failure_raises(self):
        # a zero sd on day 3 makes every likelihood degenerate, the pooled
        # series' first
        sd = np.full(20, 3e4)
        sd[2] = 0.0
        with pytest.raises(OptimizationFailureError, match="pooled fit") as info:
            mle_ensemble(BASE, INIT7, NoiseModel.known(sd), p=1.0, T=20, replicates=3,
                         seed=2, fit_steps_per_day=5, n_starts=2)
        assert len(info.value.diagnostics) == 2

    @pytest.mark.parametrize("steps_per_day, bound", [(5, 3e-7), (10, 2e-8)])
    def test_integration_error_far_below_the_noise(self, steps_per_day, bound):
        # the acceptance ensemble's design: halving the step moves the daily
        # incidence by 2.2e-7 sd at 5 substeps per day and 1.4e-8 sd at 10,
        # both far below 1e-4 sd
        T, sd = 120, math.sqrt(100 * 1e7)
        coarse = incidence(integrate_exact(BASE, INIT7, T, steps_per_day))
        fine = incidence(integrate_exact(BASE, INIT7, T, 2 * steps_per_day))
        assert np.max(np.abs(coarse - fine)) / sd < bound

    @pytest.mark.parametrize("n_starts", [1, 2])
    @pytest.mark.parametrize("noise, T, R, seed, steps_per_day, refit", [
        (NoiseModel.known(np.full(30, 3e4)), 30, 4, 5, 5, False),
        (NoiseModel.case1(2e-6), 40, 4, 5, 5, False),
        (NoiseModel.known(np.full(40, 1e-3)), 40, 3, 9, 20, True),
    ], ids=["known-3e4", "case1", "known-1e-3"])
    def test_every_replicate_is_its_own_fit_mle(self, noise, T, R, seed, steps_per_day, refit,
                                                n_starts):
        # the replicates step as lanes of one lockstep fit, yet each result is
        # what fit_mle gives that replicate alone: the warm start at the pooled
        # optimum plus its own starts, then its own default starts when that
        # ends unconverged. At sd 1e-3 some warm fits end unconverged at the
        # rounding floor of the gradient, so the refit runs too
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=T, replicates=R, seed=seed,
                                fit_steps_per_day=steps_per_day, n_starts=n_starts)
        truth = integrate_exact(BASE, INIT7, T)
        ys = observe_batch(truth, noise, 1.0, T, seed, R)

        def spec_of(values, noise_):
            obs = ObservationSeries(values=values, reporting_rate=1.0, noise=noise_, seed=seed,
                                    population=10**7)
            return LikelihoodSpec(obs=obs, init=INIT7, steps_per_day=steps_per_day)

        root = math.sqrt(R)
        pooled_noise = (NoiseModel.known(noise.sigma_t / root) if noise.kind == "known_sequence"
                        else NoiseModel(kind=noise.kind, sigma=noise.sigma / root))
        pooled = fit_mle(spec_of(ys.mean(axis=0), pooled_noise),
                         n_starts=n_starts).params()
        refits = 0
        alone = []
        for y in ys:
            spec = spec_of(y, noise)
            fit = fit_mle(spec, [pooled] + inference.default_starts(spec, n_starts - 1)
                          if n_starts > 1 else [pooled])
            if not fit.converged:
                refits += 1
                fit = inference._best([fit, fit_mle(spec, n_starts=n_starts)])
            alone.append(fit)
        assert (refits > 0) == refit
        assert ensemble.failures == []
        assert ensemble.indices == list(range(R))
        assert ensemble.replicates == alone

    def test_byte_identical_across_uneven_worker_blocks(self):
        # 4 replicates on 3 workers: blocks of 1, 1 and 2 replicates
        noise = NoiseModel.known(np.full(30, 3e4))
        runs = [mle_ensemble(BASE, INIT7, noise, p=1.0, T=30, replicates=4, seed=5,
                             workers=workers, fit_steps_per_day=5, n_starts=1)
                for workers in (1, 2, 3)]
        assert len({run.betas().tobytes() for run in runs}) == 1
        assert runs[1].replicates == runs[0].replicates == runs[2].replicates

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_counts_below_one_are_rejected(self, workers):
        # no worker count below one can split the replicates into blocks
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            mle_ensemble(BASE, INIT7, NoiseModel.known(np.full(20, 3e4)), p=1.0, T=20,
                         replicates=3, seed=2, workers=workers, fit_steps_per_day=5, n_starts=1)

    def test_deterministic_across_worker_counts(self):
        noise = NoiseModel.known(np.full(30, 3e4))
        one = mle_ensemble(BASE, INIT7, noise, p=1.0, T=30, replicates=6,
                           seed=13, workers=1, fit_steps_per_day=5, n_starts=1)
        two = mle_ensemble(BASE, INIT7, noise, p=1.0, T=30, replicates=6,
                           seed=13, workers=2, fit_steps_per_day=5, n_starts=1)
        np.testing.assert_array_equal(one.betas(), two.betas())
        np.testing.assert_array_equal(one.gammas(), two.gammas())

    def test_summary_statistics(self):
        noise = NoiseModel.known(np.full(30, 3e4))
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=30, replicates=8,
                                seed=21, fit_steps_per_day=5, n_starts=1)
        slope = ensemble.slope_beta_on_gamma()
        lo, hi = ensemble.r0_range()
        assert lo <= hi
        assert math.isfinite(slope)

    def test_csv(self, tmp_path):
        noise = NoiseModel.known(np.full(20, 3e4))
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=20, replicates=3,
                                seed=2, fit_steps_per_day=5, n_starts=1)
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ensemble, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replicate,beta_hat,gamma_hat,sigma_hat,loglik,converged"
        assert len(lines) == 4

    def test_csv_keeps_replicate_indices_after_a_failure(self, tmp_path, monkeypatch):
        fit_block = inference._fit_replicates

        def fail_replicate_1(job):
            outcomes = fit_block(job)
            outcomes[1] = (None, "forced failure")
            return outcomes

        monkeypatch.setattr(inference, "_fit_replicates", fail_replicate_1)
        monkeypatch.setattr(inference, "_MAX_FAILURE_FRACTION", 0.5)
        noise = NoiseModel.known(np.full(20, 3e4))
        ensemble = mle_ensemble(BASE, INIT7, noise, p=1.0, T=20, replicates=3, seed=2,
                                workers=1, fit_steps_per_day=5, n_starts=1)
        assert ensemble.failures == [(1, "forced failure")]
        path = tmp_path / "ens.csv"
        write_ensemble_csv(ensemble, path)
        rows = path.read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "2"]
