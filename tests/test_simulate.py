import json
import math

import numpy as np
import pytest
from scipy import stats

from sirlimits.errors import DegenerateVarianceError, InsufficientDataError
from sirlimits.simulate import (
    NoiseModel,
    observe,
    observe_batch,
    replicate_seed,
    sigma_sequence,
    write_observations_csv,
)
from sirlimits.sir import InitialCondition, SirParams, incidence, integrate_exact

BASE = SirParams(0.21, 0.07)
INIT7 = InitialCondition.from_population(10**7)


@pytest.fixture(scope="module")
def traj():
    return integrate_exact(BASE, INIT7, 80)


class TestNoiseModel:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="nope", sigma=0.1)
        with pytest.raises(ValueError):
            NoiseModel.case1(1.5)
        with pytest.raises(ValueError):
            NoiseModel.case2(-0.1)
        with pytest.raises(ValueError):
            NoiseModel(kind="case3", sigma=0.0)
        with pytest.raises(ValueError):
            NoiseModel(kind="known_sequence")
        with pytest.raises(ValueError):
            NoiseModel.known([1.0, -2.0])

    @pytest.mark.parametrize("build", [
        lambda: NoiseModel.known([3e4] * 29 + [math.nan]),
        lambda: NoiseModel.known([3e4] * 29 + [math.inf]),
        lambda: NoiseModel.case2(math.inf),
        lambda: NoiseModel(kind="case3", sigma=math.inf),
        lambda: NoiseModel(kind="case3", sigma=math.nan),
    ], ids=["known-nan", "known-inf", "case2-inf", "case3-inf", "case3-nan"])
    def test_rejects_non_finite_scales(self, build):
        # a NaN or inf sd used to build and then draw NaN or inf observations,
        # and an inf sigma failed only when a variance was formed
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_known_sds_are_the_models_own(self):
        # the model keeps a read-only copy: the caller's array used to be the
        # model's, so a NaN written into it later reached every draw
        sd = np.full(30, 3e4)
        noise = NoiseModel.known(sd)
        sd[29] = math.nan
        assert np.all(np.isfinite(noise.sigma_t))
        with pytest.raises(ValueError):
            noise.sigma_t[0] = math.nan

    def test_case1_constant_sequence(self, traj):
        sig = sigma_sequence(NoiseModel.case1(0.3), traj, T=10)
        np.testing.assert_array_equal(sig, np.full(10, 3e6))

    def test_known_sequence_scale(self, traj):
        # variance 100 * N corresponds to sigma ~= 31622.8 per day
        sig = sigma_sequence(NoiseModel.known(np.full(80, math.sqrt(100 * 1e7))), traj, T=80)
        assert sig[0] == pytest.approx(31622.776601683792, rel=1e-12)

    def test_case2_tracks_infections(self, traj):
        sig = sigma_sequence(NoiseModel.case2(0.2), traj, T=60)
        expected_60 = 1e7 * 0.2 * traj.i[60]
        assert sig[59] == pytest.approx(expected_60, rel=1e-12)
        # pre-peak the exponential substitute agrees to a few percent
        substitute = 1e7 * 0.2 * math.exp(0.14 * 60) / 1e7
        assert sig[59] == pytest.approx(substitute, rel=0.05)

    def test_case3_tracks_root_infections(self, traj):
        sig = sigma_sequence(NoiseModel(kind="case3", sigma=5.0), traj, T=60)
        assert sig[59] == pytest.approx(5.0 * math.sqrt(1e7 * traj.i[60]), rel=1e-12)
        # its variance is the one the likelihood scores
        np.testing.assert_allclose(sig**2, 1e7 * traj.i[1:61] * 5.0**2, rtol=1e-15)

    @pytest.mark.parametrize("noise", [NoiseModel.case2(0.2), NoiseModel(kind="case3", sigma=5.0)],
                             ids=["case2", "case3"])
    def test_rejects_zero_infections(self, noise):
        init = InitialCondition(s0=1.0, i0=0.0, population=1000)
        flat = integrate_exact(BASE, init, 10)
        with pytest.raises(DegenerateVarianceError):
            sigma_sequence(noise, flat, T=5)

    @pytest.mark.parametrize("kind", ["case1", "case2", "case3"])
    def test_without_sigma_is_inference_only(self, traj, kind):
        with pytest.raises(DegenerateVarianceError):
            sigma_sequence(NoiseModel(kind=kind, sigma=None), traj, T=5)


class TestVariance:
    # NoiseModel.variance, the one law that the simulator, the likelihood
    # and the closed-form start read, against each kind written out
    N = 10**7
    I = np.array([[1e-6, 2e-6, 5e-6, 1e-5], [3e-5, 1e-4, 3e-4, 1e-3]])

    @staticmethod
    def written_out(kind, n, sigma, i):
        return {"case1": (np.full(i.shape, n * n * sigma * sigma), np.zeros(i.shape)),
                "case2": (n * n * sigma * sigma * i * i, 2.0 * n * n * sigma * sigma * i),
                "case3": (n * sigma * sigma * i, np.full(i.shape, n * sigma * sigma))}[kind]

    @pytest.mark.parametrize("kind", ["case1", "case2", "case3"])
    def test_each_kind_at_its_own_sigma(self, kind):
        v, dv = NoiseModel(kind=kind, sigma=0.3).variance(self.N, self.I)
        expected_v, expected_dv = self.written_out(kind, self.N, 0.3, self.I)
        np.testing.assert_allclose(v, expected_v, rtol=1e-15)
        np.testing.assert_allclose(np.broadcast_to(dv, self.I.shape), expected_dv, rtol=1e-15)

    @pytest.mark.parametrize("kind", ["case1", "case2", "case3"])
    def test_a_sigma_column_gives_each_row_its_one_lane_bits(self, kind):
        noise = NoiseModel(kind=kind, sigma=None)
        column = np.array([[0.1], [0.7]])
        v, dv = noise.variance(self.N, self.I, column)
        for row, (sigma,) in enumerate(column):
            expected_v, expected_dv = self.written_out(kind, self.N, sigma, self.I[row])
            np.testing.assert_allclose(v[row], expected_v, rtol=1e-15)
            np.testing.assert_allclose(np.broadcast_to(dv, self.I.shape)[row], expected_dv,
                                       rtol=1e-15)
            one_v, one_dv = noise.variance(self.N, self.I[row], sigma)
            assert v[row].tobytes() == one_v.tobytes()
            assert np.array_equal(np.broadcast_to(dv, self.I.shape)[row],
                                  np.broadcast_to(one_dv, self.I[row].shape))

    def test_known_sequence_is_its_sds_squared(self):
        noise = NoiseModel.known([1.0, 2.0, 3.0, 4.0, 5.0])
        v, dv = noise.variance(self.N, self.I)
        np.testing.assert_array_equal(v, np.tile([1.0, 4.0, 9.0, 16.0], (2, 1)))
        assert dv == 0.0
        np.testing.assert_array_equal(noise.sd(4), [1.0, 2.0, 3.0, 4.0])

    def test_a_short_known_sequence_is_one_error(self, traj):
        # the simulator, the likelihood spec and the law share one check
        noise = NoiseModel.known(np.full(30, 3e4))
        message = "known_sequence provides 30 days, need 40"
        with pytest.raises(InsufficientDataError, match=message):
            noise.sd(40)
        with pytest.raises(InsufficientDataError, match=message):
            noise.variance(self.N, np.full(40, 1e-6))
        with pytest.raises(InsufficientDataError, match=message):
            sigma_sequence(noise, traj, T=40)


class TestObserve:
    def test_noiseless_limit(self, traj):
        noise = NoiseModel.known(np.zeros(40))
        obs = observe(traj, noise, p=0.4, T=40, seed=1)
        np.testing.assert_array_equal(obs.values, 0.4 * incidence(traj)[:40])

    def test_reproducibility_byte_identical(self, traj):
        noise = NoiseModel.case1(0.01)
        a = observe(traj, noise, p=1.0, T=30, seed=42)
        b = observe(traj, noise, p=1.0, T=30, seed=42)
        assert a.values.tobytes() == b.values.tobytes()
        c = observe(traj, noise, p=1.0, T=30, seed=43)
        assert a.values.tobytes() != c.values.tobytes()

    def test_batch_matches_replicate_seeds(self, traj):
        noise = NoiseModel.case1(0.01)
        batch = observe_batch(traj, noise, p=1.0, T=20, seed=7, replicates=5)
        for r in range(5):
            gen = np.random.Generator(np.random.Philox(replicate_seed(7, r)))
            expected = incidence(traj)[:20] + 1e5 * gen.standard_normal(20)
            np.testing.assert_array_equal(batch[r], expected)

    def test_moments(self, traj):
        # mean within 4 standard errors, variance within 10 percent
        noise = NoiseModel.case1(0.02)
        t = 49
        batch = observe_batch(traj, noise, p=0.7, T=50, seed=11, replicates=10_000)
        column = batch[:, t]
        target_mean = 0.7 * incidence(traj)[t]
        sigma = 1e7 * 0.02
        se = sigma / math.sqrt(10_000)
        assert abs(column.mean() - target_mean) < 4 * se
        assert abs(column.var() / sigma**2 - 1.0) < 0.10

    def test_standardized_residuals_gaussian(self, traj):
        noise = NoiseModel.case2(0.25)
        sig = sigma_sequence(noise, traj, T=50)
        mean = 0.9 * incidence(traj)[:50]
        batch = observe_batch(traj, noise, p=0.9, T=50, seed=3, replicates=200)
        z = ((batch - mean) / sig).ravel()
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_t_beyond_horizon(self, traj):
        with pytest.raises(InsufficientDataError):
            observe(traj, NoiseModel.case1(0.1), p=0.5, T=81, seed=0)

    def test_bad_reporting_rate(self, traj):
        with pytest.raises(ValueError):
            observe(traj, NoiseModel.case1(0.1), p=0.0, T=10, seed=0)
        with pytest.raises(ValueError):
            observe(traj, NoiseModel.case1(0.1), p=1.2, T=10, seed=0)

    def test_csv_and_sidecar(self, traj, tmp_path):
        obs = observe(traj, NoiseModel.case1(0.05), p=0.5, T=15, seed=9)
        csv_path = tmp_path / "obs.csv"
        sidecar = tmp_path / "obs.json"
        write_observations_csv(obs, csv_path, sidecar_path=sidecar)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 16
        meta = json.loads(sidecar.read_text())
        assert meta["noise_kind"] == "case1"
        assert meta["seed"] == 9
        assert meta["population"] == 10**7
