import numpy as np
import pytest
from scipy.special import ndtri

from sirlimits._csv import fmt
from sirlimits.data import load_nyc_fixture
from sirlimits.errors import OptimizationFailureError
from sirlimits.inference import MleResult, default_starts, fit_mle, log_likelihood
from sirlimits.nyc import (SweepRow, fitted_band, nyc_likelihood_spec, reporting_rate_sweep,
                           write_nyc_table_csv)
from sirlimits.sir import InitialCondition, SirParams, incidence, integrate_exact


@pytest.fixture(scope="module")
def data():
    return load_nyc_fixture()


@pytest.fixture(scope="module")
def fit_p05(data):
    return fit_mle(nyc_likelihood_spec(data, 0.05), n_starts=6)


class TestNycFit:
    def test_fit_is_multistart_maximum(self, data, fit_p05):
        # internal consistency: the returned optimum dominates a spread of
        # other candidate parameter values, including other ridge points
        spec = nyc_likelihood_spec(data, 0.05)
        ll_best = fit_p05.loglik
        delta = fit_p05.delta_hat
        for beta in (0.9, 2.0, fit_p05.beta_hat * 0.7, fit_p05.beta_hat * 1.4, 20.0):
            gamma = beta - delta
            if gamma <= 0:
                continue
            ll = log_likelihood(SirParams(beta, gamma), fit_p05.sigma_hat, spec)
            assert ll <= ll_best + 1e-6

    def test_sigma_profile_consistency(self, data, fit_p05):
        # at the optimum, sigma_hat^2 equals the mean weighted squared residual
        spec = nyc_likelihood_spec(data, 0.05)
        n = data.population
        traj = integrate_exact(fit_p05.params(), spec.init, spec.T, 50)
        resid = spec.obs.values - 0.05 * incidence(traj)
        s2 = np.mean(resid**2 / (n * traj.i[1:]))
        assert fit_p05.sigma_hat**2 == pytest.approx(s2, rel=1e-4)

    def test_growth_rate_matches_data_scale(self, fit_p05):
        # the fitted growth rate tracks the raw log-slope of the counts
        assert 0.4 < fit_p05.delta_hat < 0.8

    @pytest.mark.parametrize("p", [0.1, 0.25])
    def test_every_default_start_reaches_one_optimum(self, data, p):
        # the benchmark's two fits: each of the 8 starts along the ridge, up
        # to 64 times the moment anchor, passes the first-order test there
        spec = nyc_likelihood_spec(data, p)
        fits = [fit_mle(spec, starts=[start]) for start in default_starts(spec, 8)]
        assert all(fit.converged for fit in fits)
        lls = [fit.loglik for fit in fits]
        assert max(lls) - min(lls) <= 1e-9

    def test_loglik_smooth_at_the_optimum(self, data):
        # ll at 41 points 1e-10 apart, relative in (beta, gamma), about the
        # p = 0.25 optimum: a quadratic leaves only rounding. Incidence taken
        # as N*(s_{k-1} - s_k), with s near 1, left a residual sd of 8.5e-11.
        spec = nyc_likelihood_spec(data, 0.25)
        fit = fit_mle(spec)
        steps = np.arange(-20, 21)
        ll = np.array([
            log_likelihood(SirParams(fit.beta_hat * (1.0 + 1e-10 * k),
                                     fit.gamma_hat * (1.0 + 1e-10 * k)), fit.sigma_hat, spec)
            for k in steps
        ]) - fit.loglik
        residual = ll - np.polyval(np.polyfit(steps, ll, 2), steps)
        assert np.std(residual) < 1e-12


class TestSweep:
    def test_r0_monotone_in_p(self, data):
        rows = reporting_rate_sweep(data, [0.01, 0.05, 0.1, 0.25], n_starts=4)
        assert all(row.error is None for row in rows)
        r0s = [row.fit.r0_hat for row in rows]
        assert all(a < b for a, b in zip(r0s, r0s[1:]))

    def test_sweep_rows_converged(self, data):
        # every row passes the first-order test; at p = 0.25 that includes the
        # warm start from the p = 0.1 optimum
        rows = reporting_rate_sweep(data, [0.1, 0.25])
        assert [row.fit.converged for row in rows] == [True, True]

    def test_table_csv(self, data, tmp_path):
        rows = reporting_rate_sweep(data, [0.05], n_starts=2)
        path = tmp_path / "table.csv"
        write_nyc_table_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("p,beta_hat,gamma_hat")
        assert len(lines) == 2
        assert lines[1].split(",")[1:7] == [fmt(rows[0].fit.beta_hat), fmt(rows[0].fit.gamma_hat),
                                            fmt(rows[0].fit.sigma_hat), fmt(rows[0].fit.r0_hat),
                                            fmt(rows[0].fit.loglik), "1"]

    def test_table_csv_failed_row(self, tmp_path):
        # a failed fit leaves every fit cell empty and converged 0; its error
        # keeps to one cell of one line
        path = tmp_path / "table.csv"
        write_nyc_table_csv([SweepRow(0.5, None, "all starts failed, twice\nstart 0")], path)
        assert path.read_text().splitlines()[1] == "0.5,,,,,,0,all starts failed; twice start 0"


class TestFittedBand:
    def test_level_quantile(self):
        assert ndtri(0.5 * (1 + 0.95)) == pytest.approx(1.959964, abs=1e-6)

    def test_band_geometry(self, data, fit_p05):
        band = fitted_band(data, fit_p05, p=0.05, level=0.95)
        assert np.all(band.upper > band.lower)
        assert np.all(band.upper - band.mean == pytest.approx(band.mean - band.lower))
        # widths grow with infections along the trajectory
        widths = band.upper - band.lower
        assert widths[-1] > widths[0]

    def test_contains_most_regenerated_points(self, data, fit_p05):
        # parametric bootstrap: data regenerated from the fitted model land
        # inside the 95% band about 95% of the time
        band = fitted_band(data, fit_p05, p=0.05, level=0.95)
        n = data.population
        init = InitialCondition.from_population(n)
        traj = integrate_exact(fit_p05.params(), init, len(data) - 1, 50)
        rng = np.random.default_rng(31)
        inside = 0
        total = 0
        for _ in range(400):
            y = band.mean + fit_p05.sigma_hat * np.sqrt(n * traj.i[1:]) * rng.standard_normal(len(band.mean))
            inside += int(np.sum((y >= band.lower) & (y <= band.upper)))
            total += len(y)
        assert inside / total == pytest.approx(0.95, abs=0.01)

    def test_refuses_nonconverged(self, data, fit_p05):
        bad = MleResult(beta_hat=fit_p05.beta_hat, gamma_hat=fit_p05.gamma_hat,
                        sigma_hat=fit_p05.sigma_hat, loglik=fit_p05.loglik,
                        converged=False, iterations=1, grad_norm=1.0)
        with pytest.raises(OptimizationFailureError):
            fitted_band(data, bad, p=0.05)

    def test_requires_sigma(self, data, fit_p05):
        no_sigma = MleResult(beta_hat=fit_p05.beta_hat, gamma_hat=fit_p05.gamma_hat,
                             sigma_hat=None, loglik=fit_p05.loglik,
                             converged=True, iterations=1, grad_norm=0.0)
        with pytest.raises(ValueError):
            fitted_band(data, no_sigma, p=0.05)


def test_spec_requires_two_counts():
    import datetime as dt

    from sirlimits.data import CaseData

    tiny = CaseData(dates=(dt.date(2020, 3, 1),), counts=np.array([1]), population=100)
    with pytest.raises(ValueError):
        nyc_likelihood_spec(tiny, 0.05)
