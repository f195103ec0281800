import datetime as dt
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from sirlimits._csv import fmt
from sirlimits import inference
from sirlimits.data import CaseData, load_nyc_fixture
from sirlimits.errors import InsufficientDataError, OptimizationFailureError
from sirlimits.inference import (MleResult, best_fit, closed_form_start, default_starts,
                                 fit_mle, log_likelihood)
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
        # the benchmark's two rows pass the first-order test, each fit from
        # its closed-form start alone
        rows = reporting_rate_sweep(data, [0.1, 0.25])
        assert [row.fit.converged for row in rows] == [True, True]

    def test_wide_sweep_keeps_every_multistart_optimum(self, data):
        p_values = [0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
        rows = reporting_rate_sweep(data, p_values)
        assert [row.p for row in rows] == p_values
        for row in rows:
            assert row.error is None and row.fit.converged
            multistart = fit_mle(nyc_likelihood_spec(data, row.p), n_starts=8)
            assert row.fit.loglik >= multistart.loglik - 1e-9

    def test_one_start_per_fit_when_it_converges(self, data, monkeypatch):
        # no fallback runs on the fixture: each p is one fit of one start
        calls = []
        fit_rows = inference._fit_rows

        def recorded(specs, starts):
            calls.append(starts)
            return fit_rows(specs, starts)

        monkeypatch.setattr(inference, "_fit_rows", recorded)
        rows = reporting_rate_sweep(data, [0.1, 0.25])
        assert calls == [[[closed_form_start(nyc_likelihood_spec(data, row.p))]] for row in rows]

    @pytest.mark.parametrize("counts", [[1] + [0] * 14, [1] + [5] * 14], ids=["zero", "flat"])
    def test_no_closed_form_start_gives_the_fallback_row(self, data, counts):
        # neither series has an interior frozen-s maximum with A > p, so
        # each row is the default-start fit's
        series = CaseData(dates=tuple(dt.date(2020, 3, 1) + dt.timedelta(days=k)
                                      for k in range(len(counts))),
                          counts=np.array(counts), population=data.population)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = reporting_rate_sweep(series, [0.1, 1.0], n_starts=4)
        for row in rows:
            spec = nyc_likelihood_spec(series, row.p)
            assert closed_form_start(spec) is None
            assert row == SweepRow(row.p, fit_mle(spec, n_starts=4))

    @pytest.mark.parametrize("fallback_converges", [True, False])
    def test_unconverged_closed_form_fit_is_settled_by_keep_better(self, data, monkeypatch,
                                                                   fallback_converges):
        # the closed-form fit is forced unconverged; the default-start fit
        # runs and the better of the two by (converged, loglik) is the row
        expected = replace(fit_mle(nyc_likelihood_spec(data, 0.25), n_starts=3),
                           converged=fallback_converges)
        fits = []
        fit_rows = inference._fit_rows

        def forced(specs, starts):
            rows = fit_rows(specs, starts)
            if not fits or not fallback_converges:
                # the fit's best result, unconverged, stands for all its starts
                rows = [[own[0]._replace(result=replace(best_fit(own), converged=False))]
                        for own in rows]
            fits.append(best_fit(rows[0]))
            return rows

        monkeypatch.setattr(inference, "_fit_rows", forced)
        [row] = reporting_rate_sweep(data, [0.25], n_starts=3)
        closed, fallback = fits
        assert fallback == expected
        # best_fit over both fits' starts: a converged fit wins, then the
        # higher ll, the closed-form fit on a tie
        assert row.fit == (fallback if fallback_converges or fallback.loglik > closed.loglik
                           else closed)

    def test_every_p_is_checked_before_the_first_fit(self, data, monkeypatch):
        passes = []
        monkeypatch.setattr(inference, "_sensitivity_passes",
                            lambda *args: passes.append(args) or [])
        with pytest.raises(ValueError, match="1.5"):
            reporting_rate_sweep(data, [0.1, 1.5])
        with pytest.raises(ValueError, match="n_starts"):
            reporting_rate_sweep(data, [0.1], n_starts=0)
        assert passes == []

    def test_closed_form_start_is_invariant_in_p(self, data):
        # frozen-s: p enters only through A = p beta / delta, so delta and A
        # are the same at every p and r0 = A / (A - p)
        starts = {p: closed_form_start(nyc_likelihood_spec(data, p)) for p in (0.01, 0.1, 0.25, 1.0)}
        ref = starts[0.1]
        amp = 0.1 * ref.beta / ref.delta()
        for p, start in starts.items():
            assert start.delta() == pytest.approx(ref.delta(), rel=1e-12)
            assert p * start.beta / start.delta() == pytest.approx(amp, rel=1e-12)
            assert start.r0() == pytest.approx(amp / (amp - p), rel=1e-12)

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

    def test_a_failed_row_keeps_every_start_reason(self, data, monkeypatch, tmp_path):
        # the closed-form start fails (call 0), then both default starts (call 1)
        fit_rows = inference._fit_rows

        def forced(specs, starts):
            c = len(calls)
            calls.append(starts)
            return [[fit._replace(result=None, error=f"forced failure {c}") for fit in own]
                    for own in fit_rows(specs, starts)]

        calls = []
        monkeypatch.setattr(inference, "_fit_rows", forced)
        [row] = reporting_rate_sweep(data, [0.25], n_starts=2)
        [[[closed]], [defaults]] = calls
        assert row.fit is None
        assert row.error == "all optimizer starts failed: " + "; ".join(
            f"start {idx} ({start.beta:.4g}, {start.gamma:.4g}): forced failure {c}"
            for idx, (c, start) in enumerate([(0, closed)] + [(1, start) for start in defaults]))
        # the starts' "(beta, gamma)" carry the commas
        path = tmp_path / "table.csv"
        write_nyc_table_csv([row], path)
        cell = path.read_text().splitlines()[1].split(",")[7]
        assert cell == row.error.replace(",", ";")

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

    @pytest.mark.parametrize("p", [0.0, 2.0, -1.0])
    def test_refuses_the_reporting_rates_its_spec_refuses(self, data, fit_p05, p):
        # each used to return a band, with a negative mean at p = -1
        with pytest.raises(ValueError, match="reporting rate"):
            fitted_band(data, fit_p05, p=p)

    def test_refuses_a_series_of_one_count_as_its_spec_does(self, fit_p05):
        # it used to fail in integrate_exact, on a horizon of 0 days
        one = CaseData(dates=(dt.date(2020, 3, 1),), counts=np.array([1]), population=100)
        with pytest.raises(InsufficientDataError, match="at least two daily counts"):
            fitted_band(one, fit_p05, p=0.05)

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
    with pytest.raises(InsufficientDataError):
        nyc_likelihood_spec(tiny, 0.05)
