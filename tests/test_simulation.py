"""Monte Carlo harness: seeding, contamination, pairing, determinism."""

import math
import multiprocessing.process
from dataclasses import replace

import numpy as np
import pytest

import rayreg.simulation
from rayreg.estimation import fit_both
from rayreg.simulation import (
    BreakdownCurve,
    ScenarioConfig,
    breakdown_curve,
    format_table,
    mix_seed,
    rng_for,
    run_table,
    scenario_design,
    sensitivity_curve,
    simulate_signal,
)

BETA = (0.5, 0.15)


def _cfg(**kwargs):
    defaults = dict(beta_true=BETA, n_obs=80, epsilon=0.0, replications=40, master_seed=99)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestSeeds:
    def test_mix_seed_deterministic_and_spread(self):
        a = mix_seed(123, 1, 5)
        assert a == mix_seed(123, 1, 5)
        neighbors = {mix_seed(123, 1, i) for i in range(1000)}
        assert len(neighbors) == 1000
        assert mix_seed(123, 1, 5) != mix_seed(124, 1, 5)

    def test_rng_for_reproducible(self):
        assert rng_for(7, 1).random(5) == pytest.approx(rng_for(7, 1).random(5))


class TestSimulateSignal:
    def test_no_contamination_empty_positions(self):
        y, pos = simulate_signal(_cfg(), 0)
        assert pos.size == 0
        assert np.all(y > 0)

    def test_exact_outlier_count_and_value(self):
        cfg = _cfg(n_obs=100, epsilon=0.05)
        y, pos = simulate_signal(cfg, 3)
        assert pos.size == 5
        assert np.all(y[pos] == 10.0)
        assert len(set(pos.tolist())) == 5

    def test_floor_rule(self):
        cfg = _cfg(n_obs=90, epsilon=0.01)  # floor(0.9) = 0 outliers
        _, pos = simulate_signal(cfg, 0)
        assert pos.size == 0

    def test_deterministic_per_replication(self):
        cfg = _cfg(epsilon=0.1)
        y1, p1 = simulate_signal(cfg, 7)
        y2, p2 = simulate_signal(cfg, 7)
        assert np.array_equal(y1, y2) and np.array_equal(p1, p2)
        y3, _ = simulate_signal(cfg, 8)
        assert not np.array_equal(y1, y3)

    def test_covariates_fixed_across_replications(self):
        cfg = _cfg()
        X1 = scenario_design(cfg).X
        X2 = scenario_design(cfg).X
        assert np.array_equal(X1, X2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _cfg(epsilon=1.0)
        with pytest.raises(ValueError):
            _cfg(n_obs=2)
        with pytest.raises(ValueError):
            _cfg(outlier_value=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_obs": math.nan},
            {"epsilon": math.nan},
            {"outlier_value": math.nan},
            {"outlier_value": math.inf},
            {"replications": math.nan},
            {"replications": math.inf},
            # the robust fields, checked at construction rather than in a worker
            {"delta": 0.5},
            {"delta": math.nan},
            {"reweight_iterations": -1},
            {"max_iter": 0},
            {"grad_tol": math.nan},
            {"grad_tol": math.inf},
            {"beta_true": ()},
        ],
    )
    def test_non_finite_and_robust_fields_refused(self, kwargs):
        with pytest.raises(ValueError):
            _cfg(**kwargs)


class TestRunTable:
    def test_reports_and_totals(self):
        reports = run_table([_cfg(epsilon=0.05, replications=30)])
        rep = reports[0]
        for est in (rep.mle, rep.wmle):
            assert est.n_used + est.convergence_failures == 30
            assert est.absolute_total_rb == pytest.approx(
                sum(abs(v) for v in est.rb_percent), abs=1e-12
            )
            assert est.absolute_total_mse == pytest.approx(sum(est.mse), abs=1e-12)

    def test_zero_reweight_rounds_make_columns_identical(self):
        reports = run_table([_cfg(replications=25, reweight_iterations=0)])
        rep = reports[0]
        assert rep.mle.mean == rep.wmle.mean
        assert rep.mle.mse == rep.wmle.mse

    def test_bitwise_reproducible(self):
        cfgs = [_cfg(replications=20, epsilon=0.02)]
        a = run_table(cfgs)[0].as_dict()
        b = run_table(cfgs)[0].as_dict()
        assert a == b

    def test_workers_do_not_change_results(self):
        cfgs = [_cfg(replications=14, epsilon=0.05)]
        serial = run_table(cfgs, workers=1)[0].as_dict()
        parallel = run_table(cfgs, workers=2)[0].as_dict()
        assert serial == parallel

    def test_clean_cell_recovers_truth_loosely(self):
        rep = run_table([_cfg(n_obs=500, replications=300)])[0]
        assert rep.mle.mean[0] == pytest.approx(0.5, abs=0.015)
        assert rep.mle.mean[1] == pytest.approx(0.15, abs=0.03)
        assert rep.mle.convergence_failures == 0

    def test_one_percent_contamination_direction(self):
        # A single percent of value-10 outliers already drags the plain
        # intercept up by tens of percent while the robust column stays
        # within a few percent of the truth.
        rep = run_table([_cfg(n_obs=500, epsilon=0.01, replications=300)])[0]
        assert 15.0 <= rep.mle.rb_percent[0] <= 50.0
        assert rep.mle.rb_percent[1] < 0.0
        assert abs(rep.wmle.rb_percent[0]) <= 4.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_table([])


class TestBreakdownCurve:
    def test_count_zero_matches_clean_table_cell(self):
        cfg = _cfg(replications=25)
        curve = breakdown_curve(cfg, [0, 4], workers=1)
        table = run_table([cfg])[0]
        assert curve.mle_total_rb[0] == pytest.approx(table.mle.absolute_total_rb, abs=1e-12)
        assert curve.wmle_total_rb[0] == pytest.approx(table.wmle.absolute_total_rb, abs=1e-12)

    def test_contamination_hurts_mle(self):
        curve = breakdown_curve(_cfg(n_obs=120, replications=30), [0, 12])
        assert curve.mle_total_rb[1] > curve.mle_total_rb[0]
        assert curve.wmle_total_rb[1] < curve.mle_total_rb[1]

    def test_mle_curve_monotone_after_smoothing(self):
        curve = breakdown_curve(_cfg(n_obs=120, replications=40), [0, 8, 16, 32])
        smoothed = [
            0.5 * (a + b) for a, b in zip(curve.mle_total_rb, curve.mle_total_rb[1:])
        ]
        assert all(b >= a for a, b in zip(smoothed, smoothed[1:]))

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            breakdown_curve(_cfg(), [80])
        with pytest.raises(ValueError):
            breakdown_curve(_cfg(), [-1])

    def test_csv_layout(self):
        curve = BreakdownCurve(
            counts=(0, 5), mle_total_rb=(1.0, 2.0), wmle_total_rb=(0.5, 0.7),
            convergence_failures=0,
        )
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "outliers,mle_total_rb,wmle_total_rb"
        assert lines[1] == "0,1.0,0.5"


class TestSensitivityCurve:
    def test_score_neutral_value_is_quiet(self):
        # An outlier near 2*mu/sqrt(pi) barely moves either estimator, while
        # a large one drags the plain fit hard.
        cfg = _cfg(n_obs=150, replications=25)
        curve = sensitivity_curve(cfg, [2.0, 10.0])
        assert curve.mle_masc[0] < 2.0
        assert curve.mle_masc[1] > 5.0 * curve.mle_masc[0]
        assert curve.wmle_masc[1] < curve.mle_masc[1]

    def test_epsilon_plays_no_role(self):
        a = sensitivity_curve(_cfg(replications=10, epsilon=0.0), [5.0])
        b = sensitivity_curve(_cfg(replications=10, epsilon=0.2), [5.0])
        assert a.mle_masc == b.mle_masc and a.wmle_masc == b.wmle_masc

    def test_deterministic_and_parallel_equal(self):
        cfg = _cfg(replications=8)
        a = sensitivity_curve(cfg, [1.0, 10.0], workers=1)
        b = sensitivity_curve(cfg, [1.0, 10.0], workers=2)
        assert a.mle_masc == b.mle_masc and a.wmle_masc == b.wmle_masc

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            sensitivity_curve(_cfg(replications=5), [0.0, 1.0])


class TestContinuationStarts:
    """Each sweep fit starts from the fit before it in its replication; the
    curves stay within the solver's tolerance of cold-started fits."""

    CFG = _cfg(n_obs=60, replications=30, master_seed=17)
    SWEEPS = {
        "breakdown": (breakdown_curve, [0, 3, 6, 9, 12], ("mle_total_rb", "wmle_total_rb")),
        "sensitivity": (sensitivity_curve, [float(v) for v in range(1, 21)],
                        ("mle_masc", "wmle_masc")),
    }

    @pytest.mark.parametrize("experiment", sorted(SWEEPS))
    def test_curves_match_cold_fits(self, experiment, monkeypatch):
        curve_fn, sweep, fields = self.SWEEPS[experiment]
        starts = []

        def recording_fit_both(spec, cfg=None, start=None):
            starts.append(start)
            return fit_both(spec, cfg, start)

        monkeypatch.setattr(rayreg.simulation, "fit_both", recording_fit_both)
        warm = curve_fn(self.CFG, sweep)
        # Only each replication's first fit (the baseline, or the first
        # count) starts cold.
        assert sum(start is None for start in starts) == self.CFG.replications
        monkeypatch.setattr(rayreg.simulation, "fit_both",
                            lambda spec, cfg=None, start=None: fit_both(spec, cfg))
        cold = curve_fn(self.CFG, sweep)
        assert warm.convergence_failures == cold.convergence_failures
        atol = 0.0
        if experiment == "sensitivity":
            # A fit stops anywhere its gradient sup-norm is below grad_tol,
            # about 2 grad_tol |I^-1| 1 from where another start stops, and
            # the baseline starts cold in both runs: so each sensitivity
            # N (beta - beta_base), and their mean, can move by N times that.
            # Well outside the band the WMLE's MASC is only ~0.06 here.
            cov = np.linalg.inv(scenario_design(self.CFG).log_information)
            atol = 2.0 * self.CFG.n_obs * self.CFG.grad_tol * np.abs(cov).sum(axis=1).mean()
        for name in fields:
            np.testing.assert_allclose(getattr(warm, name), getattr(cold, name), rtol=1e-6,
                                       atol=atol)


    def test_start_extrapolated_from_a_diverged_fit_is_cold(self, monkeypatch):
        # The MLE at the second value is reported diverged (a NaN row), so
        # the third and fourth values' MLE starts are NaN and start cold.
        calls = []

        def diverging_fit_both(spec, cfg=None, start=None):
            mle, wmle = fit_both(spec, cfg, start)
            calls.append((spec, start, mle))
            if len(calls) == 3:  # the baseline, then values 1 and 2
                mle = replace(mle, converged=False)
            return mle, wmle

        monkeypatch.setattr(rayreg.simulation, "fit_both", diverging_fit_both)
        cfg = _cfg(n_obs=60, replications=2, master_seed=5)
        sensitivity_curve(cfg, [1.0, 2.0, 4.0, 8.0])
        for spec, start, mle in calls[3:5]:  # the first replication's
            assert np.isnan(start[0]).all() and np.isfinite(start[1]).all()
            cold = fit_both(spec, cfg.robust_config())[0]
            assert np.array_equal(mle.beta_hat, cold.beta_hat)
            assert mle.iterations == cold.iterations


_EXPERIMENTS = {
    "table": lambda cfg, workers: run_table([cfg], workers=workers)[0].as_dict(),
    "breakdown": lambda cfg, workers: breakdown_curve(cfg, [0, 3, 9], workers=workers),
    "sensitivity": lambda cfg, workers: sensitivity_curve(cfg, [1.0, 10.0], workers=workers),
}


class TestWorkerInvariance:
    """Seven replications run as one chunk, as 4 + 3 and as 3 + 3 + 1."""

    CFG = _cfg(n_obs=60, replications=7, epsilon=0.05)

    @pytest.fixture(scope="class")
    def serial(self):
        return {name: run(self.CFG, 1) for name, run in _EXPERIMENTS.items()}

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
    def test_uneven_chunks_do_not_change_results(self, serial, experiment, workers):
        assert _EXPERIMENTS[experiment](self.CFG, workers) == serial[experiment]

    def test_no_more_worker_processes_than_chunks(self, monkeypatch):
        # Four workers asked for, two replications: two chunks, so at most
        # two processes start.
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counting_start(process):
            started.append(process.name)
            return start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
        sensitivity_curve(_cfg(n_obs=60, replications=2), [1.0, 10.0], workers=4)
        assert 1 <= len(started) <= 2, started


class TestFormatting:
    def test_no_cells_format_as_no_text(self):
        assert format_table([]) == ""

    def test_text_table_mentions_estimators_and_cells(self):
        text = format_table(run_table([_cfg(replications=10)]))
        assert "WMLE" in text and "MLE" in text
        assert "N = 80" in text
        assert "RB(%)" in text and "MSE" in text
