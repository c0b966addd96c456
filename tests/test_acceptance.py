"""Acceptance suite: ten numbered criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here; the whole suite uses
one fixed master seed.

Criteria 2 and 3 (breakdown and sensitivity) assert bounds computed in the
test from the scenario design, the true coefficients and ``delta`` by the
numpy-only oracles in ``robust_oracle.py``; no bound is taken from Monte
Carlo output.  Scenario: log link, beta = (0.5, 0.15), N = 500, outlier
value 10, delta = 0.001.

Criterion 2.  The plain MLE converges to the root beta*(p) of the expected
score, ``X^T (pi E[y^2] / (2 mu^2) - 2) = 0`` with
``E[y^2] = (1-p) 4 mu0^2/pi + p v^2`` at contamination fraction p and
outlier value v.  Its total |RB%| on the scenario design is

    count (%)   5 (1)  10 (2)  15 (3)  20 (4)  30 (6)  40 (8)
    oracle       44.5    77.8   104.0   125.6   159.5   185.4
    MC MLE       42.5    74.5   105.7   130.0   165.1   191.6

so it crosses 100 at 2.8 %, not at or below 2 %: a bound of "100 by 2 %"
cannot be met by a correct MLE.  The test asserts the crossing at the
first sweep count past the oracle's (count 15), agreement with the oracle
within 10 % at every count (measured gaps <= 4.6 %, while the step between
2 % and 3 % is 34 %), and WMLE total |RB%| below 100 through 8 % (measured
max 52.9).  The oracle's root is checked against the intercept-only closed
form ``1/2 log((1-p) mu0^2 + p pi v^2 / 4)``.

Criterion 3.  At delta = 0.001 the central band ends at 2.966 mu, which is
4.89 to 5.68 on this design, so y = 5 keeps full weight at most rows and
the WMLE has the MLE's influence there (first-order oracle 6.04, Monte
Carlo WMLE 5.95, MLE 6.25): a bound of 5 is unreachable.  A 20x ratio of
the peaks is unreachable too: even asymptotically the MLE's influence at
y = 20 (118.8) over the in-band supremum (6.08) is 19.5; measured it is
94.0 / 5.95 = 15.8.  The test asserts max MASC(WMLE) <= G_delta, the
weighting rule's first-order gross-error bound (7.00; measured 5.95, and
94 if the weights broke).  G_delta counts only the outlier's own weighted
score and ignores the feedback through the plain-pass weights of the other
observations, so it is checked here only on the sweep values 1..20.  The
test also asserts MASC(MLE) >= 20 MASC(WMLE) at every sweep value beyond
twice the band edge of the largest true mean (11.4), where the measured
minimum ratio is 49.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2, kstest

import rayreg
from rayreg import (
    ModelSpec,
    RobustConfig,
    distribution,
    dummy_design,
    fit_both,
    fit_mle,
    ground_type_detect,
    wald_test,
)
from rayreg.cli import main as cli_main
from rayreg.detection import (DetectorConfig, detect, dilate, erode, postprocess, score_detections,
                              threshold_residuals)
from rayreg.scenes import make_scene
from rayreg.simulation import (
    ScenarioConfig,
    breakdown_curve,
    run_table,
    scenario_design,
    sensitivity_curve,
)

from fit_reference import score, weighted_loglik
from morph_oracle import brute_dilate, brute_erode, brute_opening
from robust_oracle import (
    band_edge,
    contaminated_root,
    gross_error_bound,
    intercept_only_root,
    total_rb_percent,
)

MASTER_SEED = 20250808
BETA_TRUE = (0.5, 0.15)


def _report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def _assert_all(number, checks):
    """checks: list of (ok, description). Prints one line, then asserts."""
    failed = [desc for ok, desc in checks if not ok]
    detail = "; ".join(desc for _, desc in checks)
    _report(number, not failed, detail)
    assert not failed, f"criterion {number} violated: {failed}"


def _scenario(n_obs, epsilon, replications=1000, **kwargs):
    return ScenarioConfig(
        beta_true=BETA_TRUE,
        n_obs=n_obs,
        epsilon=epsilon,
        replications=replications,
        delta=0.001,
        master_seed=MASTER_SEED,
        **kwargs,
    )


class TestCriterion1BiasMseTable:
    def test_bias_and_mse_cells(self):
        start = time.perf_counter()
        cells = run_table(
            [
                _scenario(500, 0.05),
                _scenario(100, 0.0),
                _scenario(750, 0.05),
            ]
        )
        elapsed = time.perf_counter() - start
        c500, c100, c750 = cells
        checks = [
            (
                abs(c500.wmle.rb_percent[0]) <= 8.0,
                f"N=500 eps=5%: |RB%(b1)| WMLE = {abs(c500.wmle.rb_percent[0]):.3f} <= 8",
            ),
            (
                c500.mle.rb_percent[0] >= 80.0,
                f"N=500 eps=5%: RB%(b1) MLE = {c500.mle.rb_percent[0]:.2f} >= 80",
            ),
            (
                c100.wmle.absolute_total_rb <= 4.0,
                f"N=100 clean: WMLE total |RB%| = {c100.wmle.absolute_total_rb:.3f} <= 4",
            ),
            (
                c100.mle.absolute_total_rb <= 4.0,
                f"N=100 clean: MLE total |RB%| = {c100.mle.absolute_total_rb:.3f} <= 4",
            ),
            (
                c750.wmle.absolute_total_mse <= 0.03,
                f"N=750 eps=5%: WMLE total MSE = {c750.wmle.absolute_total_mse:.4f} <= 0.03",
            ),
            (elapsed < 300.0, f"runtime {elapsed:.1f}s < 300s"),
        ]
        _assert_all(1, checks)


class TestCriterion2Breakdown:
    def test_total_relative_bias_crossings(self):
        # The bound follows the large-sample MLE limit beta*(p) (module
        # docstring): it crosses 100 at p = 2.8 %, so the crossing is
        # asserted at the first sweep count where the oracle is past 100.
        cfg = _scenario(500, 0.0)
        counts = (5, 10, 15, 20, 30, 40)
        curve = breakdown_curve(cfg, counts)
        X = scenario_design(cfg).X
        beta = np.asarray(BETA_TRUE)
        value = cfg.outlier_value
        fractions = [c / cfg.n_obs for c in counts]

        mu0 = math.exp(BETA_TRUE[0])
        root_gap = max(
            abs(contaminated_root(np.ones((cfg.n_obs, 1)), [BETA_TRUE[0]], p, value)[0]
                - intercept_only_root(mu0, p, value))
            for p in fractions
        )
        oracle = [total_rb_percent(contaminated_root(X, beta, p, value), beta) for p in fractions]
        first_past = min(c for c, o in zip(counts, oracle) if o >= 100.0)

        by_count = dict(zip(curve.counts, zip(curve.mle_total_rb, curve.wmle_total_rb)))
        mle_by_crossing = max(by_count[c][0] for c in counts if c <= first_past)
        oracle_gap = max(abs(by_count[c][0] - o) / o for c, o in zip(counts, oracle))
        wmle_to_8pct = max(by_count[c][1] for c in counts if c <= 40)
        checks = [
            (root_gap <= 1e-12, f"oracle intercept-only gap {root_gap:.1e} <= 1e-12"),
            (
                mle_by_crossing > 100.0,
                f"(a) MLE total |RB%| exceeds 100 by count {first_past}, the first count "
                f"where the oracle does (measured max {mle_by_crossing:.1f})",
            ),
            (
                oracle_gap <= 0.10,
                f"(b) MLE total |RB%| within 10% of the oracle at every count "
                f"(measured max gap {100 * oracle_gap:.1f}%)",
            ),
            (
                wmle_to_8pct < 100.0,
                f"(c) WMLE total |RB%| stays below 100 through 8% (measured max {wmle_to_8pct:.1f})",
            ),
        ]
        _assert_all(2, checks)


class TestCriterion3Sensitivity:
    def test_masc_bounds(self):
        # The sensitivity sweep injects one outlier per replication (the
        # definition of the sensitivity statistic; the scenario's nominal
        # 5% epsilon does not enter).  Values inside the central band keep
        # full weight, so the robust bound is the weighting rule's
        # gross-error bound and the 20x ratio is asserted only where every
        # row has the value well outside its band (module docstring).
        cfg = _scenario(500, 0.05)
        curve = sensitivity_curve(cfg, list(range(1, 21)))
        X = scenario_design(cfg).X
        bound = gross_error_bound(X, cfg.delta)
        far = 2.0 * float(band_edge(np.max(np.exp(X @ np.asarray(BETA_TRUE))), cfg.delta))

        max_wmle = max(curve.wmle_masc)
        beyond = np.asarray(curve.values) > far
        mle_far = np.asarray(curve.mle_masc)[beyond]
        wmle_far = np.asarray(curve.wmle_masc)[beyond]
        with np.errstate(divide="ignore"):
            min_ratio = float(np.min(mle_far / wmle_far)) if beyond.any() else math.nan
        checks = [
            (max_wmle <= bound, f"(a) max MASC(WMLE) = {max_wmle:.2f} <= G_delta = {bound:.2f}"),
            (
                bool(beyond.any()) and bool(np.all(mle_far >= 20.0 * wmle_far)),
                f"(b) MASC(MLE) >= 20 * MASC(WMLE) at the {int(beyond.sum())} values beyond "
                f"{far:.2f} (measured min ratio {min_ratio:.1f})",
            ),
        ]
        _assert_all(3, checks)


class TestCriterion4EstimatorProperties:
    def _random_instance(self, rng):
        if rng.random() < 0.7:
            link = "log"
            k = int(rng.integers(1, 4))
            beta = np.concatenate([[rng.uniform(-1.0, 1.2)], rng.uniform(-0.6, 0.6, k - 1)])
        else:
            link = "identity"
            k = int(rng.integers(1, 3))
            beta = np.concatenate([[rng.uniform(1.5, 3.0)], rng.uniform(-0.4, 0.4, k - 1)])
        n = int(rng.integers(80, 400))
        X = np.column_stack([np.ones(n)] + [rng.random(n) for _ in range(k - 1)])
        mu = rayreg.get_link(link).inverse(X @ beta)
        y = distribution.quantile(rng.random(n), mu)
        if link == "log" and rng.random() < 0.4:
            y[rng.permutation(n)[: max(1, n // 20)]] = 10.0
        return ModelSpec.build(X, y, link=link), beta

    def test_score_properties(self):
        rng = np.random.default_rng(MASTER_SEED)

        # (a) score at optimum, 50 random instances, both estimators
        worst = 0.0
        for _ in range(50):
            spec, _ = self._random_instance(rng)
            mle, wmle = fit_both(spec, RobustConfig(delta=0.001))
            assert mle.converged and wmle.converged
            worst = max(
                worst,
                float(np.max(np.abs(score(spec, mle.beta_hat)))),
                float(np.max(np.abs(score(spec, wmle.beta_hat, wmle.weights)))),
            )
        ok_a = worst <= 1e-6

        # (b) the solver's gradient vs central finite differences of the
        # reference log-likelihood around the point it evaluated (under the
        # log link, the random point with its intercept profiled out)
        worst_rel = 0.0
        for _ in range(50):
            spec, beta = self._random_instance(rng)
            point = beta * rng.uniform(0.9, 1.1, beta.shape)
            w = rng.uniform(0.0, 1.0, spec.n_obs)
            evaluate, _ = spec.link.objective(spec.design, w, spec.response_terms)
            _, analytic, point, _ = evaluate(point.tolist())
            analytic, point = np.array(analytic), np.array(point)
            fd = np.empty_like(analytic)
            for i in range(point.size):
                h = 1e-6 * (1.0 + abs(point[i]))
                up, dn = point.copy(), point.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (weighted_loglik(spec, up, w) - weighted_loglik(spec, dn, w)) / (2 * h)
            rel = np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))
            worst_rel = max(worst_rel, float(rel))
        ok_b = worst_rel <= 1e-5

        # (c) intercept-only fit vs closed-form scalar solution
        worst_c = 0.0
        for _ in range(20):
            n = int(rng.integers(50, 300))
            y = distribution.quantile(rng.random(n), rng.uniform(0.3, 4.0))
            spec = ModelSpec.build(np.ones((n, 1)), y)
            fit = fit_mle(spec)
            closed = math.log(math.sqrt(math.pi * float(np.sum(y**2)) / (4 * n)))
            worst_c = max(worst_c, abs(fit.beta_hat[0] - closed))
        ok_c = worst_c <= 1e-8

        # (d) zero reweighting rounds reproduce the plain fit bitwise
        spec, _ = self._random_instance(np.random.default_rng(MASTER_SEED + 1))
        cfg = RobustConfig(reweight_iterations=0)
        mle, wmle = fit_mle(spec, cfg), fit_both(spec, cfg)[1]
        ok_d = (
            np.array_equal(mle.beta_hat, wmle.beta_hat)
            and np.array_equal(mle.weights, wmle.weights)
            and np.array_equal(mle.mu_hat, wmle.mu_hat)
            and mle.loglik == wmle.loglik
        )

        _assert_all(
            4,
            [
                (ok_a, f"(a) max score at optimum {worst:.2e} <= 1e-6"),
                (ok_b, f"(b) max solver-gradient FD mismatch {worst_rel:.2e} <= 1e-5"),
                (ok_c, f"(c) closed-form gap {worst_c:.2e} <= 1e-8"),
                (ok_d, "(d) reweight_iterations=0 reproduces MLE bitwise"),
            ],
        )


class TestCriterion5Distribution:
    def test_distribution_properties(self):
        worst_norm = 0.0
        for mu in (0.2, 1.0, 3.7, 12.0):
            total, _ = quad(lambda y: distribution.pdf(y, mu), 0.0, 50.0 * mu, limit=200)
            worst_norm = max(worst_norm, abs(total - 1.0))
        ok_norm = worst_norm <= 1e-8

        mu = 1.7
        y = np.linspace(1e-3, 4.5 * mu, 2001)
        back = distribution.quantile(distribution.cdf(y, mu), mu)
        ok_round = bool(np.all(np.abs(back - y) <= 1e-10 * (1.0 + y)))

        draws = distribution.sample(1.3, np.random.default_rng(MASTER_SEED), size=10_000)
        pvalue = kstest(draws, lambda v: distribution.cdf(v, 1.3)).pvalue
        ok_ks = pvalue > 0.01

        _assert_all(
            5,
            [
                (ok_norm, f"pdf normalization gap {worst_norm:.2e} <= 1e-8"),
                (ok_round, "cdf/quantile round trip within 1e-10"),
                (ok_ks, f"sampler KS p-value {pvalue:.3f} > 0.01 (N=10^4)"),
            ],
        )


class TestCriterion6Inference:
    def test_wald_machinery_and_size(self):
        ok_q = abs(float(chi2.ppf(0.95, 1)) - 3.8415) <= 1e-3

        rng = np.random.default_rng(MASTER_SEED)
        X = np.column_stack([np.ones(200), rng.random(200)])
        y = distribution.quantile(rng.random(200), np.exp(X @ np.array(BETA_TRUE)))
        fit = fit_mle(ModelSpec.build(X, y))
        at_null = wald_test(fit, (0, 1), fit.beta_hat.copy())
        ok_zero = at_null.statistic == pytest.approx(0.0, abs=1e-18) and not at_null.reject_null

        p_row = float(chi2.sf((0.1168 / 0.0521) ** 2, 1))
        ok_p = abs(p_row - 0.025) <= 0.002

        # Size of the ground-type test under the null: three regions with
        # identical means, 1000 replications, rejection rate ~ pfa.
        labels = ["A"] * 300 + ["B"] * 300 + ["C"] * 300
        design = dummy_design(labels, "A")
        mu_null = np.full(900, 1.5)
        rejections = trials = 0
        for rep in range(1000):
            rep_rng = np.random.default_rng((MASTER_SEED, rep))
            y_null = distribution.quantile(rep_rng.random(900), mu_null)
            spec = ModelSpec(design=design, link="log", response=y_null)
            wmle = fit_both(spec, RobustConfig(delta=0.001))[1]
            for report in ground_type_detect(wmle, pfa=0.05):
                trials += 1
                rejections += report.reject_null
        rate = rejections / trials
        ok_size = abs(rate - 0.05) <= 0.015

        _assert_all(
            6,
            [
                (ok_q, "chi-square(1) 0.95 quantile = 3.8415 +- 1e-3"),
                (ok_zero, "T_W = 0 when the estimate equals the null"),
                (ok_p, f"estimate/SE 0.1168/0.0521 gives p = {p_row:.4f} (0.025 +- 0.002)"),
                (ok_size, f"null rejection rate {rate:.4f} within 0.05 +- 0.015"),
            ],
        )


class TestCriterion7ControlChart:
    def test_three_sigma_flag_fraction(self):
        rng = np.random.default_rng(MASTER_SEED)
        field = rng.standard_normal((1000, 1000))
        frac = float(threshold_residuals(field, 3.0).mean())
        ok = abs(frac - 0.0027) <= 0.0005
        _assert_all(7, [(ok, f"flagged fraction {frac:.5f} within 0.0027 +- 0.0005 (10^6 pixels)")])


class TestCriterion8Detection:
    def test_synthetic_scene_detection(self):
        scene = make_scene(seed=MASTER_SEED)
        scores = {}
        for method in ("wmle", "mle"):
            result = detect(
                scene.interest,
                [scene.covariate],
                scene.training_region,
                robust=RobustConfig(delta=0.001),
                method=method,
            )
            # Matched within the default merge distance, 10 pixels of 1 m.
            scores[method] = score_detections(result.clusters, scene.truth, 10.0)
        (wm_hits, wm_false, _), (_, ml_false, _) = scores["wmle"], scores["mle"]
        checks = [
            (wm_hits >= 22, f"robust pipeline hits {wm_hits}/25 >= 22"),
            (wm_false <= 5, f"robust false clusters {wm_false} <= 5"),
            (
                ml_false > wm_false,
                f"plain pipeline strictly more false clusters ({ml_false} > {wm_false})",
            ),
        ]
        _assert_all(8, checks)


class TestCriterion9MorphologyOracle:
    def test_bit_exact_against_brute_force(self):
        rng = np.random.default_rng(MASTER_SEED)
        # postprocess at the default 7x7 dilation: the opening by the size,
        # then the dilation, as detect cleans its mask.
        pairs = (
            (erode, brute_erode),
            (dilate, brute_dilate),
            (lambda m, s: postprocess(m, DetectorConfig(opening_size=s)),
             lambda m, s: brute_dilate(brute_opening(m, s), DetectorConfig.dilation_size)),
        )
        mismatches = 0
        for i in range(200):
            mask = rng.random((16, 16)) < rng.uniform(0.2, 0.6)
            size = 3 if i % 2 == 0 else 5
            for fast, brute in pairs:
                if not np.array_equal(fast(mask, size), brute(mask, size)):
                    mismatches += 1
        _assert_all(
            9, [(mismatches == 0, "erode/dilate/postprocess bit-exact on 200 random 16x16 masks")]
        )


class TestCriterion10Reproducibility:
    def _compare_dirs(self, a, b, names):
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                return False
        return True

    def test_manifest_reruns_are_byte_identical(self, tmp_path):
        import json

        scene_dir = tmp_path / "scene"
        assert (
            cli_main(
                ["synth-scene", "--rows", "100", "--cols", "100", "--blob-grid", "2",
                 "--training-rows", "25", "--seed", str(MASTER_SEED),
                 "--out-dir", str(scene_dir)]
            )
            == 0
        )

        det1, det2 = tmp_path / "det1", tmp_path / "det2"
        assert (
            cli_main(
                ["detect", "--interest", str(scene_dir / "interest.rrm"),
                 "--covariates", str(scene_dir / "covariate.rrm"),
                 "--training", "75,0,100,100",
                 "--truth", str(scene_dir / "truth.json"),
                 "--out-dir", str(det1)]
            )
            == 0
        )
        assert cli_main(["rerun", "--manifest", str(det1 / "manifest.json"),
                         "--out-dir", str(det2)]) == 0
        ok_detect = self._compare_dirs(det1, det2, ["mask.pgm", "mask.csv", "clusters.json", "score.json"])

        cfg = tmp_path / "sim.json"
        cfg.write_text(
            json.dumps({"beta_true": [0.5, 0.15], "N": 60, "epsilon": [0.0, 0.02],
                        "replications": 60, "seed": MASTER_SEED})
        )
        sim1, sim2 = tmp_path / "sim1", tmp_path / "sim2"
        assert cli_main(["simulate", "--config", str(cfg), "--out-dir", str(sim1)]) == 0
        assert cli_main(["rerun", "--manifest", str(sim1 / "manifest.json"),
                         "--out-dir", str(sim2)]) == 0
        ok_sim = self._compare_dirs(sim1, sim2, ["table.json", "table.txt"])

        def stripped(path):
            doc = json.loads(path.read_text())
            doc.pop("created_utc")
            return doc

        ok_manifest = stripped(det1 / "manifest.json") == stripped(det2 / "manifest.json")

        _assert_all(
            10,
            [
                (ok_detect, "detect artifacts byte-identical after rerun"),
                (ok_sim, "simulate artifacts byte-identical after rerun"),
                (ok_manifest, "manifests equal apart from timestamps"),
            ],
        )
