"""End-to-end command-line checks: artifacts, warnings, manifests, reruns."""

import csv
import hashlib
import json

import numpy as np
import pytest

from rayreg import distribution
from rayreg.cli import _parse_range, main


@pytest.fixture
def region_csv(tmp_path):
    """Three labeled regions with clearly different mean amplitudes."""
    rng = np.random.default_rng(12)
    path = tmp_path / "regions.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["amplitude", "region"])
        for label, mu in (("A", 0.19), ("B", 0.26), ("C", 0.12)):
            for v in distribution.quantile(rng.random(150), mu):
                writer.writerow([repr(float(v)), label])
    return path


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "beta_true": [0.5, 0.15],
                "N": 60,
                "epsilon": [0.0, 0.05],
                "replications": 60,
                "delta": 0.001,
                "seed": 5,
            }
        )
    )
    return path


def _read_json(path):
    return json.loads(path.read_text())


class TestFitCommand:
    def test_dummy_design_fit(self, region_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "fit",
                "--data", str(region_csv),
                "--response", "amplitude",
                "--dummy", "region",
                "--reference", "A",
                "--method", "both",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        doc = _read_json(out / "fit.json")
        assert {f["method"] for f in doc["fits"]} == {"MLE", "WMLE"}
        for fit in doc["fits"]:
            names = [c["name"] for c in fit["coefficients"]]
            assert names == ["intercept", "is_B", "is_C"]
            assert fit["coefficients"][1]["p_value"] is not None
        assert (out / "manifest.json").exists()

    def test_explicit_covariates_text_format(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.random(100)
        y = distribution.quantile(rng.random(100), np.exp(0.5 + 0.15 * x))
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x"])
            writer.writerows([[repr(float(a)), repr(float(b))] for a, b in zip(y, x)])
        out = tmp_path / "out"
        rc = main(
            ["fit", "--data", str(path), "--response", "y", "--covariates", "x",
             "--method", "mle", "--format", "text", "--out-dir", str(out)]
        )
        assert rc == 0
        assert "MLE" in (out / "fit.txt").read_text()

    def test_csv_format(self, region_csv, tmp_path):
        out = tmp_path / "c"
        rc = main(
            ["fit", "--data", str(region_csv), "--response", "amplitude",
             "--dummy", "region", "--reference", "A", "--method", "both",
             "--format", "csv", "--out-dir", str(out)]
        )
        assert rc == 0
        lines = (out / "fit.csv").read_text().strip().splitlines()
        assert lines[0] == "method,name,estimate,std_error,p_value"
        assert len(lines) == 7  # header + 3 coefficients x 2 methods

    def test_delta_ignored_warning_for_mle(self, region_csv, tmp_path):
        with pytest.warns(UserWarning, match="ignored"):
            rc = main(
                ["fit", "--data", str(region_csv), "--response", "amplitude",
                 "--dummy", "region", "--reference", "A", "--method", "mle",
                 "--delta", "0.01", "--out-dir", str(tmp_path / "o")]
            )
        assert rc == 0

    def test_missing_file_names_path(self, tmp_path, capsys):
        rc = main(["fit", "--data", str(tmp_path / "absent.csv"), "--response", "y",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "absent.csv" in capsys.readouterr().err

    def test_nonpositive_response_lists_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,x\n1.0,0.1\n0.0,0.2\n2.0,0.3\n")
        rc = main(["fit", "--data", str(path), "--response", "y", "--covariates", "x",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "nonpositive" in err and "3" in err  # data line number


class TestWaldResidualCommands:
    def test_wald_by_name(self, region_csv, tmp_path):
        out = tmp_path / "w"
        rc = main(
            ["wald", "--data", str(region_csv), "--response", "amplitude",
             "--dummy", "region", "--reference", "A",
             "--interest", "is_B,is_C", "--out-dir", str(out)]
        )
        assert rc == 0
        doc = _read_json(out / "wald.json")
        assert doc["wald"]["dof"] == 2
        assert doc["wald"]["reject_null"] is True

    def test_wald_by_integer_index(self, region_csv, tmp_path):
        out = tmp_path / "wi"
        rc = main(
            ["wald", "--data", str(region_csv), "--response", "amplitude",
             "--dummy", "region", "--reference", "A",
             "--interest", "1", "--null", "0", "--out-dir", str(out)]
        )
        assert rc == 0
        assert _read_json(out / "wald.json")["wald"]["names"] == ["is_B"]

    def test_residuals_outputs(self, region_csv, tmp_path):
        out = tmp_path / "r"
        rc = main(
            ["residuals", "--data", str(region_csv), "--response", "amplitude",
             "--dummy", "region", "--reference", "A", "--out-dir", str(out)]
        )
        assert rc == 0
        lines = (out / "residuals.csv").read_text().strip().splitlines()
        assert lines[0] == "residual"
        assert len(lines) == 451
        summary = _read_json(out / "residuals.json")
        assert abs(summary["mean"]) < 0.2


class TestSimulateCommands:
    def test_simulate_artifacts(self, sim_config, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(sim_config), "--out-dir", str(out)])
        assert rc == 0
        doc = _read_json(out / "table.json")
        assert len(doc["cells"]) == 2
        text = (out / "table.txt").read_text()
        assert "WMLE" in text and "N = 60" in text

    def test_schema_violation_reports_json_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"beta_true": [0.5, "x"], "N": 60}))
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "$.beta_true[1]" in capsys.readouterr().err

    def test_detector_keys_refused(self, tmp_path, capsys):
        cfg = tmp_path / "det.json"
        cfg.write_text(json.dumps({"beta_true": [0.5, 0.15], "N": 60,
                                   "control_limit": -5, "opening_se": 4}))
        rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "$.control_limit" in err[0]

    def test_epsilon_beyond_grid_warns(self, tmp_path):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"beta_true": [0.5, 0.15], "N": 60, "epsilon": 0.5,
                                   "replications": 60}))
        with pytest.warns(UserWarning, match="beyond"):
            rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "s")])
        assert rc == 0

    def test_single_replication_warns(self, tmp_path):
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({"beta_true": [0.5, 0.15], "N": 60, "replications": 1}))
        with pytest.warns(UserWarning, match="small"):
            rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "s1")])
        assert rc == 0

    def test_manifest_input_digest(self, sim_config, tmp_path):
        # Padded past the 1 MiB read size, so the digest spans several reads.
        padded = tmp_path / "padded.json"
        padded.write_bytes(sim_config.read_bytes() + b" " * (5 << 19))
        out = tmp_path / "bk"
        assert main(["breakdown", "--config", str(padded), "--counts", "0",
                     "--out-dir", str(out)]) == 0
        digest = hashlib.sha256(padded.read_bytes()).hexdigest()
        assert _read_json(out / "manifest.json")["inputs"] == {str(padded): "sha256:" + digest}

    def test_breakdown_and_sensitivity_csv(self, sim_config, tmp_path):
        out = tmp_path / "bk"
        rc = main(["breakdown", "--config", str(sim_config), "--counts", "0,3",
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "breakdown.csv").read_text().splitlines()
        assert lines[0] == "outliers,mle_total_rb,wmle_total_rb"
        assert len(lines) == 3

        out2 = tmp_path / "sv"
        rc = main(["sensitivity", "--config", str(sim_config), "--values", "2,10",
                   "--out-dir", str(out2)])
        assert rc == 0
        lines = (out2 / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "outlier_value,mle_masc,wmle_masc"
        assert len(lines) == 3


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, command",
        [
            (["simulate", "--config", "sim.json", "--threads", "abc"], "rayreg simulate"),
            (["detect", "--interest", "x.rrm"], "rayreg detect"),
            (["frobnicate"], "rayreg"),
        ],
        ids=["bad-type", "missing-required", "unknown-command"],
    )
    def test_one_error_line_and_exit_1(self, argv, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith(f"error: {command}: ")
        assert err[0].endswith(f"(see {command} --help)")


class TestParseRange:
    def test_decimal_steps_are_exact(self):
        assert _parse_range("0.1:0.7:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]

    def test_integer_ranges_unchanged(self):
        assert _parse_range("1:20") == [float(v) for v in range(1, 21)]
        assert _parse_range("5:40:5", int) == [5, 10, 15, 20, 25, 30, 35, 40]
        assert _parse_range("1:100", int) == list(range(1, 101))
        assert _parse_range("0,3", int) == [0, 3]

    def test_non_integer_count_rejected(self):
        with pytest.raises(ValueError):
            _parse_range("1:5:0.5", int)

    def test_non_finite_range_rejected(self, sim_config, tmp_path, capsys):
        rc = main(["sensitivity", "--config", str(sim_config), "--values", "1:inf",
                   "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad range")


class TestDetectCommands:
    @pytest.fixture
    def scene_dir(self, tmp_path):
        out = tmp_path / "scene"
        rc = main(["synth-scene", "--rows", "100", "--cols", "100", "--blob-grid", "2",
                   "--training-rows", "25", "--seed", "11", "--out-dir", str(out)])
        assert rc == 0
        return out

    def test_synth_scene_files(self, scene_dir):
        for name in ("interest.rrm", "covariate.rrm", "truth.json", "scene.json", "manifest.json"):
            assert (scene_dir / name).exists()
        truth = _read_json(scene_dir / "truth.json")
        assert len(truth["targets"]) == 4

    def test_detect_with_truth_scores(self, scene_dir, tmp_path):
        out = tmp_path / "det"
        rc = main(
            ["detect", "--interest", str(scene_dir / "interest.rrm"),
             "--covariates", str(scene_dir / "covariate.rrm"),
             "--training", "75,0,100,100",
             "--truth", str(scene_dir / "truth.json"),
             "--out-dir", str(out)]
        )
        assert rc == 0
        for name in ("mask.pgm", "mask.csv", "clusters.json", "score.json"):
            assert (out / name).exists()
        score = _read_json(out / "score.json")
        assert score["hits"] + score["missed"] == 4

    def test_method_pair_produces_two_masks(self, scene_dir, tmp_path):
        masks = {}
        for method in ("wmle", "mle"):
            out = tmp_path / method
            rc = main(
                ["detect", "--interest", str(scene_dir / "interest.rrm"),
                 "--covariates", str(scene_dir / "covariate.rrm"),
                 "--training", "75,0,100,100", "--method", method,
                 "--out-dir", str(out)]
            )
            assert rc == 0
            masks[method] = (out / "mask.pgm").read_bytes()
        assert masks["wmle"] != masks["mle"]

    def test_tiny_training_rectangle_refused(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["detect", "--interest", str(scene_dir / "interest.rrm"),
             "--covariates", str(scene_dir / "covariate.rrm"),
             "--training", "0,0,1,1", "--out-dir", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "at least" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"radius_m": 10.0}, [[1, 2]], {"targets": [[1]]}])
    def test_truth_without_targets_list_refused(self, scene_dir, tmp_path, capsys, doc):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        rc = main(
            ["detect", "--interest", str(scene_dir / "interest.rrm"),
             "--covariates", str(scene_dir / "covariate.rrm"),
             "--training", "75,0,100,100", "--truth", str(truth),
             "--out-dir", str(tmp_path / "x")]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "targets" in err[0]


class TestRerun:
    def _strip_timestamp(self, path):
        doc = _read_json(path)
        doc.pop("created_utc")
        return doc

    def test_fit_rerun_byte_identical(self, region_csv, tmp_path):
        first = tmp_path / "a"
        assert main(["fit", "--data", str(region_csv), "--response", "amplitude",
                     "--dummy", "region", "--reference", "A",
                     "--out-dir", str(first)]) == 0
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        assert (first / "fit.json").read_bytes() == (second / "fit.json").read_bytes()
        assert self._strip_timestamp(first / "manifest.json") == self._strip_timestamp(
            second / "manifest.json"
        )

    def test_simulate_rerun_byte_identical(self, sim_config, tmp_path):
        first = tmp_path / "a"
        assert main(["simulate", "--config", str(sim_config), "--out-dir", str(first)]) == 0
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("table.json", "table.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize(
        "doc", [{"command": "fit"}, ["fit"], {"command": "detect", "config": {}}]
    )
    def test_rerun_manifest_without_config(self, tmp_path, capsys, doc):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        rc = main(["rerun", "--manifest", str(manifest), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "config" in err[0]

    def test_rerun_missing_manifest(self, tmp_path, capsys):
        rc = main(["rerun", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "manifest" in capsys.readouterr().err
