"""End-to-end command-line checks: artifacts, warnings, manifests, reruns."""

import builtins
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayreg
import rayreg.cli
import rayreg.estimation
import rayreg.optim
from rayreg import distribution, image_io, scenes
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


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    rc = main(["synth-scene", "--rows", "100", "--cols", "100", "--blob-grid", "2",
               "--training-rows", "25", "--seed", "11", "--out-dir", str(out)])
    assert rc == 0
    return out


def _read_json(path):
    return json.loads(path.read_text())


def _scene_args(scene_dir):
    return ["--interest", str(scene_dir / "interest.rrm"),
            "--covariates", str(scene_dir / "covariate.rrm"), "--training", "75,0,100,100"]


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs each process about 0.6 s of CPU and 29 MB at import,
    # and no scipy module is imported before a command uses it.
    path = [str(Path(rayreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    code = "import sys, rayreg.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [["simulate"], ["breakdown", "--counts", "0,3"],
                                     ["sensitivity", "--values", "2,10"]])
def test_monte_carlo_leaves_scipy_out(command, sim_config, tmp_path):
    # The Monte Carlo studies read only the estimates, so no covariance is
    # formed and no scipy module is imported while they run.
    path = [str(Path(rayreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    argv = [*command, "--config", str(sim_config), "--out-dir", str(tmp_path / "out")]
    code = ("import sys, rayreg.cli; assert rayreg.cli.main(sys.argv[1:]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                          check=True)
    assert proc.stdout.strip() == "[]"


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

    def test_byte_order_mark_fits_like_plain_utf8(self, region_csv, tmp_path):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + region_csv.read_bytes())
        fits = []
        for data in (region_csv, bom):
            out = tmp_path / data.stem
            assert main(["fit", "--data", str(data), "--response", "amplitude",
                         "--dummy", "region", "--reference", "A", "--method", "both",
                         "--out-dir", str(out)]) == 0
            fits.append((out / "fit.json").read_bytes())
        assert fits[0] == fits[1]

    def test_blank_rows_fit_like_none(self, region_csv, tmp_path):
        # Empty and whitespace-only lines between the rows, and at the end.
        lines = region_csv.read_text().splitlines(keepends=True)
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("".join([lines[0], "\n", *lines[1:3], " \t\n", ",  ,\n", *lines[3:],
                                   "\n", "  \n"]))
        artifacts = []
        for data in (region_csv, spaced):
            out = tmp_path / data.stem
            assert main(["fit", "--data", str(data), "--response", "amplitude",
                         "--dummy", "region", "--reference", "A", "--method", "both",
                         "--format", "csv", "--out-dir", str(out)]) == 0
            artifacts.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"})
        assert artifacts[0] == artifacts[1] and artifacts[0]

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

    @pytest.mark.parametrize("method", ["mle", "both"])
    def test_overflowing_response_names_its_line(self, tmp_path, capsys, method):
        # No mean near the others' makes pi/4 (y / mu)^2 finite at 1e200.
        lines = _DATA_CSV.decode().splitlines()
        lines[18] = "1e200," + lines[18].split(",")[1]  # data row 17
        path = tmp_path / "huge.csv"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--data", str(path), "--response", "y", "--covariates", "x",
                   "--method", method, "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 19: response 'y' value 1e+200 overflows the log-likelihood\n"
        )

    def test_infeasible_start_without_a_row_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # Only an error that names a response is restated with its line.
        def infeasible(spec, cfg):
            raise rayreg.optim.InfeasibleStartError("objective is not finite at the start")

        monkeypatch.setattr(rayreg.cli, "fit_both", infeasible)
        path = tmp_path / "data.csv"
        path.write_bytes(_DATA_CSV)
        rc = main(["fit", "--data", str(path), "--response", "y", "--covariates", "x",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: objective is not finite at the start\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "column, cell, kind",
        [("y", "nan", "non-finite"), ("y", "-inf", "non-finite"), ("x", "inf", "non-finite"),
         ("x", "NaN", "non-finite"), ("x", "1" * 400, "non-finite"), ("x", "0.2.5", "non-numeric")],
    )
    def test_non_finite_cell_names_path_line_and_column(self, tmp_path, capsys, column, cell, kind):
        path = tmp_path / "bad.csv"
        rows = [["1.0", "0.1"], ["1.5", "0.2"], ["2.0", "0.3"], ["0.7", "0.4"]]
        rows[2][0 if column == "y" else 1] = cell
        path.write_text("y,x\n" + "".join(",".join(row) + "\n" for row in rows))
        rc = main(["fit", "--data", str(path), "--response", "y", "--covariates", "x",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 4: column {column!r} has {kind} value {cell!r}\n"
        )


def test_overflowing_training_pixel_names_its_position(scene_dir, tmp_path, capsys):
    interest = image_io.read_image(scene_dir / "interest.rrm").copy()
    interest[80, 7] = 1e200
    path = tmp_path / "interest.rrm"
    image_io.write_image_rrm(interest, path)
    rc = main(["detect", "--interest", str(path), "--covariates", str(scene_dir / "covariate.rrm"),
               "--training", "75,0,100,100", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: training pixel at (row, col) (80, 7) has amplitude 1e+200, which overflows "
        "the log-likelihood\n"
    )


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


class TestOneFitCommands:
    """wald and residuals report one fit, and the fit's failures are one line."""

    @pytest.mark.parametrize("command, extra",
                             [("wald", ["--interest", "is_B"]), ("residuals", [])])
    def test_method_both_refused(self, command, extra, region_csv, tmp_path, capsys):
        argv = [command, "--data", str(region_csv), "--response", "amplitude",
                "--dummy", "region", "--reference", "A", *extra]
        refused = tmp_path / "refused"
        capsys.readouterr()
        assert main(argv + ["--method", "both", "--out-dir", str(refused)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {command} reports one fit; --method must be mle or wmle"]
        assert not refused.exists()
        # A rerun manifest edited to ask for both is refused alike.
        out = tmp_path / "out"
        assert main(argv + ["--method", "wmle", "--out-dir", str(out)]) == 0
        manifest = _read_json(out / "manifest.json")
        manifest["config"]["method"] = "both"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(tmp_path / "re")]) == 1
        assert capsys.readouterr().err.splitlines() == err

    @pytest.mark.parametrize("command, extra, artifact",
                             [("fit", [], "fit.json"), ("wald", ["--interest", "is_B"], "wald.json"),
                              ("residuals", [], "residuals.csv")])
    def test_mle_skips_the_robust_pass(self, command, extra, artifact, region_csv, tmp_path,
                                       monkeypatch):
        argv = [command, "--data", str(region_csv), "--response", "amplitude",
                "--dummy", "region", "--reference", "A", "--method", "mle", *extra]
        calls = []
        monkeypatch.setattr(rayreg.estimation, "compute_weights", lambda *args: calls.append(args))
        assert main(argv + ["--out-dir", str(tmp_path / "mle")]) == 0
        assert not calls
        # Byte for byte the artifact of fit_both's MLE.
        monkeypatch.undo()
        monkeypatch.setattr(rayreg.cli, "fit_mle",
                            lambda spec, cfg: rayreg.estimation.fit_both(spec, cfg)[0])
        assert main(argv + ["--out-dir", str(tmp_path / "both")]) == 0
        assert (tmp_path / "mle" / artifact).read_bytes() == (tmp_path / "both" / artifact).read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_null_names_the_option(self, value, region_csv, tmp_path, capsys):
        argv = ["wald", "--data", str(region_csv), "--response", "amplitude",
                "--dummy", "region", "--reference", "A", "--interest", "is_B,is_C"]
        refused = tmp_path / "refused"
        capsys.readouterr()
        assert main(argv + ["--null", f"0,{value}", "--out-dir", str(refused)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: null must be a finite number, got {value}"]
        assert not refused.exists()
        # A rerun manifest edited to hold the value (JSON's NaN or Infinity) is refused alike.
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 0
        manifest = _read_json(out / "manifest.json")
        manifest["config"]["null"] = [0.0, float(value)]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(tmp_path / "re")]) == 1
        assert capsys.readouterr().err.splitlines() == err
        assert not (tmp_path / "re").exists()

    def test_information_overflow_is_one_error_line(self, tmp_path):
        # Responses of 1e-300 put the identity link's fitted means where
        # its expected weights 4 / mu^2 overflow.
        data = tmp_path / "tiny.csv"
        data.write_text("y,x\n" + "".join(f"1e-300,{i % 4}\n" for i in range(40)))
        path = [str(Path(rayreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "rayreg.cli", "fit", "--data", str(data), "--response", "y",
             "--covariates", "x", "--link", "identity", "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: Fisher information is not finite at the optimum\n"


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

    @pytest.mark.parametrize("command, sweep", [("simulate", []), ("breakdown", ["--counts", "0,3"]),
                                                ("sensitivity", ["--values", "1:3"])])
    def test_cell_without_a_converged_fit_writes_strict_json(self, command, sweep, tmp_path, capsys):
        # One solver step at a gradient tolerance no fit meets: every fit
        # diverges, the sensitivity baselines too, so every moment is over
        # no replication.  It is null in the JSON, and numpy's warnings about
        # empty means stay out of stderr.
        cfg = tmp_path / "diverged.json"
        cfg.write_text(json.dumps({"beta_true": [0.5, 0.15], "N": 60, "epsilon": 0.05,
                                   "replications": 50, "max_iter": 1, "grad_tol": 1e-15}))
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), *sweep, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""

        def refuse(token):
            raise ValueError(f"non-finite JSON token {token}")

        docs = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in out.glob("*.json")}
        assert sorted(docs) == sorted(["manifest.json", f"{'table' if command == 'simulate' else command}.json"])
        if command == "simulate":
            (cell,) = docs["table.json"]["cells"]
            for est in ("mle", "wmle"):
                assert cell[est]["n_used"] == 0 and cell[est]["convergence_failures"] == 50
                assert cell[est]["mean"] == [None, None] and cell[est]["absolute_total_rb"] is None
        else:
            curve = docs[f"{command}.json"]
            moments = [v for key, v in curve.items() if key.startswith(("mle_", "wmle_"))]
            assert len(moments) == 2 and all(m == [None] * len(m) for m in moments)
            assert curve["convergence_failures"] > 0


def test_calls_in_one_process_parse_as_fresh_processes(region_csv, scene_dir, tmp_path):
    # main builds its parser once per process and reuses it.
    commands = {
        "fit": ["fit", "--data", str(region_csv), "--response", "amplitude",
                "--dummy", "region", "--reference", "A", "--method", "both"],
        "detect": ["detect", *_scene_args(scene_dir), "--method", "mle", "--control-limit", "2.5"],
    }
    path = [str(Path(rayreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    for name, argv in commands.items():
        assert main([*argv, "--out-dir", str(tmp_path / "same" / name)]) == 0
        subprocess.run([sys.executable, "-m", "rayreg.cli", *argv, "--out-dir", str(tmp_path / "fresh" / name)],
                       env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120, check=True)
        same = sorted(p.name for p in (tmp_path / "same" / name).iterdir())
        assert same == sorted(p.name for p in (tmp_path / "fresh" / name).iterdir())
        for artifact in same:
            a, b = (tmp_path / side / name / artifact for side in ("same", "fresh"))
            if artifact == "manifest.json":
                a, b = ({k: v for k, v in _read_json(p).items() if k != "created_utc"} for p in (a, b))
            else:
                a, b = a.read_bytes(), b.read_bytes()
            assert a == b, artifact
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--interest", "x.rrm"])
    assert exc.value.code == 1


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


class TestMalformedInputs:
    """File-boundary OS errors and non-finite options: exit 1, one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "{dir}"],
            ["fit", "--data", "{dir}", "--response", "amplitude"],
            ["detect", "--interest", "{dir}", "--covariates", "{dir}", "--training", "75,0,100,100"],
            ["detect", "{scene}", "--truth", "{dir}"],
            ["simulate", "--config", "{sim}", "--out-dir", "{file}"],
            ["detect", "{scene}", "--control-limit", "nan"],
            ["detect", "{scene}", "--control-limit", "inf"],
            ["detect", "{scene}", "--merge-distance", "nan"],
            ["detect", "{scene}", "--pixel-size", "nan"],
            ["detect", "{scene}", "--truth", "{truth}", "--truth-radius", "nan"],
            ["detect", "{scene}", "--truth-radius", "nan"],
            ["fit", "--data", "{regions}", "--response", "amplitude", "--pfa", "nan"],
            ["synth-scene", "--rows", "120", "--cols", "120", "--training-rows", "25",
             "--mu-low", "-1"],
            ["synth-scene", "--rows", "120", "--cols", "120", "--training-rows", "25",
             "--blob-amplitude", "-5"],
            ["fit", "--data", "{regions}", "--response", "amplitude", "--dummy", "region"],
            ["fit", "--data", "{regions}", "--response", "amplitude", "--dummy", "zone",
             "--reference", "A"],
            ["fit", "--data", "{regions}", "--response", "amplitude", "--dummy", "region",
             "--reference", "Z"],
            ["fit", "--data", "{regions}", "--response", "amplitude", "--no-intercept"],
            ["wald", "--data", "{regions}", "--response", "amplitude", "--dummy", "region",
             "--reference", "A", "--interest", "is_Z"],
            ["wald", "--data", "{regions}", "--response", "amplitude", "--dummy", "region",
             "--reference", "A", "--interest", "is_B", "--null", "0,0"],
            ["simulate", "--config", "json:[0.5, 0.15]"],
            ["simulate", "--config", 'json:{"beta_true": [0.5, 0.15]}'],
            ["breakdown", "--config", 'json:{"beta_true": [0.5, 0.15], "N": [40, 60]}'],
            ["simulate", "--config", "{missing}"],
            ["sensitivity", "--config", "{sim}", "--values", "1:2:3:4"],
            ["sensitivity", "--config", "{sim}", "--values", "1:5:0"],
            ["breakdown", "--config", "{sim}", "--counts", ","],
            ["simulate", "--config", "{sim}", "--threads", "0"],
            ["breakdown", "--config", "{sim}", "--counts", "0:2", "--threads", "-3"],
            ["sensitivity", "--config", "{sim}", "--values", "1:2", "--threads", "-1"],
            ["synth-scene", "--rows", "99", "--cols", "120", "--training-rows", "25"],
            ["synth-scene", "--rows", "120", "--cols", "120", "--training-rows", "25",
             "--training-contamination", "0.5"],
            ["synth-scene", "--rows", "120", "--cols", "120", "--training-rows", "60"],
        ],
        ids=["config-dir", "data-dir", "interest-dir", "truth-dir", "out-dir-is-file",
             "control-limit-nan", "control-limit-inf", "merge-distance-nan", "pixel-size-nan",
             "truth-radius-nan", "truth-radius-nan-no-truth", "pfa-nan-intercept-only",
             "scene-mu-low-negative", "scene-blob-amplitude-negative", "dummy-without-reference",
             "dummy-column-missing", "reference-not-a-label", "no-intercept-no-covariates",
             "wald-unknown-coefficient", "wald-null-length", "sim-config-not-an-object",
             "sim-config-without-n", "breakdown-two-n", "sim-config-missing", "range-four-parts",
             "range-zero-step", "empty-value-list", "simulate-threads-0",
             "breakdown-threads-negative", "sensitivity-threads-negative", "scene-too-small",
             "scene-contamination-half", "scene-training-rows-half"],
    )
    def test_one_error_line_and_exit_1(
        self, argv, scene_dir, sim_config, region_csv, tmp_path, capsys
    ):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        paths = {"{dir}": str(tmp_path), "{sim}": str(sim_config), "{file}": str(a_file),
                 "{truth}": str(scene_dir / "truth.json"), "{regions}": str(region_csv),
                 "{missing}": str(tmp_path / "missing.json")}
        resolved = []
        for arg in argv:
            if arg.startswith("json:"):  # a document, given as the path of a file holding it
                doc = tmp_path / "doc.json"
                doc.write_text(arg.removeprefix("json:"))
                arg = str(doc)
            resolved += _scene_args(scene_dir) if arg == "{scene}" else [paths.get(arg, arg)]
        if "--out-dir" not in resolved:
            resolved += ["--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            assert main(resolved) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "out").exists()  # a refused run makes no output directory


    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("config", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
            ("truth", '{"targets": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
            ("manifest", '{"command": "simulate", "config": {"a": ' + "[" * 100_000
             + "]" * 100_000 + "}}", "nested too deeply"),
            ("config", '{"beta_true": [0.5, 0.15], "N": 1' + "0" * 400 + "}",
             "config error at $.N: "),
            ("config", '{"beta_true": [0.5, -1' + "0" * 400 + '], "N": 60}',
             "config error at $.beta_true[1]: "),
            ("config", '{"beta_true": [0.5], "N": 60, "seed": 1' + "0" * 400 + "}",
             "config error at $.seed: "),
            ("truth", '{"targets": [[1' + "0" * 400 + ", 3]]}", "'targets'"),
            ("truth", '{"targets": [], "radius_m": 1' + "0" * 400 + "}", "'radius_m'"),
            ("manifest", '{"command": "fit", "config": {"pfa": 1' + "0" * 400 + "}}",
             "pfa must be a finite number"),
        ],
        ids=["config-deep", "truth-deep", "manifest-deep", "config-huge-n", "config-huge-beta",
             "config-huge-seed", "truth-huge-target", "truth-huge-radius", "manifest-huge-pfa"],
    )
    def test_deep_or_huge_json_is_one_error_line(
        self, kind, text, message, scene_dir, tmp_path, capsys
    ):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        argv = {"config": ["simulate", "--config", str(doc)],
                "truth": ["detect", *_scene_args(scene_dir), "--truth", str(doc)],
                "manifest": ["rerun", "--manifest", str(doc)]}[kind]
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
        assert len(err[0]) < 200

    @pytest.mark.parametrize("kind", ["data", "config", "truth", "manifest"])
    def test_undecodable_bytes_name_the_file(self, kind, scene_dir, region_csv, tmp_path, capsys):
        # Latin-1 bytes for "é" and "µ" (0xe9, 0xb5) before ASCII are not UTF-8.
        text = {"data": region_csv.read_text().replace("region", "r\xe9gion"),
                "config": '{"beta_true": [0.5, 0.15], "N": 60, "link": "log\xb5"}',
                "truth": '{"targets": [], "note": "\xb5m"}',
                "manifest": '{"command": "fit", "config": {"note": "\xb5m"}}'}[kind]
        doc = tmp_path / "latin1.in"
        doc.write_bytes(text.encode("latin-1"))
        argv = {"data": ["fit", "--data", str(doc), "--response", "amplitude"],
                "config": ["simulate", "--config", str(doc)],
                "truth": ["detect", *_scene_args(scene_dir), "--truth", str(doc)],
                "manifest": ["rerun", "--manifest", str(doc)]}[kind]
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {doc}: not UTF-8 text: "), err


# A valid simulation config, and values that each field must refuse for its
# range; ScenarioConfig and RobustConfig own the ranges.
_VALID_SIM = {"beta_true": [0.5, 0.15], "N": 60, "epsilon": 0.0, "outlier_value": 10.0,
              "replications": 50, "delta": 0.001, "link": "log", "reweight_iterations": 1,
              "max_iter": 500, "grad_tol": 1e-6, "seed": 5}
_OUT_OF_RANGE = {
    "beta_true": [[]],
    "N": [2, 0, -60, [60, 2]],
    "epsilon": [-0.01, 1.0, [0.0, 1.5]],
    "outlier_value": [0, -10.0],
    "replications": [0, -1],
    "delta": [0, 0.5, -0.001, 1],
    "link": ["logit", ""],
    "reweight_iterations": [-1],
    "max_iter": [0, -5],
    "grad_tol": [0, -1e-6],
}


@st.composite
def _malformed_sim_config(draw):
    """The valid config with one field wrong-typed, non-finite, out of range or
    a list where a scalar belongs (or a bad entry in an array)."""
    key = draw(st.sampled_from(sorted(_VALID_SIM)))
    valid = _VALID_SIM[key]
    wrong = st.one_of(st.text(max_size=3), st.booleans(), st.just({}),
                      st.sampled_from([math.nan, math.inf, -math.inf]))
    if key != "seed":  # a null seed means --seed
        wrong |= st.none()
    if isinstance(valid, str):
        wrong |= st.integers(-5, 5)
    elif isinstance(valid, int):  # a JSON float is never an integer, 60.0 included
        wrong |= st.floats(-100, 100)
    if key == "beta_true":
        bad = wrong.map(lambda v: [0.5, v]) | st.floats(-1, 1)
    elif key in ("N", "epsilon"):
        bad = wrong | wrong.map(lambda v: [valid, v])
    else:
        bad = wrong | st.just([valid])
    if key in _OUT_OF_RANGE:
        bad |= st.sampled_from(_OUT_OF_RANGE[key])
    return dict(_VALID_SIM, **{key: draw(bad)})


class TestSimConfigBoundary:
    @settings(max_examples=150, deadline=None)
    @given(doc=_malformed_sim_config())
    def test_malformed_field_is_one_error_line(self, tmp_path_factory, doc):
        cfg = tmp_path_factory.mktemp("cfg") / "sim.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            rc = main(["simulate", "--config", str(cfg), "--out-dir", str(cfg.parent / "out")])
        lines = err.getvalue().splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


def _valid_data_csv() -> bytes:
    rng = np.random.default_rng(21)
    x = rng.random(40)
    y = distribution.quantile(rng.random(40), np.exp(0.5 + 0.15 * x))
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(y.tolist(), x.tolist()))
    return ("y,x\n" + rows).encode()


_DATA_CSV = _valid_data_csv()


@st.composite
def _mutated_data_csv(draw):
    """The valid data CSV after one to three byte-level mutations."""
    data = _DATA_CSV
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["truncate", "bytes", "bom", "huge", "non-finite", "ragged"]))
        if kind == "truncate":
            data = data[:at]
        elif kind == "bytes":  # mostly not UTF-8
            data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
        elif kind == "bom":
            data = b"\xef\xbb\xbf" + data
        else:
            # Replace one cell of a data line with a 400-digit number, a
            # non-finite value, or an extra field.
            lines = data.split(b"\n")
            i = draw(st.integers(1, max(1, len(lines) - 1)))
            if i < len(lines):
                cells = lines[i].split(b",")
                c = draw(st.integers(0, len(cells) - 1))
                cells[c] = draw({
                    "huge": st.sampled_from([b"1" + b"0" * 400, b"-1" + b"0" * 400,
                                             b"0." + b"0" * 399 + b"1"]),
                    "non-finite": st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"Infinity"]),
                    "ragged": st.sampled_from([cells[c] + b",1.0", b""]),
                }[kind])
                lines[i] = b",".join(cells)
            data = b"\n".join(lines)
    return data


class TestDataCsvBoundary:
    @settings(max_examples=150, deadline=None)
    @given(data=_mutated_data_csv())
    def test_mutated_data_fits_or_is_one_error_line(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("data") / "data.csv"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            rc = main(["fit", "--data", str(path), "--response", "y", "--covariates", "x",
                       "--out-dir", str(path.parent / "out")])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert rc == 1
            assert len(lines) == 1 and lines[0].startswith("error:"), lines


def _rrm_bytes(image) -> bytes:
    """An image in the RRM1 layout: magic, rows and cols as little-endian
    uint32, then the float64 pixels."""
    rows, cols = image.shape
    return b"RRM1" + struct.pack("<II", rows, cols) + image.astype("<f8").tobytes()


def _csv_bytes(image) -> bytes:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in image).encode()


# The bottom-left 40 x 40 corner of a scene, whose bottom 25 rows train the fit.
_SCENE = scenes.make_scene(rows=100, cols=100, blob_grid=2, training_rows=25, seed=3)
_SMALL_INTEREST, _SMALL_COVARIATE = (image[60:, :40] for image in (_SCENE.interest, _SCENE.covariate))
_SMALL_TRAINING = "15,0,40,40"
_SPECIAL_PIXELS = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e308, 5e-324]


@st.composite
def _mutated_image(draw, fmt):
    """The scene's interest image as RRM1 or CSV bytes after one to three
    mutations: truncation, a flipped header (or first-line) byte, a huge or
    zero dimension in the RRM1 header, or a special pixel value."""
    image = _SMALL_INTEREST
    data = _rrm_bytes(image) if fmt == "rrm" else _csv_bytes(image)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "header", "dimension", "pixel"]))
        if kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif kind == "header":
            head = 12 if fmt == "rrm" else max(1, data.find(b"\n"))
            at = draw(st.integers(0, max(0, min(head, len(data)) - 1)))
            if at < len(data):
                data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "dimension" and fmt == "rrm" and len(data) >= 12:
            field = draw(st.sampled_from([4, 8]))
            value = draw(st.sampled_from([0, 1, 39, 41, 10**6, 2**31, 2**32 - 1]))
            data = data[:field] + struct.pack("<I", value) + data[field + 4:]
        elif kind == "pixel":
            value = draw(st.sampled_from(_SPECIAL_PIXELS))
            if fmt == "rrm":
                at = 12 + 8 * draw(st.integers(0, image.size - 1))
                data = data[:at] + struct.pack("<d", value) + data[at + 8:]
            else:
                lines = data.split(b"\n")
                i = draw(st.integers(0, len(lines) - 1))
                cells = lines[i].split(b",")
                cells[draw(st.integers(0, len(cells) - 1))] = repr(value).encode()
                lines[i] = b",".join(cells)
                data = b"\n".join(lines)
    return data


class TestImageBoundary:
    """``detect`` on a mutated interest image, read through the CLI, fits
    or ends in one ``error:`` line; no reader allocates from a header's
    claimed size before checking the file's."""

    @staticmethod
    def _detect(tmp_path_factory, fmt, data):
        work = tmp_path_factory.mktemp("image")
        interest = work / f"interest.{fmt}"
        covariate = work / f"covariate.{fmt}"
        interest.write_bytes(data)
        encode = _rrm_bytes if fmt == "rrm" else _csv_bytes
        covariate.write_bytes(encode(_SMALL_COVARIATE))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a second stderr line
            rc = main(["detect", "--interest", str(interest), "--covariates", str(covariate),
                       "--training", _SMALL_TRAINING, "--out-dir", str(work / "out")])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert rc == 1
            assert len(lines) == 1 and lines[0].startswith("error:"), lines

    @settings(max_examples=100, deadline=None)
    @given(data=_mutated_image("rrm"))
    def test_mutated_rrm_detects_or_is_one_error_line(self, tmp_path_factory, data):
        self._detect(tmp_path_factory, "rrm", data)

    @settings(max_examples=100, deadline=None)
    @given(data=_mutated_image("csv"))
    def test_mutated_csv_detects_or_is_one_error_line(self, tmp_path_factory, data):
        self._detect(tmp_path_factory, "csv", data)

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(
        st.builds(lambda cut: _PGM[:cut], st.integers(0, 64)),
        st.builds(lambda at, flip: _PGM[:at] + bytes([_PGM[at] ^ flip]) + _PGM[at + 1:],
                  st.integers(0, 12), st.integers(1, 255)),
        st.builds(lambda cols, rows, maxval: f"P5\n{cols} {rows}\n{maxval}\n".encode() + _PGM[13:],
                  st.sampled_from([0, 1, 40, 10**6, 10**12, 10**400]),
                  st.sampled_from([0, 1, 40, 10**6, 10**12, 10**400]),
                  st.sampled_from([255, 1, 65535, 10**400])),
    ))
    def test_mutated_pgm_reads_or_refuses(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("pgm") / "mask.pgm"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            mask = image_io.read_mask_pgm(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert mask.dtype == bool and mask.ndim == 2
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1_000_000 + 4 * len(data)

    @pytest.mark.parametrize("rows, cols", [(2**32 - 1, 2**32 - 1), (2**31, 3), (10**6, 10**3)])
    def test_huge_rrm_header_allocates_nothing(self, tmp_path, rows, cols):
        path = tmp_path / "huge.rrm"
        path.write_bytes(b"RRM1" + struct.pack("<II", rows, cols) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated RRM1 image"):
                image_io.read_image(path)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 1_000_000


# A number token of a JSON document (not one inside a string), and what the
# mutations put in its place: numbers past or at the float range's edges, and
# the non-finite constants Python's reader accepts.
_JSON_NUMBER = re.compile(rb"(?<=[\[:,\s])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[\s,\]}])")
_ODD_NUMBERS = [b"1e308", b"-1e308", b"1e400", b"-1e400", b"1e-400", b"1" + b"0" * 400,
                b"-1" + b"0" * 400, b"NaN", b"Infinity", b"-Infinity"]


@st.composite
def _mutated_json(draw, doc: bytes):
    """``doc`` after one to three mutations: a flipped byte, truncation, a
    number nested 1 to 100 000 arrays deep, or a number replaced by a huge
    or non-finite one."""
    data = doc
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "nest", "number"]))
        spans = [m.span() for m in _JSON_NUMBER.finditer(data)]
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:draw(st.integers(0, len(data)))]
        elif spans:
            lo, hi = draw(st.sampled_from(spans))
            if kind == "nest":
                depth = draw(st.sampled_from([1, 50, 100_000]))
                new = b"[" * depth + data[lo:hi] + b"]" * depth
            else:
                new = draw(st.sampled_from(_ODD_NUMBERS))
            data = data[:lo] + new + data[hi:]
    return data


def _runs_or_is_one_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        rc = main(argv)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == []
    else:
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


_TRUTH_JSON = json.dumps({"radius_m": 3.0, "targets": [[5, 10], [20, 30.5]]}, indent=2).encode()


class TestJsonBoundary:
    """``detect --truth`` and ``rerun`` on mutated bytes run, or end in one
    ``error:`` line."""

    @pytest.fixture(scope="class")
    def fit_run(self, tmp_path_factory):
        """A fit's manifest bytes, over the data CSV."""
        work = tmp_path_factory.mktemp("fit")
        data = work / "data.csv"
        data.write_bytes(_DATA_CSV)
        assert main(["fit", "--data", str(data), "--response", "y", "--covariates", "x",
                     "--method", "both", "--out-dir", str(work / "run")]) == 0
        return (work / "run" / "manifest.json").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=_mutated_json(_TRUTH_JSON))
    def test_mutated_truth_scores_or_is_one_error_line(self, tmp_path_factory, data):
        work = tmp_path_factory.mktemp("truth")
        images = []
        for name, image in (("interest", _SMALL_INTEREST), ("covariate", _SMALL_COVARIATE)):
            images.append(work / f"{name}.rrm")
            images[-1].write_bytes(_rrm_bytes(image))
        (work / "truth.json").write_bytes(data)
        _runs_or_is_one_error_line(
            ["detect", "--interest", str(images[0]), "--covariates", str(images[1]),
             "--training", _SMALL_TRAINING, "--truth", str(work / "truth.json"),
             "--out-dir", str(work / "out")])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_manifest_reruns_or_is_one_error_line(self, tmp_path_factory, fit_run, data):
        work = tmp_path_factory.mktemp("rerun")
        (work / "manifest.json").write_bytes(data.draw(_mutated_json(fit_run)))
        _runs_or_is_one_error_line(["rerun", "--manifest", str(work / "manifest.json"),
                                    "--out-dir", str(work / "out")])

    def test_count_past_the_float_range_is_refused(self, tmp_path, fit_run, capsys):
        # RobustConfig's "< inf" lets 10**400 through, as a round count that
        # would run for ever.
        manifest = json.loads(fit_run)
        manifest["config"]["reweight_iterations"] = 10**400
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--manifest", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: reweight_iterations must be a finite "
                                                   "number, got 1000"), err


# A valid 40 x 40 mask: the header is the first 13 bytes.
_PGM = b"P5\n40 40\n255\n" + bytes(range(0, 256, 16)) * 100


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

    def test_byte_order_mark_detects_like_plain_csv(self, scene_dir, tmp_path):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        plain = tmp_path / "interest.csv"
        image_io.write_image_csv(image_io.read_image(scene_dir / "interest.rrm"), plain)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for interest in (plain, bom):
            out = tmp_path / interest.stem
            assert main(["detect", "--interest", str(interest),
                         "--covariates", str(scene_dir / "covariate.rrm"),
                         "--training", "75,0,100,100", "--out-dir", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("mask.pgm", "mask.csv", "clusters.json")])
        assert outputs[0] == outputs[1]

    def test_tiny_training_rectangle_refused(self, scene_dir, tmp_path, capsys):
        rc = main(
            ["detect", "--interest", str(scene_dir / "interest.rrm"),
             "--covariates", str(scene_dir / "covariate.rrm"),
             "--training", "0,0,1,1", "--out-dir", str(tmp_path / "x")]
        )
        assert rc == 1
        assert "at least" in capsys.readouterr().err

    @pytest.mark.parametrize("training, given", [("75,0,100", "(75, 0, 100)"),
                                                 ("75,0,100,100,5", "(75, 0, 100, 100, 5)")])
    def test_training_of_other_than_four_values_refused(self, training, given, scene_dir, tmp_path,
                                                        capsys):
        argv = ["detect", "--interest", str(scene_dir / "interest.rrm"),
                "--covariates", str(scene_dir / "covariate.rrm"), "--training", training]
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: training region must be four values (row0, col0, row1, col1), got {given}"]
        assert not (tmp_path / "x").exists()

    def test_each_input_read_once_and_digested(self, scene_dir, tmp_path, monkeypatch):
        # Four inputs, images in both formats; the manifest's digests are of
        # the bytes the run parsed, so no file is opened a second time.
        second = tmp_path / "second.csv"
        image_io.write_image_csv(np.random.default_rng(4).random((100, 100)), second)
        files = [scene_dir / "interest.rrm", scene_dir / "covariate.rrm", second,
                 scene_dir / "truth.json"]
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        out = tmp_path / "det"
        rc = main(["detect", "--interest", str(files[0]),
                   "--covariates", f"{files[1]},{files[2]}", "--training", "75,0,100,100",
                   "--truth", str(files[3]), "--out-dir", str(out)])
        monkeypatch.undo()
        assert rc == 0
        assert [opened.count(str(p)) for p in files] == [1, 1, 1, 1]
        assert _read_json(out / "manifest.json")["inputs"] == {
            str(p): "sha256:" + hashlib.sha256(p.read_bytes()).hexdigest() for p in files
        }

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


_COMMON_KEYS = {"seed", "threads"}
_TABULAR_KEYS = _COMMON_KEYS | {
    "format", "data", "response", "covariates", "intercept", "dummy", "reference", "link",
    "method", "delta", "delta_explicit", "reweight_iterations", "pfa",
}
_SIMULATION_KEYS = _COMMON_KEYS | {"format", "config_file"}
_DETECT_KEYS = _COMMON_KEYS | {
    "interest", "covariates", "training", "method", "link", "delta", "reweight_iterations",
    "control_limit", "opening_se", "dilation_se", "merge_distance_m", "pixel_size_m",
    "upper_tail_only", "truth", "truth_radius_m",
}
_SCENE_KEYS = _COMMON_KEYS | {
    "rows", "cols", "mu_low", "mu_high", "blob_amplitude", "blob_grid", "training_rows",
    "training_contamination",
}


class TestManifestConfig:
    """The manifest's config keys are what rerun reads back; argparse builds them."""

    @pytest.mark.parametrize(
        "command",
        ["fit", "wald", "residuals", "simulate", "breakdown", "sensitivity", "detect", "synth-scene"],
    )
    def test_keys_and_renamed_values(self, command, region_csv, sim_config, scene_dir, tmp_path):
        tabular = ["--data", str(region_csv), "--response", "amplitude",
                   "--dummy", "region", "--reference", "A"]
        config_file = ["--config", str(sim_config)]
        truth = str(scene_dir / "truth.json")
        argv, keys, values = {
            "fit": (tabular + ["--no-intercept"], _TABULAR_KEYS,
                    {"intercept": False, "delta": 0.001, "delta_explicit": False, "covariates": None}),
            "wald": (tabular + ["--interest", "is_B, is_C", "--null", "0,0.5", "--delta", "0.01"],
                     _TABULAR_KEYS | {"interest", "null"},
                     {"intercept": True, "interest": ["is_B", "is_C"], "null": [0.0, 0.5],
                      "delta": 0.01, "delta_explicit": True}),
            "residuals": (tabular, _TABULAR_KEYS, {"intercept": True}),
            "simulate": (config_file, _SIMULATION_KEYS, {"config_file": str(sim_config)}),
            "breakdown": (config_file + ["--counts", "0"], _SIMULATION_KEYS | {"counts"},
                          {"config_file": str(sim_config), "counts": "0"}),
            "sensitivity": (config_file + ["--values", "2"], _SIMULATION_KEYS | {"values"},
                            {"config_file": str(sim_config), "values": "2"}),
            "detect": (_scene_args(scene_dir) + ["--merge-distance", "12", "--pixel-size", "0.5",
                                                 "--truth", truth, "--truth-radius", "8"],
                       _DETECT_KEYS,
                       {"merge_distance_m": 12.0, "pixel_size_m": 0.5, "truth_radius_m": 8.0,
                        "training": [75, 0, 100, 100], "truth": truth}),
            "synth-scene": (["--rows", "100", "--cols", "100", "--blob-grid", "2",
                             "--training-rows", "25"], _SCENE_KEYS,
                            {"rows": 100, "blob_grid": 2, "training_rows": 25}),
        }[command]
        out = tmp_path / "out"
        assert main([command, *argv, "--out-dir", str(out)]) == 0
        config = _read_json(out / "manifest.json")["config"]
        assert set(config) == keys
        assert {k: config[k] for k in values} == values


class TestManifestOutputs:
    """The manifest's outputs are the files the run wrote, in the order it wrote them."""

    @pytest.mark.parametrize(
        "command",
        ["fit", "wald", "residuals", "simulate", "breakdown", "sensitivity", "detect", "synth-scene"],
    )
    def test_outputs_are_the_files_written(self, command, region_csv, sim_config, scene_dir, tmp_path,
                                           monkeypatch):
        tabular = ["--data", str(region_csv), "--response", "amplitude",
                   "--dummy", "region", "--reference", "A"]
        argv = {
            "fit": tabular + ["--format", "text"],
            "wald": tabular + ["--interest", "is_B"],
            "residuals": tabular,
            "simulate": ["--config", str(sim_config)],
            "breakdown": ["--config", str(sim_config), "--counts", "0,3"],
            "sensitivity": ["--config", str(sim_config), "--values", "2"],
            "detect": _scene_args(scene_dir) + ["--truth", str(scene_dir / "truth.json")],
            "synth-scene": ["--rows", "100", "--cols", "100", "--blob-grid", "2", "--training-rows", "25"],
        }[command]
        out = tmp_path / "out"
        written = []
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            path = Path(file)
            if "w" in mode and path.parent == out and path.name not in written:
                written.append(path.name)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        rc = main([command, *argv, "--out-dir", str(out)])
        monkeypatch.undo()
        assert rc == 0
        outputs = _read_json(out / "manifest.json")["outputs"]
        assert written[-1] == "manifest.json"
        assert outputs == written[:-1]
        assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


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

    def test_fit_rerun_refuses_an_unknown_format(self, region_csv, tmp_path, capsys):
        first = tmp_path / "a"
        assert main(["fit", "--data", str(region_csv), "--response", "amplitude",
                     "--out-dir", str(first)]) == 0
        manifest = _read_json(first / "manifest.json")
        manifest["config"]["format"] = "xml"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(second)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --format must be json, text, or csv"]
        assert not second.exists() or not list(second.iterdir())

    def test_fit_rerun_refuses_an_unknown_method(self, region_csv, tmp_path, capsys):
        first = tmp_path / "a"
        assert main(["fit", "--data", str(region_csv), "--response", "amplitude",
                     "--out-dir", str(first)]) == 0
        manifest = _read_json(first / "manifest.json")
        manifest["config"]["method"] = "ols"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(second)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: --method must be mle, wmle, or both"]
        assert not second.exists()

    def test_simulate_rerun_byte_identical(self, sim_config, tmp_path):
        first = tmp_path / "a"
        assert main(["simulate", "--config", str(sim_config), "--out-dir", str(first)]) == 0
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in ("table.json", "table.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("command, sweep", [("sensitivity", ["--values", "1:6"]),
                                                ("breakdown", ["--counts", "0,3,6"])])
    def test_chained_sweep_rerun_byte_identical(self, command, sweep, sim_config, tmp_path):
        # Each sweep fit starts from the one before it, so a rerun must
        # replay the same chain.
        first = tmp_path / "a"
        assert main([command, "--config", str(sim_config), *sweep, "--out-dir", str(first)]) == 0
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
        for name in (f"{command}.csv", f"{command}.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert self._strip_timestamp(first / "manifest.json") == self._strip_timestamp(
            second / "manifest.json"
        )

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "fit"},
            ["fit"],
            {"command": "detect", "config": {}},
            {"command": "simulate",
             "config": {"config_file": "SIM", "seed": 0, "threads": "x", "format": "json"}},
            {"command": "simulate",
             "config": {"config_file": 5, "seed": 0, "threads": 1, "format": "json"}},
        ],
    )
    def test_rerun_manifest_without_config(self, sim_config, tmp_path, capsys, doc):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc).replace('"SIM"', json.dumps(str(sim_config))))
        rc = main(["rerun", "--manifest", str(manifest), "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "config" in err[0]

    @pytest.mark.parametrize("command, key, value", [
        ("detect", "covariates", "COVARIATE"), ("detect", "training", "75,0,100,100"),
        ("wald", "interest", "is_B"), ("wald", "null", "0"), ("fit", "covariates", "amplitude"),
    ])
    def test_rerun_refuses_a_string_for_a_list(self, command, key, value, region_csv, scene_dir,
                                               tmp_path, capsys):
        # A string would iterate by character: a covariate path as one-letter
        # paths, or "is_B" as a one-coefficient list that happens to work.
        argv = {
            "detect": _scene_args(scene_dir),
            "wald": ["--data", str(region_csv), "--response", "amplitude", "--dummy", "region",
                     "--reference", "A", "--interest", "is_B"],
            "fit": ["--data", str(region_csv), "--response", "amplitude", "--covariates", "amplitude"],
        }[command]
        first = tmp_path / "a"
        assert main([command, *argv, "--out-dir", str(first)]) == 0
        manifest = _read_json(first / "manifest.json")
        manifest["config"][key] = value.replace("COVARIATE", str(scene_dir / "covariate.rrm"))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(second)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be a list, got ")
        assert not second.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("detect", "upper_tail_only", "false"), ("fit", "intercept", "false"),
        ("detect", "training", [75.5, 0, 100, 100]), ("detect", "training", ["a", 0, 100, 100]),
        ("fit", "covariates", [5]), ("detect", "opening_se", 3.0),
        ("simulate", "threads", 2.5), ("simulate", "seed", None),
    ])
    def test_rerun_refuses_a_value_its_option_cannot_give(self, command, key, value, region_csv,
                                                          scene_dir, sim_config, tmp_path, capsys):
        # Values a file can hold and argv cannot: the string "false" is true to
        # Python, and a float or a null is no training bound, worker count or seed.
        argv = {
            "detect": _scene_args(scene_dir),
            "fit": ["--data", str(region_csv), "--response", "amplitude", "--covariates",
                    "amplitude", "--no-intercept"],
            "simulate": ["--config", str(sim_config)],
        }[command]
        first = tmp_path / "a"
        assert main([command, *argv, "--out-dir", str(first)]) == 0
        manifest = _read_json(first / "manifest.json")
        manifest["config"][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(second)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be "), err
        assert not second.exists()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rerun_refuses_threads_below_one(self, threads, sim_config, tmp_path, capsys):
        # A worker cap below one used to run serially and be recorded as given.
        first = tmp_path / "a"
        assert main(["simulate", "--config", str(sim_config), "--out-dir", str(first)]) == 0
        manifest = _read_json(first / "manifest.json")
        manifest["config"]["threads"] = threads
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        capsys.readouterr()
        second = tmp_path / "b"
        assert main(["rerun", "--manifest", str(edited), "--out-dir", str(second)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: workers must be at least 1, got {threads}"]
        assert not (second / "manifest.json").exists()

    def test_rerun_refuses_a_command_that_is_not_a_name(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": ["fit"], "config": {}}))
        assert main(["rerun", "--manifest", str(manifest), "--out-dir", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: manifest names unknown command ['fit']"]

    def test_rerun_missing_manifest(self, tmp_path, capsys):
        rc = main(["rerun", "--manifest", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "manifest" in capsys.readouterr().err
