"""Command-line front end.

Eight commands: ``fit``, ``wald``, ``residuals`` (tabular data),
``simulate``, ``breakdown``, ``sensitivity`` (Monte Carlo studies),
``detect``, ``synth-scene`` (images), plus ``rerun`` which replays any
previous run from its manifest.  Every run writes a ``manifest.json``
holding the fully resolved configuration, master seed, library version,
and input digests; re-running from the manifest reproduces every
artifact byte for byte (timestamps live only in the manifest).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import decimal
import hashlib
import inspect
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, detection, image_io, inference, scenes, simulation
from .estimation import RobustConfig, fit_both
from .regression import DesignMatrix, ModelSpec, dummy_design


def _field_defaults(cls) -> dict:
    fields = dataclasses.fields(cls)
    return {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}


def _param_defaults(fn) -> dict:
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


# Every default the CLI applies comes from the library object it configures.
_ROBUST = _field_defaults(RobustConfig)
_SCENARIO = _field_defaults(simulation.ScenarioConfig)
_DETECTOR = _field_defaults(detection.DetectorConfig)
_SCENE = _param_defaults(scenes.make_scene)
_PFA = _param_defaults(inference.wald_test)["pfa"]

# detect's config keys -> DetectorConfig fields
_DETECTOR_KEYS = {
    "control_limit": "control_limit",
    "opening_se": "opening_size",
    "dilation_se": "dilation_size",
    "merge_distance_m": "merge_distance",
    "pixel_size_m": "pixel_size_m",
}

# Defaults of a simulation config file: the ScenarioConfig fields, whose seed
# it reads from "seed".
_SIM_DEFAULTS = {k: v for k, v in _SCENARIO.items() if k != "master_seed"}


class CliError(Exception):
    pass


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# tabular data loading


def _load_table(path) -> tuple:
    """Headered CSV -> (column names, list of row dicts with raw strings)."""
    path = Path(path)
    if not path.exists():
        raise CliError(f"data file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise CliError(f"{path}: line {lineno}: {len(row)} fields, expected {len(header)}")
            rows.append((lineno, [cell.strip() for cell in row]))
    if not rows:
        raise CliError(f"{path}: no data rows")
    return header, rows


def _numeric_column(path, header, rows, name) -> np.ndarray:
    if name not in header:
        raise CliError(f"{path}: column {name!r} not found; available: {header}")
    j = header.index(name)
    out = np.empty(len(rows))
    for i, (lineno, row) in enumerate(rows):
        try:
            out[i] = float(row[j])
        except ValueError:
            raise CliError(
                f"{path}: line {lineno}: column {name!r} has non-numeric value {row[j]!r}"
            ) from None
    return out


def _build_spec_from_config(config) -> ModelSpec:
    path = config["data"]
    header, rows = _load_table(path)
    y = _numeric_column(path, header, rows, config["response"])
    nonpos = np.flatnonzero(y <= 0)
    if nonpos.size:
        lines = [rows[i][0] for i in nonpos[:10]]
        raise CliError(
            f"{path}: response column {config['response']!r} has {nonpos.size} nonpositive "
            f"value(s); first data lines: {lines}"
        )
    if config["dummy"]:
        col = config["dummy"]
        if col not in header:
            raise CliError(f"{path}: column {col!r} not found; available: {header}")
        j = header.index(col)
        labels = [row[j] for _, row in rows]
        if config["reference"] is None:
            raise CliError("--dummy requires --reference LEVEL")
        try:
            design = dummy_design(labels, config["reference"])
        except ValueError as exc:
            raise CliError(str(exc)) from None
    else:
        names = list(config["covariates"] or [])
        cols = [_numeric_column(path, header, rows, nm) for nm in names]
        if config["intercept"]:
            cols.insert(0, np.ones(len(rows)))
            names.insert(0, "intercept")
        if not cols:
            raise CliError("no covariates requested; pass --covariates or --dummy (or keep the intercept)")
        design = DesignMatrix(np.column_stack(cols), tuple(names))
    return ModelSpec(design=design, link=config["link"], response=y)


def _robust_from_config(config) -> RobustConfig:
    return RobustConfig(delta=config["delta"], reweight_iterations=config["reweight_iterations"])


def _fit_payload(fit, pfa) -> dict:
    tests = inference.ground_type_detect(fit, pfa=pfa) if fit.beta_hat.size > 1 and fit.converged else []
    p_by_index = {t.interest[0]: t.p_value for t in tests}
    return {
        "method": fit.method,
        "coefficients": [
            {
                "name": name,
                "estimate": float(b),
                "std_error": float(se),
                "p_value": p_by_index.get(i),
            }
            for i, (name, b, se) in enumerate(
                zip(fit.column_names, fit.beta_hat, fit.std_errors)
            )
        ],
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "n_downweighted": fit.n_downweighted,
    }


def _fit_text(payload) -> str:
    lines = [
        f"{payload['method']}: loglik={payload['loglik']:.6f} converged={payload['converged']} "
        f"iterations={payload['iterations']} downweighted={payload['n_downweighted']}",
        f"{'coefficient':>16s} {'estimate':>12s} {'std.err':>10s} {'p-value':>10s}",
    ]
    for c in payload["coefficients"]:
        p = "" if c["p_value"] is None else f"{c['p_value']:.4f}"
        lines.append(f"{c['name']:>16s} {c['estimate']:>12.6f} {c['std_error']:>10.6f} {p:>10s}")
    return "\n".join(lines) + "\n"


def _fit_csv(payloads) -> str:
    lines = ["method,name,estimate,std_error,p_value"]
    for payload in payloads:
        for c in payload["coefficients"]:
            p = "" if c["p_value"] is None else repr(c["p_value"])
            lines.append(
                f"{payload['method']},{c['name']},{c['estimate']!r},{c['std_error']!r},{p}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command handlers: config dict + out_dir -> list of written artifact names


def _cmd_fit(config, out_dir: Path) -> list:
    spec = _build_spec_from_config(config)
    method = config["method"]
    if method not in ("mle", "wmle", "both"):
        raise CliError("--method must be mle, wmle, or both")
    if method == "mle" and config["delta_explicit"]:
        warnings.warn("--delta is ignored for --method mle", stacklevel=2)
    mle, wmle = fit_both(spec, _robust_from_config(config))
    fits = {"mle": [mle], "wmle": [wmle], "both": [mle, wmle]}[method]
    payloads = [_fit_payload(f, config["pfa"]) for f in fits]
    fmt = config["format"]
    outputs = []
    if fmt == "json":
        _write_text(out_dir / "fit.json", _json_dumps({"fits": payloads}))
        outputs.append("fit.json")
    elif fmt == "text":
        _write_text(out_dir / "fit.txt", "\n".join(_fit_text(p) for p in payloads))
        outputs.append("fit.txt")
    else:
        _write_text(out_dir / "fit.csv", _fit_csv(payloads))
        outputs.append("fit.csv")
    return outputs


def _cmd_wald(config, out_dir: Path) -> list:
    spec = _build_spec_from_config(config)
    method = config["method"]
    mle, wmle = fit_both(spec, _robust_from_config(config))
    fit = wmle if method == "wmle" else mle
    names = list(fit.column_names)
    interest = []
    for tok in config["interest"]:
        if tok in names:
            interest.append(names.index(tok))
        else:
            try:
                interest.append(int(tok))
            except ValueError:
                raise CliError(f"unknown coefficient {tok!r}; available: {names}") from None
    null = config["null"] or [0.0] * len(interest)
    if len(null) != len(interest):
        raise CliError("--null must list one value per tested coefficient")
    report = inference.wald_test(fit, interest, np.asarray(null, dtype=float), pfa=config["pfa"])
    payload = {"fit": _fit_payload(fit, config["pfa"]), "wald": report.as_dict()}
    _write_text(out_dir / "wald.json", _json_dumps(payload))
    return ["wald.json"]


def _cmd_residuals(config, out_dir: Path) -> list:
    spec = _build_spec_from_config(config)
    method = config["method"]
    mle, wmle = fit_both(spec, _robust_from_config(config))
    fit = wmle if method == "wmle" else mle
    res, clamped = inference.quantile_residuals(spec, fit, return_clamped=True)
    lines = ["residual"] + [repr(float(r)) for r in res]
    _write_text(out_dir / "residuals.csv", "\n".join(lines) + "\n")
    summary = {
        "n": int(res.size),
        "mean": float(np.mean(res)),
        "variance": float(np.var(res)),
        "n_clamped": int(clamped.size),
        "clamped_indices": [int(i) for i in clamped[:100]],
        "method": fit.method,
    }
    _write_text(out_dir / "residuals.json", _json_dumps(summary))
    return ["residuals.csv", "residuals.json"]


# -- simulation config handling


def _schema_error(path, message):
    raise CliError(f"config error at {path}: {message}")


def _check_number(value, path, lo=None, hi=None, lo_open=False, hi_open=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _schema_error(path, f"expected a number, got {value!r}")
    v = float(value)
    if lo is not None and (v <= lo if lo_open else v < lo):
        _schema_error(path, f"value {v} below allowed range")
    if hi is not None and (v >= hi if hi_open else v > hi):
        _schema_error(path, f"value {v} above allowed range")
    return v


def _check_int(value, path, lo=None):
    if not isinstance(value, int) or isinstance(value, bool):
        _schema_error(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _schema_error(path, f"value {value} below {lo}")
    return value


def _load_sim_config(config) -> dict:
    raw_path = config["config_file"]
    raw = {}
    if raw_path:
        path = Path(raw_path)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            _schema_error("$", "top level must be an object")
    known = set(_SIM_DEFAULTS) | {"seed", "beta_true", "N"}
    for key in raw:
        if key not in known:
            _schema_error(f"$.{key}", "unknown field")
    merged = dict(_SIM_DEFAULTS)
    merged.update(raw)

    if "beta_true" not in merged:
        _schema_error("$.beta_true", "required field is missing")
    if not isinstance(merged["beta_true"], list) or not merged["beta_true"]:
        _schema_error("$.beta_true", "expected a non-empty array of numbers")
    for i, b in enumerate(merged["beta_true"]):
        _check_number(b, f"$.beta_true[{i}]")
    if "N" not in merged:
        _schema_error("$.N", "required field is missing")
    n_list = merged["N"] if isinstance(merged["N"], list) else [merged["N"]]
    for i, n in enumerate(n_list):
        _check_int(n, f"$.N[{i}]", lo=len(merged["beta_true"]) + 1)
    eps_list = merged["epsilon"] if isinstance(merged["epsilon"], list) else [merged["epsilon"]]
    for i, e in enumerate(eps_list):
        _check_number(e, f"$.epsilon[{i}]", lo=0.0, hi=1.0, hi_open=True)
    if merged.get("link") not in ("log", "identity"):
        _schema_error("$.link", f"expected 'log' or 'identity', got {merged.get('link')!r}")
    _check_number(merged["delta"], "$.delta", lo=0.0, hi=0.5, lo_open=True, hi_open=True)
    _check_int(merged["reweight_iterations"], "$.reweight_iterations", lo=0)
    _check_int(merged["max_iter"], "$.max_iter", lo=1)
    _check_number(merged["grad_tol"], "$.grad_tol", lo=0.0, lo_open=True)
    _check_number(merged["outlier_value"], "$.outlier_value", lo=0.0, lo_open=True)
    _check_int(merged["replications"], "$.replications", lo=1)
    if "seed" in merged and merged["seed"] is not None:
        _check_int(merged["seed"], "$.seed")
    merged["N"] = [int(n) for n in n_list]
    merged["epsilon"] = [float(e) for e in eps_list]

    if merged["replications"] < 50:
        warnings.warn(
            f"replications={merged['replications']} is very small; moments will be noisy",
            stacklevel=2,
        )
    for e in merged["epsilon"]:
        if e > 0.05:
            warnings.warn(
                f"epsilon={e} lies beyond the evaluated contamination grid (0..5%)",
                stacklevel=2,
            )
    return merged


def _scenarios_from_config(config, single_n=False) -> list:
    """The (N, epsilon) grid of a simulation config, in file order.

    The config file's ``seed`` takes precedence over ``--seed``.
    """
    sim = _load_sim_config(config)
    if single_n and len(sim["N"]) != 1:
        raise CliError("breakdown/sensitivity need a single N in the config")
    seed = sim["seed"] if sim.get("seed") is not None else config["seed"]
    shared = {k: sim[k] for k in _SCENARIO.keys() - {"epsilon", "master_seed"}}
    return [
        simulation.ScenarioConfig(
            beta_true=tuple(sim["beta_true"]), n_obs=n, epsilon=eps, master_seed=seed, **shared
        )
        for n in sim["N"]
        for eps in sim["epsilon"]
    ]


def _cmd_simulate(config, out_dir: Path) -> list:
    reports = simulation.run_table(_scenarios_from_config(config), workers=config["threads"])
    _write_text(out_dir / "table.json", _json_dumps({"cells": [r.as_dict() for r in reports]}))
    _write_text(out_dir / "table.txt", simulation.format_table(reports))
    return ["table.json", "table.txt"]


def _parse_range(text, kind=float) -> list:
    """Accept 'a,b,c' lists and 'start:stop[:step]' inclusive ranges.

    Ranges step in decimal over the tokens as written, so '0.1:0.7:0.1'
    gives 0.3 rather than the binary sum 0.30000000000000004.
    """
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if ":" in part:
            bits = part.split(":")
            if len(bits) not in (2, 3):
                raise CliError(f"bad range {part!r}; expected start:stop[:step]")
            for bit in bits:
                kind(bit)
            start, stop = decimal.Decimal(bits[0]), decimal.Decimal(bits[1])
            step = decimal.Decimal(bits[2]) if len(bits) == 3 else decimal.Decimal(1)
            if not all(d.is_finite() for d in (start, stop, step)):
                raise CliError(f"bad range {part!r}; bounds and step must be finite")
            if step <= 0:
                raise CliError(f"bad range {part!r}; step must be positive")
            v = start
            while v <= stop:
                out.append(kind(v))
                v += step
        elif part:
            out.append(kind(part))
    if not out:
        raise CliError(f"empty value list {text!r}")
    return out


def _cmd_breakdown(config, out_dir: Path) -> list:
    scenario = _scenarios_from_config(config, single_n=True)[0]
    counts = _parse_range(config["counts"], int)
    curve = simulation.breakdown_curve(scenario, counts, workers=config["threads"])
    _write_text(out_dir / "breakdown.csv", curve.to_csv())
    payload = {
        "counts": list(curve.counts),
        "mle_total_rb": list(curve.mle_total_rb),
        "wmle_total_rb": list(curve.wmle_total_rb),
        "convergence_failures": curve.convergence_failures,
    }
    _write_text(out_dir / "breakdown.json", _json_dumps(payload))
    return ["breakdown.csv", "breakdown.json"]


def _cmd_sensitivity(config, out_dir: Path) -> list:
    scenario = _scenarios_from_config(config, single_n=True)[0]
    values = _parse_range(config["values"], float)
    curve = simulation.sensitivity_curve(scenario, values, workers=config["threads"])
    _write_text(out_dir / "sensitivity.csv", curve.to_csv())
    payload = {
        "values": list(curve.values),
        "mle_masc": list(curve.mle_masc),
        "wmle_masc": list(curve.wmle_masc),
        "convergence_failures": curve.convergence_failures,
    }
    _write_text(out_dir / "sensitivity.json", _json_dumps(payload))
    return ["sensitivity.csv", "sensitivity.json"]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_truth(path) -> tuple:
    """Targets and optional match radius from a truth JSON file."""
    doc = json.loads(Path(path).read_text())
    targets = doc.get("targets") if isinstance(doc, dict) else None
    if not isinstance(targets, list) or not all(
        isinstance(t, list) and len(t) == 2 and all(_is_number(v) for v in t) for t in targets
    ):
        raise CliError(f"{path}: truth must be a JSON object whose 'targets' lists [row, col] pairs")
    radius = doc.get("radius_m")
    if radius is not None and not _is_number(radius):
        raise CliError(f"{path}: 'radius_m' must be a number")
    return targets, radius


def _cmd_detect(config, out_dir: Path) -> list:
    interest = image_io.read_image(config["interest"])
    covariates = [image_io.read_image(p) for p in config["covariates"]]
    cfg = detection.DetectorConfig(
        **{name: config[key] for key, name in _DETECTOR_KEYS.items()},
        two_sided=not config["upper_tail_only"],
    )
    truth = None
    radius = config["truth_radius_m"]
    if config["truth"]:
        truth, truth_radius = _load_truth(config["truth"])
        if radius is None:
            radius = truth_radius
    try:
        result = detection.detect(
            interest,
            covariates,
            tuple(config["training"]),
            cfg=cfg,
            robust=_robust_from_config(config),
            method=config["method"],
            truth=truth,
            truth_radius_m=radius,
            link=config["link"],
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    image_io.write_mask_pgm(result.mask, out_dir / "mask.pgm")
    image_io.write_mask_csv(result.mask, out_dir / "mask.csv")
    payload = {
        "method": result.fit.method,
        "clusters": result.clusters_as_dicts(),
        "n_clusters": len(result.clusters),
        "n_flagged_pixels": result.n_flagged,
        "fit": _fit_payload(result.fit, _PFA),
    }
    _write_text(out_dir / "clusters.json", _json_dumps(payload))
    outputs = ["mask.pgm", "mask.csv", "clusters.json"]
    if truth is not None:
        score = {
            "hits": result.hits,
            "false_alarms": result.false_alarms,
            "missed": result.missed,
            "n_truth": len(truth),
            "radius_m": radius,
        }
        _write_text(out_dir / "score.json", _json_dumps(score))
        outputs.append("score.json")
    return outputs


def _cmd_synth_scene(config, out_dir: Path) -> list:
    scene = scenes.make_scene(**{name: config[name] for name in _SCENE})
    image_io.write_image_rrm(scene.interest, out_dir / "interest.rrm")
    image_io.write_image_rrm(scene.covariate, out_dir / "covariate.rrm")
    _write_text(
        out_dir / "truth.json",
        _json_dumps({"targets": scene.truth_list, "radius_m": 10.0}),
    )
    _write_text(
        out_dir / "scene.json",
        _json_dumps(
            {
                "seed": scene.seed,
                "training_region": list(scene.training_region),
                "params": scene.params,
            }
        ),
    )
    return ["interest.rrm", "covariate.rrm", "truth.json", "scene.json"]


_HANDLERS = {
    "fit": _cmd_fit,
    "wald": _cmd_wald,
    "residuals": _cmd_residuals,
    "simulate": _cmd_simulate,
    "breakdown": _cmd_breakdown,
    "sensitivity": _cmd_sensitivity,
    "detect": _cmd_detect,
    "synth-scene": _cmd_synth_scene,
}

_INPUT_KEYS = ("data", "config_file", "interest", "truth")


def _input_digests(config) -> dict:
    digests = {}
    for key in _INPUT_KEYS:
        value = config.get(key)
        if isinstance(value, str) and value and Path(value).exists():
            digests[str(value)] = _sha256(value)
    for p in config.get("covariates") or []:
        if Path(p).exists():
            digests[str(p)] = _sha256(p)
    return digests


def _execute(command, config, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = _HANDLERS[command](config, out_dir)
    manifest = {
        "command": command,
        "config": config,
        "master_seed": config["seed"],
        "library_version": __version__,
        "inputs": _input_digests(config),
        "outputs": outputs,
        "created_utc": _utcnow(),
    }
    _write_text(out_dir / "manifest.json", _json_dumps(manifest))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error ends, like any malformed input, in one ``error:`` line
    and exit status 1; sub-command parsers inherit this class."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message} (see {self.prog} --help)\n")


def _add_common(parser):
    parser.add_argument(
        "--seed", type=int, default=_SCENARIO["master_seed"], help="master seed recorded in the manifest"
    )
    parser.add_argument("--threads", type=int, default=1, help="worker process cap for replications")
    parser.add_argument("--out-dir", default=".", help="directory for artifacts and the manifest")
    parser.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="json",
        help="fit-report format; commands with pinned artifact formats ignore it",
    )


def _add_tabular(parser):
    parser.add_argument("--data", required=True, help="headered CSV data file")
    parser.add_argument("--response", required=True, help="response column name")
    parser.add_argument("--covariates", default=None, help="comma-separated covariate columns")
    parser.add_argument("--no-intercept", action="store_true")
    parser.add_argument("--dummy", default=None, help="label column for treatment coding")
    parser.add_argument("--reference", default=None, help="reference level for --dummy")
    parser.add_argument("--link", choices=("log", "identity"), default=_SCENARIO["link"])
    parser.add_argument("--method", choices=("mle", "wmle", "both"), default="wmle")
    parser.add_argument(
        "--delta", type=float, default=None, help=f"tail weight parameter (default {_ROBUST['delta']})"
    )
    parser.add_argument("--reweight-iterations", type=int, default=_ROBUST["reweight_iterations"])
    parser.add_argument("--pfa", type=float, default=_PFA, help="false-alarm probability for tests")


def _tabular_config(args) -> dict:
    return {
        "data": args.data,
        "response": args.response,
        "covariates": [c.strip() for c in args.covariates.split(",")] if args.covariates else None,
        "intercept": not args.no_intercept,
        "dummy": args.dummy,
        "reference": args.reference,
        "link": args.link,
        "method": args.method,
        "delta": args.delta if args.delta is not None else _ROBUST["delta"],
        "delta_explicit": args.delta is not None,
        "reweight_iterations": args.reweight_iterations,
        "pfa": args.pfa,
        "seed": args.seed,
        "threads": args.threads,
        "format": args.format,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rayreg",
        description="Robust Rayleigh regression: fitting, testing, simulation, detection.",
    )
    parser.add_argument("--version", action="version", version=f"rayreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the regression on tabular data")
    _add_common(p)
    _add_tabular(p)

    p = sub.add_parser("wald", help="fit and run one Wald test")
    _add_common(p)
    _add_tabular(p)
    p.add_argument("--interest", required=True, help="comma-separated coefficient names or indices")
    p.add_argument("--null", default=None, help="comma-separated null values (default zeros)")

    p = sub.add_parser("residuals", help="fit and emit quantile residuals")
    _add_common(p)
    _add_tabular(p)

    for name, extra in (
        ("simulate", ()),
        ("breakdown", ("counts", "1:100")),
        ("sensitivity", ("values", "1:20")),
    ):
        p = sub.add_parser(name, help=f"Monte Carlo {name} study from a JSON config")
        _add_common(p)
        p.add_argument("--config", required=True, help="scenario config JSON file")
        if extra:
            p.add_argument(f"--{extra[0]}", default=extra[1], help="list or start:stop[:step] range")

    p = sub.add_parser("detect", help="residual control-chart detection on an image")
    _add_common(p)
    p.add_argument("--interest", required=True, help="interest image (.csv or RRM1 binary)")
    p.add_argument("--covariates", required=True, help="comma-separated covariate image paths")
    p.add_argument("--training", required=True, help="training window r0,c0,r1,c1 (half-open)")
    p.add_argument("--method", choices=("mle", "wmle"), default="wmle")
    p.add_argument("--link", choices=("log", "identity"), default=_SCENARIO["link"])
    p.add_argument("--delta", type=float, default=_ROBUST["delta"])
    p.add_argument("--reweight-iterations", type=int, default=_ROBUST["reweight_iterations"])
    p.add_argument("--control-limit", type=float, default=_DETECTOR["control_limit"])
    p.add_argument("--opening-se", type=int, default=_DETECTOR["opening_size"])
    p.add_argument("--dilation-se", type=int, default=_DETECTOR["dilation_size"])
    p.add_argument("--merge-distance", type=float, default=_DETECTOR["merge_distance"])
    p.add_argument("--pixel-size", type=float, default=_DETECTOR["pixel_size_m"])
    p.add_argument("--upper-tail-only", action="store_true",
                   help="flag only residuals above +L (default is two-sided)")
    p.add_argument("--truth", default=None, help="ground-truth JSON for scoring")
    p.add_argument("--truth-radius", type=float, default=None, help="match radius in meters")

    p = sub.add_parser("synth-scene", help="generate the seeded synthetic scene")
    _add_common(p)
    for name, default in _SCENE.items():
        if name != "seed":
            p.add_argument(f"--{name.replace('_', '-')}", type=type(default), default=default)

    p = sub.add_parser("rerun", help="replay a previous run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", default=".")
    return parser


def _config_from_args(args) -> dict:
    cmd = args.command
    if cmd in ("fit", "residuals"):
        return _tabular_config(args)
    if cmd == "wald":
        cfg = _tabular_config(args)
        cfg["interest"] = [tok.strip() for tok in args.interest.split(",")]
        cfg["null"] = [float(tok) for tok in args.null.split(",")] if args.null else None
        return cfg
    if cmd in ("simulate", "breakdown", "sensitivity"):
        cfg = {
            "config_file": args.config,
            "seed": args.seed,
            "threads": args.threads,
            "format": args.format,
        }
        if cmd == "breakdown":
            cfg["counts"] = args.counts
        if cmd == "sensitivity":
            cfg["values"] = args.values
        return cfg
    if cmd == "detect":
        return {
            "interest": args.interest,
            "covariates": [p.strip() for p in args.covariates.split(",")],
            "training": [int(v) for v in args.training.split(",")],
            "method": args.method,
            "link": args.link,
            "delta": args.delta,
            "reweight_iterations": args.reweight_iterations,
            "control_limit": args.control_limit,
            "opening_se": args.opening_se,
            "dilation_se": args.dilation_se,
            "merge_distance_m": args.merge_distance,
            "pixel_size_m": args.pixel_size,
            "upper_tail_only": args.upper_tail_only,
            "truth": args.truth,
            "truth_radius_m": args.truth_radius,
            "seed": args.seed,
            "threads": args.threads,
        }
    if cmd == "synth-scene":
        return {name: getattr(args, name) for name in _SCENE} | {"threads": args.threads}
    raise CliError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            manifest_path = Path(args.manifest)
            if not manifest_path.exists():
                raise CliError(f"manifest not found: {manifest_path}")
            manifest = json.loads(manifest_path.read_text())
            if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
                raise CliError(f"{manifest_path}: manifest has no 'config' object")
            command = manifest.get("command")
            if command not in _HANDLERS:
                raise CliError(f"manifest names unknown command {command!r}")
            try:
                return _execute(command, manifest["config"], Path(args.out_dir))
            except KeyError as exc:
                raise CliError(f"{manifest_path}: manifest config has no key {exc}") from None
        config = _config_from_args(args)
        return _execute(args.command, config, Path(args.out_dir))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
