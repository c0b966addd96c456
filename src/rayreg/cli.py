"""Command-line front end.

Eight commands, each one ``_COMMANDS`` entry (handler, help, options):
``fit``, ``wald``, ``residuals`` (tabular data), ``simulate``, ``breakdown``,
``sensitivity`` (Monte Carlo studies), ``detect``, ``synth-scene`` (images);
``rerun`` replays any of them from its manifest.  Every run writes a
``manifest.json`` holding the resolved configuration, master seed, library
version, input digests and the artifacts written, in order; re-running from
it reproduces every artifact byte for byte (timestamps live only there).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import decimal
import functools
import hashlib
import inspect
import io
import json
import math
import reprlib
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, detection, image_io, inference, scenes, simulation
from .estimation import RobustConfig, fit_both, fit_mle
from .optim import InfeasibleStartError
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
# clusters.json keys: the Cluster fields in order, as asdict gives them without its deep copy.
_CLUSTER_FIELDS = tuple(f.name for f in dataclasses.fields(detection.Cluster))

# Defaults of a simulation config file: the ScenarioConfig fields, whose seed
# it reads from "seed".
_SIM_DEFAULTS = {k: v for k, v in _SCENARIO.items() if k != "master_seed"}


class CliError(Exception):
    pass


def _strict(obj):
    """``obj`` with each NaN or infinity, which JSON lacks, as None: a Monte
    Carlo moment over no converged replication is NaN."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json_dumps(obj) -> str:
    return json.dumps(_strict(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write(out_dir: Path, name: str, content, writer=None) -> str:
    """Write ``content`` to ``out_dir / name``, as UTF-8 text or by ``writer(content, path)``."""
    if writer is None:
        (out_dir / name).write_text(content, encoding="utf-8")
    else:
        writer(content, out_dir / name)
    return name


def _read_input(inputs: dict, path, kind: str) -> bytes:
    """The bytes of the ``kind`` input file (data, config or truth); their
    sha256 goes into the run's ``inputs`` map under the path as given."""
    file = Path(path)
    if not file.exists():
        raise CliError(f"{kind} file not found: {file}")
    data = file.read_bytes()
    inputs[str(path)] = "sha256:" + hashlib.sha256(data).hexdigest()
    return data


def _read_image(inputs: dict, path) -> np.ndarray:
    """An input image, read once; the sha256 of the bytes read goes into
    ``inputs`` as for :func:`_read_input`."""
    digest = hashlib.sha256()
    image = image_io.read_image(path, digest=digest)
    inputs[str(path)] = "sha256:" + digest.hexdigest()
    return image


def _decode(data: bytes, path, encoding="utf-8") -> str:
    """``data``, read from ``path``, as text; bytes that are not UTF-8 are a
    :class:`CliError` naming the file."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_json(data: bytes, path):
    """The JSON document in ``data``, read from ``path``; text that is not
    UTF-8, malformed or too deeply nested is a :class:`CliError`."""
    text = _decode(data, path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise CliError(f"{path}: invalid JSON: nested too deeply") from None


# ---------------------------------------------------------------------------
# tabular data loading


def _load_table(given, inputs: dict) -> tuple:
    """Headered CSV -> (column names, list of row dicts with raw strings)."""
    path = Path(given)
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first.
    text = _decode(_read_input(inputs, given, "data"), path, "utf-8-sig")
    reader = csv.reader(io.StringIO(text, newline=""))
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
    """Column ``name`` as floats; a cell that is not a finite number (``nan``,
    ``inf``, or digits past the largest double) names its file line."""
    if name not in header:
        raise CliError(f"{path}: column {name!r} not found; available: {header}")
    j = header.index(name)
    out = np.empty(len(rows))
    for i, (lineno, row) in enumerate(rows):
        try:
            out[i] = value = float(row[j])
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            kind = "non-numeric" if value is None else "non-finite"
            raise CliError(f"{path}: line {lineno}: column {name!r} has {kind} value {row[j]!r}")
    return out


def _build_spec_from_config(config, inputs: dict) -> tuple:
    """The model of the data file, and the file line of each of its rows."""
    path = config["data"]
    header, rows = _load_table(path, inputs)
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
    return ModelSpec(design=design, link=config["link"], response=y), [n for n, _ in rows]


def _robust_from_config(config) -> RobustConfig:
    return RobustConfig(delta=config["delta"], reweight_iterations=config["reweight_iterations"])


def _requested_fits(config, inputs: dict, one_fit_command=None) -> tuple:
    """The data file's model, and the fits that ``--method`` reports, MLE
    first; the robust pass runs only where its fit is reported."""
    config.setdefault("delta_explicit", config["delta"] is not None)  # a rerun keeps its record
    if config["delta"] is None:  # --delta not given; mle ignores it
        config["delta"] = _ROBUST["delta"]
    if one_fit_command and config["method"] not in ("mle", "wmle"):
        raise CliError(f"{one_fit_command} reports one fit; --method must be mle or wmle")
    spec, lines = _build_spec_from_config(config, inputs)
    cfg = _robust_from_config(config)
    try:
        fits = [fit_mle(spec, cfg)] if config["method"] == "mle" else list(fit_both(spec, cfg))
    except InfeasibleStartError as exc:
        if exc.row is None:
            raise
        raise CliError(f"{config['data']}: line {lines[exc.row]}: response {config['response']!r} "
                       f"value {float(spec.response[exc.row])!r} overflows the log-likelihood") from None
    return spec, fits[1:] if config["method"] == "wmle" else fits


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


# fit's --format -> (its artifact, the writer of the fits' payloads)
_FIT_REPORTS = {
    "json": ("fit.json", lambda payloads: _json_dumps({"fits": payloads})),
    "csv": ("fit.csv", _fit_csv),
    "text": ("fit.txt", lambda payloads: "\n".join(_fit_text(p) for p in payloads)),
}


# ---------------------------------------------------------------------------
# command handlers: config dict + out_dir + the run's input map (filled by
# _read_input and _read_image) -> the names _write returned, in write order.
# A handler completes its own config, which the manifest records as it leaves it.


def _cmd_fit(config, out_dir: Path, inputs: dict) -> list:
    if config["method"] not in ("mle", "wmle", "both"):
        raise CliError("--method must be mle, wmle, or both")
    if config["format"] not in _FIT_REPORTS:
        raise CliError("--format must be json, text, or csv")
    name, report = _FIT_REPORTS[config["format"]]
    _, fits = _requested_fits(config, inputs)
    if config["method"] == "mle" and config["delta_explicit"]:
        warnings.warn("--delta is ignored for --method mle", stacklevel=2)
    return [_write(out_dir, name, report([_fit_payload(f, config["pfa"]) for f in fits]))]


def _cmd_wald(config, out_dir: Path, inputs: dict) -> list:
    _, (fit,) = _requested_fits(config, inputs, "wald")
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
    payload = {"fit": _fit_payload(fit, config["pfa"]), "wald": dataclasses.asdict(report)}
    return [_write(out_dir, "wald.json", _json_dumps(payload))]


def _cmd_residuals(config, out_dir: Path, inputs: dict) -> list:
    spec, (fit,) = _requested_fits(config, inputs, "residuals")
    res, clamped = inference.quantile_residuals(spec, fit, return_clamped=True)
    lines = ["residual"] + [repr(float(r)) for r in res]
    summary = {
        "n": int(res.size),
        "mean": float(np.mean(res)),
        "variance": float(np.var(res)),
        "n_clamped": int(clamped.size),
        "clamped_indices": [int(i) for i in clamped[:100]],
        "method": fit.method,
    }
    return [_write(out_dir, "residuals.csv", "\n".join(lines) + "\n"),
            _write(out_dir, "residuals.json", _json_dumps(summary))]


# -- simulation config handling


def _is_number(value) -> bool:
    """A JSON number whose float is finite; a bool is not one."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max  # no float conversion to overflow


_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false"}


def _check_value(where, value, kind, array=None, nullable=False):
    """Refuse ``value`` unless it is a ``kind`` (a finite number for int and
    float, a JSON integer for int), None where ``nullable``, or a non-empty list
    of them where ``array`` is "list" (must be) or "grid" (may be).  The error
    names ``where``, whose ``{}`` takes ``[i]`` for item i of a list; only a file
    holds a wrong type, so that error calls the value a config value."""
    if value is None and nullable:
        return
    if array == "list" or array and isinstance(value, list):
        if not isinstance(value, list):
            raise CliError(f"{where.format('')} must be a list, got the config value {reprlib.repr(value)}")
        if not value:
            raise CliError(f"{where.format('')} must be a non-empty list")
        for i, item in enumerate(value):
            _check_value(where.format(f"[{i}]"), item, kind)
        return
    where = where.format("")
    # A JSON integer is a number too; a bool, an int to Python, is only a bool.
    expected = (int, float) if kind is float else kind
    if not isinstance(value, expected) or isinstance(value, bool) is not (kind is bool):
        raise CliError(f"{where} must be {_TYPE_NAMES[kind]}, got the config value {reprlib.repr(value)}")
    if kind in (int, float) and not _is_number(value):
        raise CliError(f"{where} must be a finite number, got {reprlib.repr(value)}")


# The JSON type of each simulation config key, that of its default where it
# has one, whether it is an array ("list" must be one, "grid", the N x epsilon
# grid, may be one) and whether it may be null (a null seed means --seed).
# Ranges are left to ScenarioConfig and RobustConfig.
_SIM_SCHEMA = {k: (type(v), None, False) for k, v in _SIM_DEFAULTS.items()} | {
    "beta_true": (float, "list", False), "N": (int, "grid", False),
    "epsilon": (float, "grid", False), "seed": (int, None, True),
}


def _load_sim_config(config, inputs: dict) -> dict:
    """The config file over the ScenarioConfig defaults, with JSON types checked."""
    path = Path(config["config_file"])
    raw = _parse_json(_read_input(inputs, config["config_file"], "config"), path)
    if not isinstance(raw, dict):
        raise CliError("config error at $: top level must be an object")
    for key in ("beta_true", "N"):
        if key not in raw:
            raise CliError(f"config error at $.{key}: required field is missing")
    for key, value in raw.items():
        if key not in _SIM_SCHEMA:
            raise CliError(f"config error at $.{key}: unknown field")
        _check_value(f"config error at $.{key}{{}}:", value, *_SIM_SCHEMA[key])
    return _SIM_DEFAULTS | raw


def _scenarios_from_config(config, inputs: dict, single_n=False) -> list:
    """The (N, epsilon) grid of a simulation config, in file order.

    The config file's ``seed`` takes precedence over ``--seed``.  Building
    every cell checks the ranges before any warning, so a bad file gives one
    line.
    """
    sim = _load_sim_config(config, inputs)
    n_list, eps_list = (v if isinstance(v, list) else [v] for v in (sim.pop("N"), sim.pop("epsilon")))
    if single_n and len(n_list) != 1:
        raise CliError("breakdown/sensitivity need a single N in the config")
    seed = sim.pop("seed", None)
    try:
        cells = [
            simulation.ScenarioConfig(n_obs=n, epsilon=float(eps), **sim,
                                      master_seed=config["seed"] if seed is None else seed)
            for n in n_list
            for eps in eps_list
        ]
    except ValueError as exc:
        raise CliError(f"config error: {exc}") from None
    if sim["replications"] < 50:
        warnings.warn(f"replications={sim['replications']} is very small; moments will be noisy",
                      stacklevel=2)
    for eps in eps_list:
        if eps > 0.05:
            warnings.warn(f"epsilon={float(eps)} lies beyond the evaluated contamination grid (0..5%)",
                          stacklevel=2)
    return cells


def _cmd_simulate(config, out_dir: Path, inputs: dict) -> list:
    cells = _scenarios_from_config(config, inputs)
    reports = simulation.run_table(cells, workers=config["threads"])
    return [_write(out_dir, "table.json", _json_dumps({"cells": [r.as_dict() for r in reports]})),
            _write(out_dir, "table.txt", simulation.format_table(reports))]


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


def _cmd_curve(name, flag, kind, config, out_dir: Path, inputs: dict) -> list:
    """``simulation.<name>_curve`` over the ``--<flag>`` sweep of ``kind`` values."""
    scenario = _scenarios_from_config(config, inputs, single_n=True)[0]
    curve_fn = getattr(simulation, f"{name}_curve")  # per call, so a replacement on the module runs
    curve = curve_fn(scenario, _parse_range(config[flag], kind), workers=config["threads"])
    return [_write(out_dir, f"{name}.csv", curve.to_csv()),
            _write(out_dir, f"{name}.json", _json_dumps(dataclasses.asdict(curve)))]


def _load_truth(path, inputs: dict) -> tuple:
    """Targets and optional match radius from a truth JSON file."""
    doc = _parse_json(_read_input(inputs, path, "truth"), path)
    targets = doc.get("targets") if isinstance(doc, dict) else None
    if not isinstance(targets, list) or not all(
        isinstance(t, list) and len(t) == 2 and all(_is_number(v) for v in t) for t in targets
    ):
        raise CliError(f"{path}: truth must be a JSON object whose 'targets' lists [row, col] pairs")
    radius = doc.get("radius_m")
    if radius is not None and not _is_number(radius):
        raise CliError(f"{path}: 'radius_m' must be a number")
    return targets, radius


def _cmd_detect(config, out_dir: Path, inputs: dict) -> list:
    config.pop("format", None)  # its artifact formats are pinned
    interest = _read_image(inputs, config["interest"])
    covariates = [_read_image(inputs, p) for p in config["covariates"]]
    cfg = detection.DetectorConfig(
        **{name: config[key] for key, name in _DETECTOR_KEYS.items()},
        two_sided=not config["upper_tail_only"],
    )
    truth, radius = _load_truth(config["truth"], inputs) if config["truth"] else (None, None)
    if config["truth_radius_m"] is not None:  # --truth-radius overrides the file's radius_m
        radius = config["truth_radius_m"]
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
    payload = {
        "method": result.fit.method,
        "clusters": [{name: getattr(c, name) for name in _CLUSTER_FIELDS} for c in result.clusters],
        "n_clusters": len(result.clusters),
        "n_flagged_pixels": result.n_flagged,
        "fit": _fit_payload(result.fit, _PFA),
    }
    outputs = [_write(out_dir, "mask.pgm", result.mask, image_io.write_mask_pgm),
               _write(out_dir, "mask.csv", result.mask, image_io.write_mask_csv),
               _write(out_dir, "clusters.json", _json_dumps(payload))]
    if truth is not None:
        score = {
            "hits": result.hits,
            "false_alarms": result.false_alarms,
            "missed": result.missed,
            "n_truth": len(truth),
            "radius_m": radius,
        }
        outputs.append(_write(out_dir, "score.json", _json_dumps(score)))
    return outputs


def _cmd_synth_scene(config, out_dir: Path, inputs: dict) -> list:
    config.pop("format", None)  # its artifact formats are pinned
    scene = scenes.make_scene(**{name: config[name] for name in _SCENE})
    layout = {
        "seed": scene.seed,
        "training_region": list(scene.training_region),
        "params": scene.params,
    }
    return [
        _write(out_dir, "interest.rrm", scene.interest, image_io.write_image_rrm),
        _write(out_dir, "covariate.rrm", scene.covariate, image_io.write_image_rrm),
        _write(out_dir, "truth.json", _json_dumps({"targets": scene.truth_list, "radius_m": 10.0})),
        _write(out_dir, "scene.json", _json_dumps(layout)),
    ]


def _execute(command, config, out_dir: Path) -> int:
    # Each config value, from argv or a manifest, against its option: a store
    # action's is a bool, a _CommaList's a list, and a None default may stay
    # None.  out_dir is no config key; detect and synth-scene drop format.
    for flag, kwargs in _COMMON + _COMMANDS[command][2]:
        key = kwargs.get("dest", flag[2:].replace("-", "_"))
        kind = bool if "action" in kwargs else kwargs.get("type", str)
        if key in config:
            _check_value(key, config[key], getattr(kind, "kind", kind),
                         "list" if isinstance(kind, _CommaList) else None,
                         kwargs.get("default") is None and not kwargs.get("required"))
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = {}  # every input file the handler read -> sha256 of the bytes it read
    outputs = _COMMANDS[command][0](config, out_dir, inputs)
    manifest = {
        "command": command,
        "config": config,
        "master_seed": config["seed"],
        "library_version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write(out_dir, "manifest.json", _json_dumps(manifest))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """A usage error ends, like any malformed input, in one ``error:`` line
    and exit status 1; sub-command parsers inherit this class."""

    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message} (see {self.prog} --help)\n")


class _CommaList:
    """An argparse type: 'a,b,c' -> [kind('a'), kind('b'), kind('c')]."""

    def __init__(self, kind):
        self.kind = kind
        self.__name__ = f"comma-separated {kind.__name__}"  # argparse names it in errors

    def __call__(self, text):
        return [self.kind(tok.strip()) for tok in text.split(",")]


def _option(key, **kwargs) -> tuple:
    """``--key`` with ``-`` for ``_``; a key in metres keeps its ``_m`` out of the flag."""
    flag = key.removesuffix("_m")
    if flag != key:
        kwargs.update(dest=key, metavar=flag.upper())
    return f"--{flag.replace('_', '-')}", kwargs


# Option groups of (flag, add_argument keywords) pairs; each dest is a manifest config key.
_COMMON = (
    ("--seed", dict(type=int, default=_SCENARIO["master_seed"],
                    help="master seed recorded in the manifest")),
    ("--threads", dict(type=int, default=1, help="worker process cap for replications")),
    ("--out-dir", dict(default=".", help="directory for artifacts and the manifest")),
    ("--format", dict(choices=tuple(_FIT_REPORTS), default="json",
                      help="fit-report format; commands with pinned artifact formats ignore it")),
)
_TABULAR = (
    ("--data", dict(required=True, help="headered CSV data file")),
    ("--response", dict(required=True, help="response column name")),
    ("--covariates", dict(type=_CommaList(str), help="comma-separated covariate columns")),
    ("--no-intercept", dict(dest="intercept", action="store_false")),
    ("--dummy", dict(help="label column for treatment coding")),
    ("--reference", dict(help="reference level for --dummy")),
    ("--link", dict(choices=("log", "identity"), default=_SCENARIO["link"])),
    ("--method", dict(choices=("mle", "wmle", "both"), default="wmle")),
    ("--delta", dict(type=float, help=f"tail weight parameter (default {_ROBUST['delta']})")),
    ("--reweight-iterations", dict(type=int, default=_ROBUST["reweight_iterations"])),
    ("--pfa", dict(type=float, default=_PFA, help="false-alarm probability for tests")),
)
_WALD = (
    ("--interest", dict(type=_CommaList(str), required=True,
                        help="comma-separated coefficient names or indices")),
    ("--null", dict(type=_CommaList(float), help="comma-separated null values (default zeros)")),
)
_SIMULATION = (
    ("--config", dict(dest="config_file", metavar="CONFIG", required=True,
                      help="scenario config JSON file")),
)
_SWEEP_HELP = "list or start:stop[:step] range"
_DETECT = (
    ("--interest", dict(required=True, help="interest image (.csv or RRM1 binary)")),
    ("--covariates", dict(type=_CommaList(str), required=True,
                          help="comma-separated covariate image paths")),
    ("--training", dict(type=_CommaList(int), required=True,
                        help="training window r0,c0,r1,c1 (half-open)")),
    ("--method", dict(choices=("mle", "wmle"), default="wmle")),
    ("--link", dict(choices=("log", "identity"), default=_SCENARIO["link"])),
    ("--delta", dict(type=float, default=_ROBUST["delta"])),
    ("--reweight-iterations", dict(type=int, default=_ROBUST["reweight_iterations"])),
    *(_option(key, type=type(_DETECTOR[name]), default=_DETECTOR[name])
      for key, name in _DETECTOR_KEYS.items()),
    ("--upper-tail-only", dict(action="store_true",
                               help="flag only residuals above +L (default is two-sided)")),
    ("--truth", dict(help="ground-truth JSON for scoring")),
    _option("truth_radius_m", type=float, help="match radius in meters"),
)

# command -> (handler, --help text, its options after the common ones); rerun
# replays any of them from a manifest.
_COMMANDS = {
    "fit": (_cmd_fit, "fit the regression on tabular data", _TABULAR),
    "wald": (_cmd_wald, "fit and run one Wald test", _TABULAR + _WALD),
    "residuals": (_cmd_residuals, "fit and emit quantile residuals", _TABULAR),
    "simulate": (_cmd_simulate, "Monte Carlo simulate study from a JSON config", _SIMULATION),
    "breakdown": (functools.partial(_cmd_curve, "breakdown", "counts", int),
                  "Monte Carlo breakdown study from a JSON config",
                  _SIMULATION + (("--counts", dict(default="1:100", help=_SWEEP_HELP)),)),
    "sensitivity": (functools.partial(_cmd_curve, "sensitivity", "values", float),
                    "Monte Carlo sensitivity study from a JSON config",
                    _SIMULATION + (("--values", dict(default="1:20", help=_SWEEP_HELP)),)),
    "detect": (_cmd_detect, "residual control-chart detection on an image", _DETECT),
    "synth-scene": (_cmd_synth_scene, "generate the seeded synthetic scene",
                    tuple(_option(name, type=type(default), default=default)
                          for name, default in _SCENE.items() if name != "seed")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built from ``_COMMANDS`` once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="rayreg",
        description="Robust Rayleigh regression: fitting, testing, simulation, detection.",
    )
    parser.add_argument("--version", action="version", version=f"rayreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, kwargs in _COMMON + options:
            p.add_argument(flag, **kwargs)
    p = sub.add_parser("rerun", help="replay a previous run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            manifest_path = Path(args.manifest)
            if not manifest_path.exists():
                raise CliError(f"manifest not found: {manifest_path}")
            manifest = _parse_json(manifest_path.read_bytes(), manifest_path)
            if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
                raise CliError(f"{manifest_path}: manifest has no 'config' object")
            command = manifest.get("command")
            if not isinstance(command, str) or command not in _COMMANDS:
                raise CliError(f"manifest names unknown command {command!r}")
            try:
                return _execute(command, manifest["config"], Path(args.out_dir))
            except KeyError as exc:
                raise CliError(f"{manifest_path}: manifest config has no key {exc}") from None
        config = vars(args)
        command, out_dir = config.pop("command"), Path(config.pop("out_dir"))
        return _execute(command, config, out_dir)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
