"""sha256 digests of the CLI's artifacts over one pinned command set.

    python tools/artifact_digests.py run DIR [--src SRC]
    python tools/artifact_digests.py compare A B

``run`` writes the pinned inputs into DIR, then runs each command of the set
through ``rayreg.cli.main`` with DIR as the working directory, so that the
manifests record only relative paths.  It writes ``DIR/digests.json``, which
maps ``<run>/<file>`` to the sha256 of each file that run wrote.  A manifest
is hashed over its JSON without ``created_utc``, so only its timestamp is left
out.  ``--src`` picks the ``src`` directory that rayreg is imported from: this
checkout's by default, or another commit's checkout when comparing two commits.

``compare`` names every file whose digest differs between two run
directories, or that only one of them holds.  For a JSON or CSV file that both
hold and parse, it adds the largest relative move over the numeric fields the
two share, and where it is: a move of about 1e-16 is rounding, and a larger
one a real change.  It exits 1 if any file differs, and 0 if every artifact and
manifest is identical.

The set: ``fit`` in json, text and csv, for both links, once with a covariate
and once with a three-level dummy; ``wald``; ``residuals``; ``simulate
--threads 2``; ``breakdown``; ``sensitivity``; ``synth-scene``; ``detect
--truth`` with the robust and the plain fit; ``detect --upper-tail-only``;
``detect --truth`` at a pixel size of 0.5 m and a 12-pixel merge distance,
and against a truth file without ``radius_m``, so that ``score.json`` records
a null radius; a ``synth-scene`` of several row blocks with ``detect
--truth`` by both fits; and ``rerun`` of a fit, a sensitivity and a detect run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

_DIGESTS = "digests.json"
_DATA = "data.csv"
_TABLE_CONFIG = "table.json"
_CURVE_CONFIG = "curve.json"
_TRUTH_NO_RADIUS = "truth_no_radius.json"
_SCENE = ["--interest", "scene/interest.rrm", "--covariates", "scene/covariate.rrm",
          "--training", "75,0,100,100"]
# 94 rows make a block of pixels at this width (rayreg.detection._BLOCK), so
# the scene is drawn and its masks summed in five row blocks, and the target
# at row 95 straddles the first edge.
_BLOCKS_SCENE = ["--interest", "scene_blocks/interest.rrm", "--covariates",
                 "scene_blocks/covariate.rrm", "--training", "350,0,400,690"]


def _commands() -> list:
    """(run directory, CLI arguments) pairs, in the order they run."""
    fits = []
    for link in ("log", "identity"):
        for design, args in (("covariate", ["--covariates", "x"]),
                             ("dummy", ["--dummy", "region", "--reference", "A"])):
            for fmt in ("json", "text", "csv"):
                fits.append((f"fit_{link}_{design}_{fmt}",
                             ["fit", "--data", _DATA, "--response", "amplitude", *args,
                              "--link", link, "--format", fmt, "--method", "both"]))
    tabular = ["--data", _DATA, "--response", "amplitude", "--covariates", "x"]
    return fits + [
        ("wald", ["wald", *tabular, "--interest", "x"]),
        ("residuals", ["residuals", *tabular]),
        ("simulate", ["simulate", "--config", _TABLE_CONFIG, "--threads", "2"]),
        ("breakdown", ["breakdown", "--config", _CURVE_CONFIG, "--counts", "0:6:2"]),
        ("sensitivity", ["sensitivity", "--config", _CURVE_CONFIG, "--values", "1:5"]),
        ("scene", ["synth-scene", "--rows", "100", "--cols", "100", "--blob-grid", "2",
                   "--training-rows", "25", "--seed", "3"]),
        ("detect_wmle", ["detect", *_SCENE, "--truth", "scene/truth.json"]),
        ("detect_mle", ["detect", *_SCENE, "--truth", "scene/truth.json", "--method", "mle"]),
        ("detect_upper", ["detect", *_SCENE, "--upper-tail-only"]),
        ("detect_pixel_size", ["detect", *_SCENE, "--pixel-size", "0.5", "--merge-distance", "12",
                               "--truth", "scene/truth.json"]),
        ("detect_truth_no_radius", ["detect", *_SCENE, "--truth", _TRUTH_NO_RADIUS]),
        ("scene_blocks", ["synth-scene", "--rows", "400", "--cols", "690", "--seed", "4"]),
        ("detect_blocks_wmle", ["detect", *_BLOCKS_SCENE, "--truth", "scene_blocks/truth.json"]),
        ("detect_blocks_mle", ["detect", *_BLOCKS_SCENE, "--truth", "scene_blocks/truth.json",
                               "--method", "mle"]),
        ("rerun_fit", ["rerun", "--manifest", "fit_log_covariate_json/manifest.json"]),
        ("rerun_sensitivity", ["rerun", "--manifest", "sensitivity/manifest.json"]),
        ("rerun_detect", ["rerun", "--manifest", "detect_wmle/manifest.json"]),
    ]


def _write_inputs(out: Path) -> None:
    """A tabular data file, two simulation configs and a truth file without
    a match radius, from numpy alone."""
    rng = np.random.default_rng(20)
    x = rng.random(90)
    mu = np.exp(0.5 + 0.3 * x)
    # Rayleigh draws of mean mu by inversion
    y = mu * np.sqrt(-4.0 / math.pi * np.log1p(-rng.random(90)))
    rows = [f"{float(a)!r},{float(b)!r},{'ABC'[i % 3]}" for i, (a, b) in enumerate(zip(y, x))]
    (out / _DATA).write_text("\n".join(["amplitude,x,region", *rows]) + "\n", encoding="utf-8")
    table = {"beta_true": [0.5, 0.15], "N": [40, 60], "epsilon": [0.0, 0.05],
             "replications": 50, "seed": 5}
    (out / _TABLE_CONFIG).write_text(json.dumps(table), encoding="utf-8")
    curve = dict(table, N=60, epsilon=0.0)
    (out / _CURVE_CONFIG).write_text(json.dumps(curve), encoding="utf-8")
    truth = {"targets": [[18.0, 24.0], [60.0, 88.0], [45.0, 50.0]]}
    (out / _TRUTH_NO_RADIUS).write_text(json.dumps(truth), encoding="utf-8")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("created_utc")
        data = json.dumps(doc, sort_keys=True).encode()
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digests(out: Path) -> dict:
    """``<run>/<file>`` -> digest, for every file the pinned runs wrote in ``out``."""
    return {f"{name}/{path.name}": _digest(path)
            for name, _ in _commands() if (out / name).is_dir()
            for path in sorted((out / name).iterdir())}


def run(out: Path) -> dict:
    """Run the pinned set in ``out`` and write its digests; rayreg is imported as found."""
    from rayreg import cli

    out = Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    _write_inputs(out)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argv in _commands():
            if cli.main([*argv, "--out-dir", name]) != 0:
                raise RuntimeError(f"{name}: rayreg {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
    found = digests(out)
    (out / _DIGESTS).write_text(json.dumps(found, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return found


def compare(a: Path, b: Path) -> list:
    """The files whose digests differ between run directories ``a`` and ``b``,
    or that only one holds, as ``<run>/<file>`` names."""
    da, db = (digests(Path(d)) for d in (a, b))
    return sorted(name for name in da.keys() | db.keys() if da.get(name) != db.get(name))


def _numeric_fields(path: Path):
    """Each finite number of a JSON or CSV file, keyed by where it is (a JSON
    path, or a CSV line and field); None if the file is neither or does not parse."""
    fields = {}

    def walk(obj, where):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{where}.{key}")
        elif isinstance(obj, list):
            for i, value in enumerate(obj):
                walk(value, f"{where}[{i}]")
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool) and math.isfinite(obj):
            fields[where] = float(obj)

    try:
        if path.suffix == ".json":
            walk(json.loads(path.read_text(encoding="utf-8")), "$")
        elif path.suffix == ".csv":
            for lineno, row in enumerate(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))), 1):
                for j, cell in enumerate(row, 1):
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if math.isfinite(value):
                        fields[f"line {lineno} field {j}"] = value
        else:
            return None
    except (OSError, ValueError):  # a missing, undecodable or malformed file
        return None
    return fields


def largest_move(a: Path, b: Path):
    """(relative move, where) of the numeric field that moved most between
    two versions of a JSON or CSV file, or None if either has no numbers to
    compare; a move is |x - y| / max(|x|, |y|)."""
    fa, fb = _numeric_fields(a), _numeric_fields(b)
    if fa is None or fb is None:
        return None
    moves = [(abs(fa[k] - fb[k]) / max(abs(fa[k]), abs(fb[k])), k)
             for k in sorted(fa.keys() & fb.keys()) if fa[k] != fb[k]]
    return max(moves, key=lambda m: m[0], default=(0.0, None))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="run the pinned command set and write DIR/digests.json")
    p.add_argument("dir", type=Path)
    p.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                   help="directory that rayreg is imported from")
    p = sub.add_parser("compare", help="name the files that differ between two run directories")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        sys.path.insert(0, str(args.src.resolve()))
        found = run(args.dir)
        print(f"{len(found)} files digested into {args.dir / _DIGESTS}")
        return 0
    differing = compare(args.a, args.b)
    for name in differing:
        move = largest_move(args.a / name, args.b / name)
        if move is None:
            print(f"differs: {name}")
        elif move[1] is None:
            print(f"differs: {name} (no numeric field moved)")
        else:
            print(f"differs: {name} (largest relative move {move[0]:.1e} at {move[1]})")
    if not differing:
        print(f"identical: all {len(digests(args.a))} files")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
