"""The three workloads: inputs, one operation through the CLI, and its checks.

Every operation goes through ``rayreg.cli.main`` in this process.  An
operation's outputs are checked after it returns, outside its timed
region, against computations made apart from the estimators: the numpy
oracles in ``tests/robust_oracle.py``, the scene's ground truth, and a
scipy recomputation of the clusters from the written mask.
"""

from __future__ import annotations

import json
import math
import shutil
import warnings
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from rayreg import cli, simulation
from robust_oracle import band_edge, contaminated_root, gross_error_bound, total_rb_percent

# The acceptance scenarios of criteria 2 and 3.
BETA_TRUE = (0.5, 0.15)
N_OBS = 500
DELTA = 0.001
OUTLIER_VALUE = 10.0
SENSITIVITY_REPS = 50  # the CLI warns below 50 replications
SENSITIVITY_VALUES = tuple(float(v) for v in range(1, 21))
BREAKDOWN_REPS = 100  # ~10 operations a run pool ~1000, as in the acceptance test
BREAKDOWN_COUNTS = (5, 10, 15, 20, 30, 40)
WARMUP_REPS = 2

SCENE_SIZE = 2000
MERGE_M = 10.0  # the detector's default merge distance at 1 m per pixel
TRUTH_RADIUS_M = 10.0
# Pooled breakdown check: the noise allowance is this many standard errors of
# a mean over NOISE_OPS operations, the fewest a run holds (run.py's
# MIN_OPS), so it does not tighten when a faster program runs more of them.
NOISE_Z = 4.0
NOISE_OPS = 3


def op_seed(seed: int, index: int) -> int:
    """CLI ``--seed`` of operation ``index``; index 0 is the warm-up."""
    return 1000 * seed + index


def _cli(argv) -> int:
    # Looked up on the module at call time, so a traced run sees its wrapper.
    return cli.main([str(a) for a in argv])


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    name = ""
    fits_per_op = 0

    def __init__(self, out_dir: Path, seed: int):
        self.out = out_dir
        self.seed = seed
        self.results = {}  # op index -> what check_op extracted
        self.layer_counts = {}  # op index -> counts for the traced report

    def setup(self):
        """Write the inputs and run one untimed warm-up operation."""
        raise NotImplementedError

    def prepare_op(self, index: int):
        """Empty the output directories of operation ``index`` (untimed)."""
        raise NotImplementedError

    def run_op(self, index: int) -> list:
        """Run operation ``index``; return the CLI exit codes."""
        raise NotImplementedError

    def check_op(self, index: int, codes: list) -> list:
        """Problems found in operation ``index``'s outputs (empty when correct)."""
        raise NotImplementedError

    def check_run(self, ops: list) -> list:
        """Problems in the statistics pooled over the operations ``ops``."""
        return []


def _scenario_design(seed: int) -> np.ndarray:
    cfg = simulation.ScenarioConfig(beta_true=BETA_TRUE, n_obs=N_OBS, master_seed=seed)
    return simulation.scenario_design(cfg).X


def total_rb_sd(X: np.ndarray, count: int, reps: int) -> float:
    """Standard deviation of one operation's MLE total |RB%| at ``count``.

    Sandwich covariance of the plain MLE about ``contaminated_root``, with
    exactly ``count`` outliers placed at random rows, as the breakdown loop
    places them: the clean rows' score variance plus the variance of
    which rows carry the outliers (sampling without replacement).  It is
    linearized through the signs of the oracle's biases and divided by the
    replications averaged.  numpy only, apart from the estimators.
    """
    n = X.shape[0]
    p = count / n
    beta = np.asarray(BETA_TRUE)
    root = contaminated_root(X, beta, p, OUTLIER_VALUE)
    clean_y2 = 4.0 * np.exp(2.0 * (X @ beta)) / math.pi  # mean and sd of a clean y^2
    s = 0.5 * math.pi * np.exp(-2.0 * (X @ root))  # row score: x (s y^2 - 2)
    hessian = X.T @ (2.0 * (s * ((1.0 - p) * clean_y2 + p * OUTLIER_VALUE**2))[:, None] * X)
    shift = X * (s * (OUTLIER_VALUE**2 - clean_y2))[:, None]
    shift -= shift.mean(axis=0)
    score_cov = ((1.0 - p) * (X.T @ (((s * clean_y2) ** 2)[:, None] * X))
                 + count * (n - count) / (n * (n - 1)) * shift.T @ shift)
    inv = np.linalg.inv(hessian)
    grad = 100.0 * np.sign(root - beta) / np.abs(beta)
    return float(np.sqrt(grad @ inv @ score_cov @ inv @ grad / reps))


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class _MonteCarlo(Workload):
    command = ""
    reps = 0
    sweep_flag = ""
    sweep = ()
    artifact = ""

    def setup(self):
        _fresh_dir(self.out)
        scenario = {"beta_true": list(BETA_TRUE), "N": N_OBS, "delta": DELTA, "link": "log",
                    "outlier_value": OUTLIER_VALUE}
        for file, reps in (("config.json", self.reps), ("warmup.json", WARMUP_REPS)):
            (self.out / file).write_text(json.dumps(dict(scenario, replications=reps)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the small-sample warning of the warm-up
            code = self._invoke("warmup.json", op_seed(self.seed, 0), _fresh_dir(self.out / "warmup"))
        if code != 0:
            raise RuntimeError(f"warm-up {self.command} exited {code}")

    def _invoke(self, config: str, seed: int, out: Path) -> int:
        sweep = ",".join(f"{v:g}" for v in self.sweep)
        return _cli([self.command, "--config", self.out / config, f"--{self.sweep_flag}", sweep,
                     "--seed", seed, "--threads", 1, "--out-dir", out])

    def _op_dir(self) -> Path:
        return self.out / "op"

    def prepare_op(self, index: int):
        _fresh_dir(self._op_dir())

    def run_op(self, index: int) -> list:
        return [self._invoke("config.json", op_seed(self.seed, index), self._op_dir())]

    def _load(self, codes: list) -> tuple:
        if codes != [0]:
            return None, [f"{self.command} exited {codes[0]}"]
        path = self._op_dir() / self.artifact
        if not path.is_file():
            return None, [f"{self.artifact} missing"]
        doc = _read_json(path)
        problems = []
        if doc["convergence_failures"] != 0:
            problems.append(f"{doc['convergence_failures']} convergence failures")
        return doc, problems


class Sensitivity(_MonteCarlo):
    name = "mc_sensitivity"
    command = "sensitivity"
    reps = SENSITIVITY_REPS
    sweep_flag = "values"
    sweep = SENSITIVITY_VALUES
    artifact = "sensitivity.json"
    # Per replication: the N-1 baseline plus one fit per value, each MLE and WMLE.
    fits_per_op = SENSITIVITY_REPS * (len(SENSITIVITY_VALUES) + 1) * 2

    def check_op(self, index, codes):
        doc, problems = self._load(codes)
        if doc is None or problems:
            return problems
        if [float(v) for v in doc["values"]] != list(self.sweep):
            return ["sensitivity values differ from the sweep"]
        X = _scenario_design(op_seed(self.seed, index))
        mu_max = float(np.max(np.exp(X @ np.asarray(BETA_TRUE))))
        self.results[index] = {
            "mle": np.asarray(doc["mle_masc"], dtype=float),
            "wmle": np.asarray(doc["wmle_masc"], dtype=float),
            "bound": gross_error_bound(X, DELTA),
            "far": 2.0 * float(band_edge(mu_max, DELTA)),
        }
        return []

    def check_run(self, ops):
        rs = [self.results[i] for i in ops]
        mle = np.mean([r["mle"] for r in rs], axis=0)
        wmle = np.mean([r["wmle"] for r in rs], axis=0)
        bound = float(np.mean([r["bound"] for r in rs]))
        far = max(r["far"] for r in rs)
        beyond = np.asarray(self.sweep) > far
        problems = []
        if np.max(wmle) > bound:
            problems.append(f"max MASC(WMLE) {np.max(wmle):.3f} exceeds G_delta {bound:.3f}")
        if not beyond.any() or np.any(mle[beyond] < 20.0 * wmle[beyond]):
            problems.append(f"MASC(MLE) < 20 MASC(WMLE) at a value beyond {far:.2f}")
        return problems


class Breakdown(_MonteCarlo):
    name = "mc_breakdown"
    command = "breakdown"
    reps = BREAKDOWN_REPS
    sweep_flag = "counts"
    sweep = BREAKDOWN_COUNTS
    artifact = "breakdown.json"
    fits_per_op = BREAKDOWN_REPS * len(BREAKDOWN_COUNTS) * 2

    def check_op(self, index, codes):
        doc, problems = self._load(codes)
        if doc is None or problems:
            return problems
        if list(doc["counts"]) != list(self.sweep):
            return ["breakdown counts differ from the sweep"]
        X = _scenario_design(op_seed(self.seed, index))
        beta = np.asarray(BETA_TRUE)
        oracle = [total_rb_percent(contaminated_root(X, beta, c / N_OBS, OUTLIER_VALUE), beta)
                  for c in self.sweep]
        self.results[index] = {
            "mle": np.asarray(doc["mle_total_rb"], dtype=float),
            "wmle": np.asarray(doc["wmle_total_rb"], dtype=float),
            "oracle": np.asarray(oracle),
            "sd": np.array([total_rb_sd(X, c, self.reps) for c in self.sweep]),
        }
        return []

    def check_run(self, ops):
        # Each operation draws its own design, so the oracle is averaged the
        # same way as the Monte Carlo values.  10 % covers the oracle's
        # large-sample bias (measured: MC below it by 6 % at count 5, under
        # 4 % elsewhere); the rest covers the Monte Carlo noise of 100
        # replications an operation, sd 11-15 points, which total_rb_sd
        # predicts within 10 %.
        rs = [self.results[i] for i in ops]
        mle = np.mean([r["mle"] for r in rs], axis=0)
        oracle = np.mean([r["oracle"] for r in rs], axis=0)
        wmle = np.mean([r["wmle"] for r in rs], axis=0)
        noise = NOISE_Z * np.sqrt(np.mean([r["sd"] ** 2 for r in rs], axis=0) / NOISE_OPS)
        problems = []
        for c, m, o, z in zip(self.sweep, mle, oracle, noise):
            g = abs(m - o)
            if g > 0.10 * o + z:
                problems.append(f"count {c}: MLE total |RB%| off the oracle {o:.1f} by {g:.1f}")
        for c, w in zip(self.sweep, wmle):
            if not w < 100.0:
                problems.append(f"count {c}: WMLE total |RB%| {w:.1f} >= 100")
        return problems


def _read_pgm(path: Path) -> np.ndarray:
    magic, dims, maxval, pixels = path.read_bytes().split(b"\n", 3)
    cols, rows = (int(t) for t in dims.split())
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 image")
    return np.frombuffer(pixels, dtype=np.uint8, count=rows * cols).reshape(rows, cols) > 0


def _nearest(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of ``others`` (inf if none)."""
    if len(others) == 0:
        return np.full(len(points), np.inf)
    d = np.hypot(points[:, None, 0] - others[None, :, 0], points[:, None, 1] - others[None, :, 1])
    return d.min(axis=1)


def recluster(mask: np.ndarray, merge_m: float) -> tuple:
    """Component count and sorted cluster sizes: 8-connected labels merged
    by single linkage of component centroids within ``merge_m`` pixels."""
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if n == 0:
        return 0, []
    idx = np.arange(1, n + 1)
    sizes = ndimage.sum_labels(mask, labels, idx)
    centroids = np.asarray(ndimage.center_of_mass(mask, labels, idx))
    pairs = cKDTree(centroids).query_pairs(r=merge_m, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, group = connected_components(graph, directed=False)
    return n, sorted(int(round(s)) for s in np.bincount(group, weights=sizes))


class DetectScene(Workload):
    name = "detect_scene"
    fits_per_op = 4  # two CLI calls, each fitting both MLE and WMLE
    methods = ("wmle", "mle")
    artifacts = ("mask.pgm", "mask.csv", "clusters.json", "score.json", "manifest.json")

    def setup(self):
        _fresh_dir(self.out)
        self.scene = self.out / "scene"
        code = _cli(["synth-scene", "--rows", SCENE_SIZE, "--cols", SCENE_SIZE, "--seed", self.seed,
                     "--out-dir", self.scene])
        if code != 0:
            raise RuntimeError(f"synth-scene exited {code}")
        scene_doc = _read_json(self.scene / "scene.json")
        self.training = scene_doc["training_region"]
        self.truth = np.asarray(_read_json(self.scene / "truth.json")["targets"], dtype=float)
        # A full-size warm-up: the first call at this size in a process is
        # slower than the ones after it, and a small scene does not absorb that.
        for method in self.methods:
            code = self._detect(self.scene, self.training, method,
                                _fresh_dir(self.out / "warmup" / method))
            if code != 0:
                raise RuntimeError(f"warm-up detect --method {method} exited {code}")

    def _detect(self, scene: Path, training, method: str, out: Path) -> int:
        return _cli(["detect", "--interest", scene / "interest.rrm",
                     "--covariates", scene / "covariate.rrm",
                     "--training", ",".join(str(v) for v in training),
                     "--method", method, "--truth", scene / "truth.json", "--out-dir", out])

    def prepare_op(self, index: int):
        for method in self.methods:
            _fresh_dir(self.out / "op" / method)

    def run_op(self, index: int) -> list:
        return [self._detect(self.scene, self.training, m, self.out / "op" / m) for m in self.methods]

    def check_op(self, index, codes):
        problems = []
        counts = {"components": 0, "clusters": 0, "flagged_px": 0}
        false_alarms = {}
        for method, code in zip(self.methods, codes):
            out = self.out / "op" / method
            if code != 0:
                problems.append(f"detect --method {method} exited {code}")
                continue
            missing = [a for a in self.artifacts if not (out / a).is_file()]
            if missing:
                problems.append(f"{method}: missing {', '.join(missing)}")
                continue
            mask = _read_pgm(out / "mask.pgm")
            doc = _read_json(out / "clusters.json")
            sizes = sorted(c["n_pixels"] for c in doc["clusters"])
            n_components, expected = recluster(mask, MERGE_M)
            if sizes != expected:
                problems.append(f"{method}: clusters differ from the recomputation from mask.pgm")
            if sum(sizes) != int(mask.sum()):
                problems.append(f"{method}: cluster pixels do not add up to the mask")
            if (out / "mask.csv").stat().st_size != 2 * mask.size:
                problems.append(f"{method}: mask.csv has the wrong size")
            centroids = np.array([[c["centroid_row"], c["centroid_col"]] for c in doc["clusters"]])
            centroids = centroids.reshape(-1, 2)
            false_alarms[method] = int(np.sum(_nearest(centroids, self.truth) > TRUTH_RADIUS_M))
            if method == "wmle":
                found = int(np.sum(_nearest(self.truth, centroids) <= TRUTH_RADIUS_M))
                if found != len(self.truth):
                    problems.append(f"robust detector found {found} of {len(self.truth)} targets")
            counts["components"] += n_components
            counts["clusters"] += doc["n_clusters"]
            counts["flagged_px"] += doc["n_flagged_pixels"]
        if not problems and not false_alarms["mle"] > false_alarms["wmle"]:
            problems.append(f"plain detector false alarms {false_alarms['mle']} "
                            f"not above robust {false_alarms['wmle']}")
        self.layer_counts[index] = counts
        return problems


WORKLOADS = {w.name: w for w in (Sensitivity, Breakdown, DetectScene)}
