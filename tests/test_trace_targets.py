"""What the benchmark's tracer (``perfbench/spans.py``) relies on.

Every traced function exists: a traced run that cannot find a target
still exits 0 but misses that target's per-layer metrics, so a rename
fails here instead.  The Monte Carlo curves make one traced ``fit_both``
call per fit and two solver calls per ``fit_both``, the count that
``perfbench/run.py`` checks against each workload's design; the weights
and the Fisher information of every fit pass through their traced
functions, so their per-layer times cannot silently read zero.  A
detection through the CLI makes one ``fit_both`` call, and reads each input
image in one ``read_image`` call whose first argument is the path, which
the tracer sizes for ``read_mb``.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import rayreg.cli
import rayreg.estimation
import rayreg.optim
from rayreg.simulation import ScenarioConfig, breakdown_curve, sensitivity_curve

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name, attr_path, span_name", _spans().TARGETS, ids=lambda v: str(v)
)
def test_target_resolves(module_name, attr_path, span_name):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr_path} ({span_name}) is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_estimation_calls_the_traced_solver():
    # The tracer replaces the solver in every module that holds it, so
    # estimation must call it through this very object.
    assert rayreg.estimation.maximize_bfgs is rayreg.optim.maximize_bfgs


_REPS = 3
_SENSITIVITY_VALUES = (1.0, 5.0, 20.0)
_BREAKDOWN_COUNTS = (0, 3, 10)


@pytest.mark.parametrize(
    "run, expected_fit_both",
    [
        (lambda cfg: sensitivity_curve(cfg, _SENSITIVITY_VALUES),
         (len(_SENSITIVITY_VALUES) + 1) * _REPS),
        (lambda cfg: breakdown_curve(cfg, _BREAKDOWN_COUNTS), len(_BREAKDOWN_COUNTS) * _REPS),
    ],
    ids=["sensitivity", "breakdown"],
)
def test_traced_fit_counts_match_the_design(run, expected_fit_both):
    # One reweighting round: one set of weights and two maximizations per
    # fit_both, each maximization ending in one Fisher information.
    cfg = ScenarioConfig(
        beta_true=(0.5, 0.15), n_obs=60, replications=_REPS, master_seed=5, reweight_iterations=1
    )
    tracer = _spans().Tracer()
    tracer.install()
    try:
        run(cfg)
    finally:
        tracer.uninstall()
    calls = Counter(name for name, *_ in tracer.spans)
    assert calls["estimation.fit_both"] == expected_fit_both
    assert calls["optim.maximize_bfgs"] == 2 * expected_fit_both
    assert calls["inference.fisher_information"] == 2 * expected_fit_both
    assert calls["estimation.compute_weights"] == expected_fit_both


def test_traced_detect_fits_once_and_reads_each_image_once(tmp_path):
    scene = tmp_path / "scene"
    assert rayreg.cli.main(["synth-scene", "--rows", "100", "--cols", "100", "--blob-grid", "2",
                            "--training-rows", "25", "--seed", "11", "--out-dir", str(scene)]) == 0
    images = [scene / "interest.rrm", scene / "covariate.rrm"]
    argv = ["detect", "--interest", str(images[0]), "--covariates", str(images[1]),
            "--training", "75,0,100,100", "--truth", str(scene / "truth.json")]
    tracer = _spans().Tracer()
    tracer.install()
    try:
        for method in ("wmle", "mle"):  # as the detect_scene workload runs them
            out = ["--method", method, "--out-dir", str(tmp_path / method)]
            assert rayreg.cli.main(argv + out) == 0
    finally:
        tracer.uninstall()
    assert not tracer.absent
    names = [name for name, *_ in tracer.spans]
    calls = Counter(names)
    assert calls["cli.main"] == calls["detection.detect"] == calls["estimation.fit_both"] == 2
    for name, _, _, parent, _ in tracer.spans:
        if name == "estimation.fit_both":
            assert names[parent] == "detection.detect"
    assert calls["image_io.read_image"] == 2 * len(images)
    read_mb = [value for name, value, _ in tracer.counts if name == "read_mb"]
    assert read_mb == [p.stat().st_size / 1e6 for p in images] * 2
