"""Every function the benchmark traces (``perfbench/spans.py``) exists.

A traced run that cannot find a target still exits 0 but misses that
target's per-layer metrics, so a rename fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rayreg.estimation
import rayreg.optim

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name, attr_path, span_name", _targets(), ids=lambda v: str(v)
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
