"""Every exported name has a use: a public name that only tests call is a
second path the program never runs."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rayreg"
MODULES = ["rayreg"] + sorted(f"rayreg.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _used_names(paths) -> set:
    """Names the files use: read as a variable or attribute, or imported by
    name.  A definition, a docstring or an ``__all__`` string is no use."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


# The package's own modules; __init__.py only re-exports.
_SRC = _used_names(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
_DEMOS = _used_names((ROOT / "demos").glob("*.py"))
_MODULE_MAP = (ROOT / "README.md").read_text(encoding="utf-8").split("## Module map")[1].split("\n## ")[0]


def _exports():
    for module in MODULES:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            yield module, name


def test_every_export_is_used_by_the_package_a_demo_or_the_module_map():
    # The module map names an export as code: `name`, or `name(...)`.
    unused = [f"{module}.{name}" for module, name in _exports()
              if name not in _SRC and name not in _DEMOS
              and not re.search(rf"`{re.escape(name)}\b", _MODULE_MAP)]
    assert not unused, f"used by no module of src/rayreg, no demo, and not in README's module map: {unused}"


def test_the_check_reads_every_module_and_export():
    assert {"rayreg", "rayreg.cli", "rayreg.estimation", "rayreg.image_io"} <= set(MODULES)
    assert ("rayreg", "fit_both") in set(_exports())
    assert {"fit_both", "postprocess", "write_mask_pgm", "run_table"} <= _SRC


@pytest.mark.parametrize("module, name", [
    ("estimation", "weighted_loglik"), ("estimation", "score"), ("estimation", "fit_wmle"),
    ("detection", "opening"), ("detection", "closing"), ("simulation", "simulate_signal"),
    ("image_io", "write_image_csv"), ("image_io", "read_mask_pgm"),
])
def test_test_only_functions_stay_out(module, name):
    # Their tests use the path the program runs, or a reference under tests/.
    assert not hasattr(importlib.import_module(f"rayreg.{module}"), name)
    assert not hasattr(importlib.import_module("rayreg"), name)
