"""Spans around rayreg's public functions, installed from outside the package.

Each traced function is replaced, in every rayreg module that holds a
reference to it, by a wrapper that records a span: name, start, end,
parent span and operation id.  Start and end are process CPU times
(``time.process_time``), the clock of the end-to-end metrics, so layer
times and operation times add up on a busy host too.  Methods are replaced on their class.
Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall` puts every
original back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute path, span name).  Regression spans cover DesignMatrix
# and ModelSpec construction through their validating __post_init__.
TARGETS = (
    ("rayreg.cli", "main", "cli.main"),
    ("rayreg.simulation", "sensitivity_curve", "simulation.curve"),
    ("rayreg.simulation", "breakdown_curve", "simulation.curve"),
    ("rayreg.estimation", "fit_both", "estimation.fit_both"),
    ("rayreg.estimation", "compute_weights", "estimation.compute_weights"),
    ("rayreg.optim", "maximize_bfgs", "optim.maximize_bfgs"),
    ("rayreg.regression", "DesignMatrix.__post_init__", "regression.design"),
    ("rayreg.regression", "DesignMatrix.assert_full_rank", "regression.full_rank"),
    ("rayreg.regression", "ModelSpec.__post_init__", "regression.spec"),
    ("rayreg.regression", "predict_mean", "regression.predict_mean"),
    ("rayreg.inference", "fisher_information", "inference.fisher_information"),
    ("rayreg.inference", "quantile_residuals_from_mean", "inference.residuals"),
    ("rayreg.distribution", "quantile", "distribution.quantile"),
    ("rayreg.distribution", "cdf", "distribution.cdf"),
    ("rayreg.detection", "detect", "detection.detect"),
    ("rayreg.detection", "postprocess", "detection.postprocess"),
    ("rayreg.detection", "extract_clusters", "detection.extract_clusters"),
    ("rayreg.image_io", "read_image", "image_io.read_image"),
    ("rayreg.image_io", "write_mask_csv", "image_io.write_mask_csv"),
    ("rayreg.image_io", "write_mask_pgm", "image_io.write_mask_pgm"),
    ("rayreg.scenes", "make_scene", "scenes.make_scene"),
)


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _after_fit_both(tracer, args, kwargs, result):
    mle, wmle = result
    tracer.count("mle_iterations", mle.iterations)
    tracer.count("wmle_iterations", wmle.iterations)
    tracer.count("downweighted", wmle.n_downweighted)


def _after_read(tracer, args, kwargs, result):
    tracer.count("read_mb", _file_mb(args[0]))


def _after_write(tracer, args, kwargs, result):
    tracer.count("write_mb", _file_mb(args[1]))


_AFTER = {
    "estimation.fit_both": _after_fit_both,
    "image_io.read_image": _after_read,
    "image_io.write_mask_csv": _after_write,
    "image_io.write_mask_pgm": _after_write,
}


class Tracer:
    """Records spans as ``[name, start, end, parent index, op id]`` lists."""

    def __init__(self):
        self.spans = []
        self.counts = []  # [name, value, op id]
        self.op = None
        self.absent = set()  # targets the program no longer has
        self.absent_spans = set()  # span names none of whose targets exist
        self._stack = []
        self._undo = []

    def count(self, name, value):
        self.counts.append([name, value, self.op])

    def _wrap(self, fn, name):
        after = _AFTER.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op])
            stack.append(index)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every target wherever a rayreg module refers to it."""
        owners = {name: importlib.import_module(name) for name, _, _ in TARGETS}
        modules = [m for n, m in sys.modules.items() if n == "rayreg" or n.startswith("rayreg.")]
        present = set()
        for module_name, attr_path, span_name in TARGETS:
            owner = owners[module_name]
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(f"{module_name}.{attr_path}")
                continue
            present.add(span_name)
            traced = self._wrap(original, span_name)
            holders = [owner] if outer else [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, traced)
        self.absent_spans = {span for _, _, span in TARGETS} - present

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_totals(spans, ops):
    """Per-name total duration, self time and call count over spans of ``ops``.

    Self time is a span's duration minus that of its direct children; the
    program is single-threaded, so children never overlap one another.
    Regression spans nested in another regression span are not added again.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        if name.startswith("regression.") and _has_regression_ancestor(spans, parent):
            continue
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
    return totals


def _has_regression_ancestor(spans, parent):
    while parent is not None:
        if spans[parent][0].startswith("regression."):
            return True
        parent = spans[parent][3]
    return False
