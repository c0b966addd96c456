"""rayreg benchmark: Monte Carlo studies and scene screening through the CLI.

    python3 perfbench/run.py --workload mc_sensitivity --seed 0 --seconds 30 --trace 0

Runs one workload in this process against ``src/`` (no install): set-up
(imports, inputs, one warm-up operation), then whole operations until
``--seconds`` would be exceeded (at least ``MIN_OPS``), each checked after
it returns and outside its timing.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Times are CPU time (user + system) of this process, which
runs the program single-threaded: on a shared virtual machine, wall time
also counts minutes-long stretches in which the host runs other work.
They are further scaled to a reference speed by a calibration kernel timed
before each operation, because the CPU time of identical work drifts with
what else the host runs.  Reports, with wall and unscaled CPU times, and
spans go to ``perfbench/out/<workload>/``.
See README.md for the workloads, metrics and measured figures.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the fits are small, the machine is shared, and this is
# no larger than the core count of any machine.  Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_OPS = 3
MIN_OPS_TRACED = 4  # half of them traced
MAX_OPS = 999  # keeps operation seeds distinct (workloads.op_seed)
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes
# The speed the times are scaled to: the median CPU time of Calibration.run
# measured on a 2-core x86-64 virtual machine (Python 3.11, numpy 2.4.6,
# one OpenBLAS thread).
CALIB_REF_S = 0.19


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="set up in DIR, print the set-up time and exit")
    return p.parse_args(argv)


def _import_workloads():
    src, tests = ROOT / "src", ROOT / "tests"
    for needed in (src / "rayreg" / "cli.py", tests / "robust_oracle.py"):
        if not needed.is_file():
            sys.exit(f"error: {needed.relative_to(ROOT)} not found; run from a rayreg checkout")
    sys.path[:0] = [str(src), str(tests)]
    import workloads

    return workloads


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _child_setup_s(args, index: int) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    work = OUT / args.workload / f"setup{index}"
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(work)],
            capture_output=True, text=True, timeout=120, check=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Calibration:
    """A fixed kernel of the kinds of work the workloads do, timed in CPU time.

    An interpreted loop, small-array numpy calls like the iterations of
    one fit at N = 500, and in-place passes over a 2 MB array like the
    image passes of one detection; the array is small so that the kernel
    does not raise the process's peak resident set.  Nothing in it calls
    rayreg, so it runs at the machine's current speed whatever the program
    does.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        x = np.linspace(0.0, 1.0, 500)
        self.design = np.column_stack([np.ones_like(x), x])
        self.image = np.random.default_rng(0).random(1 << 18)
        self.buffer = np.empty_like(self.image)
        self.run()  # the first run pays for page faults and lazy imports

    def run(self) -> float:
        np = self.np
        start = time.process_time()
        total = 0
        for i in range(1_200_000):
            total += i % 7
        beta = np.array([0.5, 0.15])
        for _ in range(2000):
            mu = np.exp(self.design @ beta)
            grad = self.design.T @ (mu - 1.0)
            hess = self.design.T @ (mu[:, None] * self.design)
            beta = beta - 1e-6 * np.linalg.solve(hess, grad)
        for _ in range(64):
            np.sqrt(self.image, out=self.buffer)
            self.buffer *= 2.0
            self.buffer += self.image
            total += int(np.count_nonzero(self.buffer > 1.0))
        return time.process_time() - start


def _run_ops(args, workload, tracer):
    """Timed phase: returns {op index: {cpu_s, wall_s, calib_s, traced, problems}}.

    Before each operation, untimed, the calibration kernel runs once.
    """
    ops = {}
    min_ops = MIN_OPS_TRACED if tracer else MIN_OPS
    start = time.perf_counter()
    walls = []
    calibration = Calibration()
    for index in range(1, MAX_OPS + 1):
        if index > min_ops and time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
        wall0 = time.perf_counter()
        workload.prepare_op(index)
        calib_s = calibration.run()
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.op = index
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            codes = workload.run_op(index)
        except Exception:  # a crash counts as a failed operation
            codes = None
            crash = traceback.format_exc()
        cpu_s, wall_s = time.process_time() - c0, time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.op = None
        if codes is None:
            problems = [crash]
        else:
            try:
                problems = workload.check_op(index, codes)
            except Exception:
                problems = [traceback.format_exc()]
        for problem in problems:
            print(f"op {index} failed: {problem}", file=sys.stderr)
        ops[index] = {"cpu_s": cpu_s, "wall_s": wall_s, "calib_s": calib_s, "traced": traced,
                      "problems": problems}
        walls.append(time.perf_counter() - wall0)
    return ops


def _end_to_end(workload, ok, ops, setup_samples) -> dict:
    # Times at the reference speed: scaled by how much slower the
    # calibration kernel ran in this run than its reference time.
    speed = CALIB_REF_S / statistics.median(ops[i]["calib_s"] for i in ok)
    seconds = [ops[i]["cpu_s"] * speed for i in ok]
    return {
        "setup_s": (statistics.median(setup_samples) * speed, "s"),
        "op_p50_s": (statistics.median(seconds), "s"),
        "fits_per_s": (workload.fits_per_op * len(ok) / sum(seconds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, workload, traced_ops) -> tuple:
    """Per-operation layer figures over the traced operations.

    Returns (metrics, problems); a metric whose traced function no longer
    exists is left out and named in ``tracer.absent``.
    """
    from spans import layer_totals

    n = len(traced_ops)
    ops = set(traced_ops)
    totals = layer_totals(tracer.spans, ops)
    setup = layer_totals(tracer.spans, {"setup"})

    def per_op(span, key="s"):
        return totals.get(span, {}).get(key, 0.0) / n

    def mean_count(name):
        values = [v for nm, v, op in tracer.counts if nm == name and op in ops]
        return sum(values) / len(values) if values else 0.0

    def sum_count(name):
        return sum(v for nm, v, op in tracer.counts if nm == name and op in ops) / n

    def per_call(span, scale=1.0):
        entry = totals.get(span)
        return scale * entry["s"] / entry["calls"] if entry else 0.0

    def detection(key):
        return sum(workload.layer_counts.get(i, {}).get(key, 0) for i in ops) / n

    regression = [s for s in totals if s.startswith("regression.")]
    # name: (value, unit, spans it needs)
    table = {
        "cli.self_s": (per_op("cli.main", "self_s"), "s", ["cli.main"]),
        "simulation.self_s": (per_op("simulation.curve", "self_s"), "s", ["simulation.curve"]),
        "estimation.fit_both_s": (per_op("estimation.fit_both"), "s", ["estimation.fit_both"]),
        "estimation.fit_both_calls": (per_op("estimation.fit_both", "calls"), "count",
                                      ["estimation.fit_both"]),
        "estimation.fit_ms": (per_call("estimation.fit_both", 1000.0), "ms",
                              ["estimation.fit_both"]),
        "estimation.mle_iterations": (mean_count("mle_iterations"), "count", ["estimation.fit_both"]),
        "estimation.wmle_iterations": (mean_count("wmle_iterations"), "count",
                                       ["estimation.fit_both"]),
        "estimation.downweighted": (mean_count("downweighted"), "count", ["estimation.fit_both"]),
        "estimation.weights_s": (per_op("estimation.compute_weights"), "s",
                                 ["estimation.compute_weights"]),
        "optim.maximize_s": (per_op("optim.maximize_bfgs"), "s", ["optim.maximize_bfgs"]),
        "optim.maximize_calls": (per_op("optim.maximize_bfgs", "calls"), "count",
                                 ["optim.maximize_bfgs"]),
        "regression.s": (sum(per_op(s) for s in regression), "s",
                         ["regression.design", "regression.full_rank", "regression.spec",
                          "regression.predict_mean"]),
        "inference.fisher_s": (per_op("inference.fisher_information"), "s",
                               ["inference.fisher_information"]),
        "inference.residuals_s": (per_op("inference.residuals"), "s", ["inference.residuals"]),
        "distribution.quantile_s": (per_op("distribution.quantile"), "s", ["distribution.quantile"]),
        "distribution.cdf_s": (per_op("distribution.cdf"), "s", ["distribution.cdf"]),
        "detection.self_s": (per_op("detection.detect", "self_s"), "s", ["detection.detect"]),
        "detection.morphology_s": (per_op("detection.postprocess"), "s", ["detection.postprocess"]),
        "detection.clusters_s": (per_op("detection.extract_clusters"), "s",
                                 ["detection.extract_clusters"]),
        "detection.components": (detection("components"), "count", []),
        "detection.clusters": (detection("clusters"), "count", []),
        "detection.flagged_px": (detection("flagged_px"), "count", []),
        "image_io.read_s": (per_op("image_io.read_image"), "s", ["image_io.read_image"]),
        "image_io.read_mb": (sum_count("read_mb"), "MB", ["image_io.read_image"]),
        "image_io.mask_csv_s": (per_op("image_io.write_mask_csv"), "s", ["image_io.write_mask_csv"]),
        "image_io.mask_pgm_s": (per_op("image_io.write_mask_pgm"), "s", ["image_io.write_mask_pgm"]),
        "image_io.write_mb": (sum_count("write_mb"), "MB",
                              ["image_io.write_mask_csv", "image_io.write_mask_pgm"]),
        "scenes.make_scene_s": (setup.get("scenes.make_scene", {}).get("s", 0.0), "s",
                                ["scenes.make_scene"]),
    }
    metrics = {name: (value, unit) for name, (value, unit, needs) in table.items()
               if not needs or not set(needs) <= tracer.absent_spans}
    problems = []
    if "estimation.fit_both" not in tracer.absent_spans:
        fits = 2 * per_op("estimation.fit_both", "calls")
        if fits != workload.fits_per_op:
            problems.append(f"traced fit count {fits} differs from the design's {workload.fits_per_op}")
    return metrics, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        make(Path(args.setup_only), args.seed).setup()
        print(json.dumps({"setup_s": time.process_time()}))
        return 0

    out = OUT / args.workload
    workload = make(out / "work", args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.op = "setup"
        tracer.install()
    workload.setup()
    setup_s, setup_wall_s = time.process_time(), time.perf_counter() - _START
    if tracer:
        tracer.uninstall()
        tracer.op = None

    ops = _run_ops(args, workload, tracer)
    ok = [i for i, op in ops.items() if not op["problems"]]
    failed = len(ops) - len(ok)
    if not ok:
        print("error: every operation failed", file=sys.stderr)
        return 1
    problems = workload.check_run(ok) if len(ok) >= 2 else ["only one operation passed"]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "setup_wall_s": setup_wall_s, "ops": ops,
              "op_wall_p50_s": statistics.median(ops[i]["wall_s"] for i in ok),
              "op_cpu_p50_s": statistics.median(ops[i]["cpu_s"] for i in ok),
              "calib_p50_s": statistics.median(ops[i]["calib_s"] for i in ok)}
    if tracer:
        traced = [i for i in ok if ops[i]["traced"]]
        untraced = [i for i in ok if not ops[i]["traced"]]
        if not traced or not untraced:
            print("error: no traced or no untraced operation passed its checks", file=sys.stderr)
            return 1
        metrics, layer_problems = _per_layer(tracer, workload, traced)
        problems += layer_problems
        overhead = (statistics.median(ops[i]["cpu_s"] for i in traced)
                    - statistics.median(ops[i]["cpu_s"] for i in untraced))
        report.update(trace_overhead_s=overhead, absent=sorted(tracer.absent))
        print(f"tracing overhead: {overhead:+.4f} s per operation "
              f"({len(traced)} traced, {len(untraced)} untraced operations)")
        if tracer.absent:
            print(f"absent (no longer in the program): {', '.join(sorted(tracer.absent))}")
        tracer.write(out / "spans.jsonl")
    else:
        setup_samples = [setup_s] + [_child_setup_s(args, k) for k in range(1, SETUP_SAMPLES)]
        report["setup_samples_s"] = setup_samples
        metrics = _end_to_end(workload, ok, ops, setup_samples)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(f"(wall time per operation, median: {report['op_wall_p50_s']:.4f} s)")
    result = {"correct": not problems, "attempted": len(ops), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    report.update(result, problems=problems)
    (out / f"report_trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
