"""Run one workload once per seed and summarise each metric across the runs.

    python3 perfbench/repeat.py --workload detect_scene --seeds 0-9 --seconds 30

Runs ``run.py`` in a fresh process per seed, one after another, and prints
for every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  The per-run results and the
summary are written to ``perfbench/out/repeat_<workload>.json``.  The runs
are untraced: they report the end-to-end metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def summarise(runs: list) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                         "q3": q3, "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="'a-b' inclusive range or 'a,b,c' list")
    p.add_argument("--seconds", default="30")
    args = p.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=time.perf_counter() - start)
        runs.append(result)
        shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={result['wall_s']:.1f}s  {shown}", flush=True)

    summary = summarise(runs)
    failed_share = [r["failed"] / r["attempted"] for r in runs]
    print(f"all correct: {all(r['correct'] for r in runs)}; failed shares: {sorted(set(failed_share))}")
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, s in summary.items():
        print(f"{name:28s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{100 * s['spread']:7.2f}%  {s['unit']}")
    out = HERE / "out" / f"repeat_{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"args": vars(args), "runs": runs, "summary": summary}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
