"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs `run.py` once per workload and seed, one run at a time, with the
`run_seconds` of BENCHMARK.json, and prints per workload and metric the
median, the quartiles and the quartile spread as a share of the median
(`statistics.quantiles(values, n=4)`).  `--out` also writes every run's
values as json, with the Python version and processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            wall_s = time.perf_counter() - start
            runs.append({"seed": seed, "wall_s": wall_s, **result,
                         "report": proc.stdout.splitlines()[:-1]})
            print(f"{name} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} failed, {wall_s:.1f} s",
                  flush=True)
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else values * 3)
            spread = (q3 - q1) / median if median else 0.0
            metrics[metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": median,
                               "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(metric)
            flag = "" if bound is None or args.trace else (
                "  ok" if spread < bound / 3 else "  SPREAD ABOVE BOUND/3")
            print(f"  {metric:36} median {median:14.6f} {metrics[metric]['unit']:9}"
                  f" spread {spread:7.4f}"
                  f"{'' if bound is None or args.trace else f' bound {bound}'}{flag}")
        summary["workloads"][name] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
