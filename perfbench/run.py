"""Benchmark of the `tropspan` CLI, run in-process on seeded input pools.

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 30 --trace 0

One operation is one `tropspan.cli.main(argv)` call with stdout and
stderr captured, timed from argv to the returned exit code.  A single
client runs operations back to back (closed loop) in this process for
`--seconds` seconds, cycling through the workload's pool in a seeded
order.  Every distinct (input, exit code, output) the loop sees is
checked against the exact reference in `reference.py` after the loop.

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes over the pool and
reports per-layer metrics (see README.md).  The last line of stdout is
one json object: {"correct", "attempted", "failed", "metrics"}.

The end-to-end times are given at reference machine speed.  The speed
of a shared machine drifts by up to 1.7x over minutes, so every timed
interval is scaled by `Calibration`: a fixed pure-Python computation
timed every 50 ms through the run.  The raw figures are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 12


class Calibration:
    """Machine-speed samples taken through a run.

    A sample times Floyd–Warshall on a fixed 16x16 matrix, pure Python
    from this benchmark, not from `tropspan`.  `scale(t)` is
    REFERENCE_S over the median sample within WINDOW_S of time t: the
    factor that turns an interval measured at t into the interval at
    reference speed.
    """

    REFERENCE_S = 0.0004   # a sample's median on the 2-vCPU Xeon VM of the baseline
    EVERY_S = 0.05
    WINDOW_S = 5.0

    def __init__(self):
        rng = random.Random("calibration")
        self._matrix = [[rng.randint(-9, 0) for _ in range(16)] for _ in range(16)]
        self.at: list[float] = []
        self.took: list[float] = []
        self._cache: dict[int, float] = {}

    def sample(self) -> None:
        start = time.perf_counter()
        reference.star(self._matrix, 16)
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def tick(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        key = int(t * 4)   # one factor per quarter second
        if key not in self._cache:
            lo = bisect.bisect_left(self.at, t - self.WINDOW_S)
            hi = bisect.bisect_right(self.at, t + self.WINDOW_S)
            self._cache[key] = self.REFERENCE_S / statistics.median(self.took[lo:hi])
        return self._cache[key]


def set_up(workload: str, seed: int, work: Path):
    """One set-up: a new interpreter imports tropspan.cli and exits, then
    the inputs are generated and written.  Returns (seconds, pool, argvs)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tropspan.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    pool = workloads.build(workload, seed, DATA)
    argvs = _write_inputs(pool, work)
    return time.perf_counter() - start, pool, argvs


def _write_inputs(pool, work: Path) -> list[list[str]]:
    """Write each operation's input file; return the argv of every operation."""
    work.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, op in enumerate(pool):
        path = work / f"in{i}.json"
        if op.text is not None:
            path.write_text(op.text)
        argvs.append([op.command, "--input", str(path), *op.flags])
    return argvs


class Runner:
    """Calls the CLI and keeps what is needed to check every call afterwards."""

    def __init__(self, cli, pool, argvs, work: Path):
        self.cli = cli
        self.pool = pool
        self.argvs = argvs
        self.outputs = work / "out"
        self.outputs.mkdir(exist_ok=True)
        self.seen: dict[tuple, list] = {}   # (index, exit code, digest) -> [calls, file]

    def call(self, i: int) -> tuple[int | None, str, float]:
        out, err = io.StringIO(), io.StringIO()
        argv = self.argvs[i]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:   # an escaped exception is a failed operation
                code = None
                print(f"escaped {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed

    def record(self, i: int, code, stdout: str) -> None:
        key = (i, code, hashlib.blake2b(stdout.encode()).digest())
        entry = self.seen.get(key)
        if entry is None:
            path = self.outputs / f"{len(self.seen)}.txt"
            path.write_text(stdout)
            entry = self.seen[key] = [0, path]
        entry[0] += 1

    def timed(self, i: int) -> float:
        code, stdout, elapsed = self.call(i)
        self.record(i, code, stdout)
        return elapsed

    def check(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages) over every recorded call."""
        attempted = failed = 0
        wants: dict[int, dict] = {}
        messages = []
        for (i, code, _), (calls, path) in self.seen.items():
            attempted += calls
            if i not in wants:
                wants[i] = expectation(self.pool[i])
            problem = verify(wants[i], code, path.read_text(), self.pool[i].fmt)
            if problem:
                failed += calls
                messages.append(f"{' '.join(self.argvs[i])}: {problem}")
        return attempted, failed, messages


def expectation(op) -> dict:
    if op.expect is not None:
        return {"exit": op.expect}
    return reference.expected(op.text, op.command, op.alpha, op.latest)


def verify(want, code, stdout, fmt) -> str | None:
    if code is None:
        return stdout.strip() or "escaped exception"
    return reference.verify(want, code, stdout, fmt)


def _loop(runner: Runner, order: list[int], rng: random.Random, seconds: float,
          cal: Calibration, set_up_once):
    """Closed loop over shuffled passes of the pool until `seconds` have passed.

    Only whole passes run, so every input weighs the same in the
    percentiles.  Between operations, a set-up is repeated every
    1/SETUP_REPEATS of `seconds`, so its samples span the run as the
    operations do.  Returns (start, duration) of every operation and
    every set-up.
    """
    ops, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rng.shuffle(order)
        for i in order:
            now = time.perf_counter()
            due = len(setups) * seconds / SETUP_REPEATS <= now - start
            if due and len(setups) < SETUP_REPEATS:
                setups.append((now, set_up_once()))
            cal.tick()
            ops.append((time.perf_counter(), runner.timed(i)))
    return ops, setups


def _percentiles(ms: list[float]) -> tuple[float, float, int]:
    """(p50, p90, samples beyond p90) of the samples."""
    ms = sorted(ms)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90, sum(1 for t in ms if t > p90)


def end_to_end(runner: Runner, seed: int, seconds: float, set_up_once):
    cal = Calibration()
    order = list(range(len(runner.pool)))
    runner.call(0)   # warm-up: lazy imports and first-call caches
    ops, setup = _loop(runner, order, random.Random(f"order:{seed}"), seconds, cal,
                       set_up_once)
    cal.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, messages = runner.check()

    ms = [1000 * d * cal.scale(t) for t, d in ops]
    p50, p90, beyond = _percentiles(ms)
    raw_p50, raw_p90, _ = _percentiles([1000 * d for _, d in ops])
    setup_s = statistics.median(d * cal.scale(t) for t, d in setup)
    metrics = {
        "op_ms_p50": (p50, "ms", f"{len(ms)} samples; raw {raw_p50:.4f}"),
        "op_ms_p90": (p90, "ms", f"{len(ms)} samples, {beyond} beyond p90; raw {raw_p90:.4f}"),
        "ops_per_s": (1000 * len(ms) / sum(ms), "1/s",
                      f"{len(ms)} ops; raw {len(ops) / sum(d for _, d in ops):.4f}"),
        "setup_s": (setup_s, "s", f"median of {len(setup)} set-ups; raw "
                    f"{statistics.median(d for _, d in setup):.4f}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process"),
    }
    speed = Calibration.REFERENCE_S / statistics.median(cal.took)
    notes = [f"failed_share {failed / max(attempted, 1):.6f} ({failed} of {attempted})",
             f"machine speed {speed:.3f} of reference over {len(cal.took)} calibration samples"]
    if beyond < 10:
        notes.append(f"warning: only {beyond} samples beyond p90; raise --seconds")
    return attempted, failed, failed == 0, messages, metrics, notes


def traced(runner: Runner, workload: str, seed: int, seconds: float):
    import tracer as tr   # imports tropspan, so only once SRC is on sys.path

    order = list(range(len(runner.pool)))
    runner.call(0)
    tracer, totals, cal = tr.Tracer(), tr.LayerTotals(), Calibration()
    untraced, traced_passes = [], []
    deadline = time.perf_counter() + seconds

    def one_pass():
        ops = []
        for i in order:
            cal.tick()
            tracer.op += 1
            ops.append((time.perf_counter(), runner.timed(i)))
        return ops

    while True:
        untraced.append(one_pass())
        tracer.clear()
        with tracer.installed():
            traced_passes.append(one_pass())
        totals.add(tracer)
        if time.perf_counter() >= deadline:
            break
    cal.sample()
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_file = OUT / "traces" / f"{workload}-{seed}.jsonl"
    tracer.write(trace_file)
    attempted, failed, messages = runner.check()

    metrics = {name: (value, _layer_unit(name), "")
               for name, value in totals.metrics().items()}
    def at_reference(ops):
        return sum(d * cal.scale(t) for t, d in ops)

    overhead = (statistics.median(map(at_reference, traced_passes))
                / statistics.median(map(at_reference, untraced)) - 1)
    metrics["trace.overhead_share"] = (overhead, "ratio", f"{len(traced_passes)} traced vs "
                                       "untraced passes, at reference speed")

    subset = order[::4]
    counts = []
    for _ in range(2):
        with tr.count_semiring_ops() as counted:
            for i in subset:
                runner.call(i)
        counts.append(dict(counted))
    repeat_ok = counts[0] == counts[1]
    if not repeat_ok:
        messages.append(f"semiring counts did not repeat: {counts}")
    for kind in ("add", "mul"):
        metrics[f"semiring.{kind}.calls"] = (counts[0].get(kind, 0) / len(subset), "count/op",
                                             f"counting pass over {len(subset)} inputs")

    probe = workloads.decimal_probe(seed)
    probe_argvs = _write_inputs(probe, runner.outputs.parent / "probe")
    probe_runner = Runner(runner.cli, probe, probe_argvs, runner.outputs.parent / "probe")
    lost = 0
    for i, op in enumerate(probe):
        code, stdout, _ = probe_runner.call(i)
        if verify(expectation(op), code, stdout, op.fmt):
            lost += 1
    metrics["reference.decimal_tie_loss_share"] = (
        lost / len(probe), "ratio", f"{lost} of {len(probe)} one-decimal sf inputs disagree")
    notes = [f"spans of the last traced pass in {trace_file.relative_to(ROOT)}"]
    return attempted, failed, failed == 0 and repeat_ok, messages, metrics, notes


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "tropspan" / "cli.py", DATA / "ex1.json") if not p.is_file()]
    if missing:
        print(f"error: the checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        _, pool, argvs = set_up(args.workload, args.seed, work)

        sys.path.insert(0, str(SRC))
        import tropspan.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
            return 2

        runner = Runner(cli, pool, argvs, work)
        if args.trace:
            result = traced(runner, args.workload, args.seed, args.seconds)
        else:
            result = end_to_end(runner, args.seed, args.seconds,
                                lambda: set_up(args.workload, args.seed, work)[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, correct, messages, metrics, notes = result
    print(f"workload {args.workload}, seed {args.seed}, {len(pool)} inputs, "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:36} {value:14.6f} {unit:9} {detail}")
    for line in notes + messages[:20]:
        print(f"  {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
