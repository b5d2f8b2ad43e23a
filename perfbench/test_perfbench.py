"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import tropspan.cli  # noqa: E402

DATA = ROOT / "tests" / "data"
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = [("ex1", "sf"), ("ex2", "ss"), ("ex3", "combined")]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tropspan.cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_seed_yields_the_same_inputs(name):
    assert workloads.build(name, 7, DATA) == workloads.build(name, 7, DATA)
    assert workloads.build(name, 7, DATA) != workloads.build(name, 8, DATA)
    assert workloads.decimal_probe(7) == workloads.decimal_probe(7)


def _document(want):
    """The json document the reference's answer amounts to, in the CLI's order."""
    pairs = sorted(want["families"])
    return {
        "status": "ok",
        "delta": want["delta"],
        "pairs": [{"k": k + 1, "s": s + 1} for k, s in pairs],
        "families": [{"pinned_index": k + 1,
                      "pinned_value": want["families"][(k, s)][0],
                      "upper_bounds": want["families"][(k, s)][1]} for k, s in pairs],
        "schedules": [dict({"initiation": x}, **({"completion": y} if y is not None else {}),
                           span=want["delta"]) for x, y in want["schedules"]],
    }


@pytest.mark.parametrize("name,command", EXAMPLES)
def test_reference_reproduces_the_paper_examples_exactly(name, command):
    want = reference.expected((DATA / f"{name}.json").read_text(), command, latest=True)
    golden = (GOLDEN / f"{name}.json").read_text()
    assert _document(want) == json.loads(golden)
    assert reference.verify(want, 0, golden, "json") is None


def test_reference_rejects_wrong_answers():
    want = reference.expected((DATA / "ex3.json").read_text(), "combined", latest=True)
    good = json.loads((GOLDEN / "ex3.json").read_text())
    for mutate in (lambda d: d.update(delta=3),
                   lambda d: d["pairs"].pop() and d["families"].pop(),
                   lambda d: d["families"][0]["upper_bounds"].__setitem__(1, 0),
                   lambda d: d["schedules"][0]["initiation"].__setitem__(0, -1),
                   lambda d: d["schedules"].clear()):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        assert reference.verify(want, 0, json.dumps(bad), "json") is not None
    assert reference.verify(want, 3, "", "json") is not None


def test_reference_checks_text_output_and_refusals():
    text_argv = ["ss", "--input", str(DATA / "ex2.json"), "--latest", "--format", "text"]
    code, out = _cli(text_argv)
    want = reference.expected((DATA / "ex2.json").read_text(), "ss", latest=True)
    assert reference.verify(want, code, out, "text") is None
    assert reference.verify(want, code, out.replace("delta: 3", "delta: 2"), "text")
    assert reference.verify(want, code, out.replace("u2 = 3", "x2 = 3"), "text")
    assert reference.expected((DATA / "infeasible.json").read_text(), "ss") == {"exit": 2}
    assert reference.expected((DATA / "reducible.json").read_text(), "ss") == {"exit": 3}
    assert reference.expected((DATA / "ex2.json").read_text(), "sf") == {"exit": 3}


def test_reference_is_exact_on_decimals():
    # the tie-loss instance of ROADMAP item 3: binary floats give 0.30000000000000004
    # and lose the pair (k=1, s=2)
    want = reference.expected('{"n": 2, "start_finish": [[0.3, 0.4], [0.0, 0.1]]}', "sf")
    assert want["delta"] == Fraction(3, 10)
    assert set(want["families"]) == {(0, 1), (1, 1)}


def test_planted_cycles_are_refused_and_the_rest_is_feasible():
    for seed in (1, 2):
        ops = workloads.constrained_closure(seed)
        exits = [reference.expected(op.text, op.command)["exit"] for op in ops]
        assert exits.count(2) == len(ops) // 8
        assert set(exits) == {0, 2}


def test_ex3_combined_latest_does_nine_products(tmp_path):
    t = tracer.Tracer()
    with t.installed():
        code, _ = _cli(["combined", "--input", str(DATA / "ex3.json"), "--latest"])
    totals = tracer.LayerTotals()
    totals.add(t)
    assert code == 0
    assert totals.calls["matvec.matmul"] == 9   # 2(n - 1) + 1 + 2 per family
    assert totals.calls["cli.main"] == 1
    assert tropspan.cli.main.__name__ == "main" and not hasattr(tropspan.cli.main, "__wrapped__")


def test_semiring_counts_repeat_and_are_restored():
    argv = ["combined", "--input", str(DATA / "ex3.json"), "--latest"]
    counts = []
    for _ in range(2):
        with tracer.count_semiring_ops() as counted:
            _cli(argv)
        counts.append(dict(counted))
    assert counts[0] == counts[1] and counts[0]["mul"] > 0
    assert "add" not in vars(tracer.max_plus)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_result_line(trace):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "paper-cli", "--seed", "3", "--seconds", "0.3",
                           "--trace", trace], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
