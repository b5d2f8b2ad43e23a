import json
import subprocess
import sys
from pathlib import Path

import pytest

from tropspan.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, EXIT_PARSE,
                          dump_project, main)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
BEYOND_FLOAT = "1" * 400   # an integer too large to convert to a float

GOLDEN_RUNS = [
    ("ex1", ["sf", "--input", str(DATA / "ex1.json"), "--latest"]),
    ("ex2", ["ss", "--input", str(DATA / "ex2.json"), "--latest"]),
    ("ex3", ["combined", "--input", str(DATA / "ex3.json"), "--latest"]),
]


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "tropspan.cli", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("name,args", GOLDEN_RUNS)
def test_golden_outputs_are_byte_identical(name, args):
    proc = run_cli(args)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("name,args", GOLDEN_RUNS)
def test_repeated_runs_are_deterministic(name, args, capsys):
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_infeasible_project_exits_2():
    proc = run_cli(["ss", "--input", str(DATA / "infeasible.json")])
    assert proc.returncode == EXIT_INFEASIBLE
    doc = json.loads(proc.stdout)
    assert doc["status"] == "infeasible"
    assert doc["delta"] is None
    assert proc.stderr == ("infeasible: the closed walk through index 1 has weight 1, "
                           "which exceeds the unit 0\n")


def test_reducible_constraint_exits_3():
    proc = run_cli(["ss", "--input", str(DATA / "reducible.json")])
    assert proc.returncode == EXIT_INVALID
    assert json.loads(proc.stdout)["status"] == "invalid_input"
    assert "strongly connected" in proc.stderr


def test_missing_matrix_for_subcommand_exits_3(capsys):
    assert main(["sf", "--input", str(DATA / "ex2.json")]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "start_finish" in captured.err


@pytest.mark.parametrize("content", [
    "not json at all",
    '{"n": 3}',
    '{"n": 2, "start_finish": [[1, 2], [3]]}',
    '{"n": 2, "start_finish": [[1, 2]]}',
    '{"n": 2, "start_finish": [[1, null], [1, 1]]}',
    '{"n": 2, "start_finish": [[1, "x"], [1, 1]]}',
    '{"n": 0, "start_finish": []}',
    '{"n": 2, "start_finish": [[1, 1], [1, 1]], "extra": 1}',
    '{"start_finish": [[1]]}',
    '{"n": 1, "start_finish": [[1e999]]}',
])
def test_malformed_files_exit_4(tmp_path, content, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["sf", "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "invalid_input"
    assert captured.err


def test_missing_file_and_bad_usage_exit_4(capsys):
    assert main(["sf", "--input", "/nonexistent/file.json"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["unknown-command"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["sf"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["sf", "--input", str(DATA / "ex1.json"), "--alpha", "abc"]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["sf", "--input", str(DATA / "ex1.json"), "--latest",
                 "--alpha", BEYOND_FLOAT]) == EXIT_PARSE
    assert "alpha must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (b"[" * 100_000 + b"]" * 100_000, "not valid json"),
    (b'{"n": 1, "start_finish": [[\xff]]}', "not valid text"),
    (b'{"n": 1, "start_finish": [[' + b"1" * 5000 + b"]]}", "not valid json"),
    (b'{"n": 1, "start_finish": [[' + BEYOND_FLOAT.encode() + b"]]}", "finite"),
    (b'{"n": 1, "start_start": [[' + BEYOND_FLOAT.encode() + b"]]}", "finite"),
], ids=["deep-nesting", "not-utf8", "over-int-digit-limit", "start-finish-beyond-float",
        "start-start-beyond-float"])
def test_unparseable_files_exit_4(tmp_path, content, message, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["sf", "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "invalid_input"
    assert message in captured.err


def test_alpha_shifts_families_and_schedules(capsys):
    assert main(["sf", "--input", str(DATA / "ex1.json"), "--latest",
                 "--alpha", "5"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == 4
    assert doc["families"][0]["pinned_value"] == 5
    assert doc["families"][0]["upper_bounds"] == [5, 4, 2]
    assert doc["schedules"][0]["initiation"] == [5, 4, 2]
    assert doc["schedules"][0]["completion"] == [9, 7, 5]
    assert doc["schedules"][0]["span"] == 4


def test_without_latest_no_schedules_are_emitted(capsys):
    assert main(["sf", "--input", str(DATA / "ex1.json")]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schedules"] == []
    assert doc["families"]


def test_text_format(capsys):
    assert main(["ss", "--input", str(DATA / "ex2.json"), "--latest",
                 "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "status: ok"
    assert "delta: 3" in out
    assert "family k=2 s=3: u1 <= 1, u2 = 3, u3 <= 0" in out
    assert "initiation = (1, 3, 0)" in out
    assert main(["ss", "--input", str(DATA / "infeasible.json"),
                 "--format", "text"]) == EXIT_INFEASIBLE
    assert capsys.readouterr().out == "status: infeasible\n"


def test_round_trip_preserves_values_exactly():
    from tropspan.cli import _load_project
    for name in ("ex1", "ex2", "ex3"):
        path = DATA / f"{name}.json"
        original = json.loads(path.read_text())
        assert dump_project(_load_project(str(path))) == original


def test_integer_values_serialize_without_decimal_point():
    def only_ints(node):
        if isinstance(node, dict):
            return all(only_ints(v) for v in node.values())
        if isinstance(node, list):
            return all(only_ints(v) for v in node)
        return not isinstance(node, float)

    for name in ("ex1", "ex2", "ex3"):
        text = (GOLDEN / f"{name}.json").read_text()
        assert "." not in text
        assert only_ints(json.loads(text))


def test_installed_entry_point_runs():
    proc = run_cli(["sf", "--input", str(DATA / "ex1.json")])
    assert proc.returncode == EXIT_OK
