import json
import random
import sys
from pathlib import Path

import pytest

from tropspan import Matrix, max_plus
from tropspan.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, EXIT_PARSE, _dispatch,
                          _document, _json_text, _status_document, main)
from tropspan.scheduling import Project
from support import dump_project, random_feasible_constraint, run_python

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
BEYOND_FLOAT = "1" * 400   # an integer too large to convert to a float
JUST_BEYOND_FLOAT = str(int(sys.float_info.max) + 1)   # converts, rounding to the largest float

GOLDEN_RUNS = [
    ("ex1", ["sf", "--input", str(DATA / "ex1.json"), "--latest"]),
    ("ex2", ["ss", "--input", str(DATA / "ex2.json"), "--latest"]),
    ("ex3", ["combined", "--input", str(DATA / "ex3.json"), "--latest"]),
    # 36 families of an all-tied 6x6 project; the six of each row share their bounds
    ("tied", ["sf", "--input", str(DATA / "tied.json"), "--latest", "--alpha", "2"]),
    # a dense feasible 24x24 project: the closure and the products do real work
    ("dense", ["combined", "--input", str(DATA / "dense.json"), "--latest", "--alpha", "3"]),
]


def run_cli(args):
    return run_python("-m", "tropspan.cli", *args)


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
    # numbers json admits but the max-plus carrier, less its zero -inf, does not;
    # the parse is their only guard, and Matrix would take -Infinity as "no lag"
    *('{"n": 2, "start_finish": [[1, 2], [3, 4]], "start_start": [[null, %s], [0, null]]}'
      % entry for entry in ("-Infinity", "Infinity", "NaN", "true", '"1"', "[0]", "{}")),
    '{"n": 1, "start_finish": [[-Infinity]]}',
])
def test_malformed_files_exit_4(tmp_path, content, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["sf", "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "invalid_input"
    # refused by the parse itself, not by the range check that follows it
    assert captured.err and "too large" not in captured.err


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
    for alpha in (JUST_BEYOND_FLOAT, "-inf"):
        assert main(["sf", "--input", str(DATA / "ex1.json"), f"--alpha={alpha}"]) == EXIT_PARSE
        assert "alpha must be finite" in capsys.readouterr().err


BIG_LAG = str(-10 ** 308)   # in the float range, but a path of three such lags is not
CYCLE_OF_4 = (f"[[null, {BIG_LAG}, null, null], [null, null, {BIG_LAG}, null], "
              f"[null, null, null, {BIG_LAG}], [{BIG_LAG}, null, null, null]]")


@pytest.mark.parametrize("command,content,message", [
    ("sf", b"[" * 100_000 + b"]" * 100_000, "not valid json"),
    ("sf", b'{"n": 1, "start_finish": [[\xff]]}', "not valid text"),
    ("sf", b'{"n": 1, "start_finish": [[' + b"1" * 5000 + b"]]}", "not valid json"),
    ("sf", b'{"n": 1, "start_finish": [[' + BEYOND_FLOAT.encode() + b"]]}", "finite"),
    ("sf", b'{"n": 1, "start_start": [[' + BEYOND_FLOAT.encode() + b"]]}", "finite"),
    ("ss", b'{"n": 4, "start_start": ' + CYCLE_OF_4.encode() + b"}", "too large"),
    ("sf", b'{"n": 2, "start_finish": [[1e308, 0], [-1e308, 0]]}', "too large"),
    ("sf", b'{"n": 1, "start_finish": [[' + JUST_BEYOND_FLOAT.encode() + b"]]}",
     "must be a finite number or null"),
    # the range check covers the matrix that ss does not use
    ("ss", b'{"n": 2, "start_finish": [[1e308, 0], [0, 0]], '
           b'"start_start": [[null, 0], [0, null]]}', "too large"),
    # every parse error comes before the range check
    ("sf", b'{"n": 2, "start_finish": [[1e308, 0], [-1e308, 0]], '
           b'"start_start": [[null, "x"], [0, null]]}',
     "entry at row 1, column 2 of 'start_start' must be a finite number or null"),
], ids=["deep-nesting", "not-utf8", "over-int-digit-limit", "start-finish-beyond-float",
        "start-start-beyond-float", "closure-path-beyond-float", "delta-beyond-float",
        "start-finish-just-beyond-float", "unused-matrix-beyond-float",
        "parse-errors-before-range"])
def test_unparseable_files_exit_4(tmp_path, command, content, message, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "invalid_input"
    assert message in captured.err


def test_alpha_counts_towards_the_range_limit(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "start_finish": [[1e307]]}')
    assert main(["sf", "--input", str(path), "--alpha", "1e308"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["families"][0]["pinned_value"] == 1e308 - 1e307
    assert main(["sf", "--input", str(path), "--alpha", "1.7e308"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "invalid_input"
    assert "too large" in captured.err


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


def _random_entry(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-20, 20)
    if kind == 1:
        return rng.randint(-40, 40) / 4             # exact halves and quarters
    return round(rng.uniform(-20, 20), rng.randint(1, 12))


def _random_start_finish(rng, n):
    return Matrix(max_plus, [[_random_entry(rng) for _ in range(n)] for _ in range(n)])


def _random_project(rng, command):
    if command == "sf":
        n = rng.randint(1, 7)
        return Project(n, start_finish=_random_start_finish(rng, n))
    c = random_feasible_constraint(rng, max_n=7)
    # halving keeps every cycle weight exactly <= 0 and gives non-integer lags
    c = Matrix(max_plus, [[v / 2 for v in row] for row in c.data])
    if command == "ss":
        return Project(c.rows, start_start=c)
    return Project(c.rows, start_finish=_random_start_finish(rng, c.rows), start_start=c)


def _documents():
    rng = random.Random(11)
    for command in ("sf", "ss", "combined"):
        for _ in range(25):
            report, closure, completion = _dispatch(command, _random_project(rng, command))
            for alpha in (0, 7):
                for latest in (False, True):
                    yield _document(report, closure, completion, alpha, latest)
    for status in ("infeasible", "invalid_input"):
        yield _status_document(status)
    tied = Matrix(max_plus, [[0] * 8 for _ in range(8)])
    shared = _document(*_dispatch("sf", Project(8, start_finish=tied)), 3, True)
    assert len(shared["families"]) == 64
    # pairs run over k, then s: family i has row s = i mod 8
    bounds = shared["families"][0]["upper_bounds"]
    assert all(fam["upper_bounds"] is shared["families"][i % 8]["upper_bounds"]
               for i, fam in enumerate(shared["families"]))
    yield shared
    # one list object at three depths: the writer's memo must tell them apart
    yield {"bounds": bounds, "nested": [bounds, {"deeper": [bounds]}],
           "families": shared["families"], "empty": [], "none": {}}
    # number lists are written by repr in one pass, picked by type: an int and
    # an equal float print differently, and bools and None are not numbers
    yield {"tied": [2**60, 2.0**60], "flags": [True, False, None], "mixed": [0, True, 1.5],
           "floats": [1e16, 1e-07, -0.0]}
    # a list of like dicts is written by one template per list: it must keep
    # each dict's own key order, escape a key's "%", and fall back for any
    # list whose dicts differ in keys or order, or that holds more than dicts
    yield {"orders": [{"a": 1, "b": 2}, {"b": 3, "a": 4}]}
    yield {"keys": [{"100%": 1, "{x}": [1, 2], "%s%%": "s"},
                    {"100%": 2.5, "{x}": [], "%s%%": None}]}
    yield {"flags": [{"v": True}, {"v": 1}, {"v": 1.0}]}
    yield {"mixed": [{"a": 1}, 2, {"a": 3}]}
    yield {"inner": [{"a": 1}, {}, {"a": 2}], "first": [{}, {"a": 1}], "all": [{}, {}]}
    tied = Matrix(max_plus, [[0] * 40 for _ in range(40)])
    full = _document(*_dispatch("sf", Project(40, start_finish=tied)), 3, True)
    assert len(full["families"]) == 1600
    yield full


def test_json_writer_matches_json_dumps():
    count = 0
    for doc in _documents():
        assert _json_text(doc) == json.dumps(doc, indent=2)
        count += 1
    assert count == 3 * 25 * 4 + 2 + 3 + 6


def _parse_per_entry(rows):
    """Reference: the matrix data and largest |entry| of an admitted
    matrix, entry by entry in row-major order."""
    largest = 0
    data = []
    for row in rows:
        for v in row:
            if v is not None and abs(v) > largest:
                largest = abs(v)
        data.append(tuple(max_plus.zero if v is None else v for v in row))
    return tuple(data), largest


def test_row_check_matches_the_per_entry_parse(tmp_path):
    from tropspan.cli import _load_project
    rng = random.Random(17)
    # ints and floats of equal magnitude tie for the largest |entry|, whose
    # type must be the first one in row-major order
    entries = (3, 3.0, -3, -3.0, 0, 0.0, -0.0, 2.5, -2.5, 1, 2**60, 2.0**60, -2**60)
    path = tmp_path / "p.json"

    def typed(data):
        return [[(v, type(v)) for v in row] for row in data]

    for _ in range(200):
        n = rng.randint(1, 6)
        a = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        c = [[None if rng.random() < 0.3 else rng.choice(entries) for _ in range(n)]
             for _ in range(n)]
        path.write_text(json.dumps({"n": n, "start_finish": a, "start_start": c}))
        project, largest = _load_project(str(path))
        a_data, a_largest = _parse_per_entry(json.loads(json.dumps(a)))
        c_data, c_largest = _parse_per_entry(json.loads(json.dumps(c)))
        assert typed(project.start_finish.data) == typed(a_data)
        assert typed(project.start_start.data) == typed(c_data)
        want = max(a_largest, c_largest)
        assert (largest, type(largest)) == (want, type(want))


@pytest.mark.parametrize("rows,message", [
    ("[[1, 2, 3], [4, 5.5, \"x\"], [true, 7, 8]]",
     "entry at row 2, column 3 of 'start_finish' must be a finite number or null"),
    ("[[1, 2, 3], [4, 5, 1e999], [6, 7, 8]]",
     "entry at row 2, column 3 of 'start_finish' must be a finite number or null"),
    ("[[1, 2, 3], [4, 5, null], [6, 7, \"x\"]]",
     "'start_finish' does not admit null (row 2, column 3)"),
    ("[[1, 2, 3], [4, 5, 6], [7, 8, " + JUST_BEYOND_FLOAT + "]]",
     "entry at row 3, column 3 of 'start_finish' must be a finite number or null"),
])
def test_first_refused_entry_of_a_row_gives_the_message(tmp_path, rows, message, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "start_finish": %s}' % rows)
    assert main(["sf", "--input", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_round_trip_preserves_values_exactly():
    from tropspan.cli import _load_project
    for name in ("ex1", "ex2", "ex3", "tied", "dense"):
        path = DATA / f"{name}.json"
        original = json.loads(path.read_text())
        assert dump_project(_load_project(str(path))[0]) == original


def test_integer_values_serialize_without_decimal_point():
    def only_ints(node):
        if isinstance(node, dict):
            return all(only_ints(v) for v in node.values())
        if isinstance(node, list):
            return all(only_ints(v) for v in node)
        return not isinstance(node, float)

    for name in ("ex1", "ex2", "ex3", "tied", "dense"):
        text = (GOLDEN / f"{name}.json").read_text()
        assert "." not in text
        assert only_ints(json.loads(text))


def test_integral_floats_print_as_ints(tmp_path, capsys):
    # alpha 0.5 shifts the bound -0.5 to the float 0.0, printed as 0 beside -0.5
    path = tmp_path / "halves.json"
    path.write_text('{"n": 2, "start_finish": [[0.5, 1], [1.5, 0.25]]}')
    assert main(["sf", "--input", str(path), "--latest", "--alpha", "0.5"]) == EXIT_OK
    compact = json.dumps(json.loads(capsys.readouterr().out), separators=(",", ":"))
    assert compact == (
        '{"status":"ok","delta":1,"pairs":[{"k":1,"s":1}],"families":[{"pinned_index":1,'
        '"pinned_value":0,"upper_bounds":[0,-0.5]}],"schedules":[{"initiation":[0,-0.5],'
        '"completion":[0.5,1.5],"span":1}]}')


def test_input_is_read_as_utf8_whatever_the_locale():
    # the warning, raised as an error, flags a read that decodes by the locale
    proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                      "-m", "tropspan.cli", *GOLDEN_RUNS[0][1])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == (GOLDEN / "ex1.json").read_text()


def test_installed_entry_point_runs():
    proc = run_cli(["sf", "--input", str(DATA / "ex1.json")])
    assert proc.returncode == EXIT_OK


def test_pinned_value_is_the_bound_at_the_pinned_component(tmp_path, capsys):
    # an int and an equal float beyond 2^53 tie in column 1; alpha + float
    # rounds while alpha + int does not, so a stored pinned value would
    # disagree with its shifted bound
    path = tmp_path / "tie.json"
    path.write_text('{"n": 3, "start_finish": [[-1152921504606846976.0, 0, 0], '
                    '[-1152921504606846976, 1, 0], [0, 0, 0]]}')
    assert main(["sf", "--input", str(path), "--alpha", "1"]) == EXIT_OK
    families = json.loads(capsys.readouterr().out)["families"]
    assert families
    for fam in families:
        bound = fam["upper_bounds"][fam["pinned_index"] - 1]
        assert fam["pinned_value"] == bound and type(fam["pinned_value"]) is type(bound)


def _modules_after(statement):
    proc = run_python("-c", f"import sys; {statement}; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cold_import_loads_only_the_cli_path():
    loaded = _modules_after("import tropspan.cli")
    assert sorted(m for m in loaded if m.startswith("tropspan.")) == [
        f"tropspan.{name}" for name in (
            "cli", "errors", "matvec", "optimizer", "scheduling", "semiring", "solvers")]
    # dataclasses drags in inspect, ast, dis and tokenize: about 10 ms of a cold start
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    # some sites load these through .pth files before any import of ours
    assert not loaded & ({"typing", "pathlib"} - _modules_after("pass"))


def test_unreadable_input_files_exit_4(tmp_path, capsys):
    missing, latin1 = tmp_path / "missing.json", tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n": 1, "start_finish": [[\xff]]}')
    for path, message in [
            (missing, f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"),
            (tmp_path, f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"),
            (latin1, f"{latin1}: not valid text: 'utf-8' codec can't decode byte 0xff "
                     f"in position 27: invalid start byte")]:
        assert main(["sf", "--input", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert json.loads(captured.out)["status"] == "invalid_input"
