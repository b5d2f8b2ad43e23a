import contextlib
import copy
import io
import json
import random
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from tropspan import (BoxFamily, InvariantViolation, InversionOfZero, Matrix, NotIrreducible,
                      NotRegular, NotSquare, ShapeMismatch, SolutionReport, TrConditionViolated,
                      TropicalError, ZeroEntry, latest_schedule, max_plus)
from tropspan.cli import (EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, EXIT_PARSE, _build_parser,
                          _dispatch, _ParseFailure, _render, _render_status, main)
from tropspan.scheduling import _latest_columns
from oracles import document, status_document, text
from support import (build_parser_by_subcommand, counted_products, dump_project,
                     parse_matrix_by_rows, potential_start_start, random_feasible_constraint,
                     run_python)

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

# the refusal goldens: each run's exit code and arguments, run with --format
# json and text
STATUS_RUNS = [
    ("infeasible", EXIT_INFEASIBLE, ["ss", "--input", str(DATA / "infeasible.json")]),
    ("reducible", EXIT_INVALID, ["ss", "--input", str(DATA / "reducible.json")]),
]

TEXT_GOLDEN_RUNS = [(name, [*args, "--format", "text"]) for name, args in GOLDEN_RUNS]


def run_cli(args):
    return run_python("-m", "tropspan.cli", *args)


@pytest.mark.parametrize("name,args", GOLDEN_RUNS)
def test_golden_outputs_are_byte_identical(name, args):
    proc = run_cli(args)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text()
    assert proc.stderr == ""


@pytest.mark.parametrize("name,args", GOLDEN_RUNS)
def test_repeated_runs_are_deterministic(name, args, capsys):
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("name,args", TEXT_GOLDEN_RUNS)
def test_text_goldens_are_byte_identical(name, args, capsys):
    assert main(args) == EXIT_OK
    assert capsys.readouterr() == ((GOLDEN / f"{name}.txt").read_text(), "")


@pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name,code,args", STATUS_RUNS,
                         ids=[f"{name}-{code}" for name, code, _ in STATUS_RUNS])
def test_status_goldens_are_byte_identical(name, code, args, fmt, suffix, capsys):
    # the refusal's line on stderr is the same in both formats
    assert main([*args, "--format", fmt]) == code
    assert capsys.readouterr() == ((GOLDEN / f"{name}.{suffix}").read_text(),
                                   (GOLDEN / f"{name}.err").read_text())


def test_infeasible_project_exits_2():
    proc = run_cli(["ss", "--input", str(DATA / "infeasible.json")])
    assert proc.returncode == EXIT_INFEASIBLE
    doc = json.loads(proc.stdout)
    assert doc["status"] == "infeasible"
    assert doc["delta"] is None
    assert proc.stderr == ("infeasible: the closed walk through index 1 has weight 1, "
                           "which exceeds the unit 0\n")


def test_reducible_infeasible_constraint_exits_2(tmp_path):
    # no arc reaches activity 3, and the cycle 1 → 2 → 1 weighs 2
    path = tmp_path / "reducible_infeasible.json"
    path.write_text(json.dumps(
        {"n": 3, "start_start": [[None, 1, None], [1, None, None], [None, None, None]]}))
    proc = run_cli(["ss", "--input", str(path)])
    assert proc.returncode == EXIT_INFEASIBLE
    assert json.loads(proc.stdout) == status_document("infeasible")
    assert proc.stderr == ("infeasible: the closed walk through index 2 has weight 2, "
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


A2 = Matrix(max_plus, [[0, -1], [-2, 0]])
C2 = Matrix(max_plus, [[None, 0], [0, None]])


@pytest.mark.parametrize("command,start_finish,start_start,message", [
    ("sf", None, C2, "subcommand sf requires a start_finish matrix"),
    ("ss", A2, None, "subcommand ss requires a start_start matrix"),
    ("combined", A2, None,
     "subcommand combined requires both start_finish and start_start matrices"),
    ("combined", None, C2,
     "subcommand combined requires both start_finish and start_start matrices"),
], ids=["sf-without-start-finish", "ss-without-start-start",
        "combined-without-start-start", "combined-without-start-finish"])
def test_dispatch_names_the_missing_matrix(command, start_finish, start_start, message):
    with pytest.raises(InvariantViolation) as info:
        _dispatch(command, start_finish, start_start)
    assert str(info.value) == message


@pytest.mark.parametrize("error,code,prefix", [
    *((error, EXIT_INVALID, "invalid input") for error in (
        TropicalError, InversionOfZero, ShapeMismatch, NotSquare, ZeroEntry, NotRegular,
        NotIrreducible, InvariantViolation, ValueError)),
    (TrConditionViolated, EXIT_INFEASIBLE, "infeasible"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_every_solver_error_maps_to_one_exit_code(monkeypatch, capsys, error, code, prefix):
    # every TropicalError but TrConditionViolated, and ValueError, exits 3
    def failing(*args):
        raise error("refused")
    monkeypatch.setattr("tropspan.cli._dispatch", failing)
    assert main(["sf", "--input", str(DATA / "ex1.json"), "--format", "text"]) == code
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: refused\n"
    assert captured.out == ("status: infeasible\n" if code == EXIT_INFEASIBLE
                            else "status: invalid_input\n")


@pytest.mark.parametrize("content,message", [
    ("[1]", "the top level must be an object"),
    ('{"n": 1, "start_finish": [[1]], "extra": 1, "another": 2}',
     "unknown keys ['another', 'extra']"),
    ('{"n": true, "start_finish": [[1]]}', "'n' must be a positive integer"),
    ('{"n": 2}', "provide start_finish, start_start, or both"),
    ('{"n": 3, "start_finish": [[0, -1], [-2, 0]]}', "'start_finish' must be a list of 3 rows"),
    ('{"n": 2, "start_finish": [[0, -1], [-2, 0]], "start_start": [[null]]}',
     "'start_start' must be a list of 2 rows"),
    ('{"n": 2, "start_finish": [[0, -1], [-2]]}', "row 2 of 'start_finish' must hold 2 entries"),
    ('{"n": 2, "start_start": [[null, 0], 0]}', "row 2 of 'start_start' must hold 2 entries"),
    ('{"n": 2, "start_finish": [[0, -1], [-2, 0]], "start_start": [[null, 0, 0], [0, null]]}',
     "row 1 of 'start_start' must hold 2 entries"),
], ids=["top-level-not-object", "unknown-keys", "n-not-integer", "no-matrix",
        "start-finish-row-count", "start-start-row-count", "start-finish-row-length",
        "start-start-row-not-list", "start-start-row-length"])
def test_file_structure_messages_are_unchanged(tmp_path, content, message, capsys):
    # the shape and presence checks of a project file live in its parse alone
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["combined", "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert json.loads(captured.out)["status"] == "invalid_input"


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


# help at both levels, unknown commands, options before the command, missing,
# bad and out-of-range values, abbreviations, = forms and extra arguments
PARSE_ARGVS = [
    [], ["-h"], ["--help"], ["-h", "sf"], ["sf", "-h"], ["ss", "--help"], ["combined", "-h"],
    ["sf", "--input", "p.json", "-h"], ["unknown"], ["SF"], ["s"], ["-x"], ["sf", "ss"],
    ["--input", "p.json", "sf"], ["--latest", "sf", "--input", "p.json"],
    ["sf"], ["ss", "--latest"], ["combined", "--alpha", "1"], ["sf", "--input"],
    ["sf", "--input", "--latest"], ["sf", "--input", "p.json"], ["ss", "--input", "p.json"],
    ["combined", "--input", "p.json"], ["sf", "--input", "p.json", "--latest"],
    ["sf", "--input", "p.json", "--format", "text"], ["sf", "--input", "p.json", "--format", "json"],
    ["sf", "--input", "p.json", "--format", "xml"], ["sf", "--input", "p.json", "--format", "JSON"],
    ["sf", "--input", "p.json", "--format"], *[
        ["sf", "--input", "p.json", "--alpha", alpha]
        for alpha in ("2", "-3", "2.5", "2.0", "-0.0", "1e3", "1_000", "abc", "inf", "nan",
                      BEYOND_FLOAT, JUST_BEYOND_FLOAT)],
    ["sf", "--input", "p.json", "--alpha=-inf"], ["sf", "--input", "p.json", "--alpha"],
    ["sf", "--input=p.json", "--alpha=7", "--format=text"], ["ss", "--inp", "p.json", "--lat"],
    ["combined", "--in", "p.json", "--al", "3", "--f", "text"], ["sf", "--input", "p.json", "extra"],
    ["sf", "--input", "p.json", "--unknown"], ["sf", "--input", "p.json", "--latest=1"],
    ["sf", "--input", "a.json", "--input", "b.json"], ["sf", "--input", "p.json", "--latest", "--latest"],
    ["sf", "--", "--input", "p.json"], ["sf", "--input", ""], ["sf", "--input", "p.json", "-x"],
    ["combined", "--input", "p.json", "--latest", "--alpha", "-2", "--format", "text"],
]


def parse_outcome(parser, argv):
    """The parsed namespace, the exit code and stdout of a help request, or
    the refusal's message."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "parsed", repr(vars(parser.parse_args(argv)))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    except _ParseFailure as exc:
        return "refused", str(exc)


def test_shared_options_parse_as_options_defined_per_subcommand():
    outcomes = [parse_outcome(_build_parser(), argv) for argv in PARSE_ARGVS]
    assert outcomes == [parse_outcome(build_parser_by_subcommand(), argv)
                        for argv in PARSE_ARGVS]
    assert len(PARSE_ARGVS) == 55
    assert {kind: sum(o[0] == kind for o in outcomes) for kind in ("parsed", "exit")} == {
        "parsed": 20, "exit": 7}


def test_each_run_parses_its_own_arguments(capsys):
    plain = ["sf", "--input", str(DATA / "ex1.json")]
    assert main(plain) == EXIT_OK
    alone = capsys.readouterr().out
    # the arguments of the tied text golden, then the plain run again
    assert main([*GOLDEN_RUNS[3][1], "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "tied.txt").read_text()
    assert main(plain) == EXIT_OK
    assert capsys.readouterr().out == alone
    assert json.loads(alone)["schedules"] == []


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
     "of 'start_finish' must be a finite number\n"),
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


def test_range_limit_counts_each_entry_twice(tmp_path, capsys):
    """At n = 1 the limit is 2·|entry|: half the largest float passes, one more is refused."""
    half = int(sys.float_info.max) // 2
    path = tmp_path / "half.json"
    path.write_text(f'{{"n": 1, "start_finish": [[{half}]]}}')
    assert main(["sf", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    path.write_text(f'{{"n": 1, "start_finish": [[{half + 1}]]}}')
    assert main(["sf", "--input", str(path)]) == EXIT_PARSE
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
    """The (start_finish, start_start) matrices of a random project for `command`."""
    if command == "sf":
        return _random_start_finish(rng, rng.randint(1, 7)), None
    c = random_feasible_constraint(rng, max_n=7)
    # halving keeps every cycle weight exactly <= 0 and gives non-integer lags
    c = Matrix(max_plus, [[v / 2 for v in row] for row in c.data])
    if command == "ss":
        return None, c
    return _random_start_finish(rng, c.rows), c


def _reports():
    """(report, closure, completion matrix) of random, all-tied, narrow and
    shifted-range runs and of three hand-built reports: two whose numbers
    print in every way json has, one whose equal tuples a shift rounds apart."""
    rng = random.Random(11)
    for command in ("sf", "ss", "combined"):
        for _ in range(25):
            yield _dispatch(command, *_random_project(rng, command))
    for n in (8, 40):
        run = _dispatch("sf", Matrix(max_plus, [[0] * n] * n), None)
        # pairs run over k, then s: family i has row s = i mod n, whose tuple it
        # shares; each access of `families` builds the records, so read it once
        families = run[0].families
        assert len(families) == n * n
        assert all(fam.upper_bounds is families[i % n].upper_bounds
                   for i, fam in enumerate(families))
        yield run
    # 40x40 narrow and shifted-range runs: n distinct bounds vectors, so n
    # schedules, each written from a column equal to a bounds vector
    for lo, hi in ((0, 2), (5, 8)):
        yield _dispatch("sf", Matrix(max_plus, [[rng.randint(lo, hi) for _ in range(40)]
                                                for _ in range(40)]), None)
    # a combined run at n = 24, with a narrow A over a sparse potential-based
    # C: two of its three bounds tuples are equal but distinct objects
    rows, _ = potential_start_start(rng, 24, 0.3)
    yield _dispatch("combined", Matrix(max_plus, [[rng.randint(0, 2) for _ in range(24)]
                                                  for _ in range(24)]), Matrix(max_plus, rows))
    # an int and an equal float print differently; -0.0, 1e16 and 1e-07 print
    # as ints or in exponent form; rows 1 and 2 hold equal bounds in tuples
    # of their own
    bounds = (2**60, 2.0**60, -0.0, 1e16, 1e-07)
    rows = ((0, bounds), (1, tuple(list(bounds))), (2, tuple(list(bounds))))
    yield SolutionReport(max_plus, 2.5, ((0, 0), (1, 0), (3, 1), (4, 2)), rows), None, None
    # the smallest positive float, a sum that rounds, an integral float past 2**53
    # and the largest float; 10**22 == 1e22, but alpha 7 keeps only the int exact
    bounds = (5e-324, -0.0, 0.1 + 0.2, 2.0**53 + 2, 10**22, 1e22, sys.float_info.max, -2.5)
    pairs = tuple((k, 0) for k in (0, 2, 4, 5, 6, 7))
    yield SolutionReport(max_plus, 0.1 + 0.2, pairs, ((0, bounds),)), None, None
    # equal tuples that alpha 7 shifts apart (only the int stays exact): the
    # writer must collapse them before the shift, into the int's one schedule
    rows = ((0, (10**22, 0)), (1, (1e22, 0)))
    yield SolutionReport(max_plus, 0, ((0, 0), (0, 1)), rows), None, None


def test_writer_matches_the_reference_documents(monkeypatch):
    # the rows `_latest_columns` names for the writer's schedules: both the
    # reuse of a row's texts and the s None path must be exercised
    named = []

    def spied(*args):
        columns = _latest_columns(*args)
        named.extend(s for _, _, s in columns)
        return columns

    monkeypatch.setattr("tropspan.cli._latest_columns", spied)
    count = 0
    for report, closure, completion in _reports():
        for alpha in (0, 7):
            for latest in (False, True):
                doc = document(report, closure, completion, alpha, latest)
                args = (report, closure, completion, alpha, latest)
                assert "".join(_render(*args, "json")) == json.dumps(doc, indent=2) + "\n"
                assert "".join(_render(*args, "text")) == text(doc, closure is not None)
                count += 1
    assert count == (3 * 25 + 8) * 4
    assert None in named and any(s is not None for s in named)
    for status in ("infeasible", "invalid_input"):
        doc = status_document(status)
        assert _render_status(status, "json") == json.dumps(doc, indent=2) + "\n"
        assert _render_status(status, "text") == text(doc, False)


class _Sink:
    """A stdout that keeps each write, or with `keep` false only their sizes."""

    def __init__(self, keep=True):
        self.keep, self.writes, self.size = keep, [], 0

    def write(self, text):
        self.size += len(text)
        if self.keep:
            self.writes.append(text)
        return len(text)


def _large_project(tmp_path, kind, n=80):
    """The argv of an `--latest` run at n = 80: sf on an all-tied or a
    narrow 0..2 matrix, or combined on a narrow one over a sparse
    potential-based C."""
    rng = random.Random(f"{kind}:{n}")
    a = ([[0] * n for _ in range(n)] if kind == "tied"
         else [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
    doc = {"n": n, "start_finish": a}
    if kind == "combined":
        doc["start_start"] = potential_start_start(rng, n, 0.3)[0]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return ["combined" if kind == "combined" else "sf", "--input", str(path), "--latest"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind,chunk", [("tied", None), ("combined", None), ("combined", 7)])
def test_main_writes_the_reference_document_in_bounded_joins(tmp_path, monkeypatch,
                                                             kind, chunk, fmt):
    # all-tied n = 80 renders about 45k pieces, several default chunks, and
    # this combined run about 16k, one chunk; a chunk of 7 puts a write
    # boundary inside every pair, family and schedule
    if chunk is not None:
        monkeypatch.setattr("tropspan.cli._CHUNK", chunk)
    from tropspan.cli import _CHUNK, _load_project
    argv = [*_large_project(tmp_path, kind), "--alpha", "3", "--format", fmt]
    report, closure, completion = _dispatch(argv[0], *_load_project(argv[2], 3))
    doc = document(report, closure, completion, 3, True)
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == EXIT_OK
    pieces = len(_render(report, closure, completion, 3, True, fmt))
    assert len(sink.writes) == -(-pieces // _CHUNK)
    assert (len(sink.writes) > 1) == (kind == "tied" or chunk is not None)
    assert "".join(sink.writes) == (json.dumps(doc, indent=2) + "\n" if fmt == "json"
                                    else text(doc, closure is not None))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind", ["tied", "narrow"])
def test_output_peaks_below_twice_the_document(tmp_path, monkeypatch, kind, fmt):
    # the output is held once, as pieces mostly shared among the families,
    # and written in bounded joins: no whole-document string is made
    import tracemalloc
    argv = [*_large_project(tmp_path, kind), "--format", fmt]
    sized = _Sink(keep=False)
    monkeypatch.setattr(sys, "stdout", sized)
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(sys, "stdout", _Sink(keep=False))
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sized.size


@pytest.mark.parametrize("kind", ["tied", "narrow", "combined"])
def test_latest_render_shifts_each_bounds_tuple_object_once(kind):
    # all-tied: n bounds tuples of equal values, one per row; narrow: with a
    # repeated row, so two of its tuples are equal but distinct objects;
    # combined: a narrow A over a potential-based C, three tuple objects of
    # one value
    rng = random.Random(4)
    n = 12
    c = Matrix(max_plus, potential_start_start(rng, n, 0.3)[0]) if kind == "combined" else None
    rows = ([[0] * n for _ in range(n)] if kind == "tied"
            else [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
    rows[1] = rows[0]
    a = Matrix(max_plus, rows)
    report, closure, _ = _dispatch("sf" if c is None else "combined", a, c)
    objects = {id(fam.upper_bounds) for fam in report.families}
    distinct = dict.fromkeys(fam.upper_bounds for fam in report.families)
    assert len(objects) > len(distinct)
    # the products `latest_schedule` forms: A, after the closure if any,
    # times the distinct shifted bounds
    x = Matrix._wrap(max_plus, tuple(zip(*(tuple(v + 3 for v in b) for b in distinct))))
    with counted_products() as product:
        a @ (x if closure is None else closure @ x)
    with counted_products() as library:
        latest_schedule(report, closure, a, 3)
    with counted_products() as render:
        _render(report, closure, a, 3, True, "json")
    assert library["mul"] == n * len(distinct) + product["mul"]
    assert render["mul"] == n * len(objects) + product["mul"]


def test_int_float_ties_match_the_row_by_row_parse():
    from tropspan.cli import _parse_matrix
    rng = random.Random(17)
    # ints and floats of equal magnitude tie for the largest |entry|, whose
    # type must be the first one in row-major order
    entries = (3, 3.0, -3, -3.0, 0, 0.0, -0.0, 2.5, -2.5, 1, 2**60, 2.0**60, -2**60)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        c = [[None if rng.random() < 0.3 else rng.choice(entries) for _ in range(n)]
             for _ in range(n)]
        raw = json.loads(json.dumps({"n": n, "start_finish": a, "start_start": c}))
        for key, allow_null in (("start_finish", False), ("start_start", True)):
            assert (_parse_or_refusal(_parse_matrix, raw, key, n, allow_null)
                    == _parse_or_refusal(parse_matrix_by_rows, raw, key, n, allow_null))


def _parse_or_refusal(parse, raw, key, n, allow_null):
    """The typed matrix and largest |entry| that `parse` returns for a copy
    of `raw`, or the text of its refusal."""
    from tropspan.cli import _ParseFailure
    try:
        matrix, largest = parse(copy.deepcopy(raw), key, n, "p.json", allow_null)
    except _ParseFailure as exc:
        return str(exc)
    data = None if matrix is None else [[(v, type(v)) for v in row] for row in matrix.data]
    return data, (largest, type(largest))


# entries json can hold: admitted ones, ties of an int and a float, and each
# kind the parse refuses
_ODD_ENTRIES = (0, 2, -3, 2.5, 0.0, -0.0, 2 ** 60, 2.0 ** 60, None, True, False, "1", [0], [[]],
                {}, 10 ** 400, -10 ** 400, int(sys.float_info.max) + 1, 1e308,
                float("inf"), float("-inf"), float("nan"))


def _odd_rows(rng, n):
    """n rows, mostly admitted entries; now and then a refused entry, a
    short or long row, or a row that is not a list."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.05:
            rows.append(rng.choice((None, 0, "row", {})))
            continue
        length = n if rng.random() < 0.9 else rng.choice((n - 1, n + 1))
        rows.append([rng.choice(_ODD_ENTRIES) if rng.random() < 0.08
                     else rng.choice((None, 1, -2, 0.5, 7)) for _ in range(length)])
    return rows


@pytest.mark.parametrize("raw,key,n", [
    ({"m": [[1, True], [2, 3]]}, "m", 2),
    ({"m": [[1, 2], ["3", 4]]}, "m", 2),
    ({"m": [[1, [2]], [3, 4]]}, "m", 2),
    ({"m": [[1, 2], [3, None]]}, "m", 2),
    ({"m": [[-0.0, 2], [3, 0.0]]}, "m", 2),
    ({"m": [[-0.0, 0], [0.0, -0.0]]}, "m", 2),
    ({"m": [[1, 10 ** 400], [3, 4]]}, "m", 2),
    ({"m": [[1, -10 ** 400], [3, 4]]}, "m", 2),
    # a refused entry before a short row, and a short row before one
    ({"m": [[1, "x", 2], [3, 4], [5, 6, 7]]}, "m", 3),
    ({"m": [[1, 2, 3], [4, 5], [6, None, True]]}, "m", 3),
    ({"m": [[None]]}, "m", 1),
    ({"m": [[2 ** 60, 2.0 ** 60], [-2.0 ** 60, None]]}, "m", 2),
    ({"m": [[1, 2], 3]}, "m", 2),
    ({"m": [[1, 2]]}, "m", 2),
    ({"m": "rows"}, "m", 1),
    ({}, "m", 2),
], ids=["bool", "string", "nested-list", "null", "minus-zero", "all-zero", "beyond-float",
        "below-float", "entry-then-short-row", "short-row-then-entry", "null-at-n-1",
        "int-float-tie", "row-not-list", "row-count", "not-a-list", "absent"])
def test_whole_matrix_check_matches_the_row_by_row_parse(raw, key, n):
    """The whole-matrix checks of `_parse_matrix` against the former
    row-by-row check: the same matrix and largest |entry|, by value and
    type, or the same refusal text, with and without admitted nulls."""
    from tropspan.cli import _parse_matrix
    for allow_null in (False, True):
        assert (_parse_or_refusal(_parse_matrix, raw, key, n, allow_null)
                == _parse_or_refusal(parse_matrix_by_rows, raw, key, n, allow_null))


_MAX_INT = int(sys.float_info.max)
_REFUSED = "p.json: entry at row {} of 'm' must be a finite number{}"


@pytest.mark.parametrize("rows,allow_null,expected", [
    # int only: no test for 𝟘, and min and max give the range and the largest |entry|
    ([[1, -7], [3, 0]], False, (7, int)),
    ([[-3, 3], [0, -3]], False, (3, int)),
    ([[0, 0], [0, 0]], False, (0, int)),
    ([[_MAX_INT, -_MAX_INT], [0, 1]], False, (_MAX_INT, int)),
    ([[2 ** 60, -2 ** 60 - 1], [0, 1]], False, (2 ** 60 + 1, int)),
    # mixed int/float: the first of equal |entries| in row-major order
    ([[2, -3.0], [3, 0.5]], False, (3.0, float)),
    ([[2 ** 60, -2.0 ** 60], [1.5, 0]], False, (2 ** 60, int)),
    ([[0, -0.0], [0.0, 0]], False, (0, int)),
    ([[-0.0, 0.0], [0.0, -0.0]], False, (0, int)),
    # bool, out-of-range ints, 1e999 and -1e999 (json's inf and -inf, the zero)
    ([[1, True], [2, 3]], False, _REFUSED.format("1, column 2", "")),
    ([[1, 2], [False, 3.5]], True, _REFUSED.format("2, column 1", " or null")),
    ([[1, 2], [3, _MAX_INT + 1]], False, _REFUSED.format("2, column 2", "")),
    ([[1, -_MAX_INT - 1], [3, 4]], False, _REFUSED.format("1, column 2", "")),
    ([[1, 2], [1e999, 4]], False, _REFUSED.format("2, column 1", "")),
    ([[1, 2], [3, -1e999]], False, _REFUSED.format("2, column 2", "")),
    ([[1, 2], [3, -1e999]], True, _REFUSED.format("2, column 2", " or null")),
    # nulls: refused in start_finish, 𝟘 and out of the checks in start_start
    ([[1, None], [2, 3]], False, "p.json: 'm' does not admit null (row 1, column 2)"),
    ([[None, -4], [2, None]], True, (4, int)),
    ([[None, -4.0], [4, None]], True, (4.0, float)),
    ([[None, None], [None, None]], True, (0, int)),
    ([[None, 2], [_MAX_INT + 1, None]], True, _REFUSED.format("2, column 1", " or null")),
], ids=["int", "int-abs-tie", "int-zeros", "int-at-float-max", "int-beyond-2**53",
        "mixed", "mixed-2**60-tie", "mixed-zeros", "signed-zeros", "bool", "bool-with-nulls",
        "int-beyond-float", "int-below-float", "1e999", "-1e999", "-1e999-with-nulls",
        "null-refused", "int-with-nulls", "mixed-with-nulls", "all-null", "beyond-with-nulls"])
def test_admission_keeps_matrix_largest_entry_and_refusal_text(rows, allow_null, expected):
    """`_parse_matrix` against the row-by-row parse: the same matrix, the
    same largest |entry| by value and type, or the same refusal text; and
    each largest |entry| or refusal as written here."""
    from tropspan.cli import _parse_matrix
    raw = {"m": rows}
    got = _parse_or_refusal(_parse_matrix, raw, "m", 2, allow_null)
    assert got == _parse_or_refusal(parse_matrix_by_rows, raw, "m", 2, allow_null)
    assert (got if isinstance(got, str) else got[1]) == expected


def test_whole_matrix_check_matches_the_row_by_row_parse_on_random_files():
    from tropspan.cli import _parse_matrix
    rng = random.Random(23)
    refused = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        raw = {"m": _odd_rows(rng, n)}
        for allow_null in (False, True):
            got = _parse_or_refusal(_parse_matrix, raw, "m", n, allow_null)
            assert got == _parse_or_refusal(parse_matrix_by_rows, raw, "m", n, allow_null), raw
            refused += isinstance(got, str)
    assert 300 < refused < 1100   # both outcomes are common


@pytest.mark.parametrize("rows,message", [
    ("[[1, 2, 3], [4, 5.5, \"x\"], [true, 7, 8]]",
     "entry at row 2, column 3 of 'start_finish' must be a finite number"),
    ("[[1, 2, 3], [4, 5, 1e999], [6, 7, 8]]",
     "entry at row 2, column 3 of 'start_finish' must be a finite number"),
    ("[[1, 2, 3], [4, 5, null], [6, 7, \"x\"]]",
     "'start_finish' does not admit null (row 2, column 3)"),
    ("[[1, 2, 3], [4, 5, 6], [7, 8, " + JUST_BEYOND_FLOAT + "]]",
     "entry at row 3, column 3 of 'start_finish' must be a finite number"),
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
        assert dump_project(*_load_project(str(path), 0)) == original


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


# 2**60 + 1 in row 1: a float alpha would shift it to the float 2**60
ALPHA_REPRO = '{"n": 2, "start_finish": [[1152921504606846977, 0], [0, 0]]}'


@pytest.mark.parametrize("literal,integer",
                         [("0.0", "0"), ("-0.0", "0"), ("2.0", "2"), ("1e3", "1000")])
def test_integral_alpha_literals_shift_as_their_ints(tmp_path, capsys, literal, integer):
    repro = tmp_path / "repro.json"
    repro.write_text(ALPHA_REPRO)
    runs = [["sf", "--input", str(repro), "--latest"], *(args for _, args in GOLDEN_RUNS[:3])]
    for args in runs:
        for fmt in ("json", "text"):
            outputs = []
            for alpha in (literal, integer):
                assert main([*args, "--format", fmt, "--alpha", alpha]) == EXIT_OK
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
    assert main(["sf", "--input", str(repro), "--latest", "--format", "text",
                 "--alpha", "0.0"]) == EXIT_OK
    assert "completion = (1152921504606846977, 0)" in capsys.readouterr().out


@pytest.mark.parametrize("command,name", [("sf", "tied40"), ("ss", "ex2"), ("combined", "ex3")])
def test_cli_solves_build_no_box_family(tmp_path, monkeypatch, capsys, command, name):
    path = DATA / f"{name}.json"
    if name == "tied40":
        path = tmp_path / "tied40.json"
        path.write_text(json.dumps({"n": 40, "start_finish": [[0] * 40] * 40}))
    calls = []
    init = BoxFamily.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BoxFamily, "__init__", counted)
    assert main([command, "--input", str(path), "--latest"]) == EXIT_OK
    assert capsys.readouterr().out.startswith('{\n  "status": "ok"')
    assert calls == []


def test_input_is_read_as_utf8_whatever_the_locale():
    # the warning, raised as an error, flags a read that decodes by the locale
    proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                      "-m", "tropspan.cli", *GOLDEN_RUNS[0][1])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == (GOLDEN / "ex1.json").read_text()


def test_installed_entry_point_runs():
    proc = run_cli(["sf", "--input", str(DATA / "ex1.json")])
    assert proc.returncode == EXIT_OK


# an int and an equal float beyond 2^53 tie in column 1
INT_FLOAT_TIE = ('{"n": 3, "start_finish": [[-1152921504606846976.0, 0, 0], '
                 '[-1152921504606846976, 1, 0], [0, 0, 0]]}')


def test_pinned_value_is_the_bound_at_the_pinned_component(tmp_path, capsys):
    # alpha + float rounds while alpha + int does not, so a stored pinned
    # value would disagree with its shifted bound
    path = tmp_path / "tie.json"
    path.write_text(INT_FLOAT_TIE)
    assert main(["sf", "--input", str(path), "--alpha", "1"]) == EXIT_OK
    families = json.loads(capsys.readouterr().out)["families"]
    assert families
    for fam in families:
        bound = fam["upper_bounds"][fam["pinned_index"] - 1]
        assert fam["pinned_value"] == bound and type(fam["pinned_value"]) is type(bound)


# ROADMAP item 1: decimal literals and ints beyond 2^53 are solved as binary
# floats, so these three runs give wrong answers; the exact ones are asserted

def _exact_run(tmp_path, capsys, text, args):
    """The exit code and the document, floats read as Decimal, of one run."""
    path = tmp_path / "project.json"
    path.write_text(text)
    code = main([args[0], "--input", str(path), *args[1:]])
    return code, json.loads(capsys.readouterr().out, parse_float=Decimal)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a rounded delta loses a tied family")
def test_decimal_ties_keep_every_family(tmp_path, capsys):
    code, doc = _exact_run(tmp_path, capsys, '{"n": 2, "start_finish": [[0.3, 0.4], [0.0, 0.1]]}',
                           ["sf", "--latest"])
    assert code == EXIT_OK
    assert doc["delta"] == Decimal("0.3")
    assert doc["pairs"] == [{"k": 1, "s": 2}, {"k": 2, "s": 2}]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: alpha + float rounds beyond 2^53")
def test_int_float_tie_shifts_to_one_pinned_value(tmp_path, capsys):
    code, doc = _exact_run(tmp_path, capsys, INT_FLOAT_TIE, ["sf", "--alpha", "1"])
    assert code == EXIT_OK
    assert [fam["pinned_value"] for fam in doc["families"] if fam["pinned_index"] == 1] \
        == [2**60 + 1, 2**60 + 1]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: a zero-weight cycle rounds above 0")
def test_zero_weight_decimal_cycle_is_feasible(tmp_path, capsys):
    code, doc = _exact_run(tmp_path, capsys,
                           '{"n": 4, "start_start": [[null, -1.6, 0.3, 0.5], '
                           '[null, null, 2.2, 2.0], [-0.6, null, null, -0.2], '
                           '[-0.6, -2.2, 0.1, null]]}', ["ss"])
    assert code == EXIT_OK
    assert doc["delta"] == Decimal("2.2")


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
