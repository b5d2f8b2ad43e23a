"""Command line front end for the scheduling solvers.

Subcommands
    sf        completion-time span under start-finish constraints
    ss        initiation-time span under start-start constraints
    combined  completion-time span under both constraint kinds

The input file is a UTF-8 json document {"n": ..., "start_finish": [[...]],
"start_start": [[...]]} of square arrays.  An entry or --alpha must be
a max-plus carrier element other than -inf, that is, a finite number
within the float range; only start_start admits null, for no lag.
Results go to stdout as json (default) or text, diagnostics to stderr.
Exit status: 0 solved, 2 infeasible constraints, 3 input violating a
solver precondition, 4 unparseable input or numbers too large to compute with.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from .errors import (InvariantViolation, NotIrreducible, NotRegular, NotSquare,
                     ShapeMismatch, TrConditionViolated, ZeroEntry)
from .matvec import Matrix
from .scheduling import (Project, latest_schedule, max_completion_spread,
                         max_completion_spread_constrained, max_initiation_spread)
from .semiring import max_plus

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_PARSE = 4

_INVALID_INPUT_ERRORS = (InvariantViolation, NotRegular, NotIrreducible, NotSquare,
                         ShapeMismatch, ZeroEntry, ValueError)


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseFailure(message)


def _admits(v) -> bool:
    """The rule for every input number: a max-plus carrier element but 𝟘."""
    return max_plus.contains(v) and v != max_plus.zero


def _number(text: str):
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not _admits(value):
        raise argparse.ArgumentTypeError("alpha must be finite")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropspan",
                     description="maximize schedule time spans under precedence constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("sf", "span of completion times under start-finish constraints"),
                       ("ss", "span of initiation times under start-start constraints"),
                       ("combined", "span of completion times under both constraint kinds")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--input", required=True, help="path to the project json file")
        cmd.add_argument("--alpha", type=_number, default=0,
                         help="shift applied to the reported solutions (default 0)")
        cmd.add_argument("--latest", action="store_true",
                         help="also emit the latest schedule of every family")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _load_project(path: str) -> tuple[Project, int | float]:
    """The project in the file at `path` and the largest |entry| it holds."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise _ParseFailure(f"{path}: not valid text: {exc}")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:   # also over-long integers, deep nesting
        raise _ParseFailure(f"{path}: not valid json: {exc}")
    if not isinstance(raw, dict):
        raise _ParseFailure(f"{path}: the top level must be an object")
    unknown = sorted(set(raw) - {"n", "start_finish", "start_start"})
    if unknown:
        raise _ParseFailure(f"{path}: unknown keys {unknown}")
    n = raw.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise _ParseFailure(f"{path}: 'n' must be a positive integer")
    start_finish, sf_largest = _parse_matrix(raw, "start_finish", n, path, allow_null=False)
    start_start, ss_largest = _parse_matrix(raw, "start_start", n, path, allow_null=True)
    if start_finish is None and start_start is None:
        raise _ParseFailure(f"{path}: provide start_finish, start_start, or both")
    project = Project(n=n, start_finish=start_finish, start_start=start_start)
    return project, max(sf_largest, ss_largest)


def _require_in_range(n: int, largest, alpha, path: str) -> None:
    """Refuse numbers whose sums could leave the float range.

    Every value the solvers compute (C*, A ⊗ C*, delta, the bounds and
    the schedules) is a sum of at most 2n entries plus alpha, so
    2n·max|entry| + |alpha| within the largest float keeps every exact
    value finite.  `largest` is max|entry| over both matrices.
    """
    limit = sys.float_info.max
    # compared as 2n·largest > limit - |alpha|: a sum of an int beyond the
    # float range and a float would raise OverflowError
    if 2 * n * largest > limit - abs(alpha):
        raise _ParseFailure(
            f"{path}: numbers too large to compute with: 2n·max|entry| + |alpha| "
            f"must not exceed {limit!r}")


def _parse_matrix(raw: dict, key: str, n: int, path: str,
                  allow_null: bool) -> tuple[Matrix | None, int | float]:
    """The matrix under `key` and its largest |entry|, in one pass that
    checks each entry by `_admits` and maps null to 𝟘.

    A row of admitted numbers only is checked by one `contains_all`
    (after a scan for null, which sends most start_start rows straight
    to the entry loop) and one test for 𝟘; any other row goes entry
    by entry, so the first refused entry in row-major order gives the
    message."""
    rows = raw.get(key)
    if rows is None:
        return None, 0
    if not isinstance(rows, list) or len(rows) != n:
        raise _ParseFailure(f"{path}: '{key}' must be a list of {n} rows")
    largest = 0
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise _ParseFailure(f"{path}: row {i + 1} of '{key}' must hold {n} entries")
        if None not in row and max_plus.contains_all(row) and max_plus.zero not in row:
            # every entry admitted: max keeps the first of equal |entries|, as below
            top = max(map(abs, row))
            if top > largest:
                largest = top
            continue
        for j, v in enumerate(row):
            if v is None:
                if not allow_null:
                    raise _ParseFailure(
                        f"{path}: '{key}' does not admit null "
                        f"(row {i + 1}, column {j + 1})")
                row[j] = max_plus.zero
            elif not _admits(v):
                raise _ParseFailure(
                    f"{path}: entry at row {i + 1}, column {j + 1} of "
                    f"'{key}' must be a finite number or null")
            elif abs(v) > largest:
                largest = abs(v)
    # admitted entries and 𝟘 pass every check of the constructor
    return Matrix._wrap(max_plus, tuple(map(tuple, rows))), largest


def _plain(v):
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def _plain_list(values) -> list:
    """The list of `values`, through `_plain` only if one of them is a float."""
    values = list(values)
    return list(map(_plain, values)) if float in map(type, values) else values


def _dispatch(command: str, project: Project):
    if command == "sf":
        if project.start_finish is None:
            raise InvariantViolation("subcommand sf requires a start_finish matrix")
        return max_completion_spread(project.start_finish), None, project.start_finish
    if command == "ss":
        if project.start_start is None:
            raise InvariantViolation("subcommand ss requires a start_start matrix")
        report, closure = max_initiation_spread(project.start_start)
        return report, closure, None
    if project.start_finish is None or project.start_start is None:
        raise InvariantViolation(
            "subcommand combined requires both start_finish and start_start matrices")
    report, closure = max_completion_spread_constrained(
        project.start_finish, project.start_start)
    return report, closure, project.start_finish


def _document(report, closure, completion_matrix, alpha, latest) -> dict:
    mul = max_plus.mul
    # families that share a bounds tuple share its shifted, printable list
    shifted: dict[int, list] = {}
    families = []
    for fam in report.families:
        bounds = shifted.get(id(fam.upper_bounds))
        if bounds is None:
            bounds = shifted[id(fam.upper_bounds)] = _plain_list(
                map(mul, repeat(alpha), fam.upper_bounds))
        families.append({"pinned_index": fam.pinned_index + 1,
                         "pinned_value": bounds[fam.pinned_index], "upper_bounds": bounds})
    schedules = (latest_schedule(report, closure, completion_matrix, alpha)
                 if latest else [])
    doc = {
        "status": "ok",
        "delta": _plain(report.delta),
        "pairs": [{"k": k + 1, "s": s + 1} for k, s in report.pairs],
        "families": families,
        "schedules": [],
    }
    for sched in schedules:
        entry = {"initiation": _plain_list(chain.from_iterable(sched.initiation.data))}
        if sched.completion is not None:
            entry["completion"] = _plain_list(chain.from_iterable(sched.completion.data))
        entry["span"] = _plain(sched.span)
        doc["schedules"].append(entry)
    return doc


def _status_document(status: str) -> dict:
    return {"status": status, "delta": None, "pairs": [], "families": [], "schedules": []}


_NUMBER_TYPES = frozenset((int, float))


def _json_text(doc: dict) -> str:
    """The text of json.dumps(doc, indent=2), writing each list object once.

    The families of one row share one bounds list, so the memo, keyed by
    the list and its depth, writes each row's bounds once.  The numbers
    are finite ints and floats, whose repr is their json form; a list of
    numbers only is written in one pass, by one join over their reprs.
    A list of dicts that all have the same keys in the same order (the
    pairs, the families, the schedules) is written by one `%` template
    per list, filled column by column: `%r` for a column of numbers
    only, and the written text of each value for any other column.
    Strings, bools and None go through json.dumps.
    """
    memo: dict[tuple[int, str], str] = {}
    keys: dict[str, str] = {}

    def quoted(k: str) -> str:
        text = keys.get(k)
        if text is None:
            text = keys[k] = json.dumps(k) + ": "
        return text

    def like_dicts(node: list, indent: str):
        """The rows of a list of dicts with one key order, or None."""
        order = tuple(node[0])
        # tuples, not keys() views: views compare as sets, blind to order
        if not order or not all(map(order.__eq__, map(tuple, node))):
            return None
        inner = indent + "  "
        fields, columns = [], []
        for k in order:
            column = list(map(itemgetter(k), node))
            if set(map(type, column)) <= _NUMBER_TYPES:
                spec = "%r"
            else:
                spec = "%s"
                column = list(map(write, column, repeat(inner)))
            fields.append(quoted(k).replace("%", "%%") + spec)
            columns.append(column)
        template = f"{{\n{inner}" + (",\n" + inner).join(fields) + f"\n{indent}}}"
        return map(template.__mod__, zip(*columns))

    def write(node, indent: str) -> str:
        kind = type(node)
        if kind is int or kind is float:
            return repr(node)
        inner = indent + "  "
        if kind is list:
            slot = (id(node), indent)
            text = memo.get(slot)
            if text is None:
                # by type, not isinstance: a bool must be written as json
                kinds = set(map(type, node))
                if kinds <= _NUMBER_TYPES:
                    rows = map(repr, node)
                elif kinds != {dict} or (rows := like_dicts(node, inner)) is None:
                    rows = (write(v, inner) for v in node)
                items = (",\n" + inner).join(rows)
                text = memo[slot] = (f"[\n{inner}{items}\n{indent}]" if node else "[]")
            return text
        if kind is dict:
            items = (",\n" + inner).join(quoted(k) + write(v, inner) for k, v in node.items())
            return f"{{\n{inner}{items}\n{indent}}}" if node else "{}"
        return json.dumps(node)

    return write(doc, "")


def _render(doc: dict, fmt: str, u_space: bool) -> str:
    if fmt == "json":
        return _json_text(doc) + "\n"
    lines = [f"status: {doc['status']}"]
    if doc["status"] == "ok":
        var = "u" if u_space else "x"
        lines.append(f"delta: {doc['delta']}")
        for pair, fam in zip(doc["pairs"], doc["families"]):
            parts = []
            for j, bound in enumerate(fam["upper_bounds"], start=1):
                op = "=" if j == fam["pinned_index"] else "<="
                parts.append(f"{var}{j} {op} {bound}")
            lines.append(f"family k={pair['k']} s={pair['s']}: " + ", ".join(parts))
        for sched in doc["schedules"]:
            piece = f"schedule: initiation = ({', '.join(map(str, sched['initiation']))})"
            if "completion" in sched:
                piece += f", completion = ({', '.join(map(str, sched['completion']))})"
            piece += f", span = {sched['span']}"
            lines.append(piece)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        project, largest = _load_project(args.input)
        _require_in_range(project.n, largest, args.alpha, args.input)
        report, closure, completion_matrix = _dispatch(args.command, project)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stdout.write(_render(_status_document("invalid_input"), args.format, False))
        return EXIT_PARSE
    except TrConditionViolated as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        sys.stdout.write(_render(_status_document("infeasible"), args.format, False))
        return EXIT_INFEASIBLE
    except _INVALID_INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        sys.stdout.write(_render(_status_document("invalid_input"), args.format, False))
        return EXIT_INVALID

    doc = _document(report, closure, completion_matrix, args.alpha, args.latest)
    sys.stdout.write(_render(doc, args.format, closure is not None))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
