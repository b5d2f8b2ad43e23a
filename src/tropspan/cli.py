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
from itertools import accumulate, chain, repeat

from .errors import InvariantViolation, TrConditionViolated, TropicalError
from .matvec import Matrix
from .scheduling import (_latest_columns, max_completion_spread,
                         max_completion_spread_constrained, max_initiation_spread)
from .semiring import _fmt, _int_extremes, max_plus

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_PARSE = 4


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
        value = int(value) if value.is_integer() else value   # shifts ints exactly
    if not _admits(value):
        raise argparse.ArgumentTypeError("alpha must be finite")
    return value


# Every subcommand's options, defined once.  `parents=` does not copy
# them: every subparser of every parser built holds these same four
# `Action` objects.  That is safe because an action holds no parse state
# (parsed values go to the namespace); each build reassigns only
# `action.container`, which argparse reads only under
# `conflict_handler="resolve"`, so do not set that handler.  The full
# parser is still built per call: caching it (ROADMAP item 20) waits on
# the benchmark's per-operation samples, which then grow its peak RSS.
_OPTIONS = _Parser(add_help=False)
_OPTIONS.add_argument("--input", required=True, help="path to the project json file")
_OPTIONS.add_argument("--alpha", type=_number, default=0,
                      help="shift applied to the reported solutions (default 0)")
_OPTIONS.add_argument("--latest", action="store_true",
                      help="also emit the latest schedule of every family")
_OPTIONS.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropspan",
                     description="maximize schedule time spans under precedence constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("sf", "span of completion times under start-finish constraints"),
                       ("ss", "span of initiation times under start-start constraints"),
                       ("combined", "span of completion times under both constraint kinds")):
        sub.add_parser(name, help=text, parents=[_OPTIONS])
    return parser


def _load_project(path: str, alpha) -> tuple[Matrix | None, Matrix | None]:
    """The start-finish and start-start matrices in the file at `path`,
    either None where absent, once every check of the file has passed."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
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
    _require_in_range(n, max(sf_largest, ss_largest), alpha, path)
    return start_finish, start_start


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
    """The matrix under `key` and its largest |entry|, once every entry
    passes `_admits`, with null mapped to 𝟘 where admitted.

    The checks run on the whole matrix: one shape test over the rows,
    then, on its entries flattened in row-major order, one `contains_all`
    over the numbers, one test for 𝟘 and one `max` of |entry|.  On ints
    alone, `_int_extremes`, the rule `contains_all` itself applies,
    gives the min and the max: `contains_all` and `max` see only those,
    and the 𝟘 test is skipped, as no int is the max-plus 𝟘.  Only when
    a check fails are the rows walked in order, and the first faulty
    row gives the message: its shape, or else its first refused entry."""
    rows = raw.get(key)
    if rows is None:
        return None, 0
    if not isinstance(rows, list) or len(rows) != n:
        raise _ParseFailure(f"{path}: '{key}' must be a list of {n} rows")
    zero = max_plus.zero
    if all(map(isinstance, rows, repeat(list))) and set(map(len, rows)) == {n}:
        flat = list(chain.from_iterable(rows))
        # admitted nulls (every start_start row has one: a project has no
        # self-lags) stay out of the check; any other null fails contains_all
        values = [v for v in flat if v is not None] if allow_null and None in flat else flat
        extremes = _int_extremes(values)
        checked = values if extremes is None else extremes
        if max_plus.contains_all(checked) and (extremes is not None or zero not in values):
            if values is not flat:
                rows = [[zero if v is None else v for v in row] if None in row else row
                        for row in rows]
            # admitted entries and 𝟘 pass every check of the constructor; max
            # keeps the first of equal |entries|, and 0 where all are 0
            return (Matrix._wrap(max_plus, tuple(map(tuple, rows))),
                    max(0, max(map(abs, checked), default=0)))
    raise _first_fault(rows, key, n, path, allow_null)


def _first_fault(rows: list, key: str, n: int, path: str, allow_null: bool) -> _ParseFailure:
    """The refusal of the first faulty row of a matrix that failed a check
    of `_parse_matrix`: a row of the wrong shape, or a refused entry."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            return _ParseFailure(f"{path}: row {i + 1} of '{key}' must hold {n} entries")
        for j, v in enumerate(row):
            if v is None and not allow_null:
                return _ParseFailure(
                    f"{path}: '{key}' does not admit null (row {i + 1}, column {j + 1})")
            if not (_admits(v) or v is None):
                return _ParseFailure(
                    f"{path}: entry at row {i + 1}, column {j + 1} of '{key}' must be "
                    f"a finite number{' or null' if allow_null else ''}")
    raise AssertionError(f"no entry of '{key}' is refused")


def _dispatch(command: str, start_finish: Matrix | None, start_start: Matrix | None):
    if command == "sf":
        if start_finish is None:
            raise InvariantViolation("subcommand sf requires a start_finish matrix")
        return max_completion_spread(start_finish), None, start_finish
    if command == "ss":
        if start_start is None:
            raise InvariantViolation("subcommand ss requires a start_start matrix")
        report, closure = max_initiation_spread(start_start)
        return report, closure, None
    if start_finish is None or start_start is None:
        raise InvariantViolation(
            "subcommand combined requires both start_finish and start_start matrices")
    report, closure = max_completion_spread_constrained(start_finish, start_start)
    return report, closure, start_finish


_CHUNK = 16_384   # pieces of `_render` per write of `main`; see `_render`


def _list_text(items: list, indent: str) -> str:
    """The json.dumps(..., indent=2) text of a list at `indent`, from its items' texts."""
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]" if items else "[]"


def _texts(values) -> list[str]:
    """The json and text form of each number: `repr` on a list of ints, else `_fmt`."""
    values = list(values)
    return list(map(_fmt if float in map(type, values) else repr, values))


def _render_status(status: str, fmt: str) -> str:
    return (f'{{\n  "status": "{status}",\n  "delta": null,\n  "pairs": [],\n'
            f'  "families": [],\n  "schedules": []\n}}\n' if fmt == "json"
            else f"status: {status}\n")


def _render(report, closure, completion_matrix, alpha, latest, fmt: str) -> list[str]:
    """The json or text output of a solved run, as pieces to join, written
    straight from the report.

    The writer owns the shifted bounds.  `report.bounds` holds each
    row's vector once, so each is shifted and turned into texts once,
    keyed by its row s, and the pairs are walked with no `BoxFamily`
    built.  Under `--latest`, `_latest_columns` applies its rule to
    those shifted vectors; a schedule whose x_j equals a row's reuses
    that row's texts, and in json its joined list, since `_fmt` gives
    equal values equal texts.

    The output is one list of pieces, nearly all of them strings shared
    among the pairs, so the document is never held as one string: an
    all-tied n×n project has n² families and Θ(n³) numbers.  The
    per-index heads, each row's bounds text and the pinned texts are
    built once, so a json pair is three pieces and a json family four,
    each item followed by its separator, which the list's close replaces
    after its last item.  A text family is the line of its row s with
    "<=" made "=" at k.  The row's line is cut into blocks of n/√F
    indices, F the families per row, and the texts before and after k's
    block are shared by the families of that block, so a family adds
    only the two slices inside its block.  `main` writes the pieces in
    joins of `_CHUNK`, so that one write's text and its encoding stay a
    few MB even at all-tied n = 160, where the document is 48.6 MB,
    while the documents of the benchmark's workloads remain one write.
    """
    # an int 0 shift (`_number` makes every zero alpha the int 0) keeps
    # each value and type; it could only turn a float -0.0 into 0.0, and
    # `_fmt` writes both as 0, so the bounds serve unshifted
    shifted = {s: tuple(map(max_plus.mul, repeat(alpha), bounds)) if alpha else bounds
               for s, bounds in report.bounds}
    texts = {s: _texts(member) for s, member in shifted.items()}
    # under --latest, each schedule's row s (or None) and its initiation and completion texts
    schedules = [(s, _texts(x) if s is None else texts[s], None if y is None else _texts(y))
                 for x, y, s in _latest_columns(max_plus, report.bounds, lambda s, _: shifted[s],
                                                closure, completion_matrix)] if latest else []
    # every index a report holds is below n: its problem is n×n
    n = len(report.bounds[0][1]) if report.bounds else 0
    labels = list(map(str, range(1, n + 1)))
    delta = _fmt(report.delta)
    if fmt == "json":
        lists = {s: _list_text(values, "      ") for s, values in texts.items()}
        bounds = {s: ',\n      "upper_bounds": ' + text + "\n    }" for s, text in lists.items()}
        heads = ['{\n      "pinned_index": ' + label + ',\n      "pinned_value": '
                 for label in labels]
        pair_heads = ['{\n      "k": ' + label + ',\n      "s": ' for label in labels]
        pair_tails = [label + "\n    }" for label in labels]
        # a solved report holds at least one pair
        out = ['{\n  "status": "ok",\n  "delta": ', delta, ',\n  "pairs": [\n    ']
        for k, s in report.pairs:
            out += (pair_heads[k], pair_tails[s], ",\n    ")
        out[-1] = '\n  ],\n  "families": [\n    '
        for k, s in report.pairs:
            out += (heads[k], texts[s][k], bounds[s], ",\n    ")
        out[-1] = '\n  ],\n  "schedules": '
        if not schedules:
            out.append("[]\n}\n")
            return out
        out.append("[\n    ")
        for s, x, y in schedules:
            out += ('{\n      "initiation": ', _list_text(x, "      ") if s is None else lists[s])
            if y is not None:
                out += (',\n      "completion": ', _list_text(y, "      "))
            out += (',\n      "span": ', delta, "\n    },\n    ")
        out[-1] = "\n    }\n  ]\n}\n"
        return out
    var = "u" if closure is not None else "x"
    # blocks of n/√F indices for F families per row: √n on all-tied input
    width = max(1, round(n * (len(texts) / len(report.pairs)) ** 0.5))
    # each row's line, "x1 <= b1, ..., xn <= bn", once, with each index's
    # start and end in it and, per index, its block's edges and the shared
    # texts before and after the block (the first holding "s: ")
    lines = {}
    for s, values in texts.items():
        parts = [f"{var}{label} <= {b}" for label, b in zip(labels, values)]
        line = ", ".join(parts) + "\n"
        starts = [0, *accumulate(len(part) + 2 for part in parts)]
        ends = [start + len(part) for start, part in zip(starts, parts)]
        blocks = []
        for first in range(0, n, width):
            last = min(first + width, n) - 1
            block = (starts[first], ends[last],
                     labels[s] + ": " + line[:starts[first]], line[ends[last]:])
            blocks += repeat(block, last - first + 1)
        lines[s] = line, starts, ends, blocks
    heads = [f"family k={label} s=" for label in labels]
    pins = [f"{var}{label} = " for label in labels]
    out = ["status: ok\ndelta: ", delta, "\n"]
    for k, s in report.pairs:
        line, starts, ends, blocks = lines[s]
        lo, hi, before, after = blocks[k]
        out += (heads[k], before, line[lo:starts[k]], pins[k], texts[s][k],
                line[ends[k]:hi], after)
    for _, x, y in schedules:
        out += ("schedule: initiation = (", ", ".join(x), ")")
        if y is not None:
            out += (", completion = (", ", ".join(y), ")")
        out += (", span = ", delta, "\n")
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        report, closure, completion_matrix = _dispatch(
            args.command, *_load_project(args.input, args.alpha))
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stdout.write(_render_status("invalid_input", args.format))
        return EXIT_PARSE
    except TrConditionViolated as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        sys.stdout.write(_render_status("infeasible", args.format))
        return EXIT_INFEASIBLE
    except (TropicalError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        sys.stdout.write(_render_status("invalid_input", args.format))
        return EXIT_INVALID

    out = _render(report, closure, completion_matrix, args.alpha, args.latest, args.format)
    for i in range(0, len(out), _CHUNK):
        sys.stdout.write("".join(out[i:i + _CHUNK]))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
