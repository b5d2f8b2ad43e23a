"""Schedule construction for activity networks with time-lag constraints.

Each activity i has an initiation time x[i] and, where a start-finish
matrix A is given, a completion time y[i] with y = A ⊗ x: entry a[i][j]
is the least allowed lag from the start of activity j to the finish of
activity i, and completions happen at the earliest admissible moment.
A start-start matrix C constrains initiations through C ⊗ x ≤ x, with
𝟘 marking pairs that carry no lag.

The solvers below maximize the span between the latest and earliest
completion (or initiation) times and describe every optimal schedule.
`latest_schedule` extracts the customary representatives: per family,
the member with the latest initiation times.  `Schedule` is an
immutable `__slots__` record, like `BoxFamily`.
"""

from __future__ import annotations

from itertools import repeat

from .errors import InvariantViolation, NotIrreducible, NotSquare
from .matvec import Matrix, asterate, ones
from .optimizer import ConstrainedReport, SolutionReport, solve_constrained, solve_norm_form
from .semiring import Scalar, Semifield
from .solvers import _Frozen, _require_pinned


class Schedule(_Frozen):
    """One concrete schedule: initiation times, completions when defined,
    and the span it achieves."""

    __slots__ = ("initiation", "completion", "span")

    def __init__(self, initiation: Matrix, completion: Matrix | None, span: Scalar):
        object.__setattr__(self, "initiation", initiation)
        object.__setattr__(self, "completion", completion)
        object.__setattr__(self, "span", span)


def max_completion_spread(a: Matrix) -> SolutionReport:
    """Maximize the span of completion times y = A ⊗ x.

    The report's families describe the initiation vectors x directly;
    the optimum equals ‖A ⊗ A⁻‖.  `ProblemInstance` refuses a 𝟘 in A.
    """
    return solve_norm_form(a, a)


def max_initiation_spread(c: Matrix) -> ConstrainedReport:
    """Maximize the span of initiation times subject to C ⊗ x ≤ x.

    C must have no cycle heavier than 𝟙 and must be irreducible.  One
    `asterate` pass decides both, infeasibility first: it raises on a
    heavier cycle, and for n ≥ 2 entry (i, j) of C* is 𝟘 exactly when
    no walk leads from j to i, so C is irreducible exactly when C* is
    zero-free.  A 1×1 C is irreducible when its entry is nonzero.  The
    report is over the generator variable u; initiations are
    x = closure ⊗ u.
    """
    if c.rows != c.cols:
        raise NotSquare("the start-start matrix must be square")
    closure = asterate(c)
    if (closure if c.rows > 1 else c).first_zero() is not None:
        raise NotIrreducible(
            "the start-start matrix's nonzero pattern must be strongly connected")
    return ConstrainedReport(solve_norm_form(closure, closure), closure)


def max_completion_spread_constrained(a: Matrix, c: Matrix) -> ConstrainedReport:
    """Maximize the completion span under both constraint kinds.

    Requires a row-regular A and a feasible C.  This is
    `solve_constrained(A, A, 𝟙, 𝟙, C)`: with D = A ⊗ C* (which must
    come out free of zero entries) the optimum is ‖D ⊗ D⁻‖.  The report
    is over u, with x = closure ⊗ u and y = D ⊗ u.
    """
    if not a.is_row_regular():
        i = next(i for i, row in enumerate(a.data)
                 if all(v == a.sf.zero for v in row))
        raise InvariantViolation(
            f"start-finish matrix must be row regular; row {i + 1} "
            f"contains only zero entries")
    unit = ones(a.sf, a.rows)
    return solve_constrained(a, a, unit, unit, c)


def latest_schedule(report: SolutionReport, closure: Matrix | None = None,
                    start_finish: Matrix | None = None,
                    alpha: Scalar | None = None) -> list[Schedule]:
    """Per family, the member with the latest initiation times.

    Scales the member by `alpha` (default 𝟙), maps it through
    `closure` when the report lives in a generator variable, and
    attaches completions when `start_finish` is given.  Families that
    produce identical schedules are collapsed; distinct ones are all
    returned, in family order, by the rule of `_latest_columns`.

    Alpha is checked once, and each pair as `report.families` checks it.
    Each vector `_latest_columns` shifts is checked by one `contains_all`,
    with the messages of `Matrix` and `Matrix.scale`.
    """
    if not report.pairs:
        raise ValueError("the report contains no solution families")
    sf = report.sf
    alpha = sf.canonical(sf.one if alpha is None else alpha)
    if sf.is_zero(alpha):
        raise ValueError("alpha must exceed the semifield zero")
    if not sf.contains(alpha):
        raise ValueError(f"{alpha!r} is not a {sf.name} carrier element")
    for k, bounds in report._pair_bounds():
        _require_pinned(sf, k, bounds)
    mul, zero = sf.mul, sf.zero

    def shift(s, bounds):
        if zero in bounds or not sf.contains_all(bounds):
            # as in `BoxFamily.max_member`, the constructor canonicalises 𝟘
            # or raises its own message
            bounds = Matrix.column(sf, bounds).entries()
        return tuple(map(mul, repeat(alpha), bounds))

    # zip of one iterable yields the 1-tuples of a column's rows
    return [Schedule(Matrix._wrap(sf, tuple(zip(x))),
                     None if y is None else Matrix._wrap(sf, tuple(zip(y))), report.delta)
            for x, y, _ in _latest_columns(sf, report.bounds, shift, closure, start_finish)]


def _latest_columns(sf: Semifield, rows, shift, closure: Matrix | None,
                    start_finish: Matrix | None) -> list[tuple]:
    """The distinct `(x, y, s)` schedules of a report's `(s, vector)` rows,
    in order: the one home of the `--latest` rule.

    A family's latest schedule is its box's largest member, its row's
    vector, so the families of one row share one.  Equal vectors collapse
    by value to the first row before `shift(s, vector)`, called once per
    distinct row in first-seen order (a shift can round an int and an
    equal float apart).  `Semifield.product` takes the shifted vectors as
    the columns of X and forms x = closure ⊗ X and y = start_finish ⊗ x
    once each, after the checks of `@`; without them x is X, y None.  The
    first of equal `(x, y)` is kept; s names a row whose shifted vector
    equals x, or is None.
    """
    firsts = {}
    for s, vector in rows:
        firsts.setdefault(vector, s)
    # a dict's keys are the first of equal keys: each row's own tuple
    shifted = list(map(shift, firsts.values(), firsts))
    known = dict(zip(shifted, firsts.values()))
    xs, ys = shifted, repeat(None)
    if closure is not None:
        closure._require_factor(sf, len(xs[0]), len(xs))
        xs = list(zip(*sf.product(closure.data, xs)))
    if start_finish is not None:
        start_finish._require_factor(sf, len(xs[0]), len(xs))
        ys = zip(*sf.product(start_finish.data, xs))
    # a dict keeps the first of equal keys: the first family's schedule
    return [(x, y, known.get(x)) for x, y in dict.fromkeys(zip(xs, ys))]
