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
the member with the latest initiation times.  `Project` and `Schedule`
are immutable `__slots__` records, like `BoxFamily`.
"""

from __future__ import annotations

from itertools import repeat

from .errors import InvariantViolation, NotIrreducible, NotSquare, ShapeMismatch
from .matvec import Matrix, asterate, is_irreducible, ones
from .optimizer import (ConstrainedReport, SolutionReport, require_zero_free,
                        solve_constrained, solve_norm_form)
from .semiring import Scalar
from .solvers import _Frozen


class Project(_Frozen):
    """Activity count plus the constraint matrices that are present."""

    __slots__ = ("n", "start_finish", "start_start")

    def __init__(self, n: int, start_finish: Matrix | None = None,
                 start_start: Matrix | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "start_finish", start_finish)
        object.__setattr__(self, "start_start", start_start)
        if self.start_finish is None and self.start_start is None:
            raise ValueError("a project needs at least one constraint matrix")
        for name, m in (("start_finish", self.start_finish),
                        ("start_start", self.start_start)):
            if m is not None and m.shape != (self.n, self.n):
                raise ShapeMismatch(
                    f"{name} must be {self.n}x{self.n}, got {m.rows}x{m.cols}")


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
    the optimum equals ‖A ⊗ A⁻‖.
    """
    require_zero_free(a, "start-finish matrix")
    return solve_norm_form(a, a)


def max_initiation_spread(c: Matrix) -> ConstrainedReport:
    """Maximize the span of initiation times subject to C ⊗ x ≤ x.

    C must be irreducible and have no cycle heavier than 𝟙, which
    `asterate` checks.  The report is over the generator variable u;
    initiations are x = closure ⊗ u.
    """
    if c.rows != c.cols:
        raise NotSquare("the start-start matrix must be square")
    if not is_irreducible(c):
        raise NotIrreducible(
            "the start-start matrix's nonzero pattern must be strongly connected")
    closure = asterate(c)
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
    returned, in family order.

    Alpha is checked once.  Each distinct bounds vector is checked, by
    one `contains_all`, and shifted once, with the checks and messages
    of `Matrix` and `Matrix.scale`, but without building a `Matrix` for
    a vector that holds no 𝟘 and only carrier elements.  A bounds tuple
    object already seen (the families of one row share one) is skipped
    by its `id`, before it is hashed by value.
    """
    if not report.families:
        raise ValueError("the report contains no solution families")
    sf = report.families[0].sf
    if alpha is None:
        alpha = sf.one
    alpha = sf.canonical(alpha)
    if sf.is_zero(alpha):
        raise ValueError("alpha must exceed the semifield zero")
    if not sf.contains(alpha):
        raise ValueError(f"{alpha!r} is not a {sf.name} carrier element")
    mul, zero = sf.mul, sf.zero
    # a family's largest member is its bounds vector, so families that
    # share bounds (all pairs with the same row s) share their schedule
    seen_ids: set[int] = set()
    seen_bounds = set()
    out: dict[tuple[Matrix, Matrix | None], Schedule] = {}
    for fam in report.families:
        bounds = fam.upper_bounds
        if id(bounds) in seen_ids:
            continue
        seen_ids.add(id(bounds))
        if bounds in seen_bounds:
            continue
        seen_bounds.add(bounds)
        if zero in bounds or not sf.contains_all(bounds):
            # the constructor canonicalises 𝟘 or raises its own message
            bounds = fam.max_member().entries()
        # zip of one iterable yields the 1-tuples of a column's rows
        member = Matrix._wrap(sf, tuple(zip(map(mul, repeat(alpha), bounds))))
        x = closure @ member if closure is not None else member
        y = start_finish @ x if start_finish is not None else None
        out.setdefault((x, y), Schedule(x, y, report.delta))
    return list(out.values())
