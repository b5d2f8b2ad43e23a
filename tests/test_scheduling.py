import copy
import json
import pickle
import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from tropspan import (INSTANCES, InvariantViolation, Matrix, NotIrreducible,
                      NotSquare, Schedule, ShapeMismatch, SolutionReport,
                      TrConditionViolated, asterate, latest_schedule, max_completion_spread,
                      max_completion_spread_constrained, max_initiation_spread,
                      max_plus, max_times, min_plus, ones, solve_constrained)
from tropspan.scheduling import _latest_columns
from support import (COMBINED, SS_STAR, START_FINISH, START_START, col, is_irreducible,
                     mp, potential_start_start, random_feasible_constraint,
                     random_zero_free, raw_satisfies_constraint, raw_span, rng_matrix,
                     sub_unit, tr_closure)


# ----------------------------------------------------------------------
# completion-time span

def test_completion_spread_worked_example():
    report = max_completion_spread(mp(START_FINISH))
    assert report.delta == 4
    assert report.pairs == ((0, 2),)
    assert report.families[0].upper_bounds == (0, -1, -3)
    sched, = latest_schedule(report, start_finish=mp(START_FINISH))
    assert sched.initiation == col([0, -1, -3])
    assert sched.completion == col([4, 2, 0])
    assert sched.span == 4


def test_completion_spread_single_activity():
    report = max_completion_spread(mp([[5]]))
    assert report.delta == 0


def test_completion_spread_rejects_zero_entries():
    # refused by `ProblemInstance`, which `solve_norm_form` builds on A
    with pytest.raises(InvariantViolation, match="^matrix A must have no zero entries; "
                                                 "entry at row 1, column 2 is zero$"):
        max_completion_spread(mp([[1, None], [0, 2]]))


@pytest.mark.parametrize("seed", range(6))
def test_completion_spread_matches_grid_maximum(seed):
    rng = random.Random(seed)
    a = random_zero_free(rng, 3, 3, lo=-4, hi=4)
    report = max_completion_spread(a)
    best = max(raw_span(a.data, (0,) + x) for x in product(range(-16, 17), repeat=2))
    assert best == report.delta


def test_completion_spread_delta_is_the_composed_norm():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = random_zero_free(rng, n, n)
        assert max_completion_spread(a).delta == (a @ a.conj()).norm()


# ----------------------------------------------------------------------
# initiation-time span

def test_initiation_spread_worked_example():
    report, closure = max_initiation_spread(mp(START_START))
    assert closure == mp(SS_STAR)
    assert report.delta == 3
    assert report.pairs == ((1, 2),)
    fam = report.families[0]
    assert (fam.pinned_index, fam.pinned_value, fam.upper_bounds) == (1, 3, (1, 3, 0))
    sched, = latest_schedule(report, closure=closure)
    assert sched.initiation == col([1, 3, 0])
    assert sched.completion is None
    assert sched.span == 3


def test_initiation_spread_forced_equal_starts():
    report, closure = max_initiation_spread(mp([[None, 0], [0, None]]))
    assert closure == mp([[0, 0], [0, 0]])
    assert report.delta == 0


# reducible (no arc reaches index 3) and infeasible (the cycle 1 → 2 → 1
# weighs 2): the constraints admit no schedule, and that is the refusal
REDUCIBLE_INFEASIBLE = [[None, 1, None], [1, None, None], [None, None, None]]


def test_initiation_spread_error_cases():
    with pytest.raises(TrConditionViolated):
        max_initiation_spread(mp([[1]]))
    with pytest.raises(NotIrreducible):
        max_initiation_spread(mp([[None, 0], [None, None]]))
    with pytest.raises(NotSquare):
        max_initiation_spread(mp([[1, 2]]))
    with pytest.raises(TrConditionViolated, match="^the closed walk through index 2 "
                       "has weight 2, which exceeds the unit 0$"):
        max_initiation_spread(mp(REDUCIBLE_INFEASIBLE))
    # a 1×1 C is irreducible exactly when its entry is nonzero
    with pytest.raises(NotIrreducible):
        max_initiation_spread(mp([[None]]))
    assert max_initiation_spread(mp([[-1]])).report.delta == 0


# C ⊗ x ≤ x with a closed walk through index 2 heavier than 𝟙, per
# semifield: the text of its weight and unit, and its weight, typed
INFEASIBLE = [
    pytest.param(max_plus, [[0, 1], [0, 0]], "1", "0", 1, id="max-plus-packed"),
    pytest.param(max_plus, [[0, 1.0], [0, 0]], "1", "0", 1.0, id="max-plus-loop"),
    pytest.param(min_plus, [[0, -1], [0, 0]], "-1", "0", -1, id="min-plus"),
    pytest.param(max_times, [[1, 2], [1, 1]], "2", "1", 2, id="max-times"),
]


@pytest.mark.parametrize("sf, c, weight_text, unit_text, weight", INFEASIBLE)
def test_every_caller_raises_the_kernels_refusal(sf, c, weight_text, unit_text, weight):
    """One refusal: the closure kernel words it and keeps its pivot and
    weight, and every caller passes it on as it is, through a pickle
    round trip and a deep copy too.  The int C packs its rows; the float
    sends max-plus to the generic loop."""
    c = Matrix(sf, c)
    unit = ones(sf, 2)
    a = Matrix(sf, [[sf.one] * 2] * 2)
    calls = [lambda: sf.star(c.data), lambda: asterate(c),
             lambda: solve_constrained(a, a, unit, unit, c),
             lambda: max_initiation_spread(c),
             lambda: max_completion_spread_constrained(a, c)]
    text = (f"the closed walk through index 2 has weight {weight_text}, "
            f"which exceeds the unit {unit_text}")
    for call in calls:
        with pytest.raises(TrConditionViolated) as refusal:
            call()
        for exc in (refusal.value, pickle.loads(pickle.dumps(refusal.value)),
                    copy.deepcopy(refusal.value)):
            assert (str(exc), exc.k, exc.weight, type(exc.weight)) == (text, 1, weight,
                                                                       type(weight))


def _random_constraint(rng, sf):
    """Square C of size 1-8 at a random density; each arc is w ⊗ pot[i] ⊗
    pot[j]⁻¹, where w may rise above 𝟙, so some C are infeasible."""
    n = rng.randint(1, 8)
    zero_prob = rng.choice((0.0, 0.3, 0.6, 0.85))
    lowest = rng.choice((0, -1, -2))   # sub_unit(sf, k) lies above 𝟙 for k < 0
    pot = [sub_unit(sf, rng.randint(-3, 3)) for _ in range(n)]
    rows = [[sf.zero] * n for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        if rng.random() >= zero_prob:
            w = sub_unit(sf, rng.randint(lowest, 6))
            rows[i][j] = sf.mul(w, sf.mul(pot[i], sf.inv(pot[j])))
    return Matrix(sf, rows)


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
def test_initiation_spread_refusals_match_the_references(sf):
    # infeasible by the trace closure refuses as infeasible, whatever the
    # pattern; else reducible by the depth-first searches refuses as
    # reducible; else it solves.  `combined`, on a zero-free A, refuses
    # exactly the infeasible C and solves the rest.
    rng = random.Random(sf.name)
    seen = Counter()
    for _ in range(250):
        c = _random_constraint(rng, sf)
        a = rng_matrix(rng, sf, c.rows, c.rows)
        feasible = sf.leq(tr_closure(c), sf.one)
        irreducible = is_irreducible(c)
        seen[feasible, irreducible] += 1
        if not feasible:
            with pytest.raises(TrConditionViolated):
                max_initiation_spread(c)
            with pytest.raises(TrConditionViolated):
                max_completion_spread_constrained(a, c)
            continue
        if irreducible:
            report, closure = max_initiation_spread(c)
            assert closure.is_zero_free()
            assert report.families
        else:
            with pytest.raises(NotIrreducible):
                max_initiation_spread(c)
        assert max_completion_spread_constrained(a, c).report.families
    # every outcome, reducible and infeasible included, is exercised
    assert len(seen) == 4, seen


@pytest.mark.parametrize("seed", range(6))
def test_initiation_spread_schedules_are_feasible_and_optimal(seed):
    rng = random.Random(40 + seed)
    c = random_feasible_constraint(rng, max_n=3)
    report, closure = max_initiation_spread(c)
    for sched in latest_schedule(report, closure=closure):
        x = sched.initiation.entries()
        assert raw_satisfies_constraint(c.data, x)
        assert max(x) - min(x) == report.delta


# ----------------------------------------------------------------------
# combined constraints

def test_combined_worked_example():
    report, closure = max_completion_spread_constrained(mp(START_FINISH), mp(START_START))
    assert (mp(START_FINISH) @ closure) == mp(COMBINED)
    assert report.delta == 2
    assert report.pairs == ((0, 2), (2, 2))
    assert [f.upper_bounds for f in report.families] == [(-2, -1, -3), (-2, -1, -3)]
    schedules = latest_schedule(report, closure=closure, start_finish=mp(START_FINISH))
    assert len(schedules) == 1
    assert schedules[0].initiation == col([-2, -1, -3])
    assert schedules[0].completion == col([2, 1, 0])


def test_combined_with_vacuous_constraint():
    a = mp(START_FINISH)
    report, closure = max_completion_spread_constrained(a, Matrix.zeros(max_plus, 3, 3))
    assert closure == Matrix.identity(max_plus, 3)
    assert report == max_completion_spread(a)


def test_combined_error_cases():
    a = mp(START_FINISH)
    with pytest.raises(TrConditionViolated,
                       match="^the closed walk through index 1 has weight 1, "
                             "which exceeds the unit 0$"):
        max_completion_spread_constrained(a, mp([[1, None, None],
                                                 [None, None, None],
                                                 [None, None, None]]))
    row_regular = ("^start-finish matrix must be row regular; row 1 "
                   "contains only zero entries$")
    with pytest.raises(InvariantViolation, match=row_regular):
        max_completion_spread_constrained(
            mp([[None, None], [1, 2]]), Matrix.zeros(max_plus, 2, 2))
    # refused before the closure, so an infeasible C does not mask it
    with pytest.raises(InvariantViolation, match=row_regular):
        max_completion_spread_constrained(
            mp([[None, None], [1, 2]]), mp([[1, None], [None, None]]))
    # a reducible C leaves a 𝟘 of A in A ⊗ C*
    with pytest.raises(InvariantViolation,
                       match="^product of matrix A and the constraint closure must "
                             "have no zero entries; entry at row 2, column 1 is zero$"):
        max_completion_spread_constrained(
            mp([[0, None], [None, 0]]), mp([[None, -1], [None, None]]))
    with pytest.raises(ShapeMismatch,
                       match="^the constraint matrix must be 3x3 to match the instance$"):
        max_completion_spread_constrained(a, Matrix.zeros(max_plus, 2, 2))
    with pytest.raises(NotSquare, match="^the constraint matrix must be square$"):
        max_completion_spread_constrained(a, mp([[1, 2]]))


@pytest.mark.parametrize("seed", range(6))
def test_combined_matches_constrained_grid_maximum(seed):
    rng = random.Random(80 + seed)
    c = random_feasible_constraint(rng, max_n=2)
    n = c.rows
    a = random_zero_free(rng, n, n, lo=-4, hi=4)
    report, closure = max_completion_spread_constrained(a, c)
    feasible = [x for x in product(range(-12, 13), repeat=n)
                if raw_satisfies_constraint(c.data, x)]
    assert max(raw_span(a.data, x) for x in feasible) == report.delta
    for sched in latest_schedule(report, closure=closure, start_finish=a):
        x = sched.initiation.entries()
        assert raw_satisfies_constraint(c.data, x)
        assert raw_span(a.data, x) == report.delta
        assert sched.completion == a @ sched.initiation


# ----------------------------------------------------------------------
# schedule extraction

def test_latest_schedule_shift_invariance():
    a = mp(START_FINISH)
    report = max_completion_spread(a)
    base, = latest_schedule(report, start_finish=a)
    shifted, = latest_schedule(report, start_finish=a, alpha=7)
    assert shifted.initiation == base.initiation.scale(7)
    assert shifted.completion == base.completion.scale(7)
    assert shifted.span == base.span


def _latest_schedule_per_family(report, closure, start_finish, alpha):
    """Reference: one product per family, then a scan for an equal schedule."""
    out = []
    for fam in report.families:
        member = fam.max_member().scale(alpha)
        x = closure @ member if closure is not None else member
        y = start_finish @ x if start_finish is not None else None
        if any(s.initiation == x and s.completion == y for s in out):
            continue
        out.append(Schedule(x, y, report.delta))
    return out


def _typed(schedules):
    """Schedules as (value, type) pairs: Matrix equality takes 2 == 2.0,
    but the CLI prints the two differently."""
    def entries(m):
        return None if m is None else [(v, type(v)) for v in m.entries()]
    return [(entries(s.initiation), entries(s.completion), s.span, type(s.span))
            for s in schedules]


@pytest.mark.parametrize("alpha", [0, 7, 2.5, 2**60 + 1])
def test_latest_schedule_matches_per_family_reference(alpha):
    rng = random.Random(alpha)
    runs = []
    for n in range(1, 13):
        for rows in ([[0] * n for _ in range(n)],
                     [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]):
            a = mp(rows)
            c = mp([[-v for v in row] for row in rows])   # dense, every cycle <= 0
            tied = mp([[0] * n for _ in range(n)])        # its own star closure
            runs += [(max_completion_spread(a), None, a),
                     (*max_initiation_spread(c), None),
                     (*max_completion_spread_constrained(a, c), a),
                     # maps distinct bounds with equal maxima to one schedule
                     (max_completion_spread(a), tied, a)]
    for n in (24, 40):
        for rows in ([[0] * n for _ in range(n)],
                     [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]):
            a = mp(rows)
            runs.append((max_completion_spread(a), None, a))
    for report, closure, start_finish in runs:
        assert (_typed(latest_schedule(report, closure, start_finish, alpha))
                == _typed(_latest_schedule_per_family(report, closure, start_finish, alpha)))


def test_latest_schedule_builds_no_matrix_through_the_constructor(monkeypatch):
    rng = random.Random(5)
    a = mp([[rng.randint(0, 2) for _ in range(40)] for _ in range(40)])
    report = max_completion_spread(a)
    assert len({fam.upper_bounds for fam in report.families}) > 1
    calls = []
    init = Matrix.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "__init__", counted)
    schedules = latest_schedule(report, start_finish=a, alpha=3)
    assert schedules
    assert calls == []


def test_all_tied_families_collapse_to_one_schedule():
    a = mp([[0] * 40 for _ in range(40)])
    report = max_completion_spread(a)
    assert len(report.families) == 1600
    sched, = latest_schedule(report, start_finish=a)
    assert sched.initiation == col([0] * 40)


def _product_left_operands(monkeypatch):
    """A list that each later `max_plus.product` call appends its rows
    operand to."""
    rows_seen = []
    product = type(max_plus).product

    def counted(self, rows, cols):
        rows_seen.append(rows)
        return product(self, rows, cols)

    monkeypatch.setattr(type(max_plus), "product", counted)
    return rows_seen


def test_latest_schedule_takes_equal_rows_once(monkeypatch):
    # rows 0 and 1 hold equal vectors in distinct tuples, ints and floats:
    # they collapse by value to the first row's one schedule
    report = SolutionReport(max_plus, 2, ((0, 0), (1, 0), (2, 0), (0, 1)),
                            ((0, (0, 1, 2)), (1, (0.0, 1.0, 2.0))))
    closure = mp([[0, -1, -2], [-1, 0, -1], [-2, -1, 0]])
    products = _product_left_operands(monkeypatch)
    sched, = latest_schedule(report, closure, alpha=1)
    assert len(products) == 1 and products[0] is closure.data
    assert [(v, type(v)) for v in sched.initiation.entries()] == [(1, int), (2, int), (3, int)]


@pytest.mark.parametrize("first,later", [
    ((2**60, 0), (2.0**60, 0)),
    ((2**60, max_plus.zero), (2.0**60, max_plus.zero)),   # rebuilt through Matrix
    ((1, max_plus.zero), (True, max_plus.zero)),          # the later one is refused
])
def test_latest_schedule_takes_the_first_of_equal_bounds(first, later):
    # equal tuples of rows s = 0 and s = 1 hash and compare equal, whatever
    # their entries' types; the first row's tuple gives the schedule
    report = SolutionReport(max_plus, 0, ((0, 0), (0, 1)), ((0, first), (1, later)))
    sched, = latest_schedule(report)
    assert [(v, type(v)) for v in sched.initiation.entries()] == [(v, type(v)) for v in first]


def test_latest_schedule_makes_one_product_per_matrix(monkeypatch):
    rng = random.Random(0)
    rows = [[rng.randint(0, 2) for _ in range(12)] for _ in range(12)]
    a = mp(rows)
    report, closure = max_completion_spread_constrained(a, mp([[-v for v in r] for r in rows]))
    assert len({fam.upper_bounds for fam in report.families}) == 3
    products = _product_left_operands(monkeypatch)
    schedules = latest_schedule(report, closure, a, alpha=2)
    assert len(schedules) == 3
    # the distinct vectors are the columns of one matrix, multiplied once by each
    assert len(products) == 2
    assert products[0] is closure.data and products[1] is a.data


def _columns(rows, closure=None, start_finish=None, alpha=0):
    """`_latest_columns` of `rows` under a shift by alpha, and the shift's calls."""
    calls = []

    def shift(s, vector):
        calls.append((s, vector))
        return tuple(max_plus.mul(alpha, v) for v in vector)

    return _latest_columns(max_plus, rows, shift, closure, start_finish), calls


def test_latest_columns_shift_each_distinct_row_once_in_first_seen_order():
    rows = ((0, (1, 2)), (1, (3, 4)), (2, (1.0, 2.0)), (3, (5, 6)), (4, (3, 4)))
    _, calls = _columns(rows)
    assert calls == [(0, (1, 2)), (1, (3, 4)), (3, (5, 6))]
    # each call gets its row's own tuple, ints where the later equal row has floats
    assert all(v is rows[s][1] for s, v in calls)
    # an all-tied 40x40 report: 40 equal rows, one call
    report = max_completion_spread(mp([[0] * 40 for _ in range(40)]))
    assert len(report.bounds) == 40
    columns, calls = _columns(report.bounds)
    assert [s for s, _ in calls] == [0] and len(columns) == 1
    # 10**22 == 1e22, but alpha 7 keeps only the int exact: one call, for row 0
    columns, calls = _columns(((0, (10**22, 0)), (1, (1e22, 0))), alpha=7)
    assert calls == [(0, (10**22, 0))] and type(calls[0][1][0]) is int
    assert columns == [((10**22 + 7, 7), None, 0)]


@pytest.mark.parametrize("alpha", [0, 7, 2.5])
def test_latest_columns_name_a_row_whose_shifted_vector_is_x(alpha):
    rng = random.Random(3)
    runs = []
    for n in (1, 2, 5, 12):
        rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        a, c = mp(rows), mp([[-v for v in row] for row in rows])
        runs += [(max_completion_spread(a), None, a),
                 (*max_initiation_spread(c), None),
                 (*max_completion_spread_constrained(a, c), a),
                 (max_completion_spread(a), mp([[0] * n for _ in range(n)]), a)]
    named = 0
    for report, closure, start_finish in runs:
        columns, calls = _columns(report.bounds, closure, start_finish, alpha)
        shifted = {s: tuple(max_plus.mul(alpha, v) for v in vector) for s, vector in calls}
        for x, y, s in columns:
            assert shifted[s] == x if s is not None else x not in shifted.values()
            named += s is not None
        # the schedules are those of `latest_schedule`
        assert [(x, y) for x, y, _ in columns] == [
            (s.initiation.entries(), None if s.completion is None else s.completion.entries())
            for s in latest_schedule(report, closure, start_finish, alpha)]
    assert named


def test_latest_columns_name_no_row_where_the_closure_moves_every_vector():
    # x = tied ⊗ u puts max(u) in every entry, and neither row is constant
    rows = ((0, (0, -1)), (1, (-1, 0)))
    columns, calls = _columns(rows, closure=mp([[0, 0], [0, 0]]), alpha=3)
    assert [s for s, _ in calls] == [0, 1]
    assert columns == [((3, 3), None, None)]


# ----------------------------------------------------------------------
# solver-made constrained reports: each bounds vector u has C* ⊗ u = u.
# With D = A ⊗ C* (or C* itself for ss), D ⊗ C* = D, so u = (row s of D)⁻
# is a fixed point of C*; on ints the identity is exact.

DATA = Path(__file__).parent / "data"
FIXED_POINT_CASES = [(n, density, kind) for n in (1, 2, 5, 12, 28)
                     for density in ("sparse", "dense")
                     for kind in ("ss", "combined", "combined-with-zeros")]


def _seeded_project(n, density, kind):
    rng = random.Random(n)
    c, _ = potential_start_start(rng, n, {"sparse": 0.1, "dense": 1.0}[density])
    if kind == "ss":
        return None, c
    a = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
    if kind == "combined-with-zeros":
        # one kept entry per row keeps A row regular; C* is zero-free, so it
        # fills every 𝟘 of A ⊗ C*
        for row in a:
            keep = rng.randrange(n)
            row[:] = [v if j == keep or rng.random() < 0.5 else None
                      for j, v in enumerate(row)]
    return a, c


def _golden_project(name):
    doc = json.loads((DATA / f"{name}.json").read_text())
    return doc.get("start_finish"), doc["start_start"]


@pytest.mark.parametrize("project", [
    *(pytest.param(case, id="-".join(map(str, case))) for case in FIXED_POINT_CASES),
    *(pytest.param(name, id=name) for name in ("ex2", "ex3", "dense")),
])
def test_closure_fixes_every_bounds_vector_of_a_constrained_report(project):
    a, c = _seeded_project(*project) if isinstance(project, tuple) else _golden_project(project)
    report, closure = (max_initiation_spread(mp(c)) if a is None
                       else max_completion_spread_constrained(mp(a), mp(c)))
    bounds = dict.fromkeys(fam.upper_bounds for fam in report.families)
    x = mp(list(zip(*bounds)))
    for shifted in (x, x.scale(3)):
        fixed = closure @ shifted
        assert fixed == shifted
        assert set(map(type, fixed.entries() + shifted.entries())) == {int}


def test_latest_schedule_rejects_degenerate_arguments():
    report = max_completion_spread(mp(START_FINISH))
    with pytest.raises(ValueError):
        latest_schedule(report, alpha=float("-inf"))
    for alpha, text in ((float("inf"), "inf"), (float("nan"), "nan"), (True, "True")):
        with pytest.raises(ValueError,
                           match=f"^{text} is not a max-plus carrier element$"):
            latest_schedule(report, alpha=alpha)
    empty = SolutionReport(max_plus, 0, (), ())
    with pytest.raises(ValueError):
        latest_schedule(empty)
    # the solvers never put +inf in a bounds vector; a hand-built report can
    infinite = SolutionReport(max_plus, 0, ((0, 0),), ((0, (0, float("inf"), 1)),))
    with pytest.raises(ValueError, match="^entry at row 2, column 1 is not a "
                                         "max-plus carrier element: inf$"):
        latest_schedule(infinite)
    # each pair is refused as `report.families` refuses it
    zero_pinned = SolutionReport(max_plus, 0, ((0, 0),), ((0, (float("-inf"), 0)),))
    with pytest.raises(ValueError, match="^the pinned value must exceed the semifield zero$"):
        latest_schedule(zero_pinned)
    rowless = SolutionReport(max_plus, 0, ((0, 0), (0, 1)), ((0, (0, 0)),))
    with pytest.raises(ValueError, match=r"^pair \(0, 1\) has no bounds for its row 1$"):
        latest_schedule(rowless)


_MT3 = Matrix(max_times, [[1, 1, 1]] * 3)


@pytest.mark.parametrize("closure, start_finish, error, message", [
    (None, mp([[0, 1], [1, 0], [0, 0]]), ShapeMismatch,
     "cannot multiply a 3x2 matrix by a 3x1 matrix"),
    (mp([[0, 0], [0, 0]]), None, ShapeMismatch, "cannot multiply a 2x2 matrix by a 3x1 matrix"),
    (mp([[0, 0, 0]] * 4), mp([[0, 0, 0]] * 3), ShapeMismatch,
     "cannot multiply a 3x3 matrix by a 4x1 matrix"),
    (_MT3, None, ValueError, "operands belong to different semifields"),
    (None, _MT3, ValueError, "operands belong to different semifields"),
], ids=["start-finish-shape", "closure-shape", "shape-after-closure",
        "closure-semifield", "start-finish-semifield"])
def test_latest_schedule_refuses_operands_as_matmul_does(closure, start_finish, error, message):
    # the columns go to `Semifield.product` directly, which would stop at
    # the shorter operand: the checks and messages of `@` still apply
    report = max_completion_spread(mp(START_FINISH))
    with pytest.raises(error, match=f"^{message}$"):
        latest_schedule(report, closure, start_finish)

