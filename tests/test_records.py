"""Behaviour of the immutable records: equality, hashing, repr, immutability,
construction, validation messages, and copies and pickles that keep the
semifield singletons."""

import copy
import pickle

import pytest

from tropspan import (BoxFamily, ConstrainedReport, InvariantViolation, Matrix,
                      ProblemInstance, Schedule, SolutionReport,
                      max_initiation_spread, max_plus, max_times, min_plus, ones,
                      solve_unconstrained)

A = Matrix(max_plus, [[0, -1], [-2, 0]])
UNIT = ones(max_plus, 2)
ROWS = ((1, (2, 0)),)   # the bounds of row s = 1

# (class, field values, repr of the record built from them)
RECORDS = [
    (BoxFamily, (max_plus, 0, (-1, -2)),
     "BoxFamily(sf=<max-plus semifield>, pinned_index=0, upper_bounds=(-1, -2))"),
    (ProblemInstance, (A, A, UNIT, UNIT),
     "ProblemInstance(A=Matrix(max-plus, [[0, -1], [-2, 0]]), "
     "B=Matrix(max-plus, [[0, -1], [-2, 0]]), p=Matrix(max-plus, [[0], [0]]), "
     "q=Matrix(max-plus, [[0], [0]]))"),
    (SolutionReport, (max_plus, 2, ((0, 1),), ROWS),
     "SolutionReport(sf=<max-plus semifield>, delta=2, pairs=((0, 1),), "
     "bounds=((1, (2, 0)),))"),
    (Schedule, (Matrix.column(max_plus, [0, 1]), None, 3),
     "Schedule(initiation=Matrix(max-plus, [[0], [1]]), completion=None, span=3)"),
    (ConstrainedReport, (SolutionReport(max_plus, 2, ((0, 1),), ROWS), A),
     "ConstrainedReport(report=SolutionReport(sf=<max-plus semifield>, delta=2, "
     "pairs=((0, 1),), bounds=((1, (2, 0)),)), "
     "closure=Matrix(max-plus, [[0, -1], [-2, 0]]))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
FIELDS = {
    BoxFamily: ("sf", "pinned_index", "upper_bounds"),
    ProblemInstance: ("A", "B", "p", "q"),
    SolutionReport: ("sf", "delta", "pairs", "bounds"),
    Schedule: ("initiation", "completion", "span"),
    ConstrainedReport: ("report", "closure"),
}


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, values, text):
    one, two = cls(*values), cls(*values)
    assert one == two and not one != two
    assert hash(one) == hash(two) == hash(values)


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, values, text):
    record = cls(**dict(zip(FIELDS[cls], values)))
    assert record == cls(*values)
    assert tuple(getattr(record, name) for name in FIELDS[cls]) == values


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, values, text):
    record = cls(*values)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is values[FIELDS[cls].index(name)]
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls,values,text", RECORDS[:-1], ids=IDS[:-1])
def test_records_of_another_class_are_never_equal(cls, values, text):
    class Twin(cls):
        __slots__ = ()

    record = cls(*values)
    assert record != Twin(*values) and Twin(*values) != record
    assert record != values and values != record


def test_constrained_report_compares_as_a_tuple():
    report, closure = RECORDS[-1][1]
    assert ConstrainedReport(report, closure) == (report, closure)
    assert ConstrainedReport(closure=closure, report=report)[0] is report


def test_box_family_stores_its_bounds_as_a_tuple():
    assert BoxFamily(max_plus, 1, [3, 4]).upper_bounds == (3, 4)
    assert BoxFamily(max_plus, 1, iter([3, 4])) == BoxFamily(max_plus, 1, (3, 4))


def test_report_families_are_built_from_pairs_and_row_bounds():
    row0, row1 = (0, -1), (-2, 0)
    report = SolutionReport(max_plus, 0, ((0, 0), (1, 0), (1, 1)), ((0, row0), (1, row1)))
    families = report.families
    assert families == (BoxFamily(max_plus, 0, row0), BoxFamily(max_plus, 1, row0),
                        BoxFamily(max_plus, 1, row1))
    assert families[0].upper_bounds is families[1].upper_bounds is row0
    with pytest.raises(AttributeError):
        report.families = families
    # a bad vector is refused by the family's constructor, on access
    bad = SolutionReport(max_plus, 0, ((0, 0),), ((0, (float("-inf"), 0)),))
    with pytest.raises(ValueError, match="^the pinned value must exceed the semifield zero$"):
        bad.families
    # as is a pair whose row has no bounds
    rowless = SolutionReport(max_plus, 0, ((0, 0), (0, 1)), ((0, row0),))
    with pytest.raises(ValueError, match=r"^pair \(0, 1\) has no bounds for its row 1$"):
        rowless.families


B_ZERO_COLUMN = Matrix(max_plus, [[0, None], [0, None]])


@pytest.mark.parametrize("build,error,message", [
    (lambda: BoxFamily(max_plus, 2, (0, 0)), ValueError,
     "pinned_index must address a component"),
    (lambda: BoxFamily(max_plus, -1, (0, 0)), ValueError,
     "pinned_index must address a component"),
    (lambda: BoxFamily(max_plus, 0, (float("-inf"), 0)), ValueError,
     "the pinned value must exceed the semifield zero"),
    (lambda: ProblemInstance(A, A, UNIT, ones(min_plus, 2)), InvariantViolation,
     "all instance data must share one semifield"),
    (lambda: ProblemInstance(A, Matrix(max_plus, [[0]]), UNIT, ones(max_plus, 1)),
     InvariantViolation,
     "matrices A and B must have the same number of columns; got 2 and 1"),
    (lambda: ProblemInstance(A, A, Matrix.row(max_plus, [0, 0]), UNIT), InvariantViolation,
     "p and q must be column vectors"),
    (lambda: ProblemInstance(A, A, ones(max_plus, 3), UNIT), InvariantViolation,
     "vector p must have one component per row of A; got 3 for 2 rows"),
    (lambda: ProblemInstance(A, A, UNIT, ones(max_plus, 1)), InvariantViolation,
     "vector q must have one component per row of B; got 1 for 2 rows"),
    (lambda: ProblemInstance(B_ZERO_COLUMN, A, UNIT, UNIT), InvariantViolation,
     "matrix A must have no zero entries; entry at row 1, column 2 is zero"),
    (lambda: ProblemInstance(A, B_ZERO_COLUMN, UNIT, UNIT), InvariantViolation,
     "matrix B must be column regular; column 2 contains only zero entries"),
    (lambda: ProblemInstance(A, A, Matrix.column(max_plus, [0, None]), UNIT),
     InvariantViolation, "vector p must be regular; component 2 is zero"),
    (lambda: ProblemInstance(A, A, UNIT, Matrix.column(max_plus, [None, 0])),
     InvariantViolation, "vector q must be regular; component 1 is zero"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_validation_messages_are_unchanged(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("a,b,p,message", [
    (B_ZERO_COLUMN, B_ZERO_COLUMN, Matrix.column(max_plus, [None, 0]),
     "matrix A must have no zero entries; entry at row 1, column 2 is zero"),
    (Matrix(max_plus, [[0, None], [0, 1]]), B_ZERO_COLUMN, Matrix.column(max_plus, [None, 0]),
     "matrix A must have no zero entries; entry at row 1, column 2 is zero"),
    (A, B_ZERO_COLUMN, Matrix.column(max_plus, [None, 0]),
     "matrix B must be column regular; column 2 contains only zero entries"),
    (A, A, Matrix.column(max_plus, [0, None]),
     "vector p must be regular; component 2 is zero"),
], ids=["B-is-A-with-a-zero", "A-zero-B-column-p", "B-column-p", "B-is-A-p"])
def test_the_first_broken_precondition_names_the_refusal(a, b, p, message):
    with pytest.raises(InvariantViolation) as info:
        ProblemInstance(a, b, p, Matrix.column(max_plus, [None, None]))
    assert str(info.value) == message


def test_problem_instance_counts_rows_of_a_and_columns():
    tall = Matrix(max_plus, [[0, 1], [2, 3], [4, 5]])
    instance = ProblemInstance(tall, tall, ones(max_plus, 3), ones(max_plus, 3))
    assert (instance.m, instance.n) == (3, 2)


# ----------------------------------------------------------------------
# copies and pickles: Matrix equality compares semifields by identity

COPIES = [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
COPY_IDS = ["copy", "deepcopy", "pickle"]


@pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
def test_semifield_singletons_survive_copies(make_copy):
    for sf in (max_plus, min_plus, max_times):
        assert make_copy(sf) is sf


@pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
def test_matrices_and_reports_copy_to_equal_values(make_copy):
    closure = Matrix(max_plus, [[None, -1], [-1, None]])
    constrained = max_initiation_spread(closure)
    report = solve_unconstrained(ProblemInstance(A, A, UNIT, UNIT))
    for value in (A, report, constrained):
        copied = make_copy(value)
        assert copied == value and hash(copied) == hash(value)
    assert make_copy(A).sf is max_plus
    assert make_copy(report).families[0].sf is max_plus
    copied = make_copy(constrained)
    assert type(copied) is ConstrainedReport
    assert copied.closure.sf is max_plus and copied.report.families[0].sf is max_plus


@pytest.mark.parametrize("make_copy", COPIES, ids=COPY_IDS)
@pytest.mark.parametrize("cls,values,text", RECORDS, ids=IDS)
def test_every_record_copies_to_an_equal_record(make_copy, cls, values, text):
    record = cls(*values)
    copied = make_copy(record)
    assert type(copied) is cls and copied == record and repr(copied) == text
