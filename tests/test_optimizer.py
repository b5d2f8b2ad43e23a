import random
from itertools import product

import pytest

from tropspan import (INSTANCES, InvariantViolation, Matrix, NotRegular, NotSquare,
                      ProblemInstance, ShapeMismatch, TrConditionViolated, asterate,
                      evaluate_objective, max_completion_spread,
                      max_completion_spread_constrained, max_initiation_spread,
                      max_plus, max_times, ones, optimizer, solve_constrained,
                      solve_norm_form, solve_unconstrained)
from tropspan.optimizer import require_zero_free
from oracles import GridSpec, brute_force_max, solve_scalar_equation
from support import (COMBINED, NEG_INF, SS_STAR, START_FINISH, START_START, col,
                     counted_line, counted_products, mp, norm_form_instance,
                     potential_start_start, random_feasible_constraint,
                     random_instance, random_regular_column, random_row_regular,
                     raw_objective, raw_span, rng_feasible_constraint,
                     solve_unconstrained_by_entries)


# ----------------------------------------------------------------------
# instance validation

def test_instance_validation_names_the_failed_precondition():
    a = mp(START_FINISH)
    unit = ones(max_plus, 3)
    with pytest.raises(InvariantViolation, match="no zero entries"):
        ProblemInstance(mp(START_START), a, unit, unit)
    with pytest.raises(InvariantViolation, match="column regular"):
        ProblemInstance(a, mp([[1, None, 2], [3, None, 4], [0, None, 0]]), unit, unit)
    with pytest.raises(InvariantViolation, match="vector p must be regular"):
        ProblemInstance(a, a, col([0, None, 0]), unit)
    with pytest.raises(InvariantViolation, match="vector q must be regular"):
        ProblemInstance(a, a, unit, col([None, 0, 0]))
    with pytest.raises(InvariantViolation, match="same number of columns"):
        ProblemInstance(a, mp([[1, 2], [3, 4]]), unit, col([0, 0]))
    with pytest.raises(InvariantViolation, match="per row of A"):
        ProblemInstance(a, a, ones(max_plus, 2), unit)
    with pytest.raises(InvariantViolation, match="per row of B"):
        ProblemInstance(a, a, unit, ones(max_plus, 4))
    with pytest.raises(InvariantViolation, match="column vectors"):
        ProblemInstance(a, a, Matrix.row(max_plus, [0, 0, 0]), unit)


def test_solves_on_b_equal_a_scan_no_columns(monkeypatch):
    # every scheduling solve passes B = A, whose column regularity follows
    # from the zero-freeness of A checked just before
    calls = []
    scan = Matrix.is_column_regular

    def counted(self):
        calls.append(self)
        return scan(self)

    monkeypatch.setattr(Matrix, "is_column_regular", counted)
    max_completion_spread(mp(START_FINISH))
    max_initiation_spread(mp(START_START))
    max_completion_spread_constrained(mp(START_FINISH), mp(START_START))
    assert calls == []
    unit = ones(max_plus, 3)
    b = mp(START_FINISH)
    ProblemInstance(mp(START_FINISH), b, unit, unit)
    assert calls == [b]


# ----------------------------------------------------------------------
# objective evaluation

def test_objective_at_pinned_points():
    inst = norm_form_instance(START_FINISH)
    assert evaluate_objective(inst, col([0, -1, -3])) == 4
    assert evaluate_objective(inst, col([0, 0, 0])) == 2


def test_objective_requires_regular_vector():
    inst = norm_form_instance(START_FINISH)
    with pytest.raises(NotRegular):
        evaluate_objective(inst, col([0, None, 0]))
    with pytest.raises(ShapeMismatch):
        evaluate_objective(inst, col([0, 0]))


@pytest.mark.parametrize("seed", range(8))
def test_objective_is_scale_invariant(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_dim=4)
    x = random_regular_column(rng, inst.n)
    alpha = rng.randint(-9, 9)
    assert evaluate_objective(inst, x.scale(alpha)) == evaluate_objective(inst, x)


@pytest.mark.parametrize("seed", range(8))
def test_objective_agrees_with_raw_arithmetic(seed):
    rng = random.Random(50 + seed)
    inst = random_instance(rng, max_dim=4)
    for _ in range(20):
        x = random_regular_column(rng, inst.n)
        assert evaluate_objective(inst, x) == raw_objective(inst, x.entries())


# ----------------------------------------------------------------------
# the unconstrained solver

def test_unconstrained_worked_example():
    report = solve_unconstrained(norm_form_instance(START_FINISH))
    assert report.delta == 4
    assert report.pairs == ((0, 2),)
    fam = report.families[0]
    assert (fam.pinned_index, fam.pinned_value, fam.upper_bounds) == (0, 0, (0, -1, -3))


def test_unconstrained_tied_columns():
    report = solve_unconstrained(norm_form_instance(COMBINED))
    assert report.delta == 2
    assert report.pairs == ((0, 2), (2, 2))
    assert [f.upper_bounds for f in report.families] == [(-2, -1, -3), (-2, -1, -3)]
    assert [f.pinned_value for f in report.families] == [-2, -3]


def test_unconstrained_single_activity():
    inst = ProblemInstance(mp([[0]]), mp([[0]]), ones(max_plus, 1), ones(max_plus, 1))
    report = solve_unconstrained(inst)
    assert report.delta == 0
    assert report.families[0].pinned_value == 0


def test_delta_matches_matrix_composition():
    rng = random.Random(17)
    for _ in range(30):
        inst = random_instance(rng, max_dim=4)
        report = solve_unconstrained(inst)
        composed = (inst.q.conj() @ inst.B @ inst.A.conj() @ inst.p)[0, 0]
        assert report.delta == composed


def test_norm_form_equals_unconstrained_with_unit_weights():
    a = mp(START_FINISH)
    assert solve_norm_form(a, a) == solve_unconstrained(norm_form_instance(START_FINISH))
    assert solve_norm_form(a, a).delta == (a @ a.conj()).norm()
    assert solve_norm_form(mp(COMBINED), mp(COMBINED)).delta == 2
    assert solve_norm_form(mp([[7]]), mp([[7]])).delta == 0


def test_families_of_one_row_share_one_bounds_tuple():
    n = 40
    a = mp([[0] * n for _ in range(n)])
    with counted_products() as counts:
        report = solve_norm_form(a, a)
    assert len(report.families) == n * n
    # each bound once: n² products for W, n² for the n dots q⁻ ⊗ b_j, n for the terms
    assert counts["mul"] == 2 * n * n + n
    by_row = {}
    for (k, s), fam in zip(report.pairs, report.families):
        assert fam.upper_bounds is by_row.setdefault(s, fam.upper_bounds)
    assert len(by_row) == n
    assert all(bounds == (0,) * n for bounds in by_row.values())


# ----------------------------------------------------------------------
# the whole-vector passes against the solver by entries

def _exact(report):
    """delta, pairs and bounds, each number with its type and repr: 2**60
    and 2.0**60 tie, as do 0.0 and -0.0, but each pair prints differently."""
    def typed(values):
        return [(v, type(v), repr(v)) for v in values]
    return typed([report.delta]), report.pairs, [(s, typed(b)) for s, b in report.bounds]


def _tie_element(rng, sf):
    """A finite element, often one side of an int/float tie or a signed zero."""
    if sf is max_times:
        v = rng.choice((1, 2, 3, 2 ** 60, 0.5))
        return rng.choice((v, float(v)))
    v = rng.choice((0, 0, 1, -2, 3, 2 ** 60, -2 ** 60))
    return rng.choice((v, float(v), -float(v)))


def _units(sf):
    """𝟙 as an int and as a float, and -0.0 where 𝟙 is 0."""
    return (sf.one, float(sf.one)) + (() if sf is max_times else (-0.0,))


def _weights(rng, sf, m):
    """p or q: `ones` (every entry the int 𝟙), units of both types and
    signs, or any elements."""
    kind = rng.choice(("ones", "units", "any"))
    if kind == "ones":
        return ones(sf, m)
    pick = (lambda: rng.choice(_units(sf))) if kind == "units" else (lambda: _tie_element(rng, sf))
    return Matrix.column(sf, [pick() for _ in range(m)])


def _differential_instances(rng, sf):
    for n in (1, 2, 3, 5, 8, 16, 40):
        m, l = rng.randint(1, n + 3), rng.randint(1, n + 3)
        a = Matrix(sf, [[_tie_element(rng, sf) for _ in range(n)] for _ in range(m)])
        b = [[sf.zero if rng.random() < 0.3 else _tie_element(rng, sf) for _ in range(n)]
             for _ in range(l)]
        for j in range(n):   # column regular
            if all(row[j] == sf.zero for row in b):
                b[rng.randrange(l)][j] = _tie_element(rng, sf)
        yield ProblemInstance(a, Matrix(sf, b), _weights(rng, sf, m), _weights(rng, sf, l))
        yield ProblemInstance(a, a, _weights(rng, sf, m), _weights(rng, sf, m))
        # int rows, and rows of units of both types and signs, whose
        # inverses ⊗ 𝟙 keep or lose a signed zero
        for pick in ((lambda: rng.choice((1, 2, 3))), (lambda: rng.choice(_units(sf)))):
            c = Matrix(sf, [[pick() for _ in range(n)] for _ in range(m)])
            yield ProblemInstance(c, c, _weights(rng, sf, m), _weights(rng, sf, m))
            yield ProblemInstance(c, c, ones(sf, m), ones(sf, m))
    # ints near the largest float beside a float: each entry is a carrier
    # element, but their sum is past the float range
    big = Matrix(sf, [[10 ** 308, 10 ** 308, 0.5]])
    yield ProblemInstance(big, big, ones(sf, 1), ones(sf, 1))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@pytest.mark.parametrize("seed", range(3))
def test_solver_matches_the_solver_by_entries(sf, seed):
    """delta, pairs and bounds equal those of the solver by entries, by
    value, type and repr, on every shipped semifield up to n = 40."""
    rng = random.Random(f"differential:{sf.name}:{seed}")
    for inst in _differential_instances(rng, sf):
        assert _exact(solve_unconstrained(inst)) == _exact(solve_unconstrained_by_entries(inst))


def _constrained_cases(rng):
    """(a, b, p, q, c): potential-based max-plus C up to n = 40 with int or
    mixed A, and small feasible C on every semifield; A may hold 𝟘."""
    for n in (2, 5, 12, 40):
        c = mp(potential_start_start(rng, n, 0.3)[0])
        for entry in ((lambda: rng.randint(0, 9)), (lambda: _tie_element(rng, max_plus))):
            a = mp([[None if rng.random() < 0.2 else entry() for _ in range(n)] for _ in range(n)])
            yield a, a, ones(max_plus, n), ones(max_plus, n), c
            b = mp([[entry() for _ in range(n)] for _ in range(n + 1)])
            yield a, b, _weights(rng, max_plus, n), _weights(rng, max_plus, n + 1), c
    for sf in INSTANCES:
        for _ in range(6):
            c = rng_feasible_constraint(rng, sf, max_n=5)
            n = c.rows
            a = Matrix(sf, [[_tie_element(rng, sf) for _ in range(n)] for _ in range(n)])
            yield a, a, _weights(rng, sf, n), _weights(rng, sf, n), c


def test_constrained_reports_match_the_solver_by_entries(monkeypatch):
    """The report of `solve_constrained` equals the solver by entries on
    its reduced instance (A ⊗ C*, B ⊗ C*, p, q), by value, type and repr."""
    reduced = []

    def spy(inst):
        reduced.append(inst)
        return solve_unconstrained(inst)

    monkeypatch.setattr(optimizer, "solve_unconstrained", spy)
    rng = random.Random(34)
    solved = 0
    for a, b, p, q, c in _constrained_cases(rng):
        try:
            report = solve_constrained(a, b, p, q, c).report
        except InvariantViolation:   # a reduced A with a 𝟘 entry
            continue
        assert _exact(report) == _exact(solve_unconstrained_by_entries(reduced[-1]))
        solved += 1
    assert solved >= 20


def _typed(values):
    """Values with their types: an int and an equal float tie but print differently."""
    return [(v, type(v)) for v in values]


def _lemma_instances():
    rng = random.Random(29)

    def entry():
        v = rng.randint(-10, 10)
        return rng.choice((v, float(v), v / 2))

    for n in (1, 2, 3, 7, 16, 40):
        m, l = rng.randint(1, n), rng.randint(1, n)
        a = mp([[entry() for _ in range(n)] for _ in range(m)])
        b = mp([[entry() for _ in range(n)] for _ in range(l)])
        yield ProblemInstance(a, b, col([entry() for _ in range(m)]),
                              col([entry() for _ in range(l)]))
        # all tied, with 0 and 0.0 mixed: every pair (k, s) is a family
        tied = mp([[rng.choice((0, 0.0)) for _ in range(n)] for _ in range(n)])
        yield ProblemInstance(tied, tied, ones(max_plus, n), ones(max_plus, n))


def test_bounds_of_row_s_are_the_box_of_its_scalar_equation():
    # the lemma behind solve_unconstrained: the family (k, s) is box k of
    # the solutions of a_s ⊗ x = p_s, with a_s the row s of A
    families = 0
    for inst in _lemma_instances():
        boxes = {}
        report = solve_unconstrained(inst)
        for (k, s), fam in zip(report.pairs, report.families):
            if s not in boxes:
                boxes[s] = solve_scalar_equation(Matrix.row(max_plus, inst.A.data[s]),
                                                 inst.p[s])
            box = boxes[s][k]
            assert fam.pinned_index == box.pinned_index == k
            assert _typed(fam.upper_bounds) == _typed(box.upper_bounds)
            families += 1
    assert families > 40 * 40


# ----------------------------------------------------------------------
# attainment and optimality

def family_members(rng, fam, count=5):
    yield fam.upper_bounds
    for _ in range(count):
        yield tuple(b if j == fam.pinned_index else b - rng.randint(0, 6)
                    for j, b in enumerate(fam.upper_bounds))


@pytest.mark.parametrize("seed", range(10))
def test_every_family_member_attains_delta(seed):
    rng = random.Random(300 + seed)
    inst = random_instance(rng, max_dim=4)
    report = solve_unconstrained(inst)
    for fam in report.families:
        for member in family_members(rng, fam):
            assert evaluate_objective(inst, col(member)) == report.delta


@pytest.mark.parametrize("seed", range(10))
def test_objective_never_exceeds_delta(seed):
    rng = random.Random(400 + seed)
    inst = random_instance(rng, max_dim=4)
    report = solve_unconstrained(inst)
    for _ in range(50):
        x = random_regular_column(rng, inst.n)
        assert max_plus.leq(evaluate_objective(inst, x), report.delta)


@pytest.mark.parametrize("seed", range(6))
def test_small_instances_match_the_grid_oracle(seed):
    rng = random.Random(500 + seed)
    inst = random_instance(rng, max_dim=3, lo=-5, hi=5)
    report = solve_unconstrained(inst)
    oracle = brute_force_max(inst, GridSpec(dim=inst.n, lo=-25, hi=25))
    assert oracle.value == report.delta
    for point in oracle.argmax:
        assert any(f.contains(point, allow_scaling=True) for f in report.families)


# ----------------------------------------------------------------------
# the constrained solver

def test_constrained_worked_example():
    a = mp(START_FINISH)
    unit = ones(max_plus, 3)
    report, closure = solve_constrained(a, a, unit, unit, mp(START_START))
    assert closure == mp(SS_STAR)
    assert report.delta == 2
    assert report.pairs == ((0, 2), (2, 2))
    assert report.families[0].upper_bounds == (-2, -1, -3)


def test_constrained_checks_the_reduced_matrix_not_a():
    # A holds 𝟘 entries that A ⊗ C* fills, so only the reduced problem is checked
    a = mp([[0, None], [None, 0]])
    c = mp([[None, -1], [-1, None]])
    unit = ones(max_plus, 2)
    report, closure = solve_constrained(a, a, unit, unit, c)
    assert closure == mp([[0, -1], [-1, 0]])
    assert report.delta == 1
    assert report.pairs == ((0, 1), (1, 0))
    assert [f.upper_bounds for f in report.families] == [(1, 0), (0, 1)]
    assert (report, closure) == max_completion_spread_constrained(a, c)


def test_constrained_with_vacuous_constraint_reduces_to_unconstrained():
    rng = random.Random(23)
    for _ in range(10):
        inst = random_instance(rng, max_dim=4)
        report, closure = solve_constrained(inst.A, inst.B, inst.p, inst.q,
                                            Matrix.zeros(max_plus, inst.n, inst.n))
        assert closure == Matrix.identity(max_plus, inst.n)
        assert report == solve_unconstrained(inst)


def test_constrained_after_generator_substitution():
    star = mp(SS_STAR)
    report = solve_unconstrained(
        ProblemInstance(star, star, ones(max_plus, 3), ones(max_plus, 3)))
    assert report.delta == 3
    assert report.pairs == ((1, 2),)


def test_constrained_is_idempotent_on_substituted_data():
    # the closure is a fixed point of itself, so feeding the already
    # substituted instance back through the constrained solver changes nothing
    star = mp(SS_STAR)
    unit = ones(max_plus, 3)
    report, closure = solve_constrained(star, star, unit, unit, mp(START_START))
    assert closure == star
    assert star @ star == star
    assert report.delta == 3
    assert report.pairs == ((1, 2),)


def test_constrained_shape_errors():
    a = mp(START_FINISH)
    unit = ones(max_plus, 3)
    vacuous = Matrix.zeros(max_plus, 3, 3)
    with pytest.raises(NotSquare, match="^the constraint matrix must be square$"):
        solve_constrained(a, a, unit, unit, mp([[1, 2]]))
    with pytest.raises(ShapeMismatch,
                       match="^the constraint matrix must be 3x3 to match the instance$"):
        solve_constrained(a, a, unit, unit, mp([[1, 2], [3, 4]]))
    with pytest.raises(ShapeMismatch,
                       match="^cannot multiply a 3x2 matrix by a 3x3 matrix$"):
        solve_constrained(a, mp([[1, 2], [3, 4], [5, 6]]), unit, unit, vacuous)
    # a reducible C leaves the 𝟘 entries of A in A ⊗ C*
    with pytest.raises(InvariantViolation,
                       match="^product of matrix A and the constraint closure must "
                             "have no zero entries; entry at row 1, column 2 is zero$"):
        a2, unit2 = mp([[1, None], [0, 2]]), ones(max_plus, 2)
        solve_constrained(a2, a2, unit2, unit2, mp([[None, None], [0, None]]))
    with pytest.raises(InvariantViolation,
                       match="^matrix B must be column regular; column 2 "
                             "contains only zero entries$"):
        solve_constrained(a, mp([[1, None, 2], [3, None, 4]]), unit, ones(max_plus, 2),
                          mp([[None, None, None], [None, None, None], [0, None, None]]))
    with pytest.raises(InvariantViolation,
                       match="^vector p must be regular; component 2 is zero$"):
        solve_constrained(a, a, col([0, None, 0]), unit, vacuous)
    with pytest.raises(InvariantViolation,
                       match="^vector q must be regular; component 3 is zero$"):
        solve_constrained(a, a, unit, col([0, 0, None]), vacuous)


def test_constrained_forms_a_times_the_closure_once(monkeypatch):
    """One closure call takes A's rows, and B's when B is not A, as its
    tail; no `@` is left to form A ⊗ C* or B ⊗ C*."""
    a = mp(START_FINISH)
    c = mp(START_START)
    unit = ones(max_plus, 3)
    passes, products = [], []
    star, matmul = max_plus.star, Matrix.__matmul__

    def counted_star(rows, tail=()):
        passes.append(len(tail))
        return star(rows, tail)

    def counted_matmul(self, other):
        products.append(1)
        return matmul(self, other)

    monkeypatch.setattr(max_plus, "star", counted_star)
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    max_completion_spread_constrained(a, c)
    solve_constrained(a, a, unit, unit, c)
    # an equal but distinct B rides in the tail on its own
    solve_constrained(a, mp(START_FINISH), unit, unit, c)
    assert passes == [3, 3, 6]
    assert products == []


def _typed_rows(m):
    return list(map(_typed, m.data))


def _fused_cases(rng, n):
    """(name, A, B, C) at size n.  C is potential-based, sparse or dense:
    feasible, with a planted positive cycle, or reducible (no arc from the
    last nodes back to the first m).  A is zero-free or holds 𝟘 entries,
    within ±9 or ±2**40; B is A or a distinct matrix.  At n = 160, for
    time, only the sparse C."""
    for density in [rng.uniform(0.1, 0.5)] + ([1.0] if n < 160 else []):
        rows, pot = potential_start_start(rng, n, density)
        heavy = [list(r) for r in rows]
        i, j = rng.randrange(n), rng.randrange(n)
        heavy[i][j], heavy[j][i] = pot[i] - pot[j] + 1, pot[j] - pot[i]
        if i == j:
            heavy[i][i] = 1
        m = rng.randint(0, n)
        reducible = [[None if i < m <= j else v for j, v in enumerate(r)]
                     for i, r in enumerate(rows)]
        for name, c in (("feasible", rows), ("positive cycle", heavy),
                        ("reducible", reducible)):
            hi = rng.choice((9, 2 ** 40))
            a = random_row_regular(rng, rng.randint(1, n), n, -hi, hi,
                                   zero_prob=rng.choice((0.0, 0.5)))
            b = a if rng.random() < 0.5 else random_row_regular(rng, rng.randint(1, n), n, 0, 9)
            yield f"{name} at density {density:.2f}", a, b, mp(c)


def _mixed(rng, a):
    """A with each entry kept, made an equal float or moved by -0.25."""
    return mp([[rng.choice((v, float(v), v - 0.25)) for v in r] for r in a.data])


def _constrained_or_refusal(a, b, p, q, c, monkeypatch):
    """The closure and the reduced (A, B) that `solve_constrained` hands to
    `solve_unconstrained`, typed, or the type and text of its refusal."""
    reduced = []

    def spy(inst):
        reduced.append(inst)
        return solve_unconstrained(inst)

    try:
        with monkeypatch.context() as patch:
            patch.setattr(optimizer, "solve_unconstrained", spy)
            closure = solve_constrained(a, b, p, q, c).closure
    except (TrConditionViolated, InvariantViolation) as exc:
        return type(exc), str(exc)
    [inst] = reduced
    assert (inst.B is inst.A) is (b is a)
    return _typed_rows(closure), _typed_rows(inst.A), _typed_rows(inst.B)


def _reference_or_refusal(a, b, p, q, c):
    """The same from `asterate(c)`, `a @ closure` and `b @ closure`."""
    try:
        closure = asterate(c)
        ac, bc = a @ closure, b @ closure
        require_zero_free(ac, "product of matrix A and the constraint closure")
        ProblemInstance(ac, bc, p, q)
    except (TrConditionViolated, InvariantViolation) as exc:
        return type(exc), str(exc)
    return _typed_rows(closure), _typed_rows(ac), _typed_rows(bc)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 28, 64, 160])
def test_constrained_matches_the_closure_and_its_products(n, monkeypatch):
    """One closure pass gives the C* and the reduced (A ⊗ C*, B ⊗ C*)
    of `asterate(c)` and `@`, by value and type, and refuses with the same
    pivot and message.  With float or mixed A, the whole call takes the
    generic loop: neither C's pivots nor the tail rows pack."""
    rng = random.Random(900 + n)
    for name, a, b, c in _fused_cases(rng, n):
        p = random_regular_column(rng, a.rows)
        q = p if b is a else random_regular_column(rng, b.rows)
        variants = [a]
        if n <= 28:
            variants += [_mixed(rng, a), mp([[float(v) for v in r] for r in a.data])]
        for a_ in variants:
            b_ = a_ if b is a else b
            expected = _reference_or_refusal(a_, b_, p, q, c)
            if not any(type(v) is float and v != NEG_INF for v in a_.entries()):
                assert _constrained_or_refusal(a_, b_, p, q, c, monkeypatch) == expected, name
                continue
            # one tracer at a time: a run counts the packed pivots, a second
            # one the packed tail accumulate
            with counted_line(type(max_plus).star, "ckk = ck >>") as pivots:
                assert _constrained_or_refusal(a_, b_, p, q, c, monkeypatch) == expected, name
            with counted_line(type(max_plus).star, "acc = t ^") as accumulates:
                assert _constrained_or_refusal(a_, b_, p, q, c, monkeypatch) == expected, name
            assert pivots["runs"] == 0, name
            assert accumulates["runs"] == 0, name


def _constrained_inputs(rng, max_n, lo, hi, extra=5):
    """A feasible C with a zero-free A, then `extra` feasible C, each with
    a row-regular A that holds 𝟘 entries where n > 1."""
    c = random_feasible_constraint(rng, max_n=max_n)
    n = c.rows
    yield mp([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]), c
    for _ in range(extra):
        c = random_feasible_constraint(rng, max_n=max_n)
        yield random_row_regular(rng, c.rows, c.rows, lo, hi), c


@pytest.mark.parametrize("seed", range(8))
def test_constrained_solutions_are_feasible_and_optimal(seed):
    rng = random.Random(600 + seed)
    for a, c in _constrained_inputs(rng, 3, -5, 5):
        unit = ones(max_plus, c.rows)
        report, closure = solve_constrained(a, a, unit, unit, c)
        assert (report, closure) == max_completion_spread_constrained(a, c)
        for fam in report.families:
            for member in family_members(rng, fam):
                x = closure @ col(member)
                assert (c @ x).leq(x)
                assert raw_span(a.data, x.entries()) == report.delta


@pytest.mark.parametrize("seed", range(4))
def test_constrained_matches_filtered_grid_oracle(seed):
    rng = random.Random(700 + seed)
    for a, c in _constrained_inputs(rng, 2, -3, 3):
        unit = ones(max_plus, c.rows)
        report, _ = solve_constrained(a, a, unit, unit, c)
        best = max(
            (raw_span(a.data, x)
             for x in product(range(-12, 13), repeat=c.rows)
             if all(max(cij + xj for cij, xj in zip(row, x)) <= xi
                    for row, xi in zip(c.data, x))),
            default=None)
        assert best == report.delta
