import random
from itertools import product

import pytest

from tropspan import (InvariantViolation, Matrix, NotRegular, NotSquare,
                      ProblemInstance, ShapeMismatch, evaluate_objective, max_plus,
                      ones, solve_constrained, solve_norm_form, solve_unconstrained)
from oracles import GridSpec, brute_force_max, solve_scalar_equation
from support import (COMBINED, SS_STAR, START_FINISH, START_START, col,
                     counted_products, mp,
                     random_feasible_constraint, random_instance,
                     random_regular_column, raw_objective)


def norm_form_instance(rows):
    a = mp(rows)
    return ProblemInstance(a, a, ones(max_plus, a.rows), ones(max_plus, a.rows))


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
    # 3n² + n products find delta and the tied pairs, n² more the n rows' bounds
    assert 0 < counts["mul"] <= 5 * n * n
    by_row = {}
    for (k, s), fam in zip(report.pairs, report.families):
        assert fam.upper_bounds is by_row.setdefault(s, fam.upper_bounds)
    assert len(by_row) == n
    assert all(bounds == (0,) * n for bounds in by_row.values())


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
    inst = ProblemInstance(a, a, ones(max_plus, 3), ones(max_plus, 3))
    report, closure = solve_constrained(inst, mp(START_START))
    assert closure == mp(SS_STAR)
    assert report.delta == 2
    assert report.pairs == ((0, 2), (2, 2))
    assert report.families[0].upper_bounds == (-2, -1, -3)


def test_constrained_with_vacuous_constraint_reduces_to_unconstrained():
    rng = random.Random(23)
    for _ in range(10):
        inst = random_instance(rng, max_dim=4)
        report, closure = solve_constrained(inst, Matrix.zeros(max_plus, inst.n, inst.n))
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
    inst = ProblemInstance(star, star, ones(max_plus, 3), ones(max_plus, 3))
    report, closure = solve_constrained(inst, mp(START_START))
    assert closure == star
    assert star @ star == star
    assert report.delta == 3
    assert report.pairs == ((1, 2),)


def test_constrained_shape_errors():
    inst = norm_form_instance(START_FINISH)
    with pytest.raises(NotSquare):
        solve_constrained(inst, mp([[1, 2]]))
    with pytest.raises(ShapeMismatch):
        solve_constrained(inst, mp([[1, 2], [3, 4]]))


@pytest.mark.parametrize("seed", range(8))
def test_constrained_solutions_are_feasible_and_optimal(seed):
    rng = random.Random(600 + seed)
    c = random_feasible_constraint(rng, max_n=3)
    n = c.rows
    a = mp([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    inst = ProblemInstance(a, a, ones(max_plus, n), ones(max_plus, n))
    report, closure = solve_constrained(inst, c)
    for fam in report.families:
        for member in family_members(rng, fam):
            x = closure @ col(member)
            assert (c @ x).leq(x)
            assert evaluate_objective(inst, x) == report.delta


@pytest.mark.parametrize("seed", range(4))
def test_constrained_matches_filtered_grid_oracle(seed):
    rng = random.Random(700 + seed)
    c = random_feasible_constraint(rng, max_n=2)
    n = c.rows
    a = mp([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    inst = ProblemInstance(a, a, ones(max_plus, n), ones(max_plus, n))
    report, _ = solve_constrained(inst, c)
    best = max(
        (raw_objective(inst, x)
         for x in product(range(-12, 13), repeat=n)
         if all(max(cij + xj for cij, xj in zip(row, x)) <= xi
                for row, xi in zip(c.data, x))),
        default=None)
    assert best == report.delta
