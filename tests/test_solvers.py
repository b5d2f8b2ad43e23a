import random
from itertools import product

import pytest

from tropspan import (BoxFamily, Matrix, NotIrreducible, NotRegular, NotSquare,
                      ShapeMismatch, TrConditionViolated, asterate,
                      max_initiation_spread, max_plus)
from oracles import ZeroRightHandSide, solve_scalar_equation
from support import (SS_STAR, START_START, col, mp, random_feasible_constraint,
                     random_regular_column, raw_satisfies_constraint)


# ----------------------------------------------------------------------
# the single linear equation, solved by the reference in tests/oracles.py

def test_scalar_equation_single_component():
    families = solve_scalar_equation(col([0]), 5)
    assert len(families) == 1
    assert families[0].pinned_value == 5
    assert families[0].upper_bounds == (5,)


def test_scalar_equation_two_components():
    families = solve_scalar_equation(col([0, -1]), 5)
    assert [(f.pinned_index, f.pinned_value, f.upper_bounds) for f in families] == [
        (0, 5, (5, 6)),
        (1, 6, (5, 6)),
    ]


def test_scalar_equation_symmetric_case():
    families = solve_scalar_equation(col([2, 2]), 0)
    assert [(f.pinned_index, f.pinned_value, f.upper_bounds) for f in families] == [
        (0, -2, (-2, -2)),
        (1, -2, (-2, -2)),
    ]


def test_scalar_equation_rejects_bad_input():
    with pytest.raises(NotRegular):
        solve_scalar_equation(col([0, None]), 5)
    with pytest.raises(ZeroRightHandSide):
        solve_scalar_equation(col([0, 1]), float("-inf"))
    with pytest.raises(ShapeMismatch):
        solve_scalar_equation(mp([[1, 2], [3, 4]]), 5)


def grid_solutions(coeffs, d, lo, hi):
    """Exhaustive integer solutions of max_j (coeffs[j] + x[j]) = d."""
    return [x for x in product(range(lo, hi + 1), repeat=len(coeffs))
            if max(c + xj for c, xj in zip(coeffs, x)) == d]


@pytest.mark.parametrize("seed", range(12))
def test_scalar_equation_matches_grid_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    coeffs = [rng.randint(-4, 4) for _ in range(n)]
    d = rng.randint(-3, 3)
    families = solve_scalar_equation(col(coeffs), d)

    lo = min(d - c for c in coeffs) - 3
    hi = max(d - c for c in coeffs) + 3
    for x in grid_solutions(coeffs, d, lo, hi):
        assert any(f.contains(x) for f in families)
    # soundness: box corners and interior samples solve the equation exactly
    for f in families:
        corner = f.upper_bounds
        assert max(c + xj for c, xj in zip(coeffs, corner)) == d
        for _ in range(10):
            x = [b if j == f.pinned_index else b - rng.randint(0, 5)
                 for j, b in enumerate(corner)]
            assert max(c + xj for c, xj in zip(coeffs, x)) == d


# ----------------------------------------------------------------------
# the subeigenvector inequality C ⊗ x ≤ x: its regular solutions are the
# vectors C* ⊗ u over regular u, and asterate refuses a C without any

def test_subeigen_worked_example():
    assert asterate(mp(START_START)) == mp(SS_STAR)


def test_subeigen_scalar_cases():
    with pytest.raises(TrConditionViolated):
        asterate(mp([[1]]))
    assert asterate(mp([[-2]])) == mp([[0]])


def test_subeigen_two_cycle():
    star = asterate(mp([[None, 0], [0, None]]))
    assert star == mp([[0, 0], [0, 0]])
    rng = random.Random(3)
    rows = ((float("-inf"), 0), (0, float("-inf")))
    for _ in range(20):
        x = star @ random_regular_column(rng, 2)
        assert raw_satisfies_constraint(rows, x.entries())


def test_subeigen_rejects_reducible_and_rectangular():
    with pytest.raises(NotIrreducible):
        max_initiation_spread(mp([[None, 0], [None, None]]))
    with pytest.raises(NotSquare):
        max_initiation_spread(mp([[1, 2]]))
    with pytest.raises(NotSquare):
        asterate(mp([[1, 2]]))


@pytest.mark.parametrize("seed", range(10))
def test_subeigen_generates_solutions(seed):
    rng = random.Random(100 + seed)
    c = random_feasible_constraint(rng)
    star = asterate(c)
    for _ in range(20):
        x = star @ random_regular_column(rng, c.rows)
        assert raw_satisfies_constraint(c.data, x.entries())
        # generated points are fixed by the closure
        assert star @ x == x


@pytest.mark.parametrize("seed", range(6))
def test_subeigen_grid_completeness(seed):
    rng = random.Random(200 + seed)
    c = random_feasible_constraint(rng, max_n=3)
    star = asterate(c)
    for x in product(range(-3, 4), repeat=c.rows):
        if raw_satisfies_constraint(c.data, x):
            assert star @ col(x) == col(x)


# ----------------------------------------------------------------------
# box families

def test_family_membership_pinned_and_scaled():
    family = BoxFamily(max_plus, 0, (0, -1, -3))
    assert family.pinned_value == 0
    assert family.contains(col([0, -1, -3]))
    assert family.contains((0, -5, -3))
    assert not family.contains((0, 0, -3))
    assert not family.contains((1, -1, -3))
    assert family.contains((10, 9, 7), allow_scaling=True)
    assert not family.contains((10, 10, 7), allow_scaling=True)
    assert not family.contains((float("-inf"), -1, -3), allow_scaling=True)
    with pytest.raises(ShapeMismatch):
        family.contains((0, -1))


def test_family_validation_and_helpers():
    with pytest.raises(ValueError, match="exceed the semifield zero"):
        BoxFamily(max_plus, 0, (float("-inf"), 1))
    with pytest.raises(ValueError, match="address a component"):
        BoxFamily(max_plus, 5, (1, 3))
    family = BoxFamily(max_plus, 1, [1, 3, 0])
    assert family.upper_bounds == (1, 3, 0)
    assert family.pinned_value == 3
    assert family.dim == 3
    assert family.max_member() == col([1, 3, 0])


def test_family_accepts_row_vectors_and_matrices_raise():
    family = BoxFamily(max_plus, 0, (0, -1))
    assert family.contains(Matrix.row(max_plus, [0, -2]))
    with pytest.raises(ShapeMismatch):
        family.contains(mp([[0, 0], [0, 0]]))
