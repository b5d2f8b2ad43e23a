import random
from itertools import product

import pytest

from tropspan import (Matrix, ProblemInstance, ShapeMismatch, max_plus, min_plus,
                      ones, solve_unconstrained)
from oracles import GridSpec, GridTooLarge, brute_force_max, brute_force_subeigen
from support import (START_FINISH, START_START, col, mp, norm_form_instance,
                     random_instance, raw_objective)


def test_grid_spec_validation_and_size():
    grid = GridSpec(dim=3, lo=-6, hi=2)
    assert grid.size == 81
    assert GridSpec(dim=3, lo=-6, hi=2, normalization=None).size == 729
    assert GridSpec(dim=1, lo=-5, hi=5).size == 1
    with pytest.raises(ValueError):
        GridSpec(dim=0, lo=0, hi=1)
    with pytest.raises(ValueError):
        GridSpec(dim=2, lo=3, hi=1)
    with pytest.raises(ValueError):
        GridSpec(dim=2, lo=0, hi=1, normalization=2)


def test_grid_cap_is_enforced():
    grid = GridSpec(dim=4, lo=-50, hi=50, cap=1000)
    inst = norm_form_instance([[1] * 4] * 4)
    with pytest.raises(GridTooLarge):
        brute_force_max(inst, grid)
    with pytest.raises(GridTooLarge):
        brute_force_subeigen(Matrix.zeros(max_plus, 4, 4), grid)


def test_oracle_reproduces_the_worked_example():
    inst = norm_form_instance(START_FINISH)
    result = brute_force_max(inst, GridSpec(dim=3, lo=-6, hi=2))
    assert result.value == 4
    report = solve_unconstrained(inst)
    family = report.families[0]
    expected = {(0,) + x for x in product(range(-6, 3), repeat=2)
                if family.contains((0,) + x)}
    assert set(result.argmax) == expected
    assert result.boundary_touched  # the box is downward unbounded


def test_oracle_normalization_pins_the_chosen_component():
    inst = norm_form_instance(START_FINISH)
    result = brute_force_max(inst, GridSpec(dim=3, lo=-6, hi=2, normalization=1))
    assert result.value == 4
    assert all(x[1] == 0 for x in result.argmax)


def test_oracle_single_activity():
    inst = norm_form_instance([[3]])
    result = brute_force_max(inst, GridSpec(dim=1, lo=-5, hi=5))
    assert result.value == 0
    assert result.argmax == ((0,),)
    assert not result.boundary_touched


def test_oracle_agrees_with_raw_objective():
    rng = random.Random(5)
    for _ in range(10):
        inst = random_instance(rng, max_dim=2, lo=-4, hi=4)
        grid = GridSpec(dim=inst.n, lo=-10, hi=10)
        result = brute_force_max(inst, grid)
        assert result.value == max(raw_objective(inst, x) for x in grid.points())


def test_oracle_input_validation():
    inst = norm_form_instance(START_FINISH)
    with pytest.raises(ShapeMismatch):
        brute_force_max(inst, GridSpec(dim=2, lo=-2, hi=2))
    bad = ProblemInstance(Matrix(min_plus, START_FINISH), Matrix(min_plus, START_FINISH),
                          ones(min_plus, 3), ones(min_plus, 3))
    with pytest.raises(ValueError, match="max-plus"):
        brute_force_max(bad, GridSpec(dim=3, lo=-2, hi=2))
    fractional = ProblemInstance(mp([[0.5]]), mp([[1]]), col([0]), col([0]))
    with pytest.raises(ValueError, match="integer"):
        brute_force_max(fractional, GridSpec(dim=1, lo=-2, hi=2))


def test_subeigen_enumeration():
    grid = GridSpec(dim=2, lo=-2, hi=2, normalization=None)
    everything = brute_force_subeigen(Matrix.zeros(max_plus, 2, 2), grid)
    assert len(everything) == 25
    infeasible = brute_force_subeigen(mp([[1, None], [None, None]]), grid)
    assert infeasible == []
    pinned = brute_force_subeigen(Matrix.zeros(max_plus, 2, 2),
                                  GridSpec(dim=2, lo=-2, hi=2, normalization=0))
    assert len(pinned) == 5 and all(x[0] == 0 for x in pinned)


def test_subeigen_solutions_satisfy_the_constraint():
    c = mp(START_START)
    grid = GridSpec(dim=3, lo=-4, hi=4, normalization=None)
    solutions = brute_force_subeigen(c, grid)
    assert solutions
    for x in solutions:
        assert all(max(cij + xj for cij, xj in zip(row, x)) <= xi
                   for row, xi in zip(c.data, x))


def test_oracle_results_are_deterministic():
    inst = norm_form_instance(START_FINISH)
    grid = GridSpec(dim=3, lo=-6, hi=2)
    assert brute_force_max(inst, grid) == brute_force_max(inst, grid)
