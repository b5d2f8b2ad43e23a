"""Acceptance gate: one test per criterion, asserted at exact tolerances.

Every test prints one PASS or FAIL line (visible with ``pytest -s``)
and enforces its wall-clock budget.  All numeric comparisons are exact
integer comparisons; nothing is rounded.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from tropspan import (INSTANCES, Matrix, TrConditionViolated, asterate,
                      evaluate_objective, latest_schedule, max_completion_spread,
                      max_completion_spread_constrained, max_initiation_spread,
                      max_plus, solve_unconstrained)
from oracles import GridSpec, brute_force_max, brute_force_subeigen
from support import (COMBINED, SS_STAR, START_FINISH, START_START, col, mp,
                     random_feasible_constraint, random_infeasible_constraint,
                     random_instance, random_regular_column, raw_objective,
                     rng_element, rng_feasible_constraint, rng_irreducible,
                     rng_matrix, rng_regular_column, run_python, tr_closure)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - t0
        print(f"ACCEPTANCE {num} {status}: {label} [{elapsed:.2f}s]")


def test_criterion_1_start_finish_project():
    with criterion(1, "3-activity start-finish project reproduced exactly", budget=1.0):
        a = mp(START_FINISH)
        report = max_completion_spread(a)
        assert report.delta == 4
        assert report.pairs == ((0, 2),)
        fam = report.families[0]
        assert (fam.pinned_index, fam.pinned_value) == (0, 0)
        assert fam.upper_bounds == (0, -1, -3)
        sched, = latest_schedule(report, start_finish=a)
        assert sched.initiation == col([0, -1, -3])
        assert sched.completion == col([4, 2, 0])
        assert sched.span == 4


def test_criterion_2_start_start_project():
    with criterion(2, "3-activity start-start project reproduced exactly", budget=1.0):
        c = mp(START_START)
        assert tr_closure(c) == 0
        assert asterate(c) == mp(SS_STAR)
        report, closure = max_initiation_spread(c)
        assert closure == mp(SS_STAR)
        assert report.delta == 3
        assert report.pairs == ((1, 2),)
        fam = report.families[0]
        assert (fam.pinned_index, fam.pinned_value) == (1, 3)
        assert fam.upper_bounds == (1, 3, 0)
        sched, = latest_schedule(report, closure=closure)
        assert sched.initiation == col([1, 3, 0])
        assert sched.span == 3


def test_criterion_3_combined_project():
    with criterion(3, "3-activity combined-constraints project reproduced exactly",
                   budget=1.0):
        a, c = mp(START_FINISH), mp(START_START)
        report, closure = max_completion_spread_constrained(a, c)
        assert a @ closure == mp(COMBINED)
        assert report.delta == 2
        assert report.pairs == ((0, 2), (2, 2))
        assert [f.pinned_value for f in report.families] == [-2, -3]
        assert all(f.upper_bounds == (-2, -1, -3) for f in report.families)
        schedules = latest_schedule(report, closure=closure, start_finish=a)
        assert len(schedules) == 1  # both families collapse to one schedule
        assert schedules[0].initiation == col([-2, -1, -3])
        assert schedules[0].completion == col([2, 1, 0])


def test_criterion_4_upper_bound_property():
    with criterion(4, "objective <= delta on 1000 instances x 100 regular points",
                   budget=60.0):
        rng = random.Random(20260808)
        for _ in range(1000):
            inst = random_instance(rng, max_dim=5, lo=-10, hi=10)
            delta = solve_unconstrained(inst).delta
            for _ in range(100):
                x = random_regular_column(rng, inst.n, lo=-12, hi=12)
                assert max_plus.leq(evaluate_objective(inst, x), delta)


def test_criterion_5_oracle_equality_and_completeness():
    with criterion(5, "grid oracle equality and family completeness on 200 instances",
                   budget=120.0):
        rng = random.Random(51423)
        for _ in range(200):
            inst = random_instance(rng, max_dim=3, lo=-5, hi=5)
            report = solve_unconstrained(inst)
            grid = GridSpec(dim=inst.n, lo=-25, hi=25)
            oracle = brute_force_max(inst, grid)
            assert oracle.value == report.delta
            for point in oracle.argmax:
                assert any(f.contains(point, allow_scaling=True)
                           for f in report.families)
            for x in grid.points():
                value = raw_objective(inst, x)
                if any(f.contains(x, allow_scaling=True) for f in report.families):
                    assert value == report.delta
                else:
                    assert value < report.delta


def test_criterion_6_subeigen_generator_suite():
    with criterion(6, "subeigenvector generator sound and complete on 250 matrices",
                   budget=120.0):
        rng = random.Random(777)
        for _ in range(200):
            c = random_feasible_constraint(rng, max_n=4)
            star = asterate(c)
            for _ in range(50):
                u = random_regular_column(rng, c.rows, lo=-8, hi=8)
                x = star @ u
                assert (c @ x).leq(x)
            grid = GridSpec(dim=c.rows, lo=-3, hi=3, normalization=None)
            for point in brute_force_subeigen(c, grid):
                assert star @ col(point) == col(point)
        for _ in range(50):
            c = random_infeasible_constraint(rng, max_n=4)
            assert max_plus.lt(0, tr_closure(c))
            with pytest.raises(TrConditionViolated):
                asterate(c)
            grid = GridSpec(dim=c.rows, lo=-3, hi=3, normalization=None)
            assert brute_force_subeigen(c, grid) == []


def test_criterion_7_axiom_sweep():
    with criterion(7, "semifield and matrix axiom sweep across all instances",
                   budget=30.0):
        rng = random.Random(4242)
        cases = 0
        for sf in INSTANCES:
            for _ in range(600):
                a, b, c = (rng_element(rng, sf) for _ in range(3))
                assert sf.add(a, a) == a
                assert sf.add(sf.add(a, b), c) == sf.add(a, sf.add(b, c))
                assert sf.mul(sf.mul(a, b), c) == sf.mul(a, sf.mul(b, c))
                assert sf.add(a, b) == sf.add(b, a)
                assert sf.mul(a, b) == sf.mul(b, a)
                assert sf.mul(a, sf.add(b, c)) == sf.add(sf.mul(a, b), sf.mul(a, c))
                s = sf.add(a, b)
                assert sf.leq(a, s) and sf.leq(b, s)
                lo, hi = (a, b) if sf.leq(a, b) else (b, a)
                assert sf.leq(sf.add(lo, c), sf.add(hi, c))
                assert sf.leq(sf.mul(lo, c), sf.mul(hi, c))
                cases += 9
                if not sf.is_zero(lo):
                    assert sf.leq(sf.inv(hi), sf.inv(lo))
                    cases += 1
            for _ in range(120):
                dim = rng.randint(1, 4)
                x = rng_regular_column(rng, sf, dim)
                y = rng_regular_column(rng, sf, dim)
                z = rng_regular_column(rng, sf, rng.randint(1, 4))
                assert Matrix.identity(sf, dim).leq(x @ x.conj())
                assert (x @ y.conj()).conj() == y @ x.conj()
                assert (x @ z.transpose()).norm() == sf.mul(x.norm(), z.norm())
                cases += 3
            for _ in range(80):
                rows, cols = rng.randint(1, 3), rng.randint(1, 3)
                small = rng_matrix(rng, sf, rows, cols)
                large = small + rng_matrix(rng, sf, rows, cols)
                assert large.conj().leq(small.conj())
                cases += 1
            for _ in range(40):
                c_m = rng_irreducible(rng, sf, max_n=4)
                acc = Matrix.identity(sf, c_m.rows)
                power = acc
                for _ in range(c_m.rows - 1):
                    power = power @ c_m
                    acc = acc + power
                assert acc.is_zero_free()
                cases += 1
            for _ in range(40):
                c_m = rng_feasible_constraint(rng, sf, max_n=4)
                assert Matrix.identity(sf, c_m.rows).leq(asterate(c_m))
                cases += 1
        assert cases >= 10_000, f"only {cases} axiom cases were exercised"


def test_criterion_8_cli_golden_files():
    with criterion(8, "CLI golden files byte-identical, infeasible case exits 2"):
        runs = [
            ("ex1", ["sf", "--input", str(DATA / "ex1.json"), "--latest"]),
            ("ex2", ["ss", "--input", str(DATA / "ex2.json"), "--latest"]),
            ("ex3", ["combined", "--input", str(DATA / "ex3.json"), "--latest"]),
        ]
        for name, args in runs:
            proc = run_python("-m", "tropspan.cli", *args, text=False)
            assert proc.returncode == 0
            assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes()
        proc = run_python("-m", "tropspan.cli", "ss", "--input", str(DATA / "infeasible.json"),
                          text=False)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["status"] == "infeasible"
