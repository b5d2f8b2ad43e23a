"""Metamorphic relations: two runs on related inputs must give related
answers, exactly, at sizes no brute-force oracle reaches.

Of the CLI: relabelling the activities by a permutation π permutes the
pairs, the families and the schedules and keeps delta.  Shifting each
activity's clock by p_j, that is A ↦ A ⊗ P and C ↦ P⁻¹ ⊗ C ⊗ P with
P = diag(p), keeps delta and the pairs in order, moves every bound and
initiation by −p, and keeps the completions, since
A ⊗ P ⊗ P⁻¹ ⊗ x = A ⊗ x.  Every entry is an int, so both relations
hold exactly.

Of the library: v ↦ −v maps max-plus onto min-plus and v ↦ 2ᵛ onto
max-times, so on int data `solve_unconstrained`, `asterate` and
`solve_constrained` give the images of their max-plus answers, and
refuse at the same pivot.  Min-plus and max-times run only the generic
loops of `Semifield`, so this compares max-plus's kernels (the packed
star and its tail, `dot`, `sum` and `product`) with the generic code.
"""

import contextlib
import io
import json
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from tropspan import (ConstrainedReport, Matrix, ProblemInstance, TrConditionViolated,
                      asterate, max_plus, max_times, min_plus, solve_constrained,
                      solve_unconstrained)
from tropspan.cli import EXIT_OK, main
from support import NEG_INF, potential_start_start

SIZES = (3, 4, 5, 7, 10, 14, 20, 28, 40, 80, 160)


def _project(n):
    """A in 0..2 and a potential-based C, so every command solves."""
    rng = random.Random(n)
    a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    c, _ = potential_start_start(rng, n, rng.choice((0.1, 0.3, 1.0)))
    return rng, a, c


def _run(tmp_path, command, a, c):
    """The parsed document of `command --latest` on the project (a, c)."""
    doc = {"n": len(a if a is not None else c)}
    if a is not None:
        doc["start_finish"] = a
    if c is not None:
        doc["start_start"] = c
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--input", str(path), "--latest"]) == EXIT_OK
    return json.loads(out.getvalue())


def _matrices(command, a, c):
    return (None if command == "ss" else a), (None if command == "sf" else c)


def _relabelled(doc, pi):
    """`doc` with activity i renamed π(i), its lists as sorted multisets."""
    def index(i):
        return pi[i - 1] + 1

    def vector(v):
        if v is None:
            return None
        out = [None] * len(v)
        for i, value in enumerate(v):
            out[pi[i]] = value
        return tuple(out)

    return (doc["delta"],
            sorted((index(p["k"]), index(p["s"])) for p in doc["pairs"]),
            sorted((index(f["pinned_index"]), f["pinned_value"], vector(f["upper_bounds"]))
                   for f in doc["families"]),
            sorted((vector(s["initiation"]), vector(s.get("completion")), s["span"])
                   for s in doc["schedules"]))


def _shifted(doc, p):
    """`doc` with every bound and initiation moved by −p, in order."""
    def vector(v):
        return [value - shift for value, shift in zip(v, p)]

    return {**doc,
            "families": [{"pinned_index": f["pinned_index"],
                          "pinned_value": f["pinned_value"] - p[f["pinned_index"] - 1],
                          "upper_bounds": vector(f["upper_bounds"])}
                         for f in doc["families"]],
            "schedules": [{**s, "initiation": vector(s["initiation"])}
                          for s in doc["schedules"]]}


@pytest.mark.parametrize("n", SIZES)
def test_relabelled_and_shifted_projects_give_related_answers(tmp_path, n):
    rng, a, c = _project(n)
    pi = rng.sample(range(n), n)
    a_pi = [[None] * n for _ in range(n)]
    c_pi = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a_pi[pi[i]][pi[j]] = a[i][j]
            c_pi[pi[i]][pi[j]] = c[i][j]
    p = [rng.randint(-3 * n, 3 * n) for _ in range(n)]
    a_p = [[v + p[j] for j, v in enumerate(row)] for row in a]
    c_p = [[None if v is None else v - p[i] + p[j] for j, v in enumerate(row)]
           for i, row in enumerate(c)]
    identity = list(range(n))
    for command in ("sf", "ss", "combined"):
        doc = _run(tmp_path, command, *_matrices(command, a, c))
        relabelled = _run(tmp_path, command, *_matrices(command, a_pi, c_pi))
        assert _relabelled(relabelled, identity) == _relabelled(doc, pi), f"{command}, relabelled"
        if command != "ss":
            shifted = _run(tmp_path, command, *_matrices(command, a_p, c_p))
            assert shifted == _shifted(doc, p), f"{command}, shifted"


# ----------------------------------------------------------------------
# semifield isomorphisms of the library

def _power(v):
    return 0 if v == NEG_INF else 2 ** v     # exact: v is an int


IMAGES = [pytest.param(min_plus, operator.neg, id="min-plus"),
          pytest.param(max_times, _power, id="max-times")]
ISO_SIZES = (1, 2, 3, 5, 8, 13, 20, 28, 40)


def _identity(v):
    return v


def _rows(rng, m, n, zeros):
    """m×n ints in -3..3 for m ≤ n, a share `zeros` of them 𝟘 (-inf), with a
    finite entry in every row and every column."""
    rows = [[NEG_INF if rng.random() < zeros else rng.randint(-3, 3) for _ in range(n)]
            for _ in range(m)]
    for i, row in enumerate(rows):
        row[i] = rng.randint(-3, 3)
    for j in range(m, n):
        rows[rng.randrange(m)][j] = rng.randint(-3, 3)
    return rows


def _constraint(rng, n):
    """A potential-based C, zero-free closure included, or in one case of two
    C with a planted positive cycle: a self-loop, or an arc (i, j) raised
    past every path from j back to i."""
    c, _ = potential_start_start(rng, n, rng.choice((0.1, 0.5)), scale=1)
    c = [[NEG_INF if v is None else v for v in row] for row in c]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        j = rng.choice([j for j, v in enumerate(c[i]) if v != NEG_INF] + [i])
        c[i][j] = rng.randint(1, 3) if i == j else max(c[i][j], 0) + 4 * n
    return c


def _image(sf, phi, rows):
    return Matrix(sf, [list(map(phi, row)) for row in rows])


def _numbers(report, phi=_identity):
    """(delta, pairs, bounds) of `report`, its numbers mapped by `phi`."""
    return (phi(report.delta), report.pairs,
            tuple((s, tuple(map(phi, bounds))) for s, bounds in report.bounds))


def _or_refusal(call):
    """The result of `call`, or the pivot and the weight its refusal carries."""
    try:
        return call()
    except TrConditionViolated as exc:
        return exc.k, exc.weight


@pytest.mark.parametrize("sf, phi", IMAGES)
@settings(deadline=None)
@given(n=st.sampled_from(ISO_SIZES), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_unconstrained_commutes_with_isomorphisms(sf, phi, n, seed):
    rng = random.Random(seed)
    m = rng.randint(1, n)
    a = _rows(rng, m, n, 0)
    b = a if rng.random() < 0.25 else _rows(rng, rng.randint(1, n), n, 0.3)
    p = [rng.randint(-3, 3) for _ in range(m)]
    q = [rng.randint(-3, 3) for _ in range(len(b))]

    def solve(sf, phi):
        return solve_unconstrained(ProblemInstance(
            _image(sf, phi, a), _image(sf, phi, b), Matrix.column(sf, map(phi, p)),
            Matrix.column(sf, map(phi, q))))

    assert _numbers(solve(sf, phi)) == _numbers(solve(max_plus, _identity), phi)


@pytest.mark.parametrize("sf, phi", IMAGES)
@settings(deadline=None)
@given(n=st.sampled_from(ISO_SIZES), seed=st.integers(0, 2 ** 32 - 1))
def test_asterate_commutes_with_isomorphisms(sf, phi, n, seed):
    c = _constraint(random.Random(seed), n)
    expected = _or_refusal(lambda: asterate(Matrix(max_plus, c)))
    got = _or_refusal(lambda: asterate(_image(sf, phi, c)))
    if isinstance(expected, Matrix):
        assert got == _image(sf, phi, expected.data)
    else:
        assert got == (expected[0], phi(expected[1]))


@pytest.mark.parametrize("sf, phi", IMAGES)
@settings(deadline=None)
@given(n=st.sampled_from(ISO_SIZES), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_constrained_commutes_with_isomorphisms(sf, phi, n, seed):
    # A and B hold 𝟘 entries that a feasible C* fills: the potentials'
    # Hamiltonian cycle makes C* zero-free
    rng = random.Random(seed)
    c = _constraint(rng, n)
    m = rng.randint(1, n)
    a = _rows(rng, m, n, 0.5)
    b = a if rng.random() < 0.5 else _rows(rng, rng.randint(1, n), n, 0.5)
    p = [rng.randint(-3, 3) for _ in range(m)]
    q = [rng.randint(-3, 3) for _ in range(len(b))]

    def solve(sf, phi):
        a_image = _image(sf, phi, a)
        return _or_refusal(lambda: solve_constrained(
            a_image, a_image if b is a else _image(sf, phi, b),
            Matrix.column(sf, map(phi, p)), Matrix.column(sf, map(phi, q)),
            _image(sf, phi, c)))

    expected, got = solve(max_plus, _identity), solve(sf, phi)
    if isinstance(expected, ConstrainedReport):
        assert _numbers(got.report) == _numbers(expected.report, phi)
        assert got.closure == _image(sf, phi, expected.closure.data)
    else:
        assert got == (expected[0], phi(expected[1]))
