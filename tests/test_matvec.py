import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from tropspan import (INSTANCES, Matrix, NotSquare, Semifield, ShapeMismatch,
                      TrConditionViolated, ZeroEntry, asterate, is_regular,
                      latest_schedule, max_completion_spread_constrained, max_plus,
                      max_times, min_plus, ones)
from support import (COMBINED, COMBINED_CONJ, COMBINED_TIMES_CONJ, NEG_INF,
                     SF_TIMES_CONJ, SS_SQUARED, SS_STAR, START_FINISH,
                     START_FINISH_CONJ, START_START, col, counted_line,
                     counted_products, generic_max_plus, is_irreducible, mp,
                     potential_start_start, power_series_asterate,
                     rng_feasible_constraint, rng_finite, rng_irreducible, sub_unit,
                     tr_closure)


def vectors(dim):
    return st.lists(st.integers(-20, 20), min_size=dim, max_size=dim)


# ----------------------------------------------------------------------
# construction

def test_constructor_validates_entries():
    with pytest.raises(ValueError):
        Matrix(max_plus, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(max_plus, [])
    with pytest.raises(ValueError):
        Matrix(max_plus, [[]])
    with pytest.raises(ValueError):
        Matrix(max_plus, [[float("inf")]])
    with pytest.raises(ValueError):
        Matrix(max_plus, [[float("nan")]])
    with pytest.raises(ValueError):
        Matrix(max_plus, [[True]])
    with pytest.raises(ValueError):
        Matrix(max_times, [[-1]])


def test_constructor_refuses_ints_beyond_the_float_range():
    big = 10 ** 400   # any product with the zero -inf would raise OverflowError
    for sf in INSTANCES:
        with pytest.raises(ValueError, match="carrier element"):
            Matrix(sf, [[big]])
    with pytest.raises(ValueError, match="row 2, column 1"):
        Matrix(max_plus, [[None, 1], [-big, None]])
    largest = int(sys.float_info.max)
    assert Matrix(max_plus, [[largest]]) @ Matrix(max_plus, [[None]]) == mp([[None]])


def test_none_means_zero_and_minus_zero_is_canonical():
    m = Matrix(max_plus, [[None, 2]])
    assert m[0, 0] == NEG_INF
    t = Matrix(max_times, [[-0.0]])
    assert str(t[0, 0]) == "0"


def test_vector_helpers_and_indexing():
    x = Matrix.column(max_plus, [0, -1, -3])
    assert x.shape == (3, 1)
    assert x[1] == -1
    assert x[2, 0] == -3
    assert ones(max_plus, 2).entries() == (0, 0)
    a = mp(START_FINISH)
    assert a[0, 2] == 1
    with pytest.raises(TypeError):
        a[1]
    assert a.column_at(0).entries() == (4, 2, 0)


def test_equality_and_hash():
    a = mp(START_FINISH)
    assert a == mp(START_FINISH)
    assert a != mp(COMBINED)
    assert a != Matrix(min_plus, START_FINISH)
    assert hash(a) == hash(mp(START_FINISH))


def test_repr_and_str_smoke():
    a = mp([[1, None], [0, 2]])
    assert "Matrix" in repr(a)
    assert "-inf" in str(a)


# ----------------------------------------------------------------------
# entrywise sum

def test_mat_add_is_idempotent_with_zero_neutral():
    a = mp(START_FINISH)
    assert a + a == a
    assert a + Matrix.zeros(max_plus, 3, 3) == a


def test_mat_add_entrywise_values():
    left = mp([[1, None], [None, 2]])
    right = mp([[0, 3], [1, None]])
    assert left + right == mp([[1, 3], [1, 2]])


def test_mat_add_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mp([[1]]) + mp([[1, 2]])


@given(data=st.data())
def test_mat_add_dominates_both_operands(data):
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 3))
    a = mp([data.draw(vectors(cols)) for _ in range(rows)])
    b = mp([data.draw(vectors(cols)) for _ in range(rows)])
    s = a + b
    assert a.leq(s) and b.leq(s)


# ----------------------------------------------------------------------
# product, powers

def test_mat_mul_identity_and_shapes():
    a = mp(START_FINISH)
    eye = Matrix.identity(max_plus, 3)
    assert eye @ a == a
    assert a @ eye == a
    with pytest.raises(ShapeMismatch):
        a @ mp([[1, 2]])


def test_mat_mul_pinned_products():
    a = mp(START_FINISH)
    c = mp(START_START)
    assert a @ mp(SS_STAR) == mp(COMBINED)
    assert c @ c == mp(SS_SQUARED)


def test_scale_shifts_every_entry():
    a = mp(START_FINISH)
    assert a.scale(5) == mp([[v + 5 for v in row] for row in START_FINISH])
    assert a.scale(NEG_INF) == Matrix.zeros(max_plus, 3, 3)
    with pytest.raises(ValueError):
        a.scale(float("inf"))


# ----------------------------------------------------------------------
# conjugate transposition

def test_conjugate_transpose_pinned_values():
    assert mp(START_FINISH).conj() == mp(START_FINISH_CONJ)
    assert mp(COMBINED).conj() == mp(COMBINED_CONJ)
    assert mp([[0]]).conj() == mp([[0]])


def test_conjugate_transpose_rejects_zero_entries():
    with pytest.raises(ZeroEntry):
        mp(START_START).conj()


def test_vector_conjugate():
    assert col([0, -1, -3]).conj() == Matrix.row(max_plus, [0, 1, 3])
    assert ones(max_plus, 3).conj() == Matrix.row(max_plus, [0, 0, 0])
    assert col([4, 2, 0]).conj() == Matrix.row(max_plus, [-4, -2, 0])
    with pytest.raises(ZeroEntry):
        col([0, None]).conj()


# ----------------------------------------------------------------------
# trace, norm, closures

def test_trace():
    assert Matrix.identity(max_plus, 3).trace() == 0
    assert mp(START_START).trace() == NEG_INF
    assert mp([[4, 1], [2, 2]]).trace() == 4
    with pytest.raises(NotSquare):
        mp([[1, 2]]).trace()


def test_norm():
    assert col([4, 2, 0]).norm() == 4
    assert Matrix.zeros(max_plus, 2, 3).norm() == NEG_INF
    d = mp(COMBINED)
    assert d @ d.conj() == mp(COMBINED_TIMES_CONJ)
    assert (d @ d.conj()).norm() == 2
    assert (mp(START_FINISH) @ mp(START_FINISH_CONJ)).norm() == 4
    assert mp(START_FINISH) @ mp(START_FINISH_CONJ) == mp(SF_TIMES_CONJ)


def test_tr_closure():
    assert tr_closure(mp(START_START)) == 0
    assert tr_closure(Matrix.zeros(max_plus, 3, 3)) == NEG_INF
    assert tr_closure(mp([[1]])) == 1
    with pytest.raises(NotSquare):
        tr_closure(mp([[1, 2]]))


def test_asterate():
    assert asterate(mp(START_START)) == mp(SS_STAR)
    assert asterate(Matrix.zeros(max_plus, 3, 3)) == Matrix.identity(max_plus, 3)
    with pytest.raises(TrConditionViolated):
        asterate(mp([[1]]))
    with pytest.raises(NotSquare):
        asterate(mp([[1, 2]]))


def _closure_or_verdict(closure, c):
    try:
        return closure(c).data
    except TrConditionViolated:
        return "infeasible"


def _heavy(rng, sf):
    """A carrier element 1 to 20 steps above the unit."""
    return sf.inv(sub_unit(sf, rng.randint(1, 20)))


def _cases_over(rng, sf):
    """Feasible matrices over `sf` and, from each, heavy, sparse and reducible ones."""
    for t in range(5):
        c = rng_feasible_constraint(rng, sf, max_n=30)
        yield f"{sf.name} feasible {t}", c
        rows = c.to_lists()
        i, j = rng.randrange(c.rows), rng.randrange(c.rows)
        rows[i][j] = _heavy(rng, sf)
        yield f"{sf.name} heavy arc ({i}, {j}) {t}", Matrix(sf, rows)
        rows = c.to_lists()
        rows[i][i] = _heavy(rng, sf)
        yield f"{sf.name} heavy self-loop {i} {t}", Matrix(sf, rows)
        # sparse: most arcs removed, so the digraph is usually reducible
        rows = [[v if rng.random() < 0.15 else sf.zero for v in r]
                for r in c.to_lists()]
        yield f"{sf.name} sparse {t}", Matrix(sf, rows)
        # reducible: two feasible diagonal blocks, arbitrary arcs one way only
        upper, lower = (rng_feasible_constraint(rng, sf, max_n=15).to_lists()
                        for _ in range(2))
        m, n = len(upper), len(lower)
        rows = ([r + [sf.zero] * n for r in upper]
                + [[rng_finite(rng, sf) for _ in range(m)] + r for r in lower])
        yield f"{sf.name} reducible {t}", Matrix(sf, rows)


def _differential_cases():
    rng = random.Random(2024)
    for sf in INSTANCES:
        yield sf.name + " all-zero", Matrix.zeros(sf, 4, 4)
        yield from _cases_over(rng, sf)
    yield "paper ss", mp(START_START)
    # max-plus matrices with floats take the generic loop of `Semifield.star`.
    # The integer cases divided by 4 keep their verdicts; quarters add exactly,
    # so the power series is an independent reference by value.
    for kind, entry in (("quarters", lambda v: v / 4),
                        ("mixed", lambda v: v // 4 if v % 4 == 0 else v / 4)):
        for name, c in _cases_over(rng, max_plus):
            yield f"{name} {kind}", mp([[entry(v) if v != NEG_INF else v for v in r]
                                        for r in c.data])


def test_asterate_matches_power_series():
    verdicts = Counter()
    for name, c in _differential_cases():
        expected = _closure_or_verdict(power_series_asterate, c)
        assert _closure_or_verdict(asterate, c) == expected, name
        verdicts[expected == "infeasible"] += 1
    assert verdicts[True] >= 20 and verdicts[False] >= 50   # both verdicts well covered


def test_asterate_does_at_most_n_cubed_products():
    """The generic loop makes at most n³ ⊗; the packed integer rows of
    `max_plus.star` make no counted call, so there the bound is on row
    updates, each a fixed number of int operations on one packed row."""
    n = 40
    rng = random.Random(3)
    pot = [rng.randint(-5, 5) for _ in range(n)]
    rows = [[rng.randint(-6, 0) + pot[i] - pot[j] for j in range(n)] for i in range(n)]
    with counted_products() as counts:
        generic = Semifield.star(max_plus, rows)
    assert 0 < counts["mul"] <= n ** 3   # the power series needs about 2n^4
    with counted_line(type(max_plus).star, "c[i] = t ^") as updates:
        closure = asterate(mp(rows))
    assert 0 < updates["runs"] <= n * (n - 1)
    assert closure.data == generic
    assert Matrix.identity(max_plus, n).leq(closure)


def _dot_calls(rows, cols):
    """The (i, j) of each `dot` that `max_plus.product(rows, cols)` makes, in
    order, after checking its result against the generic loop's."""
    at_row = {id(r): i for i, r in enumerate(rows)}
    at_col = {id(c): j for j, c in enumerate(cols)}
    calls = []
    dot = max_plus.dot

    def spy(r, c):
        calls.append((at_row[id(r)], at_col[id(c)]))
        return dot(r, c)

    max_plus.dot = spy
    try:
        out = max_plus.product(rows, cols)
    finally:
        del max_plus.dot
    assert out == Semifield.product(max_plus, rows, cols)
    return calls


def test_product_dots_exactly_where_the_argmax_masks_miss():
    """`max_plus.product` looks for entries where a row's and a column's
    maxima meet only when both operands hold ints alone and the right one
    has three or more columns.  A 2-column int product, and a 12-column
    one that holds a float, make one `dot` per entry; a 12-column int
    product makes one for exactly the entries whose argmax masks miss."""
    n = 12
    rng = random.Random(5)
    rows, cols = ([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                  for _ in range(2))
    every = [(i, j) for i in range(n) for j in range(n)]
    assert _dot_calls(rows, cols[:2]) == [(i, j) for i in range(n) for j in range(2)]
    floated = [r[:4] + [r[4] + 0.5] + r[5:] if i == 3 else r for i, r in enumerate(rows)]
    assert _dot_calls(floated, cols) == every
    floated = [c[:4] + [c[4] + 0.5] + c[5:] if j == 3 else c for j, c in enumerate(cols)]
    assert _dot_calls(rows, floated) == every
    misses = [(i, j) for i, j in every
              if not any(v == max(rows[i]) and w == max(cols[j]) for v, w in zip(rows[i], cols[j]))]
    assert 0 < len(misses) < n * n
    assert _dot_calls(rows, cols) == misses


def test_product_skips_dot_where_row_and_column_maxima_meet():
    n = 40
    rng = random.Random(9)
    for rows, most_dots in (([[0] * n] * n, 0),
                            ([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)],
                             n * n // 8)):
        a = mp(rows)
        x = a.conj()   # the columns a_s⁻ of the sf latest members
        with counted_products() as counts:
            a @ x
        assert counts["dot"] <= most_dots
        assert counts["mul"] == n * n + (n - 1) * counts["dot"]


_BIG = 2 ** 60
_PRODUCT_ENTRIES = {
    # ints with few ties at a row's or a column's maximum
    "wide ints": lambda rng: rng.randint(-10 ** 6, 10 ** 6),
    "ints near ±2**60": lambda rng: rng.choice((_BIG, -_BIG)) + rng.randint(-2, 2),
    # an int and an equal float tie: the left operand must win, as in the loop
    "2**60 beside 2.0**60": lambda rng: rng.choice((_BIG, 2.0 ** 60, _BIG - 1)),
}


@pytest.mark.parametrize("kind", _PRODUCT_ENTRIES)
def test_max_plus_product_matches_the_generic_loop(kind):
    """`max_plus.product` against `Semifield.product`, by value and type,
    on R×n rows and C×n columns with R and C in 3..40 and n in 1..40."""
    rng = random.Random(kind)
    entry = _PRODUCT_ENTRIES[kind]
    for _ in range(40):
        n = rng.randint(1, 40)
        rows, cols = ([[entry(rng) for _ in range(n)] for _ in range(rng.randint(3, 40))]
                      for _ in range(2))
        shape = (len(rows), n, len(cols))
        assert ([[(v, type(v)) for v in r] for r in max_plus.product(rows, cols)]
                == [[(v, type(v)) for v in r]
                    for r in Semifield.product(max_plus, rows, cols)]), shape


def _typed(m):
    """Entries with their types: an int and an equal float tie but print differently."""
    return [[(v, type(v)) for v in r] for r in m.data]


def _typed_star(c):
    """The typed entries of asterate(c), or the text of its refusal."""
    try:
        return _typed(asterate(c))
    except TrConditionViolated as exc:
        return str(exc)


def _mixed(rng, v):
    return rng.choice((v, float(v), v - 0.25))


def _product_cases(rng, n):
    """Operand pairs for a product with n rows on the right: n×n, n×1 and n×d.

    With three or more columns, the integer kinds (all-tied, {0,1,2},
    lo..lo+3 and tie-free) take the masks of `max_plus.product`, which
    seldom meet on tie-free integers.  The others hold 𝟘 or floats tied
    with equal ints, where the left operand of a tie must win, so the
    product's value type depends on which index of a tie comes first.
    """
    lo = rng.randint(-20, 20)
    kinds = {
        "tied": lambda: 0,
        "narrow": lambda: rng.randint(0, 2),
        "shifted": lambda: rng.randint(lo, lo + 3),
        "zero": lambda: None if rng.random() < 0.1 else rng.randint(0, 2),
        "mixed": lambda: None if rng.random() < 0.1 else _mixed(rng, rng.randint(-9, 9)),
    }
    d = rng.randint(3, n // 4)
    for width in (n, 1, d):
        for name, entry in kinds.items():
            yield (f"{name} {n}x{width}", [[entry() for _ in range(n)] for _ in range(n)],
                   [[entry() for _ in range(width)] for _ in range(n)])
        # distinct entries in every row and column: one argmax each, so the masks seldom meet
        yield (f"tie-free {n}x{width}", [rng.sample(range(-n * n, n * n), n) for _ in range(n)],
               [list(r) for r in zip(*(rng.sample(range(-n * n, n * n), n)
                                       for _ in range(width)))])
    for width in (1, d):
        # index 0 is below the maximum in every row of `low_a` and every
        # column of `low_b`, so the first term that attains a maximum is at
        # index 1, while max() of the other operand's vector finds index 0
        low_a = [[-1] + [0] * (n - 1) for _ in range(n)]
        low_b = [[-1] * width] + [[0] * width for _ in range(n - 1)]
        big = [[rng.choice((2 ** 60, 2.0 ** 60)) for _ in range(width)] for _ in range(n)]
        yield f"2**60 {n}x{width}", low_a, big
        a = [[0] * n for _ in range(n)]
        a[rng.randrange(n)][1] = 0.0
        yield f"float row {n}x{width}", a, low_b
        b = [[0] * width for _ in range(n)]
        b[1][rng.randrange(width)] = 0.0
        yield f"float column {n}x{width}", low_a, b


@pytest.mark.parametrize("n", [64, 100, 160])
def test_kernels_match_the_generic_loops(n):
    rng = random.Random(n)
    for name, a, b in _product_cases(rng, n):
        assert _typed(mp(a) @ mp(b)) == _typed(Matrix(generic_max_plus, a)
                                              @ Matrix(generic_max_plus, b)), name


def _int_star_cases(rng, n):
    """Integer max-plus matrices of size n at a random density: feasible,
    with a planted positive cycle, reducible, with 𝟘 rows, with entries as
    large as the widest packed field takes, and with entries near the
    CLI's bound float max / 2n."""
    rows, pot = potential_start_start(rng, n, rng.random())
    yield "feasible", rows
    heavy = [list(r) for r in rows]
    i, j = rng.randrange(n), rng.randrange(n)
    heavy[i][j], heavy[j][i] = pot[i] - pot[j] + 1, pot[j] - pot[i]
    if i == j:
        heavy[i][i] = 1
    yield "positive cycle", heavy
    m = rng.randint(0, n)
    # arcs from the first m nodes to the others only: no walk leads back
    yield "reducible", [[None if i < m <= j else v for j, v in enumerate(r)]
                        for i, r in enumerate(rows)]
    yield "zero rows", [[None] * n if rng.random() < 0.3 else r for r in rows]
    # |entry| < 2**61 / n, so 4n·max|entry| + 2 fits 63 bits below the guard
    widest = (2 ** 61 // n - 4) // n
    yield "widest fields", potential_start_start(rng, n, rng.random(), scale=widest)[0]
    top = int(sys.float_info.max) // (2 * n)
    yield "near the bound", potential_start_start(rng, n, rng.random(), scale=top // (2 * n))[0]


# whether `max_plus.star` packs the rows, where that depends on the entries' size
_PACKS = {"widest fields": True, "near the bound": False}


def _typed_kernel(star, rows):
    """The typed rows of star(rows), or the text and the typed (k, weight)
    of its refusal."""
    try:
        return _typed(Matrix._wrap(max_plus, star(rows)))
    except TrConditionViolated as exc:
        return str(exc), tuple((v, type(v)) for v in (exc.k, exc.weight))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 14, 28, 64, 160])
def test_packed_star_matches_the_generic_loop(n):
    """`max_plus.star` packs the rows of an integer matrix in fields of up
    to 8 bytes; in value and type, and in the pivot and weight of a
    refusal, it agrees with the loop of `Semifield.star`."""
    rng = random.Random(n)
    for trial in range(max(1, 60 // n)):
        for name, rows in _int_star_cases(rng, n):
            rows = mp(rows).data
            expected = _typed_kernel(lambda r: Semifield.star(max_plus, r), rows)
            with counted_line(type(max_plus).star, "c[i] = t ^") as updates:
                assert _typed_kernel(max_plus.star, rows) == expected, (name, trial)
            if n > 1 and name in _PACKS:
                assert (updates["runs"] > 0) is _PACKS[name], name
            if name == "positive cycle":
                assert isinstance(expected, tuple)


def test_star_of_ints_and_floats_takes_the_generic_loop():
    """2**60 and 2.0**60 tie; the entry first found keeps its type, as the
    generic loop keeps the left operand of a tie."""
    big = 2 ** 60
    for first, via in ((float(big), big - 5), (big, float(big) - 5)):
        rows = [[0, first, via], [None, 0, None], [None, 5, 0]]
        closure = _typed_star(mp(rows))
        assert closure == _typed_star(Matrix(generic_max_plus, rows))
        assert closure[0][1] == (big, type(first))


def test_products_of_constrained_operands_match_the_generic_loop():
    """The products of `combined --latest` at n 12–28: C* ⊗ X and
    A ⊗ (C* ⊗ X), with a column of X per distinct schedule.  Each has one
    column, below the three that `max_plus.product`'s masks need, so each
    entry is one `dot`.  A ⊗ C* is not a product: the closure pass forms
    it, and the differential tests of `max_plus.star` with tail rows and
    of `solve_constrained` check it."""
    rng = random.Random(27)
    products = []
    product = max_plus.product

    def spy(rows, cols):
        products.append((rows, cols))
        return product(rows, cols)

    for n in (12, 17, 23, 28):
        for density in (rng.uniform(0.1, 0.5), 1.0):
            a = mp([[rng.randint(0, 9) for _ in range(n)] for _ in range(n)])
            c = mp(potential_start_start(rng, n, density)[0])
            max_plus.product = spy
            try:
                report = max_completion_spread_constrained(a, c)
                latest_schedule(report.report, report.closure, a)
            finally:
                del max_plus.product
    assert len(products) == 16
    for rows, cols in products:
        shape = (len(rows), len(cols[0]), len(cols))
        assert (_typed(Matrix._wrap(max_plus, max_plus.product(rows, cols)))
                == _typed(Matrix._wrap(max_plus, Semifield.product(max_plus, rows, cols)))), shape
        with counted_products() as counts:
            max_plus.product(rows, cols)
        assert counts["dot"] == len(rows) * len(cols), shape


def test_asterate_dominates_identity():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        pot = [rng.randint(-3, 3) for _ in range(n)]
        rows = [[rng.randint(-5, 0) + pot[i] - pot[j] for j in range(n)]
                for i in range(n)]
        c = mp(rows)
        assert Matrix.identity(max_plus, n).leq(asterate(c))


# ----------------------------------------------------------------------
# regularity and irreducibility

def test_regularity_predicates():
    assert is_regular(col([0, -1, -3]))
    assert not is_regular(col([0, None, 1]))
    assert mp(START_START).is_column_regular()
    assert not mp([[None, 1], [None, 2]]).is_column_regular()
    assert mp([[None, 1], [2, None]]).is_row_regular()
    assert not mp([[None, None], [1, 2]]).is_row_regular()
    with pytest.raises(ShapeMismatch):
        is_regular(mp(START_FINISH))


def test_is_irreducible():
    assert is_irreducible(mp(START_START))
    assert not is_irreducible(Matrix.identity(max_plus, 2))
    assert not is_irreducible(Matrix.identity(max_plus, 3))
    assert is_irreducible(mp([[None, 1], [1, None]]))
    assert is_irreducible(mp([[1]]))
    assert not is_irreducible(mp([[None]]))
    assert not is_irreducible(mp([[None, 0], [None, None]]))
    with pytest.raises(NotSquare):
        is_irreducible(mp([[1, 2]]))


def test_irreducible_power_sum_has_no_zero_entries():
    rng = random.Random(11)
    for sf in (max_plus, min_plus, max_times):
        for _ in range(20):
            c = rng_irreducible(rng, sf, max_n=4)
            n = c.rows
            acc = Matrix.identity(sf, n)
            power = acc
            for _ in range(n - 1):
                power = power @ c
                acc = acc + power
            assert acc.is_zero_free()


# ----------------------------------------------------------------------
# conjugation identities

@settings(max_examples=60)
@given(data=st.data())
def test_outer_product_with_conjugate_dominates_identity(data):
    dim = data.draw(st.integers(1, 4))
    x = col(data.draw(vectors(dim)))
    assert Matrix.identity(max_plus, dim).leq(x @ x.conj())


@settings(max_examples=60)
@given(data=st.data())
def test_conjugate_of_outer_product(data):
    dim = data.draw(st.integers(1, 4))
    x = col(data.draw(vectors(dim)))
    y = col(data.draw(vectors(dim)))
    assert (x @ y.conj()).conj() == y @ x.conj()


@settings(max_examples=60)
@given(data=st.data())
def test_norm_of_outer_product_factors(data):
    dims = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    x = col(data.draw(vectors(dims[0])))
    y = col(data.draw(vectors(dims[1])))
    assert (x @ y.transpose()).norm() == max_plus.mul(x.norm(), y.norm())


@settings(max_examples=60)
@given(data=st.data())
def test_conjugation_is_antitone(data):
    rows = data.draw(st.integers(1, 3))
    cols_ = data.draw(st.integers(1, 3))
    a = mp([data.draw(vectors(cols_)) for _ in range(rows)])
    b = a + mp([data.draw(vectors(cols_)) for _ in range(rows)])
    assert b.conj().leq(a.conj())
