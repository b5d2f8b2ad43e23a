import math
import sys

import pytest
from hypothesis import example, given, strategies as st

from tropspan import (INSTANCES, InversionOfZero, Matrix, Semifield, TrConditionViolated,
                      max_plus, max_times, min_plus)
from support import counted_line

NEG_INF = float("-inf")


def finite_elements(sf):
    # powers of two keep max-times products and inverses exact in floats
    if sf is max_times:
        return st.integers(-8, 8).map(lambda k: 2.0 ** k)
    return st.integers(-30, 30)


def elements(sf):
    return st.one_of(st.just(sf.zero), finite_elements(sf))


# ----------------------------------------------------------------------
# pinned behaviour of the max-plus instance

def test_max_plus_add():
    assert max_plus.add(3, 5) == 5
    assert max_plus.add(4, 4) == 4
    assert max_plus.add(7, NEG_INF) == 7
    assert max_plus.add(NEG_INF, NEG_INF) == NEG_INF


def test_max_plus_mul():
    assert max_plus.mul(3, 5) == 8
    assert max_plus.mul(9, NEG_INF) == NEG_INF
    assert max_plus.mul(9, 0) == 9


def test_max_plus_inv():
    assert max_plus.inv(7) == -7
    assert max_plus.inv(0) == 0
    with pytest.raises(InversionOfZero, match=r"^the max-plus zero \(-inf\) has no inverse$"):
        max_plus.inv(NEG_INF)


def test_max_plus_leq():
    assert max_plus.leq(NEG_INF, -100)
    assert max_plus.leq(3, 5)
    assert not max_plus.leq(5, 3)
    assert max_plus.lt(3, 5)
    assert not max_plus.lt(5, 5)


def test_other_instances_pinned():
    assert min_plus.add(3, 5) == 3
    assert min_plus.leq(math.inf, 100)      # +inf is the min-plus bottom
    assert min_plus.inv(4) == -4
    assert max_times.add(3, 5) == 5
    assert max_times.mul(3, 5) == 15
    assert max_times.inv(4) == 0.25
    with pytest.raises(InversionOfZero, match=r"^the min-plus zero \(\+inf\) has no inverse$"):
        min_plus.inv(math.inf)
    with pytest.raises(InversionOfZero, match=r"^the max-times zero \(0\) has no inverse$"):
        max_times.inv(0)


@pytest.mark.parametrize("sf", (max_plus, min_plus), ids=lambda sf: sf.name)
@given(row=st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.just(-0.0),
                              st.floats(allow_nan=False, allow_infinity=False))))
def test_vector_inverse_matches_inv_on_rows_without_zero(sf, row):
    """`_invs` skips `inv`'s 𝟘 test, as its callers refuse 𝟘 first; on
    any other row it gives `inv`'s values, types and signs of zero."""
    assert list(map(repr, sf._invs(row))) == list(map(repr, map(sf.inv, row)))


def test_max_times_inv_refuses_an_inverse_beyond_the_float_range():
    """1/x of a subnormal x rounds to inf, which is no carrier element;
    the smallest normal float still has a finite inverse."""
    with pytest.raises(ValueError, match="^the max-times inverse of 5e-324 overflows"):
        max_times.inv(5e-324)
    with pytest.raises(ValueError, match="^the max-times inverse of 5e-324 overflows"):
        Matrix(max_times, [[5e-324, 1.0]]).conj()
    inverse = max_times.inv(sys.float_info.min)
    assert max_times.contains(inverse) and inverse < math.inf


def test_max_times_mul_refuses_a_product_beyond_the_float_range():
    """A product above the largest float (a float inf, or an int past the
    float range) is no carrier element; a product of two nonzero factors
    that rounds to 0 would be a 𝟘 from two nonzero factors."""
    with pytest.raises(ValueError, match="^the max-times product of 1e\\+308 and 10 overflows"):
        Matrix(max_times, [[1e308]]) @ Matrix(max_times, [[10]])
    with pytest.raises(ValueError, match="^the max-times product of 10 and 1e\\+308 overflows"):
        Matrix(max_times, [[1e308, 1.0], [1.0, 1e308]]).scale(10)
    with pytest.raises(ValueError, match="overflows the float range$"):
        max_times.mul(10**308, 10)
    with pytest.raises(ValueError, match="^the max-times product of 1e-200 and 1e-200 underflows"):
        Matrix(max_times, [[1e-200]]) @ Matrix(max_times, [[1e-200]])
    assert max_times.mul(sys.float_info.max, 1.0) == sys.float_info.max
    subnormal = max_times.mul(1e-200, 1e-120)
    assert 0 < subnormal < sys.float_info.min and max_times.contains(subnormal)
    assert max_times.mul(0, 1e308) == max_times.zero


def test_carrier_membership():
    assert max_plus.contains(NEG_INF)
    assert not max_plus.contains(math.inf)
    assert not max_plus.contains(math.nan)
    assert not max_plus.contains(True)
    assert not max_plus.contains("3")
    assert not min_plus.contains(NEG_INF)
    assert not max_times.contains(-1)
    assert max_times.contains(0)
    big = 10 ** 400   # beyond the float range: refused, as a bool, without raising
    assert max_plus.contains(big) is False and min_plus.contains(-big) is False
    assert max_times.contains(big) is False and max_times.contains(-big) is False


def test_canonical_collapses_zero_encodings():
    assert str(max_times.canonical(-0.0)) == "0"
    assert max_plus.canonical(5) == 5
    assert max_plus.canonical(NEG_INF) == NEG_INF


# ----------------------------------------------------------------------
# the max-plus vector kernels against the generic loops of Semifield

BIG = 2 ** 60   # an int and a float that compare equal but print differently


def kernel_entries():
    # narrow ranges, so that an int and an equal float often tie for the maximum
    return st.one_of(st.integers(-4, 4), st.integers(-16, 16).map(lambda k: k / 4),
                     st.just(NEG_INF), st.sampled_from((BIG, float(BIG), -BIG, -float(BIG))))


def kernel_vectors():
    return st.lists(st.tuples(kernel_entries(), kernel_entries()),
                    min_size=1, max_size=8).map(lambda pairs: tuple(zip(*pairs)))


def typed(values):
    return [(v, type(v)) for v in values]


@given(vectors=kernel_vectors())
def test_max_plus_dot_matches_the_generic_loop(vectors):
    r, c = vectors
    assert typed([max_plus.dot(r, c)]) == typed([Semifield.dot(max_plus, r, c)])


@given(values=st.lists(kernel_entries(), max_size=8))
@example(values=[])
@example(values=[NEG_INF, NEG_INF])
@example(values=[BIG, float(BIG)])
@example(values=[float(BIG), 1, BIG])
def test_max_plus_sum_matches_the_generic_fold(values):
    # the first of equal maxima is kept, as by the fold from the zero
    assert typed([max_plus.sum(values)]) == typed([Semifield.sum(max_plus, values)])


def star_or_refusal(star, rows):
    """The typed rows of star(rows), or the text and the typed (k, weight) of its refusal."""
    try:
        return [typed(r) for r in star(rows)]
    except TrConditionViolated as exc:
        return str(exc), typed([exc.k, exc.weight])


def int_rows(n, min_size, max_size):
    # small entries tie often and close positive cycles; the wide ones take
    # every field width of the packed rows, up to 8 bytes
    entries = st.one_of(st.integers(-4, 4), st.just(NEG_INF),
                        st.integers(-2 ** 40, 2 ** 40))
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=min_size, max_size=max_size)


def int_matrices():
    return st.integers(1, 6).flatmap(lambda n: int_rows(n, n, n))


@given(rows=int_matrices())
def test_max_plus_star_matches_the_generic_loop(rows):
    """The packed row update of `max_plus.star` against the loop of `Semifield.star`."""
    assert (star_or_refusal(max_plus.star, rows)
            == star_or_refusal(lambda r: Semifield.star(max_plus, r), rows))


def closure_then_product(rows, tail):
    """The generic loop's closure, then tail ⊗ closure by `Semifield.product`."""
    closure = Semifield.star(max_plus, rows)
    return closure + Semifield.product(max_plus, tail, tuple(zip(*closure)))


def tail_rows(n):
    # int tails share the packed fields; float and mixed ones, and ints too
    # wide for 64-bit fields, send the whole call to the generic loop
    wide = st.one_of(st.integers(-4, 4), st.just(NEG_INF),
                     st.integers(2 ** 61, 2 ** 70), st.integers(-2 ** 70, -2 ** 61))
    return st.one_of(int_rows(n, 0, 4),
                     st.lists(st.lists(kernel_entries(), min_size=n, max_size=n), max_size=4),
                     st.lists(st.lists(wide, min_size=n, max_size=n), max_size=4))


@given(case=st.integers(1, 6).flatmap(lambda n: st.tuples(int_rows(n, n, n), tail_rows(n))))
# a float in the tail sends the call to the generic loop, whose `product`
# keeps the earlier term of the int/float tie: 2.0**60 + 0 over (2**60 - 3) + 3
@example(case=([[0, NEG_INF], [3, 0]], [[2.0 ** 60, 2 ** 60 - 3], [NEG_INF, 1]]))
# C fits 8-bit fields, the tail with it needs more than 64 bits
@example(case=([[0, -1], [-1, 0]], [[2 ** 62, NEG_INF], [1, -2 ** 62]]))
# t_1 = 0 is one above the column acc_1 = 0 + c*_01 = -1: not dominated
@example(case=([[0, -1], [-1, 0]], [[0, 0]]))
def test_max_plus_star_with_a_tail_matches_the_loop_and_product(case):
    """`max_plus.star(rows, tail)`, which forms tail ⊗ C* from the packed
    rows of C* after the pivots, and the generic `Semifield.star(rows,
    tail)`, against the generic closure followed by `Semifield.product`."""
    rows, tail = case
    expected = star_or_refusal(lambda r: closure_then_product(r, tail), rows)
    assert star_or_refusal(lambda r: max_plus.star(r, tail), rows) == expected
    assert star_or_refusal(lambda r: Semifield.star(max_plus, r, tail), rows) == expected


@pytest.mark.parametrize("n", (1, 3))
@pytest.mark.parametrize("tail", ("none", "ints", "zeros"))
def test_max_plus_star_of_an_all_zero_matrix_matches_the_loop(n, tail):
    """C with no finite entry closes to I, with the int 𝟙 on the diagonal,
    and tail ⊗ I is the tail, whether or not an int tail makes the
    call packed."""
    rows = [[NEG_INF] * n for _ in range(n)]
    tail = {"none": [], "ints": [[3, *[NEG_INF] * (n - 1)], [-7] * n],
            "zeros": [[NEG_INF] * n]}[tail]
    assert ([typed(r) for r in max_plus.star(rows, tail)]
            == [typed(r) for r in Semifield.star(max_plus, rows, tail)])


def test_max_plus_star_refuses_before_any_tail_row():
    """The pivots run on C's rows alone, so a refusal leaves before the
    packed accumulate of the tail.  A feasible C then runs it, once per
    term t_k ⊗ (row k of C*) but for 𝟘 and dominated terms: in row
    (9, 1) the first term already gives column 1 its 9 + 1 ≥ 1.  One
    gate covers C and the tail together: a float in the tail, or tail
    ints too wide for 64-bit fields, send the narrow int C to the
    generic loop as well, and no pivot runs packed."""
    tail = [[5, NEG_INF], [2, 7], [9, 1]]
    with counted_line(type(max_plus).star, "acc = t ^") as accumulates:
        with pytest.raises(TrConditionViolated) as refusal:
            max_plus.star([[0, 1], [0, 0]], tail)
    assert (refusal.value.k, refusal.value.weight) == (1, 1)
    assert accumulates["runs"] == 0
    c = [[0, 1], [-1, 0]]
    with counted_line(type(max_plus).star, "acc = t ^") as accumulates:
        assert max_plus.star(c, tail)[2:] == ((5, 6), (6, 7), (9, 10))
    assert accumulates["runs"] == 4
    with counted_line(type(max_plus).star, "ckk = ck >>") as pivots:
        max_plus.star(c, tail)
    assert pivots["runs"] == 2
    for generic in ([[5, NEG_INF], [2, 7.5]], [[2 ** 62, NEG_INF], [1, -2 ** 62]]):
        with counted_line(type(max_plus).star, "ckk = ck >>") as pivots:
            assert max_plus.star(c, generic) == closure_then_product(c, generic)
        assert pivots["runs"] == 0, generic


def test_counted_line_refuses_to_nest():
    """An inner tracer would replace the outer one, whose count would then
    read 0; the inner block is refused and the outer one keeps counting."""
    with counted_line(type(max_plus).star, "acc = t ^") as accumulates:
        with pytest.raises(RuntimeError, match="^counted_line cannot run under another tracer"):
            with counted_line(type(max_plus).star, "ckk = ck >>"):
                pass
        max_plus.star([[0, 1], [-1, 0]], [[5, -3], [2, 7]])
    assert accumulates["runs"] == 3
    assert sys.gettrace() is None


def test_max_plus_kernels_keep_the_left_operand_of_a_tie():
    for left, right in ((BIG, float(BIG)), (float(BIG), BIG)):
        assert typed([max_plus.dot([left, 0], [0, right])]) == typed([left])


# contains_all against the loop over contains, in every instance

class _Float(float):
    pass


JUST_BEYOND = int(sys.float_info.max) + 1   # converts to the largest float, without overflow
UNUSUAL = (math.inf, -math.inf, math.nan, True, 10 ** 400, -10 ** 400, JUST_BEYOND,
           -JUST_BEYOND, _Float(1.5), "1", None)


def membership_vectors():
    ordinary = st.one_of(st.integers(-8, 8),
                         st.floats(allow_nan=False, allow_infinity=False))
    return (st.tuples(st.lists(ordinary, max_size=6),
                      st.lists(st.sampled_from(UNUSUAL), max_size=2))
            .map(lambda parts: parts[0] + parts[1]).flatmap(st.permutations))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(values=membership_vectors())
@example(values=[])
@example(values=[1, 10 ** 400])
@example(values=[0.5, JUST_BEYOND])
@example(values=[-JUST_BEYOND, -math.inf])
@example(values=[-math.inf, 2, 2.5])
def test_contains_all_matches_the_loop_over_contains(sf, values):
    assert sf.contains_all(values) is all(map(sf.contains, values))


FLOAT_MAX = int(sys.float_info.max)


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(values=st.lists(st.one_of(st.integers(), st.integers(-8, 8), st.sampled_from(
    (FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX + 1, -FLOAT_MAX - 1, 10 ** 400, -10 ** 400))),
    min_size=1))
@example(values=[FLOAT_MAX, -FLOAT_MAX])
@example(values=[0, FLOAT_MAX + 1])
@example(values=[-FLOAT_MAX - 1, 0])
@example(values=[-1, 5])
@example(values=[3, -2, 0])
def test_contains_all_of_ints_matches_the_loop_over_contains(sf, values):
    """A list of ints only is checked by its min and max; max-times
    refuses its negative ints."""
    assert sf.contains_all(values) is all(map(sf.contains, values))


# ----------------------------------------------------------------------
# axioms across all shipped instances

@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_add_is_idempotent_commutative_associative(sf, data):
    a = data.draw(elements(sf))
    b = data.draw(elements(sf))
    c = data.draw(elements(sf))
    assert sf.add(a, a) == a
    assert sf.add(a, b) == sf.add(b, a)
    assert sf.add(sf.add(a, b), c) == sf.add(a, sf.add(b, c))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_mul_is_commutative_associative_distributive(sf, data):
    a = data.draw(elements(sf))
    b = data.draw(elements(sf))
    c = data.draw(elements(sf))
    assert sf.mul(a, b) == sf.mul(b, a)
    assert sf.mul(sf.mul(a, b), c) == sf.mul(a, sf.mul(b, c))
    assert sf.mul(a, sf.add(b, c)) == sf.add(sf.mul(a, b), sf.mul(a, c))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_neutral_and_absorbing_elements(sf, data):
    a = data.draw(elements(sf))
    assert sf.add(a, sf.zero) == a
    assert sf.mul(a, sf.zero) == sf.zero
    assert sf.mul(a, sf.one) == a


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_inverse_law(sf, data):
    a = data.draw(finite_elements(sf))
    assert sf.mul(sf.inv(a), a) == sf.one


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_addition_is_extremal(sf, data):
    a = data.draw(elements(sf))
    b = data.draw(elements(sf))
    assert sf.leq(a, sf.add(a, b))
    assert sf.leq(b, sf.add(a, b))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_order_is_total_and_antisymmetric(sf, data):
    a = data.draw(elements(sf))
    b = data.draw(elements(sf))
    assert sf.leq(a, b) or sf.leq(b, a)
    if sf.leq(a, b) and sf.leq(b, a):
        assert a == b
    assert sf.leq(sf.zero, a)


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_operations_are_isotone(sf, data):
    a = data.draw(elements(sf))
    b = data.draw(elements(sf))
    c = data.draw(elements(sf))
    if not sf.leq(a, b):
        a, b = b, a
    assert sf.leq(sf.add(a, c), sf.add(b, c))
    assert sf.leq(sf.mul(a, c), sf.mul(b, c))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_inversion_is_antitone(sf, data):
    a = data.draw(finite_elements(sf))
    b = data.draw(finite_elements(sf))
    if not sf.leq(a, b):
        a, b = b, a
    assert sf.leq(sf.inv(b), sf.inv(a))


@pytest.mark.parametrize("sf", INSTANCES, ids=lambda sf: sf.name)
@given(data=st.data())
def test_sum_folds_with_zero_start(sf, data):
    values = data.draw(st.lists(elements(sf), max_size=6))
    acc = sf.zero
    for v in values:
        acc = sf.add(acc, v)
    assert typed([sf.sum(values)]) == typed([acc])
