"""Idempotent semifields and their scalar arithmetic.

An idempotent semifield is a commutative semiring whose addition is
idempotent (a ⊕ a = a) and whose elements other than the zero 𝟘 all
have multiplicative inverses.  Addition induces the order

    a ≤ b   iff   a ⊕ b = b,

assumed total here, so ⊕ acts as a maximum with 𝟘 as the bottom
element.  Scalars are plain Python numbers; each semifield instance
designates one number as 𝟘 and one as the unit 𝟙.

The number that would complete the order at the top (+inf in
max-plus) is not a carrier element: matrices reject it on
construction, inverting 𝟘 raises `InversionOfZero` rather than
producing it, and `max_times.inv` refuses by `ValueError` a float
whose inverse overflows, such as a subnormal.  So does `max_times.mul`
a product above the largest float, or one of two nonzero factors that
rounds to the zero 0.  The CLI admits an input number by
`max_plus.contains`, less the zero -inf.

Shipped instances:

    max_plus    ⟨ℝ ∪ {-inf}, -inf, 0, max, +⟩   the scheduling algebra
    min_plus    ⟨ℝ ∪ {+inf}, +inf, 0, min, +⟩
    max_times   ⟨ℝ≥0, 0, 1, max, ·⟩

Max-plus and min-plus, each the image of the other under x ↦ −x, share
one base: 𝟙 = 0, ⊗ the builtin `operator.add`, the inverse −a, which
refuses 𝟘, `_invs` below, and membership of every number but the top
element, −𝟘.  ⊕ stays a method, `a if b <= a else b` (max-plus and
max-times) or its min, half the cost per call of a two-argument builtin
`max`; the max-times ⊗ is a method for its refusals.  Besides `sum`,
the ⊕ of a sequence, and the private `_invs(v)`, the inverses of the vⱼ
of a v that holds no 𝟘, every semifield has four vector operations, the
inner loops of matrix products, closures and checks:

    dot(r, c)             ⊕ⱼ rⱼ ⊗ cⱼ
    product(rows, cols)   the rows of the matrix of every dot(r, c)
    contains_all(v)       whether every vⱼ is a carrier element
    star(rows, tail)      the rows of the star closure C* of a square
                          matrix C, then those of tail ⊗ C*

The generic `sum` and `dot` are one `functools.reduce` fold over `add`
from 𝟘, `product` one `dot` per entry, `contains_all` a loop over
`contains`, on only the min and max of a list of ints (its docstring
says why); `star` is one Floyd–Warshall pass of row updates
c_ij ⊕ c_ik ⊗ c_kj, a loop over `add` and `mul`, which raises
`_infeasible`'s `TrConditionViolated`, carrying `k` and `weight`, at
the first pivot k whose closed walk outweighs 𝟙, then the `product` of
the tail rows and the closure's columns; `_invs` is `map` over `inv`.
The max-plus and min-plus base overrides `_invs` by `map` over
`operator.neg`, with no 𝟘 test, as its callers refuse 𝟘 first
(`ProblemInstance` for A and q, `Matrix.conj` for its entries).
`max_plus` overrides four more of the six, all but `contains_all`, with
the same values.  Two run on builtins: `sum` is `max`, and `dot` `max`
over `operator.add`, for any number type.  Its `product` writes
max(r) + max(c) without a scan wherever r and c attain their maxima at
a common index, on two conditions it observes: both operands hold only
ints (one type scan over both), and the right one has at least three
columns; other entries, and other operands, take one `dot` each.  In
`sum` and `dot`, as in the fold's `add(acc, …)`,
the left operand wins a tie: `max` keeps the earlier of equal terms;
in `star`, c_ij wins over c_ik ⊗ c_kj.  Ties matter: an int and an
equal float (2**60 and 2.0**60) compare equal but print differently.

Its `star` packs each row of a matrix of ints and 𝟘 into one int, one
field of w bits per entry ("SIMD within a register": Lamport, Multiple
byte processing with full-word instructions, CACM 18(8), 1975), so a
row update is a dozen int operations on whole rows in place of a loop
over entries.  One `_int_extremes` call over the finite entries of C
and the tail makes the int test and gives their min and max, so
M = max|entry| is the larger of max and −min; field j holds c_ij + b with
b = 2n·M + 1, or 0 for 𝟘, and w is the narrowest of 8, 16, 32 and 64
bits that holds 2b below a guard bit.  The sum c_ik + c_kj is a
carry-free add of row k to copies of c_ik; the guard bits of a
subtraction mark the fields where c_ij stays, and a mask selects them.
The pivots run on C's rows alone, in the generic loop's order, so
values, refusals and pivots are the same, and a refusal leaves before
any work on the tail.  The I ⊕ step sets the packed diagonal fields
once; C*'s rows are unpacked from them, and each tail row t
accumulates t ⊗ C* over them: acc ← acc ⊕ t_k ⊗ (row k), the pivots'
update with t_k read from the tail, for each t_k ≠ 𝟘 in order of k.
That is the generic default's order, the closure and then `product`,
so ties fall alike; it forms the substituted matrix A ⊗ C* of the
constrained problem (Butkovič, Max-linear Systems, 2010, §1.6).  A
term is skipped where acc_k ≥ t_k already: acc_k is t_l ⊗ c*_lk for an
earlier l, and C* ⊗ C* = C* with c*_kk = 𝟙, so t_k ⊗ c*_kj ≤
t_l ⊗ c*_lk ⊗ c*_kj ≤ t_l ⊗ c*_lj ≤ acc_j for every j, and the update
would keep every field.  On the `constrained-closure` benchmark pools
about 1 term in 6 is left to update.  No field overflows: before pivot
k every cycle on the nodes below k weighs at most 𝟙, so an entry of
C's rows is the weight of a simple path (at most (n-1)·M in size) or
cycle (n·M), and every sum formed is at most 2n·M < b in size; a tail
sum t_k + c*_kj is at most n·M.  The CLI enforces 2n·M within the
float range, with M over both of its matrices.  A float anywhere in C
or the tail sends the whole call to the generic loop, which keeps the
left operand of an int/float tie, and so do ints too large for 64-bit
fields (4n·M + 2 ≥ 2**63), where whole-row operations cost more than
the loop (about 10 times as much at n = 160 with ints near the CLI's
bound); so does an int C with such a tail, at the loop's speed, and a
call with no finite entry, whose closure is I.

Max-plus and min-plus are exact on ints: max, min and + of ints are
ints.  A float sum rounds where it needs more than 53 bits, and
max-times rounds even on ints, since 1/x is a float
(`max_times.inv(3)` is 0.3333333333333333).  Exact arithmetic on
`Fraction` inputs is ROADMAP item 15.  No sum of ints is range checked,
a known limit: one past the float range raises `OverflowError`, not a
`TropicalError`, where the generic loop adds it to the float zero -inf.
`asterate` does so on the 4-cycle whose arcs all weigh -10**308, whose
entries are all in range; the CLI refuses that input, exit 4, by its
check on 2n·max|entry|.  Equality everywhere is plain
``==`` with no tolerance.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain, repeat

from .errors import InversionOfZero, TrConditionViolated

Scalar = int | float


def _is_number(a: object) -> bool:
    # bool is an int subclass but makes no sense as a carrier element;
    # a == a rejects NaN.  An int beyond the float range is refused: adding
    # it to an infinite zero converts it to float and raises OverflowError.
    if isinstance(a, float):
        return a == a
    return (isinstance(a, int) and not isinstance(a, bool)
            and -sys.float_info.max <= a <= sys.float_info.max)


def _fmt(v: Scalar) -> str:
    """The one rule for writing a number: an integral float as an int."""
    return str(int(v)) if isinstance(v, float) and v.is_integer() else str(v)


def _infeasible(k: int, weight: Scalar, one: Scalar) -> TrConditionViolated:
    """The refusal of pivot k, whose closed walk weighs more than 𝟙."""
    return TrConditionViolated(f"the closed walk through index {k + 1} has weight "
                               f"{_fmt(weight)}, which exceeds the unit {_fmt(one)}", k, weight)


def _int_extremes(values: Sequence[object]) -> tuple[int, int] | None:
    """(min, max) of `values` when every entry is an int, else None.

    By type, not isinstance: bools, floats and strings give None, and so
    does an empty list.  An int is never NaN or infinite, so never the
    max-plus or the min-plus 𝟘."""
    return (min(values), max(values)) if set(map(type, values)) == {int} else None


def _argmax_mask(v: Sequence[Scalar], top: Scalar) -> int:
    """The indices l with v[l] == top, as the bits 8·l of an int."""
    return int.from_bytes(bytes(map(operator.eq, v, repeat(top))), "little")


# array type codes of the unsigned ints of 1, 2, 4 and 8 bytes, by size, in
# increasing order
_FIELD_CODES = {array(code).itemsize: code for code in "BHILQ"}


class Semifield:
    """Scalar operations of one idempotent semifield instance."""

    name: str = "abstract"
    zero: Scalar
    one: Scalar

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def _invs(self, row: Iterable[Scalar]) -> Iterable[Scalar]:
        """The inverse of each entry of `row`, which must hold no 𝟘."""
        return map(self.inv, row)

    def contains(self, a: object) -> bool:
        """True when `a` is a carrier element of this semifield."""
        raise NotImplementedError

    def leq(self, a: Scalar, b: Scalar) -> bool:
        """Order induced by addition: a ≤ b iff a ⊕ b = b."""
        return self.add(a, b) == b

    def lt(self, a: Scalar, b: Scalar) -> bool:
        return a != b and self.add(a, b) == b

    def is_zero(self, a: Scalar) -> bool:
        return a == self.zero

    def canonical(self, a: Scalar) -> Scalar:
        """Collapse alternative encodings of 𝟘 (such as -0.0 in max_times)."""
        return self.zero if a == self.zero else a

    def sum(self, values: Iterable[Scalar]) -> Scalar:
        return reduce(self.add, values, self.zero)

    def dot(self, r: Sequence[Scalar], c: Sequence[Scalar]) -> Scalar:
        """⊕ of the products rⱼ ⊗ cⱼ of two nonempty vectors of one length."""
        return reduce(self.add, map(self.mul, r, c), self.zero)

    def product(self, rows: Sequence[Sequence[Scalar]],
                cols: Sequence[Sequence[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
        """The rows of the matrix whose entry (i, j) is dot(rows[i], cols[j])."""
        dot = self.dot
        return tuple(tuple([dot(r, c) for c in cols]) for r in rows)

    def contains_all(self, values: Sequence[object]) -> bool:
        """True when every entry of `values` is a carrier element.  A list
        of ints alone is checked by `_int_extremes`' min and max: the ints
        of every shipped carrier form an interval ([-M, M] in max-plus and
        min-plus, [0, M] in max-times, M the largest float)."""
        return all(map(self.contains, _int_extremes(values) or values))

    def star(self, rows: Sequence[Sequence[Scalar]],
             tail: Sequence[Sequence[Scalar]] = ()) -> tuple[tuple[Scalar, ...], ...]:
        """The rows of the star closure I ⊕ A ⊕ ... ⊕ Aⁿ⁻¹ of the n×n matrix A,
        followed by the rows of tail ⊗ A*.

        One Floyd–Warshall pass of row updates c_ij ⊕ c_ik ⊗ c_kj over
        `add` and `mul`, then `product` of the n-column `tail` rows and
        the closure's columns.  Raises `_infeasible`'s refusal at the
        first pivot k whose closed walk weighs more than 𝟙, before any
        work on the tail.  An override keeps this order, so that its
        ties fall alike.
        """
        add, mul, zero, one = self.add, self.mul, self.zero, self.one
        c = [list(r) for r in rows]
        for k, ck in enumerate(c):
            if not self.leq(ck[k], one):
                raise _infeasible(k, ck[k], one)
            for i, ci in enumerate(c):
                cik = ci[k]
                # row k cannot grow, as c[k][k] ≤ 𝟙; 𝟘 ⊗ anything is 𝟘,
                # neutral for ⊕
                if i != k and cik != zero:
                    c[i] = [add(a, mul(cik, b)) for a, b in zip(ci, ck)]
        for i, ci in enumerate(c):
            ci[i] = add(one, ci[i])
        closure = tuple(map(tuple, c))
        return closure + self.product(tail, tuple(zip(*closure))) if tail else closure

    def __repr__(self) -> str:
        return f"<{self.name} semifield>"

    def __reduce__(self):
        # the module-level instance: `Matrix` equality compares semifields by identity
        return self.name.replace("-", "_")


class _Tropical(Semifield):
    """The base of max-plus and min-plus: all but ⊕ and 𝟘 (module docstring)."""

    one = 0
    mul = staticmethod(operator.add)

    def inv(self, a):
        if a == self.zero:
            raise InversionOfZero(f"the {self.name} zero ({self.zero:+}) has no inverse")
        return -a

    # -a without inv's 𝟘 test: the callers have refused 𝟘
    def _invs(self, row):
        return map(operator.neg, row)

    def contains(self, a):
        return _is_number(a) and a != -self.zero


class _MaxPlus(_Tropical):
    name = "max-plus"
    zero = float("-inf")

    def add(self, a, b):
        return a if b <= a else b

    # max keeps the first of equal maxima: the earlier term wins a tie, as in the fold
    def sum(self, values):
        return max(values, default=self.zero)

    def dot(self, r, c):
        return max(map(operator.add, r, c))

    def product(self, rows, cols):
        # Every term r_l + c_l is at most max(r) + max(c), and an index l
        # where both maxima sit (the argmax bitmasks meet) attains it.  The
        # masks run on what the operands show: only ints, so no term is an
        # equal float that would have to win the tie, and three or more
        # columns, below which a row's mask costs more than the dots it
        # saves.  An entry whose masks miss, and any other product, takes
        # one `dot`.
        if len(cols) < 3 or set(map(type, chain(*cols, *rows))) != {int}:
            return super().product(rows, cols)
        dot = self.dot
        col_tops, row_tops = list(map(max, cols)), list(map(max, rows))
        by_col = list(zip(cols, col_tops, map(_argmax_mask, cols, col_tops)))
        return tuple(tuple([r_top + top if r_mask & mask else dot(r, c)
                            for c, top, mask in by_col])
                     for r, r_top, r_mask in zip(rows, row_tops,
                                                 map(_argmax_mask, rows, row_tops)))

    def star(self, rows, tail=()):
        # packed rows: the module docstring states the encoding, its gate
        # and why no field overflows
        zero, one = self.zero, self.one
        n = len(rows)
        extremes = _int_extremes([v for r in chain(rows, tail) for v in r if v != zero])
        if extremes is None:
            return super().star(rows, tail)
        # the bias b and the narrowest field that holds 2b with a guard bit above it
        b = 2 * n * max(-extremes[0], extremes[1]) + 1
        size = next((s for s in _FIELD_CODES if 8 * s > (2 * b).bit_length()), None)
        if size is None:
            return super().star(rows, tail)
        code, order = _FIELD_CODES[size], sys.byteorder

        def pack(fields):
            return int.from_bytes(array(code, fields).tobytes(), order)

        def unpack(ci):
            fields = memoryview(ci.to_bytes(size * n, order)).cast(code)
            return tuple([f - b if f else zero for f in fields])

        w = 8 * size
        g = w - 1                              # the guard bit's place in a field
        field = (1 << w) - 1
        ones = pack([1] * n)
        guards = ones << g
        biases = b * ones

        def masks(ck):
            # row k's c_kj, 𝟘 read as 0 so that no field borrows, and its finite fields' value bits
            real = ((ck | guards) - ones) & guards   # the guard bits of the finite fields
            real -= real >> g                        # ... turned into their value bits
            return (ck | biases & ~real) - biases, real

        c = [pack([v + b if v != zero else 0 for v in r]) for r in rows]
        for k in range(n):
            ck = c[k]
            at = w * k
            ckk = ck >> at & field
            if ckk > b:
                raise _infeasible(k, ckk - b, one)
            base, real = masks(ck)
            for i, ci in enumerate(c):
                cik = ci >> at & field
                if cik and i != k:
                    t = (base + cik * ones) & real           # the fields c_ik ⊗ c_kj
                    keep = ((ci | guards) - t) & guards      # guard bits where c_ij ≥ t_j
                    c[i] = t ^ ((t ^ ci) & (keep - (keep >> g)))
        for k, ck in enumerate(c):
            # I ⊕: the field of 𝟙 at k, as no cycle is heavier than 𝟙 once every pivot passed
            c[k] = ck + ((b + one - (ck >> w * k & field)) << w * k)
        closure = tuple(map(unpack, c))
        if not tail:
            return closure
        # each tail row t is the ⊕ over k of t_k ⊗ (row k of C*), accumulated
        # in packed fields by the pivots' update; a term with acc_k ≥ t_k
        # cannot raise acc, as the module docstring shows
        by_row = [(w * k, *masks(ck)) for k, ck in enumerate(c)]
        out = []
        for r in tail:
            acc = 0
            for tk, (at, base, real) in zip(r, by_row):
                if tk != zero and tk + b > acc >> at & field:
                    t = (base + (tk + b) * ones) & real      # the fields t_k ⊗ c*_kj
                    keep = ((acc | guards) - t) & guards     # guard bits where acc_j ≥ t_j
                    acc = t ^ ((t ^ acc) & (keep - (keep >> g)))
            out.append(unpack(acc))
        return closure + tuple(out)


class _MinPlus(_Tropical):
    name = "min-plus"
    zero = float("inf")

    def add(self, a, b):
        return a if a <= b else b


class _MaxTimes(Semifield):
    name = "max-times"
    zero = 0
    one = 1
    add = _MaxPlus.add

    def mul(self, a, b):
        product = a * b
        if product > sys.float_info.max:
            raise ValueError(f"the max-times product of {a!r} and {b!r} overflows the float range")
        if product == 0 and a and b:
            raise ValueError(f"the max-times product of {a!r} and {b!r} underflows to the zero 0")
        return product

    def inv(self, a):
        if a == self.zero:
            raise InversionOfZero("the max-times zero (0) has no inverse")
        inverse = 1 / a
        if inverse == math.inf:
            raise ValueError(f"the max-times inverse of {a!r} overflows the float range")
        return inverse

    def contains(self, a):
        return _is_number(a) and 0 <= a < math.inf


max_plus = _MaxPlus()
min_plus = _MinPlus()
max_times = _MaxTimes()

#: All shipped semifield instances, mainly for axiom test sweeps.
INSTANCES = (max_plus, min_plus, max_times)
