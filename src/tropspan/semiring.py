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
construction, and inverting 𝟘 raises `InversionOfZero` rather than
producing it.  The CLI admits an input number by `max_plus.contains`,
less the zero -inf.

Shipped instances:

    max_plus    ⟨ℝ ∪ {-inf}, -inf, 0, max, +⟩   the scheduling algebra
    min_plus    ⟨ℝ ∪ {+inf}, +inf, 0, min, +⟩
    max_times   ⟨ℝ≥0, 0, 1, max, ·⟩

Besides the scalar operations, every semifield has three vector
operations, the inner loops of matrix products, closures and checks:

    dot(r, c)             ⊕ⱼ rⱼ ⊗ cⱼ
    add_scaled(x, s, y)   the list of xⱼ ⊕ s ⊗ yⱼ
    contains_all(v)       whether every vⱼ is a carrier element

Their generic default is a plain loop over `add`, `mul` or `contains`.
`max_plus` overrides all three with builtins (`max` over `operator.add`,
one comparison per entry, and `math.isfinite` with a `min`/`max` range
check), which gives the same values.  In `dot` and `add_scaled`, as in
`add`, the left operand wins a tie: the earlier term of a dot product,
and xⱼ over s ⊗ yⱼ.  Ties matter because an int and an equal float
(2**60 and 2.0**60) compare equal but print differently.

Arithmetic is exact whenever the inputs are exact: integers stay
integers under max, min and +, and dyadic floats stay dyadic under
· and 1/x.  Equality everywhere is plain ``==`` with no tolerance.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Sequence

from .errors import InversionOfZero

Scalar = int | float

_NUMBER_TYPES = frozenset((int, float))


def _is_number(a: object) -> bool:
    # bool is an int subclass but makes no sense as a carrier element;
    # a == a rejects NaN.  An int beyond the float range is refused: adding
    # it to an infinite zero converts it to float and raises OverflowError.
    if isinstance(a, float):
        return a == a
    return (isinstance(a, int) and not isinstance(a, bool)
            and -sys.float_info.max <= a <= sys.float_info.max)


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
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    def dot(self, r: Sequence[Scalar], c: Sequence[Scalar]) -> Scalar:
        """⊕ of the products rⱼ ⊗ cⱼ of two nonempty vectors of one length."""
        add, mul = self.add, self.mul
        acc = self.zero
        for a, b in zip(r, c):
            acc = add(acc, mul(a, b))
        return acc

    def add_scaled(self, x: Sequence[Scalar], s: Scalar,
                   y: Sequence[Scalar]) -> list[Scalar]:
        """The list of xⱼ ⊕ s ⊗ yⱼ for two vectors of one length."""
        add, mul = self.add, self.mul
        return [add(a, mul(s, b)) for a, b in zip(x, y)]

    def contains_all(self, values: Sequence[object]) -> bool:
        """True when every entry of `values` is a carrier element."""
        return all(map(self.contains, values))

    def __repr__(self) -> str:
        return f"<{self.name} semifield>"

    def __reduce__(self):
        # the module-level instance: `Matrix` equality compares semifields by identity
        return self.name.replace("-", "_")


class _MaxPlus(Semifield):
    name = "max-plus"
    zero = float("-inf")
    one = 0

    def add(self, a, b):
        return a if b <= a else b

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        if a == self.zero:
            raise InversionOfZero("the max-plus zero (-inf) has no inverse")
        return -a

    # max returns the first of equal maxima, and a >= t keeps a on a tie
    def dot(self, r, c):
        return max(map(operator.add, r, c))

    def add_scaled(self, x, s, y):
        return [a if a >= (t := s + b) else t for a, b in zip(x, y)]

    def contains(self, a):
        return _is_number(a) and a < math.inf

    def contains_all(self, values):
        # by type, not isinstance: bools, float subclasses and strings
        # take the generic loop
        if not set(map(type, values)) <= _NUMBER_TYPES:
            return super().contains_all(values)
        finite = list(filter(self.zero.__ne__, values))
        if not finite:
            return True
        try:
            if not all(map(math.isfinite, finite)):   # NaN or +inf
                return False
        except OverflowError:   # an int too large to convert to a float
            return False
        # exact: an int just past the largest float converts without overflow
        return -sys.float_info.max <= min(finite) and max(finite) <= sys.float_info.max


class _MinPlus(Semifield):
    name = "min-plus"
    zero = float("inf")
    one = 0

    def add(self, a, b):
        return a if a <= b else b

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        if a == self.zero:
            raise InversionOfZero("the min-plus zero (+inf) has no inverse")
        return -a

    def contains(self, a):
        return _is_number(a) and a > -math.inf


class _MaxTimes(Semifield):
    name = "max-times"
    zero = 0
    one = 1

    def add(self, a, b):
        return a if b <= a else b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == self.zero:
            raise InversionOfZero("the max-times zero (0) has no inverse")
        return 1 / a

    def contains(self, a):
        return _is_number(a) and 0 <= a < math.inf


max_plus = _MaxPlus()
min_plus = _MinPlus()
max_times = _MaxTimes()

#: All shipped semifield instances, mainly for axiom test sweeps.
INSTANCES = (max_plus, min_plus, max_times)
