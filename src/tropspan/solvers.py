"""Box families, the shape of every solution set the solvers report.

A box pins one component at its largest value and bounds every other
component from above.  The optimizer describes the maximizers of the
span objective as a finite union of such boxes.  `BoxFamily` and the
records of `optimizer` and `scheduling` are immutable `__slots__` classes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ShapeMismatch
from .matvec import Matrix
from .semiring import Scalar, Semifield


class _Frozen:
    """An immutable record whose fields are its `__slots__`, set in `__init__`
    by `object.__setattr__`; equality (within one class), hash, repr and
    pickling all derive from the field tuple."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BoxFamily(_Frozen):
    """One box of solutions: x is a member iff

        x[pinned_index] = pinned_value   and
        x[j] ≤ upper_bounds[j]           for every other j.

    The pinned value is the bound stored at `pinned_index`, so the
    componentwise-largest member is the bounds vector itself.
    """

    __slots__ = ("sf", "pinned_index", "upper_bounds")

    def __init__(self, sf: Semifield, pinned_index: int, upper_bounds: Sequence[Scalar]):
        upper_bounds = tuple(upper_bounds)   # a tuple itself, so rows stay shared
        _require_pinned(sf, pinned_index, upper_bounds)
        object.__setattr__(self, "sf", sf)
        object.__setattr__(self, "pinned_index", pinned_index)
        object.__setattr__(self, "upper_bounds", upper_bounds)

    @property
    def pinned_value(self) -> Scalar:
        return self.upper_bounds[self.pinned_index]

    @property
    def dim(self) -> int:
        return len(self.upper_bounds)

    def contains(self, x: Matrix | Sequence[Scalar], allow_scaling: bool = False) -> bool:
        """Membership test; with `allow_scaling`, membership of α ⊗ x for some α > 𝟘."""
        entries = _vector_entries(x, self.dim)
        sf = self.sf
        if allow_scaling:
            pivot = entries[self.pinned_index]
            if sf.is_zero(pivot):
                return False
            alpha = sf.mul(self.pinned_value, sf.inv(pivot))
            entries = tuple(sf.mul(alpha, v) for v in entries)
        elif entries[self.pinned_index] != self.pinned_value:
            return False
        leq = sf.leq
        return all(leq(v, b) for v, b in zip(entries, self.upper_bounds))

    def max_member(self) -> Matrix:
        """The componentwise-largest member, as a column vector."""
        return Matrix.column(self.sf, self.upper_bounds)


def _require_pinned(sf: Semifield, pinned_index: int, upper_bounds: tuple) -> None:
    """`BoxFamily`'s refusals: a pinned index out of range, a pinned value 𝟘."""
    if not 0 <= pinned_index < len(upper_bounds):
        raise ValueError("pinned_index must address a component")
    if sf.is_zero(upper_bounds[pinned_index]):
        raise ValueError("the pinned value must exceed the semifield zero")


def _vector_entries(x: Matrix | Sequence[Scalar], dim: int) -> tuple[Scalar, ...]:
    if isinstance(x, Matrix):
        if not x.is_vector:
            raise ShapeMismatch("membership tests expect a vector")
        entries = x.entries()
    else:
        entries = tuple(x)
    if len(entries) != dim:
        raise ShapeMismatch(f"expected a vector of dimension {dim}, got {len(entries)}")
    return entries
