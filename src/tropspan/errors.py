"""Exception hierarchy shared by all tropspan modules.

Row and column positions quoted in messages follow the mathematical
convention and count from 1.  `TrConditionViolated` is raised only by
the closure kernels of `semiring`, worded and carrying its pivot and weight.
"""


class TropicalError(Exception):
    """Base class for every error raised by this package."""


class InversionOfZero(TropicalError):
    """Multiplicative inversion was applied to the semifield zero."""


class ShapeMismatch(TropicalError):
    """Operands have incompatible dimensions."""


class NotSquare(TropicalError):
    """A square matrix was required."""


class ZeroEntry(TropicalError):
    """Conjugation met a zero entry, which has no inverse in the carrier."""


class NotRegular(TropicalError):
    """A vector has a zero component where a regular one was required."""


class NotIrreducible(TropicalError):
    """The matrix's nonzero pattern is not strongly connected."""


class TrConditionViolated(TropicalError):
    """The constraint matrix has a cycle heavier than 𝟙, so C ⊗ x ≤ x
    has no regular solution: the closed walk through pivot `k`, zero
    based, weighs `weight`.  Both are None on a refusal raised with a
    message alone, as the test suite's reference oracles raise it."""

    def __init__(self, message: str, k: int | None = None, weight: float | None = None):
        super().__init__(message)
        self.k, self.weight = k, weight


class InvariantViolation(TropicalError):
    """An input violates a documented precondition of a solver."""

