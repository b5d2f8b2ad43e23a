"""Exact solution sets for the two linear building blocks.

`solve_scalar_equation` describes every solution of the single
equation a₁x₁ ⊕ ... ⊕ aₙxₙ = d as a union of boxes, one per component
that may attain the maximum.  `solve_subeigen` decides feasibility of
C ⊗ x ≤ x and, when feasible, returns the star closure whose image
generates every regular solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence, Union

from .errors import (NotIrreducible, NotRegular, NotSquare, ShapeMismatch,
                     TrConditionViolated, ZeroRightHandSide)
from .matvec import Matrix, asterate, is_irreducible
from .semiring import Scalar, Semifield


@dataclass(frozen=True)
class BoxFamily:
    """One box of solutions: x is a member iff

        x[pinned_index] = pinned_value   and
        x[j] ≤ upper_bounds[j]           for every other j.

    The bound stored at `pinned_index` equals `pinned_value`, so the
    componentwise-largest member is the bounds vector itself.
    """

    sf: Semifield
    pinned_index: int
    pinned_value: Scalar
    upper_bounds: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper_bounds", tuple(self.upper_bounds))
        if not 0 <= self.pinned_index < len(self.upper_bounds):
            raise ValueError("pinned_index must address a component")
        if self.sf.is_zero(self.pinned_value):
            raise ValueError("the pinned value must exceed the semifield zero")
        if self.upper_bounds[self.pinned_index] != self.pinned_value:
            raise ValueError("the bound at the pinned component must equal the pinned value")

    @property
    def dim(self) -> int:
        return len(self.upper_bounds)

    def contains(self, x: Union[Matrix, Sequence[Scalar]], allow_scaling: bool = False) -> bool:
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

    def scaled(self, alpha: Scalar) -> "BoxFamily":
        """The box of all α ⊗ x with x in this box; alpha must be > 𝟘."""
        sf = self.sf
        if sf.is_zero(alpha):
            raise ValueError("scaling by the semifield zero collapses the box")
        mul = sf.mul
        return BoxFamily(sf, self.pinned_index, mul(alpha, self.pinned_value),
                         tuple(mul(alpha, b) for b in self.upper_bounds))


@dataclass(frozen=True)
class SubeigenGenerator:
    """Outcome of C ⊗ x ≤ x: either a generating closure or infeasibility.

    When solvable, the regular solutions are exactly the vectors
    closure ⊗ u over regular u (and closure ⊗ x = x for each of them).
    """

    status: Literal["solvable", "no_regular_solution"]
    closure: Matrix | None

    @property
    def solvable(self) -> bool:
        return self.status == "solvable"

    def generate(self, u: Matrix) -> Matrix:
        if not self.solvable:
            raise ValueError("the inequality has no regular solution to generate")
        return self.closure @ u


def solve_scalar_equation(a: Matrix, d: Scalar) -> list[BoxFamily]:
    """All solutions x of a₁x₁ ⊕ ... ⊕ aₙxₙ = d, as n boxes.

    Box i pins x[i] = a[i]⁻¹ ⊗ d, the largest value component i can
    take, and bounds every other component by the same expression.
    The union over i is the complete solution set; boxes may overlap
    or coincide and are deliberately not deduplicated.
    """
    if not a.is_vector:
        raise ShapeMismatch("the coefficient argument must be a vector")
    entries = a.entries()
    sf = a.sf
    for i, v in enumerate(entries):
        if sf.is_zero(v):
            raise NotRegular(f"coefficient vector must be regular; component {i + 1} is zero")
    d = sf.canonical(d)
    if sf.is_zero(d):
        raise ZeroRightHandSide("the right hand side must exceed the semifield zero")
    bounds = tuple(sf.mul(sf.inv(v), d) for v in entries)
    return [BoxFamily(sf, i, bounds[i], bounds) for i in range(len(entries))]


def solve_subeigen(c: Matrix) -> SubeigenGenerator:
    """Regular solutions of C ⊗ x ≤ x for irreducible C.

    Feasible exactly when tr_closure(C) ≤ 𝟙; then x = closure ⊗ u
    ranges over all regular solutions as u ranges over regular
    vectors.  Reducible inputs are rejected rather than guessed at.
    """
    if c.rows != c.cols:
        raise NotSquare("the constraint matrix must be square")
    if not is_irreducible(c):
        raise NotIrreducible(
            "the constraint matrix's nonzero pattern must be strongly connected")
    try:
        return SubeigenGenerator("solvable", asterate(c))
    except TrConditionViolated:
        return SubeigenGenerator("no_regular_solution", None)


def _vector_entries(x: Union[Matrix, Sequence[Scalar]], dim: int) -> tuple[Scalar, ...]:
    if isinstance(x, Matrix):
        if x.cols == 1:
            entries = tuple(r[0] for r in x.data)
        elif x.rows == 1:
            entries = x.data[0]
        else:
            raise ShapeMismatch("membership tests expect a vector")
    else:
        entries = tuple(x)
    if len(entries) != dim:
        raise ShapeMismatch(f"expected a vector of dimension {dim}, got {len(entries)}")
    return entries
