"""Closed-form maximization of the conjugate-form objective.

The objective

    f(x) = q⁻ ⊗ B ⊗ x ⊗ (A ⊗ x)⁻ ⊗ p

is maximized over regular vectors x.  In max-plus terms with B = A and
p = q = 𝟙 it is the span of A ⊗ x, the gap between its largest and
smallest components, which is what the scheduling layer exercises.

The maximum has the closed form delta = q⁻ ⊗ B ⊗ A⁻ ⊗ p and the set of
maximizers is a finite union of scale-invariant boxes, one for every
index pair (k, s) attaining the two inner maxima below.  The objective
is invariant under x ↦ α ⊗ x, so each box stands for its whole ray of
scalings; families are reported at α = 𝟙.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvariantViolation, NotRegular, NotSquare, ShapeMismatch
from .matvec import Matrix, asterate, ones
from .semiring import Scalar, Semifield
from .solvers import BoxFamily


@dataclass(frozen=True)
class ProblemInstance:
    """Data (A, B, p, q) of one maximization problem.

    Preconditions are checked on construction: A (m×n) has no zero
    entries, B (l×n) is column regular, p (m) and q (l) are regular,
    and A and B agree on the number of columns.
    """

    A: Matrix
    B: Matrix
    p: Matrix
    q: Matrix

    def __post_init__(self):
        a, b, p, q = self.A, self.B, self.p, self.q
        if not (a.sf is b.sf is p.sf is q.sf):
            raise InvariantViolation("all instance data must share one semifield")
        if a.cols != b.cols:
            raise InvariantViolation(
                f"matrices A and B must have the same number of columns; "
                f"got {a.cols} and {b.cols}")
        if not p.is_column or not q.is_column:
            raise InvariantViolation("p and q must be column vectors")
        if p.rows != a.rows:
            raise InvariantViolation(
                f"vector p must have one component per row of A; "
                f"got {p.rows} for {a.rows} rows")
        if q.rows != b.rows:
            raise InvariantViolation(
                f"vector q must have one component per row of B; "
                f"got {q.rows} for {b.rows} rows")
        require_zero_free(a, "matrix A")
        zero = a.sf.zero
        if not b.is_column_regular():
            j = next(j for j in range(b.cols)
                     if all(r[j] == zero for r in b.data))
            raise InvariantViolation(
                f"matrix B must be column regular; column {j + 1} "
                f"contains only zero entries")
        for name, vec in (("p", p), ("q", q)):
            for i, v in enumerate(vec.entries()):
                if v == zero:
                    raise InvariantViolation(
                        f"vector {name} must be regular; component {i + 1} is zero")

    @property
    def sf(self) -> Semifield:
        return self.A.sf

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def m(self) -> int:
        return self.A.rows

    @property
    def l(self) -> int:
        return self.B.rows


@dataclass(frozen=True)
class SolutionReport:
    """The optimum and the complete description of its attainment set.

    `pairs` lists every maximizing index pair (k, s), zero based, in
    lexicographic order; `families[i]` is the box of maximizers pinned
    by `pairs[i]`.  The union of the families, closed under scaling by
    any α > 𝟘, is exactly the set of optimal vectors.
    """

    delta: Scalar
    pairs: tuple[tuple[int, int], ...]
    families: tuple[BoxFamily, ...]


class ConstrainedReport(NamedTuple):
    """Report over u, solved on (A ⊗ closure, B ⊗ closure), plus the
    closure that maps it back: x = closure ⊗ u."""

    report: SolutionReport
    closure: Matrix


def evaluate_objective(inst: ProblemInstance, x: Matrix) -> Scalar:
    """f(x) = q⁻ ⊗ B ⊗ x ⊗ (A ⊗ x)⁻ ⊗ p for a regular column x."""
    if not x.is_column or x.rows != inst.n:
        raise ShapeMismatch(f"x must be a column vector of dimension {inst.n}")
    if not x.is_zero_free():
        raise NotRegular("the objective is defined for regular vectors only")
    sf = inst.sf
    left = (inst.q.conj() @ inst.B @ x)[0, 0]
    right = ((inst.A @ x).conj() @ inst.p)[0, 0]
    return sf.mul(left, right)


def solve_unconstrained(inst: ProblemInstance) -> SolutionReport:
    """Maximize the objective over all regular vectors.

    delta = q⁻ ⊗ B ⊗ A⁻ ⊗ p = ⊕ᵢ (q⁻ ⊗ bᵢ) ⊗ (aᵢ⁻ ⊗ p), the sum
    running over columns.  Every column k attaining delta yields
    maximizers: pin x[k] = aₖ⁻ ⊗ p and, for every row s attaining
    aₖ⁻ ⊗ p = ⊕ᵢ aᵢₖ⁻¹ ⊗ pᵢ, bound x[j] ≤ aₛⱼ⁻¹ ⊗ pₛ.  All tied k and
    s are enumerated, one family per pair.  The bounds depend only on
    s, so they are computed once per row and the families of one row
    share one tuple.
    """
    sf = inst.sf
    mul, inv, dot = sf.mul, sf.inv, sf.dot
    p = inst.p.entries()
    q = inst.q.entries()
    n, m = inst.n, inst.m

    q_inv = tuple(inv(v) for v in q)
    a_inv = [tuple(inv(v) for v in col) for col in zip(*inst.A.data)]  # a_j⁻
    col_left = [dot(q_inv, col) for col in zip(*inst.B.data)]           # q⁻ ⊗ b_j
    col_right = [dot(col, p) for col in a_inv]                          # a_j⁻ ⊗ p
    terms = [mul(lft, rgt) for lft, rgt in zip(col_left, col_right)]
    delta = sf.sum(terms)

    pairs: list[tuple[int, int]] = []
    families: list[BoxFamily] = []
    row_bounds: dict[int, tuple[Scalar, ...]] = {}
    for k in range(n):
        if terms[k] != delta:
            continue
        pinned = col_right[k]
        row_terms = [mul(v, pi) for v, pi in zip(a_inv[k], p)]
        for s in range(m):
            if row_terms[s] != pinned:
                continue
            bounds = row_bounds.get(s)
            if bounds is None:
                bounds = row_bounds[s] = tuple(mul(col[s], p[s]) for col in a_inv)
            pairs.append((k, s))
            families.append(BoxFamily(sf, k, bounds))
    return SolutionReport(delta, tuple(pairs), tuple(families))


def solve_norm_form(a: Matrix, b: Matrix) -> SolutionReport:
    """Maximize ‖B ⊗ x‖ ⊗ ‖(A ⊗ x)⁻‖, the p = q = 𝟙 special case.

    Here delta = ‖B ⊗ A⁻‖, k maximizes ‖bᵢ‖ ⊗ ‖aᵢ⁻‖ over columns and
    s maximizes aᵢₖ⁻¹ over rows.
    """
    inst = ProblemInstance(a, b, ones(a.sf, a.rows), ones(b.sf, b.rows))
    return solve_unconstrained(inst)


def solve_constrained(a: Matrix, b: Matrix, p: Matrix, q: Matrix,
                      c: Matrix) -> ConstrainedReport:
    """Maximize the objective on raw (A, B, p, q) subject to C ⊗ x ≤ x.

    Feasibility requires that C has no cycle heavier than 𝟙, which
    `asterate` checks; then x = C* ⊗ u sweeps the feasible regular
    vectors and the problem reduces to the unconstrained one on
    (A ⊗ C*, B ⊗ C*), solved in u.  `ProblemInstance`'s preconditions
    apply to these reduced matrices, so A may hold 𝟘 entries that C*
    fills.  When B is A, A ⊗ C* is formed once.  C* maps u back to x.
    """
    if c.rows != c.cols:
        raise NotSquare("the constraint matrix must be square")
    if c.cols != a.cols:
        raise ShapeMismatch(
            f"the constraint matrix must be {a.cols}x{a.cols} to match the instance")
    closure = asterate(c)
    ac = a @ closure
    bc = ac if b is a else b @ closure
    require_zero_free(ac, "product of matrix A and the constraint closure")
    return ConstrainedReport(solve_unconstrained(ProblemInstance(ac, bc, p, q)), closure)


def require_zero_free(m: Matrix, label: str) -> None:
    """Raise `InvariantViolation` naming the first 𝟘 entry of `m`, if any."""
    pos = m.first_zero()
    if pos is not None:
        raise InvariantViolation(
            f"{label} must have no zero entries; entry at "
            f"row {pos[0] + 1}, column {pos[1] + 1} is zero")
