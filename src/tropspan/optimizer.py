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
scalings; families are reported at α = 𝟙.  The records below are
immutable `__slots__` classes, like `BoxFamily`, but for
`ConstrainedReport`, a `namedtuple` of a report and its closure.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress, repeat
from operator import eq

from .errors import InvariantViolation, NotRegular, NotSquare, ShapeMismatch
from .matvec import Matrix, ones
from .semiring import Scalar, Semifield
from .solvers import BoxFamily, _Frozen


class ProblemInstance(_Frozen):
    """Data (A, B, p, q) of one maximization problem.

    Preconditions are checked on construction: A (m×n) has no zero
    entries, B (l×n) is column regular, p (m) and q (l) are regular,
    and A and B agree on the number of columns.  B = A needs no column
    check: A's zero-freeness puts a nonzero entry in every column.
    """

    __slots__ = ("A", "B", "p", "q")

    def __init__(self, A: Matrix, B: Matrix, p: Matrix, q: Matrix):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if not (A.sf is B.sf is p.sf is q.sf):
            raise InvariantViolation("all instance data must share one semifield")
        if A.cols != B.cols:
            raise InvariantViolation(
                f"matrices A and B must have the same number of columns; "
                f"got {A.cols} and {B.cols}")
        if not p.is_column or not q.is_column:
            raise InvariantViolation("p and q must be column vectors")
        if p.rows != A.rows:
            raise InvariantViolation(
                f"vector p must have one component per row of A; "
                f"got {p.rows} for {A.rows} rows")
        if q.rows != B.rows:
            raise InvariantViolation(
                f"vector q must have one component per row of B; "
                f"got {q.rows} for {B.rows} rows")
        require_zero_free(A, "matrix A")
        if B is not A and not B.is_column_regular():
            zero = B.sf.zero
            j = next(j for j in range(B.cols)
                     if all(r[j] == zero for r in B.data))
            raise InvariantViolation(
                f"matrix B must be column regular; column {j + 1} "
                f"contains only zero entries")
        for name, vec in (("p", p), ("q", q)):
            pos = vec.first_zero()
            if pos is not None:
                raise InvariantViolation(
                    f"vector {name} must be regular; component {pos[0] + 1} is zero")

    @property
    def sf(self) -> Semifield:
        return self.A.sf

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def m(self) -> int:
        return self.A.rows


class SolutionReport(_Frozen):
    """The optimum and the complete description of its attainment set.

    `pairs` lists every maximizing index pair (k, s), zero based, in
    lexicographic order.  A box's bounds depend only on its row s, so
    `bounds` holds one `(s, vector)` per row, in the order of the rows'
    first appearance in `pairs`.  `families[i]`, built afresh on each
    access, is the box `BoxFamily(sf, k, vector of s)` of `pairs[i]`.
    The union of the families, closed under scaling by any α > 𝟘, is
    exactly the set of optimal vectors.
    """

    __slots__ = ("sf", "delta", "pairs", "bounds")

    def __init__(self, sf: Semifield, delta: Scalar, pairs: tuple[tuple[int, int], ...],
                 bounds: tuple[tuple[int, tuple[Scalar, ...]], ...]):
        object.__setattr__(self, "sf", sf)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "bounds", bounds)

    @property
    def families(self) -> tuple[BoxFamily, ...]:
        return tuple(BoxFamily(self.sf, k, bounds) for k, bounds in self._pair_bounds())

    def _pair_bounds(self):
        """(k, bounds of row s) per pair (k, s); refuses a row with no bounds."""
        rows = dict(self.bounds)
        for k, s in self.pairs:
            if s not in rows:
                raise ValueError(f"pair ({k}, {s}) has no bounds for its row {s}")
            yield k, rows[s]


class ConstrainedReport(namedtuple("ConstrainedReport", "report closure")):
    """Report over u, solved on (A ⊗ closure, B ⊗ closure), plus the
    closure that maps it back: x = closure ⊗ u."""

    __slots__ = ()


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

    delta = q⁻ ⊗ B ⊗ A⁻ ⊗ p = ⊕ⱼ (q⁻ ⊗ bⱼ) ⊗ (aⱼ⁻ ⊗ p), the sum
    running over columns.  Every column k attaining delta yields
    maximizers: pin x[k] = aₖ⁻ ⊗ p and, for every row s attaining
    aₖ⁻ ⊗ p = ⊕ₛ aₛₖ⁻¹ ⊗ pₛ, bound x[j] ≤ aₛⱼ⁻¹ ⊗ pₛ.  All tied k and
    s are enumerated, one family per pair.  Each number is read off one
    m×n matrix W, wₛⱼ = aₛⱼ⁻¹ ⊗ pₛ, formed once: aⱼ⁻ ⊗ p is the ⊕ of
    column j, the rows tied in column k hold that ⊕, and row s of W
    is row s's bounds, the report's `bounds`.  Each pass maps over whole
    rows or columns (inverses by `Semifield._invs`), with no Python loop
    over the entries or the pairs.
    """
    sf = inst.sf
    mul, invs = sf.mul, sf._invs
    q_inv = tuple(invs(chain.from_iterable(inst.q.data)))                   # q⁻
    w = [tuple(map(mul, invs(a_s), repeat(p_s)))                            # row s: a_s⁻ ⊗ p_s
         for a_s, (p_s,) in zip(inst.A.data, inst.p.data)]
    w_cols = list(zip(*w))
    col_left = list(map(sf.dot, repeat(q_inv), zip(*inst.B.data)))          # q⁻ ⊗ b_j
    col_right = list(map(sf.sum, w_cols))                                   # a_j⁻ ⊗ p
    terms = list(map(mul, col_left, col_right))
    delta = sf.sum(terms)
    # the columns k attaining delta, and in each the rows s attaining a_k⁻ ⊗ p
    ks = list(compress(range(len(terms)), map(eq, terms, repeat(delta))))
    tied = [list(compress(range(len(w)), map(eq, w_cols[k], repeat(col_right[k])))) for k in ks]
    rows = dict.fromkeys(chain.from_iterable(tied))   # each optimal row once, by first appearance
    return SolutionReport(sf, delta, tuple(chain.from_iterable(map(zip, map(repeat, ks), tied))),
                          tuple(zip(rows, map(w.__getitem__, rows))))


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

    Feasibility requires that C has no cycle heavier than 𝟙; then
    x = C* ⊗ u sweeps the feasible regular vectors and the problem
    reduces to the unconstrained one on (A ⊗ C*, B ⊗ C*), solved in u.
    One `Semifield.star` call forms all three: A's rows, and B's unless
    B is A, are its tail rows, multiplied by C* once the pivots have
    closed C.  The pivots check feasibility and refuse as `asterate`
    does, before any work on the tail.
    `ProblemInstance`'s preconditions apply to the reduced matrices, so
    A may hold 𝟘 entries that C* fills.  When B is A, A ⊗ C* is formed
    once and is also the reduced B.  C* maps u back to x.
    """
    if c.rows != c.cols:
        raise NotSquare("the constraint matrix must be square")
    if c.cols != a.cols:
        raise ShapeMismatch(
            f"the constraint matrix must be {a.cols}x{a.cols} to match the instance")
    a._same_semifield(c.sf)
    b._require_factor(c.sf, c.rows, c.cols)
    sf, n, m = c.sf, c.rows, a.rows
    rows = sf.star(c.data, a.data if b is a else a.data + b.data)
    closure = Matrix._wrap(sf, rows[:n])
    ac = Matrix._wrap(sf, rows[n:n + m])
    bc = ac if b is a else Matrix._wrap(sf, rows[n + m:])
    require_zero_free(ac, "product of matrix A and the constraint closure")
    return ConstrainedReport(solve_unconstrained(ProblemInstance(ac, bc, p, q)), closure)


def require_zero_free(m: Matrix, label: str) -> None:
    """Raise `InvariantViolation` naming the first 𝟘 entry of `m`, if any."""
    pos = m.first_zero()
    if pos is not None:
        raise InvariantViolation(
            f"{label} must have no zero entries; entry at "
            f"row {pos[0] + 1}, column {pos[1] + 1} is zero")
