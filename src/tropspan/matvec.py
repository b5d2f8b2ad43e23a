"""Dense matrices and vectors over an idempotent semifield.

Entries are carrier scalars of one `Semifield`; ``None`` in
constructor input stands for the zero 𝟘.  Vectors are single-column
matrices, and conjugation turns them into single-row matrices.  All
values are immutable and every operation returns a fresh matrix, so
concurrent use needs no locking.

A product hands the rows of its left operand and the columns of its
right one to `Semifield.product`, which makes one `Semifield.dot` call
per output entry, except where `max_plus` finds the entry from the
maxima of its row and column.  The star closure `asterate` is one
O(n^3) Floyd–Warshall pass, `Semifield.star`, that also decides
feasibility: C ⊗ x ≤ x has a regular solution exactly when C has no
cycle heavier than 𝟙, which the pass checks at each pivot.  It
updates a whole row at a time: by a loop over `add` and `mul` in the
generic pass, and for an integer `max_plus` matrix by a few int
operations on rows packed into one int each.  A 𝟘 at (i, j) of the
closure marks an unreachable pair: no walk of C's arcs leads from j to
i, so an n×n C with n ≥ 2 is irreducible exactly when its closure is
zero-free.

The same call takes tail rows and returns tail ⊗ C* with the closure,
formed once the pivots have closed C, so a refusal costs no tail work.
`solve_constrained` forms A ⊗ C* so, in place of a product.  Packed,
each tail row accumulates t_k ⊗ (row k of C*) in the fields of the
closure's rows.  `semiring` owns the gate between the packed and the
generic pass, and shows why no field overflows.
`asterate` and `solve_constrained` call `Semifield.star`, which words the refusal.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import NotSquare, ShapeMismatch, ZeroEntry
from .semiring import Scalar, Semifield, _fmt


class Matrix:
    """Immutable dense matrix over a semifield.

    ``A + B`` is the entrywise sum and ``A @ B`` the product with ⊕ and
    ⊗ in place of ordinary addition and multiplication.  Indexing is
    zero based: ``A[i, j]`` for matrices, ``x[i]`` for vectors.
    """

    __slots__ = ("sf", "data", "rows", "cols")

    def __init__(self, sf: Semifield, entries: Iterable[Iterable[Scalar | None]]):
        rows = []
        for i, row in enumerate(entries):
            cleaned = []
            for j, v in enumerate(row):
                if v is None:
                    v = sf.zero
                else:
                    v = sf.canonical(v)
                    if not sf.contains(v):
                        raise ValueError(
                            f"entry at row {i + 1}, column {j + 1} is not a "
                            f"{sf.name} carrier element: {v!r}")
                cleaned.append(v)
            rows.append(tuple(cleaned))
        data = tuple(rows)
        if not data or not data[0]:
            raise ValueError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows must all have the same length")
        self.sf = sf
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def _wrap(cls, sf: Semifield, data: tuple[tuple[Scalar, ...], ...]) -> "Matrix":
        # fast path for results built from already validated entries
        m = object.__new__(cls)
        m.sf = sf
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0])
        return m

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zeros(cls, sf: Semifield, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ValueError("a matrix needs at least one row and one column")
        return cls._wrap(sf, tuple((sf.zero,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, sf: Semifield, n: int) -> "Matrix":
        if n < 1:
            raise ValueError("a matrix needs at least one row and one column")
        return cls._wrap(sf, tuple(
            tuple(sf.one if i == j else sf.zero for j in range(n)) for i in range(n)))

    @classmethod
    def column(cls, sf: Semifield, entries: Iterable[Scalar | None]) -> "Matrix":
        return cls(sf, [[v] for v in entries])

    @classmethod
    def row(cls, sf: Semifield, entries: Iterable[Scalar | None]) -> "Matrix":
        return cls(sf, [list(entries)])

    # ------------------------------------------------------------------
    # structure

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def is_column(self) -> bool:
        return self.cols == 1

    @property
    def is_vector(self) -> bool:
        return self.cols == 1 or self.rows == 1

    def entries(self) -> tuple[Scalar, ...]:
        """All entries flattened row by row (a column's components, in order)."""
        return tuple(v for r in self.data for v in r)

    def column_at(self, j: int) -> "Matrix":
        return Matrix._wrap(self.sf, tuple((r[j],) for r in self.data))

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return self.data[i][j]
        if self.cols == 1:
            return self.data[key][0]
        if self.rows == 1:
            return self.data[0][key]
        raise TypeError("single-index access is only defined for vectors")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.sf is other.sf and self.data == other.data

    def __hash__(self):
        return hash((id(self.sf), self.data))

    def to_lists(self) -> list[list[Scalar]]:
        return [list(r) for r in self.data]

    def __repr__(self):
        return f"Matrix({self.sf.name}, {self.to_lists()!r})"

    def __str__(self):
        cells = [[_fmt(v) for v in r] for r in self.data]
        width = max(len(c) for r in cells for c in r)
        return "\n".join(" ".join(c.rjust(width) for c in r) for r in cells)

    # ------------------------------------------------------------------
    # algebra

    def _same_semifield(self, sf: Semifield) -> None:
        if self.sf is not sf:
            raise ValueError("operands belong to different semifields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_semifield(other.sf)
        if self.shape != other.shape:
            raise ShapeMismatch(
                f"cannot add a {self.rows}x{self.cols} matrix "
                f"and a {other.rows}x{other.cols} matrix")
        add = self.sf.add
        return Matrix._wrap(self.sf, tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._require_factor(other.sf, other.rows, other.cols)
        return Matrix._wrap(self.sf, self.sf.product(self.data, tuple(zip(*other.data))))

    def _require_factor(self, sf: Semifield, rows: int, cols: int) -> None:
        """Raise as `self @ X` does for an X over `sf` of shape rows×cols."""
        self._same_semifield(sf)
        if self.cols != rows:
            raise ShapeMismatch(
                f"cannot multiply a {self.rows}x{self.cols} matrix by a {rows}x{cols} matrix")

    def scale(self, alpha: Scalar) -> "Matrix":
        """Multiply every entry by the scalar `alpha`."""
        sf = self.sf
        alpha = sf.canonical(alpha)
        if not sf.contains(alpha):
            raise ValueError(f"{alpha!r} is not a {sf.name} carrier element")
        mul = sf.mul
        return Matrix._wrap(sf, tuple(tuple(mul(alpha, v) for v in r) for r in self.data))

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.sf, tuple(zip(*self.data)))

    def conj(self) -> "Matrix":
        """Conjugate transpose: the transpose with every column inverted by
        `Semifield._invs`.  Defined only for matrices without zero entries,
        since 𝟘 would need the missing top element as its inverse."""
        pos = self.first_zero()
        if pos is not None:
            raise ZeroEntry(
                f"cannot conjugate: entry at row {pos[0] + 1}, "
                f"column {pos[1] + 1} is the zero")
        return Matrix._wrap(self.sf, tuple(map(tuple, map(self.sf._invs, zip(*self.data)))))

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise NotSquare("the trace is defined for square matrices")
        return self.sf.sum(self.data[i][i] for i in range(self.rows))

    def norm(self) -> Scalar:
        """⊕ over all entries; the largest entry in the induced order."""
        return self.sf.sum(v for r in self.data for v in r)

    def leq(self, other: "Matrix") -> bool:
        """Entrywise order: every entry of self ≤ the matching entry of other."""
        self._same_semifield(other.sf)
        if self.shape != other.shape:
            raise ShapeMismatch("entrywise comparison needs equal shapes")
        leq = self.sf.leq
        return all(leq(a, b) for ra, rb in zip(self.data, other.data)
                   for a, b in zip(ra, rb))

    # ------------------------------------------------------------------
    # predicates

    def is_row_regular(self) -> bool:
        zero = self.sf.zero
        return all(any(v != zero for v in r) for r in self.data)

    def is_column_regular(self) -> bool:
        zero = self.sf.zero
        return all(any(r[j] != zero for r in self.data) for j in range(self.cols))

    def first_zero(self) -> tuple[int, int] | None:
        """Zero-based (row, column) of the first 𝟘 entry, row by row, or None."""
        zero = self.sf.zero
        for i, r in enumerate(self.data):
            if zero in r:
                return i, r.index(zero)
        return None

    def is_zero_free(self) -> bool:
        return self.first_zero() is None


# ----------------------------------------------------------------------
# vectors and whole-matrix operations

def ones(sf: Semifield, n: int) -> Matrix:
    """Column vector with every component equal to the unit 𝟙."""
    if n < 1:
        raise ValueError("a vector needs at least one component")
    return Matrix._wrap(sf, ((sf.one,),) * n)


def is_regular(x: Matrix) -> bool:
    """True when the vector `x` has no zero component."""
    if not x.is_vector:
        raise ShapeMismatch("is_regular applies to vectors")
    return x.is_zero_free()


def asterate(a: Matrix) -> Matrix:
    """Star closure I ⊕ a ⊕ ... ⊕ aⁿ⁻¹ of an n×n matrix.

    One Floyd–Warshall pass (Butkovič, Max-linear Systems, 2010, §1.6),
    made by `Semifield.star`.  Pivot k sees every cycle whose highest
    node is k on the diagonal, so a cycle heavier than 𝟙, where the
    series has no finite value, raises the kernel's `TrConditionViolated`,
    carrying k and its closed walk's weight.  Otherwise the result is
    I ⊕ a⁺, equal to the series because a heaviest walk need not repeat a node.
    """
    if a.rows != a.cols:
        raise NotSquare("the asterate is defined for square matrices")
    return Matrix._wrap(a.sf, a.sf.star(a.data))
