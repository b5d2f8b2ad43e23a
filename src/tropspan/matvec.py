"""Dense matrices and vectors over an idempotent semifield.

Entries are carrier scalars of one `Semifield`; ``None`` in
constructor input stands for the zero 𝟘.  Vectors are single-column
matrices, and conjugation turns them into single-row matrices.  All
values are immutable and every operation returns a fresh matrix, so
concurrent use needs no locking.

A product makes one `Semifield.dot` call per output entry.  The star
closure `asterate` is one O(n^3) Floyd–Warshall pass that also decides
feasibility: C ⊗ x ≤ x has a regular solution exactly when C has no
cycle heavier than 𝟙, which `asterate` checks.  It updates a whole row
at a time with `Semifield.add_scaled`.  Both vector operations run on
builtins for `max_plus`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import NotSquare, ShapeMismatch, TrConditionViolated, ZeroEntry
from .semiring import Scalar, Semifield


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
    def is_row(self) -> bool:
        return self.rows == 1

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

    def _same_semifield(self, other: "Matrix") -> None:
        if self.sf is not other.sf:
            raise ValueError("operands belong to different semifields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_semifield(other)
        if self.shape != other.shape:
            raise ShapeMismatch(
                f"cannot add a {self.rows}x{self.cols} matrix "
                f"and a {other.rows}x{other.cols} matrix")
        add = self.sf.add
        return Matrix._wrap(self.sf, tuple(
            tuple(add(a, b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.data, other.data)))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_semifield(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply a {self.rows}x{self.cols} matrix "
                f"by a {other.rows}x{other.cols} matrix")
        dot = self.sf.dot
        bt = tuple(zip(*other.data))
        return Matrix._wrap(self.sf, tuple(
            tuple([dot(arow, bcol) for bcol in bt]) for arow in self.data))

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
        """Conjugate transpose: the transpose with every entry inverted.

        Defined only for matrices without zero entries, since 𝟘 would
        need the missing top element as its inverse.
        """
        sf = self.sf
        pos = self.first_zero()
        if pos is not None:
            raise ZeroEntry(
                f"cannot conjugate: entry at row {pos[0] + 1}, "
                f"column {pos[1] + 1} is the zero")
        inv = sf.inv
        return Matrix._wrap(sf, tuple(
            tuple(inv(self.data[i][j]) for i in range(self.rows))
            for j in range(self.cols)))

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise NotSquare("the trace is defined for square matrices")
        return self.sf.sum(self.data[i][i] for i in range(self.rows))

    def norm(self) -> Scalar:
        """⊕ over all entries; the largest entry in the induced order."""
        return self.sf.sum(v for r in self.data for v in r)

    def leq(self, other: "Matrix") -> bool:
        """Entrywise order: every entry of self ≤ the matching entry of other."""
        self._same_semifield(other)
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


def _fmt(v: Scalar) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


# ----------------------------------------------------------------------
# vectors and whole-matrix operations

def vector(sf: Semifield, entries: Iterable[Scalar | None]) -> Matrix:
    """Column vector over `sf`; ``None`` entries become 𝟘."""
    return Matrix.column(sf, entries)


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

    One Floyd–Warshall pass (Butkovič, Max-linear Systems, 2010, §1.6).
    Pivot k sees every cycle whose highest node is k on the diagonal, so
    a cycle heavier than 𝟙, where the series has no finite value, raises
    `TrConditionViolated` naming k and the weight of its closed walk.
    Otherwise the result is I ⊕ a⁺, equal to the series because a
    heaviest walk need not repeat a node.
    """
    if a.rows != a.cols:
        raise NotSquare("the asterate is defined for square matrices")
    sf = a.sf
    add, add_scaled, zero, one = sf.add, sf.add_scaled, sf.zero, sf.one
    c = [list(r) for r in a.data]
    for k, ck in enumerate(c):
        if not sf.leq(ck[k], one):
            raise TrConditionViolated(
                f"the closed walk through index {k + 1} has weight "
                f"{_fmt(ck[k])}, which exceeds the unit {_fmt(one)}")
        for i, ci in enumerate(c):
            cik = ci[k]
            # row k cannot grow, as c[k][k] ≤ 𝟙; 𝟘 ⊗ anything is 𝟘, neutral for ⊕
            if i != k and cik != zero:
                c[i] = add_scaled(ci, cik, ck)
    for i, ci in enumerate(c):
        ci[i] = add(one, ci[i])
    return Matrix._wrap(sf, tuple(map(tuple, c)))


def is_irreducible(a: Matrix) -> bool:
    """True when the nonzero pattern of `a` is strongly connected.

    Entry (i, j) ≠ 𝟘 contributes the arc j → i.  A 1×1 matrix counts
    as irreducible exactly when its entry is nonzero.
    """
    if a.rows != a.cols:
        raise NotSquare("irreducibility is defined for square matrices")
    n = a.rows
    zero = a.sf.zero
    if n == 1:
        return a.data[0][0] != zero
    fwd = [[] for _ in range(n)]
    rev = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if a.data[i][j] != zero:
                fwd[j].append(i)
                rev[i].append(j)
    return _reaches_all(fwd, n) and _reaches_all(rev, n)


def _reaches_all(adj: Sequence[list[int]], n: int) -> bool:
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n
