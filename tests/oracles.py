"""Reference solvers the tests compare the package against.

`solve_scalar_equation` is the lemma behind the bounds of
`solve_unconstrained`: every solution of one equation a ⊗ x = d as a
union of boxes.  `document`, `status_document` and `text` are the
CLI's output as a dict per node, the reference for its writer.  The
brute-force grid oracles are deliberately
independent of the closed-form solvers: the objective and the
feasibility predicate are evaluated with plain built-in max and + on
integer grids, sharing no arithmetic with the algebraic path they
confront.  Integer data only; every comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import NamedTuple

from tropspan import (BoxFamily, Matrix, NotRegular, ProblemInstance, Scalar,
                      ShapeMismatch, TropicalError, latest_schedule, max_plus)

NEG_INF = float("-inf")


class GridTooLarge(TropicalError):
    """A brute-force enumeration would exceed the configured cap."""


class ZeroRightHandSide(TropicalError):
    """The right hand side of the equation must exceed the semifield zero."""


# ----------------------------------------------------------------------
# the single linear equation

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
    return [BoxFamily(sf, i, bounds) for i in range(len(entries))]


# ----------------------------------------------------------------------
# the CLI's output, node by node

def _plain(v):
    if isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def document(report, closure, completion_matrix, alpha, latest) -> dict:
    """The json document of a solved run; json.dumps(doc, indent=2) is its text."""
    families = []
    for fam in report.families:
        bounds = [_plain(v) for v in map(max_plus.mul, repeat(alpha), fam.upper_bounds)]
        families.append({"pinned_index": fam.pinned_index + 1,
                         "pinned_value": bounds[fam.pinned_index], "upper_bounds": bounds})
    doc = {
        "status": "ok",
        "delta": _plain(report.delta),
        "pairs": [{"k": k + 1, "s": s + 1} for k, s in report.pairs],
        "families": families,
        "schedules": [],
    }
    if latest:
        for sched in latest_schedule(report, closure, completion_matrix, alpha):
            entry = {"initiation": [_plain(v) for v in chain.from_iterable(sched.initiation.data)]}
            if sched.completion is not None:
                entry["completion"] = [
                    _plain(v) for v in chain.from_iterable(sched.completion.data)]
            entry["span"] = _plain(sched.span)
            doc["schedules"].append(entry)
    return doc


def status_document(status: str) -> dict:
    return {"status": status, "delta": None, "pairs": [], "families": [], "schedules": []}


def text(doc: dict, u_space: bool) -> str:
    """The `--format text` output of a document, line by line."""
    lines = [f"status: {doc['status']}"]
    if doc["status"] == "ok":
        var = "u" if u_space else "x"
        lines.append(f"delta: {doc['delta']}")
        for pair, fam in zip(doc["pairs"], doc["families"]):
            parts = []
            for j, bound in enumerate(fam["upper_bounds"], start=1):
                op = "=" if j == fam["pinned_index"] else "<="
                parts.append(f"{var}{j} {op} {bound}")
            lines.append(f"family k={pair['k']} s={pair['s']}: " + ", ".join(parts))
        for sched in doc["schedules"]:
            piece = f"schedule: initiation = ({', '.join(map(str, sched['initiation']))})"
            if "completion" in sched:
                piece += f", completion = ({', '.join(map(str, sched['completion']))})"
            piece += f", span = {sched['span']}"
            lines.append(piece)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# brute-force grid oracles

@dataclass(frozen=True)
class GridSpec:
    """Integer enumeration window [lo, hi]^dim.

    When `normalization` names a component, that component stays
    pinned at 𝟙 = 0 and only the remaining dim - 1 components are
    swept, which scale invariance makes lossless for value queries.
    `cap` bounds the number of enumerated points.
    """

    dim: int
    lo: int
    hi: int
    normalization: int | None = 0
    cap: int = 2_000_000

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("the grid needs at least one dimension")
        if self.lo > self.hi:
            raise ValueError("lo must not exceed hi")
        if self.normalization is not None and not 0 <= self.normalization < self.dim:
            raise ValueError("normalization must address a component")

    @property
    def size(self) -> int:
        free = self.dim if self.normalization is None else self.dim - 1
        return (self.hi - self.lo + 1) ** free

    def points(self):
        if self.size > self.cap:
            raise GridTooLarge(f"{self.size} grid points exceed the cap of {self.cap}")
        values = range(self.lo, self.hi + 1)
        if self.normalization is None:
            yield from product(values, repeat=self.dim)
            return
        pin = self.normalization
        for free in product(values, repeat=self.dim - 1):
            yield free[:pin] + (0,) + free[pin:]


class GridMax(NamedTuple):
    """Exact grid maximum, every maximizing point, and a boundary flag.

    `boundary_touched` reports whether any maximizer has a swept
    component on the window edge; a caller worried about clipping can
    widen the window and retry.
    """

    value: int
    argmax: tuple[tuple[int, ...], ...]
    boundary_touched: bool


def brute_force_max(inst: ProblemInstance, grid: GridSpec) -> GridMax:
    """Exhaustive maximum of the objective over the normalized grid."""
    _require_max_plus(inst.sf)
    if grid.dim != inst.n:
        raise ShapeMismatch(f"grid dimension {grid.dim} does not match n = {inst.n}")
    a = _int_rows(inst.A, "A")
    b = _int_rows(inst.B, "B", allow_zero=True)
    p = _int_entries(inst.p, "p")
    q = _int_entries(inst.q, "q")

    # row vector q⁻ ⊗ B in ordinary arithmetic: max over i of b[i][j] - q[i]
    qb = [max(row[j] - qi for row, qi in zip(b, q)) for j in range(inst.n)]

    best = None
    argmax: list[tuple[int, ...]] = []
    for x in grid.points():
        left = max(c + xj for c, xj in zip(qb, x))
        right = max(pi - max(aij + xj for aij, xj in zip(row, x))
                    for row, pi in zip(a, p))
        value = left + right
        if best is None or value > best:
            best = value
            argmax = [x]
        elif value == best:
            argmax.append(x)

    pin = grid.normalization
    touched = any(
        v in (grid.lo, grid.hi)
        for x in argmax for j, v in enumerate(x) if j != pin)
    return GridMax(best, tuple(argmax), touched)


def brute_force_subeigen(c: Matrix, grid: GridSpec) -> list[tuple[int, ...]]:
    """All grid vectors x with C ⊗ x ≤ x, checked entrywise in raw arithmetic."""
    _require_max_plus(c.sf)
    if c.rows != c.cols:
        raise ShapeMismatch("the constraint matrix must be square")
    if grid.dim != c.rows:
        raise ShapeMismatch(f"grid dimension {grid.dim} does not match n = {c.rows}")
    rows = _int_rows(c, "C", allow_zero=True)
    out = []
    for x in grid.points():
        if all(max(cij + xj for cij, xj in zip(row, x)) <= xi
               for row, xi in zip(rows, x)):
            out.append(x)
    return out


def _require_max_plus(sf) -> None:
    if sf is not max_plus:
        raise ValueError("the brute-force oracles support the max-plus instance only")


def _int_rows(m: Matrix, label: str, allow_zero: bool = False) -> list[list]:
    out = []
    for row in m.data:
        line = []
        for v in row:
            if v == NEG_INF:
                if not allow_zero:
                    raise ValueError(f"matrix {label} must be free of zero entries")
                line.append(v)
            else:
                line.append(_as_int(v, label))
        out.append(line)
    return out


def _int_entries(vec: Matrix, label: str) -> list[int]:
    return [_as_int(v, label) for v in vec.entries()]


def _as_int(v, label: str) -> int:
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"the oracle needs integer data; {label} holds {v!r}")
