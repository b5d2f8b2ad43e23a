"""Shared test data and generators.

Holds the 3-activity example project used throughout the suite, the
norm-form instance (A, A, 𝟙, 𝟙), random instance builders whose
preconditions hold by construction, reference closures by the paper's
power series, a reference irreducibility test by depth-first search, a
max-plus instance on the generic vector loops with a ⊗ counter for
`max_plus` and a line counter for code that makes no countable call,
raw max/+ evaluators that give the tests an arithmetic path independent
of the package's semifield operations, `solve_unconstrained` as it was
before its whole-vector passes, the inverse of the CLI's file parser,
the parser's former row-by-row matrix check, the CLI's former argument
parser, and a runner for subprocesses that import the package from
src/.
"""

import contextlib
import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from collections.abc import Sequence
from itertools import compress, repeat
from operator import eq
from pathlib import Path

from tropspan import (Matrix, NotSquare, ProblemInstance, Scalar, Semifield, SolutionReport,
                      TrConditionViolated, max_plus, max_times, ones)
from tropspan.semiring import _MaxPlus

NEG_INF = float("-inf")
ROOT = Path(__file__).resolve().parent.parent


def mp(rows):
    return Matrix(max_plus, rows)


def col(entries):
    return Matrix.column(max_plus, entries)


def norm_form_instance(rows):
    """The instance (A, A, 𝟙, 𝟙) on the max-plus matrix `rows`."""
    a = mp(rows)
    return ProblemInstance(a, a, ones(max_plus, a.rows), ones(max_plus, a.rows))


# ----------------------------------------------------------------------
# the 3-activity example project (start-finish and start-start lags)

START_FINISH = [[4, 1, 1], [2, 2, 0], [0, 1, 3]]
START_FINISH_CONJ = [[-4, -2, 0], [-1, -2, -1], [-1, 0, -3]]
SF_TIMES_CONJ = [[0, 2, 4], [1, 0, 2], [2, 3, 0]]

START_START = [[None, -2, 1], [0, None, 2], [-1, None, None]]
SS_SQUARED = [[0, None, 0], [1, -2, 1], [None, -3, 0]]
SS_STAR = [[0, -2, 1], [1, 0, 2], [-1, -3, 0]]
SS_STAR_CONJ = [[0, -1, 1], [2, 0, 3], [-1, -2, 0]]

COMBINED = [[4, 2, 5], [3, 2, 4], [2, 1, 3]]  # START_FINISH composed with SS_STAR
COMBINED_CONJ = [[-4, -3, -2], [-2, -2, -1], [-5, -4, -3]]
COMBINED_TIMES_CONJ = [[0, 1, 2], [0, 0, 1], [-1, -1, 0]]


# ----------------------------------------------------------------------
# random builders; preconditions hold by construction

def random_instance(rng: random.Random, max_dim=5, lo=-10, hi=10, zero_prob=0.3):
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    l = rng.randint(1, max_dim)
    a = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    b = [[NEG_INF if rng.random() < zero_prob else rng.randint(lo, hi)
          for _ in range(n)] for _ in range(l)]
    for j in range(n):
        if all(row[j] == NEG_INF for row in b):
            b[rng.randrange(l)][j] = rng.randint(lo, hi)
    p = [rng.randint(lo, hi) for _ in range(m)]
    q = [rng.randint(lo, hi) for _ in range(l)]
    return ProblemInstance(mp(a), mp(b), col(p), col(q))


def random_regular_column(rng: random.Random, n, lo=-15, hi=15):
    return col([rng.randint(lo, hi) for _ in range(n)])


def random_zero_free(rng: random.Random, rows, cols, lo=-10, hi=10):
    return mp([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_row_regular(rng: random.Random, rows, cols, lo=-10, hi=10, zero_prob=0.5):
    """Integer matrix with 𝟘 entries but at least one finite entry per row."""
    out = [[NEG_INF if rng.random() < zero_prob else rng.randint(lo, hi)
            for _ in range(cols)] for _ in range(rows)]
    for row in out:
        if all(v == NEG_INF for v in row):
            row[rng.randrange(cols)] = rng.randint(lo, hi)
    return mp(out)


def _cycle_pattern(rng: random.Random, n, extra_prob=0.3):
    """Arc set of a strongly connected digraph on n nodes (full cycle
    plus extras), as the (i, j) index pairs of nonzero matrix entries."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[(k + 1) % n], order[k]) for k in range(n)}
    for i in range(n):
        for j in range(n):
            if (i, j) not in arcs and rng.random() < extra_prob:
                arcs.add((i, j))
    return arcs


def random_feasible_constraint(rng: random.Random, max_n=4):
    """Irreducible integer max-plus matrix with trace closure <= 0.

    Entries are w + pot[i] - pot[j] with w <= 0, so every cycle weight
    telescopes to a sum of w's and stays nonpositive, while individual
    entries may well be positive.
    """
    n = rng.randint(1, max_n)
    pot = [rng.randint(-3, 3) for _ in range(n)]
    rows = [[NEG_INF] * n for _ in range(n)]
    for i, j in _cycle_pattern(rng, n):
        rows[i][j] = rng.randint(-6, 0) + pot[i] - pot[j]
    return mp(rows)


def potential_start_start(rng: random.Random, n, density, scale=10):
    """Entries p_i - p_j - slack on a Hamiltonian cycle plus arcs at `density`,
    so x = p solves C ⊗ x ≤ x; potentials p in 0 .. scale·n.  Returns the
    rows, None for 𝟘, and p."""
    pot = [rng.randint(0, scale * n) for _ in range(n)]
    order = rng.sample(range(n), n)
    arcs = {(order[k], order[(k + 1) % n]) for k in range(n)}
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if (i, j) in arcs or (i != j and rng.random() < density):
                rows[i][j] = pot[i] - pot[j] - rng.randint(0, 3)
    return rows, pot


def random_infeasible_constraint(rng: random.Random, max_n=4):
    """As above but with one positive self-loop, forcing Tr > 0."""
    base = random_feasible_constraint(rng, max_n)
    rows = [list(r) for r in base.data]
    i = rng.randrange(base.rows)
    rows[i][i] = rng.randint(1, 4)
    return mp(rows)


def sub_unit(sf, k: int):
    """A carrier element k steps below the unit in the induced order."""
    if sf is max_times:
        return 2.0 ** -k
    if sf is max_plus:
        return -k
    return k  # min-plus: larger numbers sit lower in the induced order


def rng_finite(rng: random.Random, sf):
    if sf is max_times:
        return 2.0 ** rng.randint(-8, 8)
    return rng.randint(-30, 30)


def rng_element(rng: random.Random, sf, zero_prob=0.2):
    return sf.zero if rng.random() < zero_prob else rng_finite(rng, sf)


def rng_matrix(rng: random.Random, sf, rows, cols, zero_prob=0.0):
    return Matrix(sf, [[rng_element(rng, sf, zero_prob) for _ in range(cols)]
                       for _ in range(rows)])


def rng_regular_column(rng: random.Random, sf, n):
    return Matrix.column(sf, [rng_finite(rng, sf) for _ in range(n)])


def rng_irreducible(rng: random.Random, sf, max_n=4):
    """Irreducible matrix over any instance, arbitrary finite weights."""
    n = rng.randint(1, max_n)
    rows = [[sf.zero] * n for _ in range(n)]
    for i, j in _cycle_pattern(rng, n):
        rows[i][j] = rng_finite(rng, sf)
    return Matrix(sf, rows)


def rng_feasible_constraint(rng: random.Random, sf, max_n=4):
    """Irreducible matrix over any instance with trace closure <= 1."""
    n = rng.randint(1, max_n)
    pot = [sub_unit(sf, rng.randint(-3, 3)) for _ in range(n)]
    rows = [[sf.zero] * n for _ in range(n)]
    for i, j in _cycle_pattern(rng, n):
        w = sub_unit(sf, rng.randint(0, 6))
        rows[i][j] = sf.mul(w, sf.mul(pot[i], sf.inv(pot[j])))
    return Matrix(sf, rows)


# ----------------------------------------------------------------------
# reference closures by the power series

def tr_closure(a: Matrix) -> Scalar:
    """⊕ of the traces of a, a², ..., aⁿ for an n×n matrix, in O(n^4).

    The result is ≤ 𝟙 exactly when every cycle of the weighted digraph
    of `a` has weight ≤ 𝟙, which decides solvability of a ⊗ x ≤ x.
    This is the paper's indicator; `asterate` decides the same in O(n^3).
    """
    if a.rows != a.cols:
        raise NotSquare("the trace closure is defined for square matrices")
    sf = a.sf
    power = a
    acc = power.trace()
    for _ in range(a.rows - 1):
        power = power @ a
        acc = sf.add(acc, power.trace())
    return acc


def power_series_asterate(c: Matrix) -> Matrix:
    """Star closure by its definition, I ⊕ c ⊕ ... ⊕ cⁿ⁻¹, in O(n^4).

    Raises `TrConditionViolated` when tr_closure(c) exceeds the unit,
    where the series has no finite value.
    """
    sf = c.sf
    t = tr_closure(c)
    if not sf.leq(t, sf.one):
        raise TrConditionViolated(f"trace closure {t} exceeds the unit {sf.one}")
    acc = Matrix.identity(sf, c.rows)
    power = acc
    for _ in range(c.rows - 1):
        power = power @ c
        acc = acc + power
    return acc


# ----------------------------------------------------------------------
# reference irreducibility test: two depth-first searches

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


# ----------------------------------------------------------------------
# the max-plus vector kernels: a generic reference and a product count

class _GenericMaxPlus(_MaxPlus):
    """Max-plus with the generic loops of `Semifield` in place of its kernels."""

    name = "generic max-plus"
    sum = Semifield.sum
    dot = Semifield.dot
    product = Semifield.product
    star = Semifield.star


generic_max_plus = _GenericMaxPlus()


@contextlib.contextmanager
def counted_products():
    """Count the ⊗ that `max_plus` makes inside the block.

    Shadows `mul`, `dot` and `product` on the instance and removes the
    shadows on exit.  A `dot` call counts one ⊗ per vector entry, as its
    generic loop would make.  A `product` counts its `dot` calls so, and
    one ⊗, max(r) + max(c), for each entry it finds without one.  The
    generic `star` loop is counted through `mul`, one ⊗ per entry of a
    row update.  Yields a Counter: "mul" is the total and "dot" the
    number of `dot` calls.
    """
    counts = Counter()
    mul, dot, product = max_plus.mul, max_plus.dot, max_plus.product

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counted_dot(r, c):
        counts["dot"] += 1
        counts["mul"] += len(r)
        return dot(r, c)

    def counted_product(rows, cols):
        dots = counts["dot"]
        out = product(rows, cols)   # its `dot` calls reach counted_dot
        counts["mul"] += len(rows) * len(cols) - (counts["dot"] - dots)
        return out

    max_plus.mul, max_plus.dot, max_plus.product = counted_mul, counted_dot, counted_product
    try:
        yield counts
    finally:
        del max_plus.mul, max_plus.dot, max_plus.product


@contextlib.contextmanager
def counted_line(func, text: str):
    """Count the runs of the one source line of `func` that contains `text`.

    A line tracer on `func`'s frames only, removed on exit; yields a
    Counter whose "runs" is the count.  For code that makes no call a
    shadow could count, such as the packed rows of `max_plus.star`.
    Refuses to start while a tracer is set, such as an enclosing
    `counted_line`: the inner tracer would replace it, and the outer
    count would read 0.
    """
    if sys.gettrace() is not None:
        raise RuntimeError("counted_line cannot run under another tracer; "
                           "count one line per run")
    lines, first = inspect.getsourcelines(func)
    [target] = [first + i for i, line in enumerate(lines) if text in line]
    code = func.__code__
    counts = Counter()

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            counts["runs"] += 1
        return on_line

    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        yield counts
    finally:
        sys.settrace(None)


# ----------------------------------------------------------------------
# raw max/+ evaluators, independent of the package's semifield ops

def raw_objective(inst: ProblemInstance, x):
    """Objective value at integer point x using built-in max and +."""
    a = inst.A.data
    b = inst.B.data
    p = inst.p.entries()
    q = inst.q.entries()
    left = max(max(bij + xj for bij, xj in zip(row, x)) - qi
               for row, qi in zip(b, q))
    right = max(pi - max(aij + xj for aij, xj in zip(row, x))
                for row, pi in zip(a, p))
    return left + right


def raw_span(rows, x):
    """Span of the product rows @ x in ordinary arithmetic."""
    ax = [max(rij + xj for rij, xj in zip(row, x)) for row in rows]
    return max(ax) - min(ax)


def raw_satisfies_constraint(rows, x):
    """True when rows @ x <= x holds entrywise in ordinary arithmetic."""
    return all(max(cij + xj for cij, xj in zip(row, x)) <= xi
               for row, xi in zip(rows, x))


# ----------------------------------------------------------------------
# the solver by entries: a reference for its whole-vector passes

def solve_unconstrained_by_entries(inst: ProblemInstance) -> SolutionReport:
    """`optimizer.solve_unconstrained` as it formed W, q⁻ and the pairs:
    one `inv` call per entry, a ⊗ by pₛ on every entry of W, and a loop
    over the tied columns.  A reference for the whole-vector passes, by
    value, type and repr."""
    sf = inst.sf
    mul, inv = sf.mul, sf.inv
    q_inv = tuple(map(inv, inst.q.entries()))                       # q⁻
    w = [tuple(map(mul, map(inv, row), repeat(p_s)))                # row s: a_s⁻¹ ⊗ p_s
         for row, p_s in zip(inst.A.data, inst.p.entries())]
    w_cols = list(zip(*w))
    col_left = [sf.dot(q_inv, col) for col in zip(*inst.B.data)]    # q⁻ ⊗ b_j
    col_right = list(map(sf.sum, w_cols))                           # a_j⁻ ⊗ p
    terms = list(map(mul, col_left, col_right))
    delta = sf.sum(terms)

    pairs: list[tuple[int, int]] = []
    for k in compress(range(len(terms)), map(eq, terms, repeat(delta))):
        # the rows s attaining a_k⁻ ⊗ p
        pairs += zip(repeat(k), compress(range(len(w)), map(eq, w_cols[k], repeat(col_right[k]))))
    # each optimal row once, in order of first appearance
    rows = dict.fromkeys(s for _, s in pairs)
    return SolutionReport(sf, delta, tuple(pairs), tuple((s, w[s]) for s in rows))


# ----------------------------------------------------------------------
# the inverse of the CLI's file parser

def dump_project(start_finish: Matrix | None, start_start: Matrix | None) -> dict:
    """The json document of the matrices `cli._load_project` returns;
    finite values kept exactly, 𝟘 as null."""
    def plain(v):
        return int(v) if isinstance(v, float) and v.is_integer() else v

    doc: dict = {"n": (start_start if start_finish is None else start_finish).rows}
    if start_finish is not None:
        doc["start_finish"] = [[plain(v) for v in row] for row in start_finish.data]
    if start_start is not None:
        doc["start_start"] = [[None if v == max_plus.zero else plain(v) for v in row]
                              for row in start_start.data]
    return doc


def parse_matrix_by_rows(raw: dict, key: str, n: int, path: str,
                         allow_null: bool) -> tuple[Matrix | None, int | float]:
    """`cli._parse_matrix` as it checked a matrix row by row: a reference
    for its whole-matrix checks, by return value and refusal text.  Maps
    null to 𝟘 in the rows of `raw` itself."""
    from tropspan.cli import _admits, _ParseFailure

    rows = raw.get(key)
    if rows is None:
        return None, 0
    if not isinstance(rows, list) or len(rows) != n:
        raise _ParseFailure(f"{path}: '{key}' must be a list of {n} rows")
    largest = 0
    zero = max_plus.zero
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise _ParseFailure(f"{path}: row {i + 1} of '{key}' must hold {n} entries")
        values = [v for v in row if v is not None] if allow_null and None in row else row
        if not max_plus.contains_all(values) or zero in values:
            j, v = next((j, v) for j, v in enumerate(row)
                        if not (_admits(v) or allow_null and v is None))
            if v is None:
                raise _ParseFailure(
                    f"{path}: '{key}' does not admit null (row {i + 1}, column {j + 1})")
            raise _ParseFailure(
                f"{path}: entry at row {i + 1}, column {j + 1} of '{key}' must be "
                f"a finite number{' or null' if allow_null else ''}")
        if values is not row:
            rows[i] = [zero if v is None else v for v in row]
        top = max(map(abs, values), default=0)
        if top > largest:
            largest = top
    return Matrix._wrap(max_plus, tuple(map(tuple, rows))), largest


def build_parser_by_subcommand():
    """`cli._build_parser` as it defined the options: three `add_parser`
    calls, each followed by four `add_argument` calls.  A reference for
    the options shared through `parents=`, by namespace, help and error."""
    from tropspan.cli import _number, _Parser

    parser = _Parser(prog="tropspan",
                     description="maximize schedule time spans under precedence constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("sf", "span of completion times under start-finish constraints"),
                       ("ss", "span of initiation times under start-start constraints"),
                       ("combined", "span of completion times under both constraint kinds")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--input", required=True, help="path to the project json file")
        cmd.add_argument("--alpha", type=_number, default=0,
                         help="shift applied to the reported solutions (default 0)")
        cmd.add_argument("--latest", action="store_true",
                         help="also emit the latest schedule of every family")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def run_python(*args, text=True, timeout=None):
    """Run this interpreter on `args` from the repository root, importing
    tropspan from src/ whatever PYTHONPATH the caller has."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=text,
                          timeout=timeout, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
