"""Seeded input pools for the benchmark workloads.

`build(name, seed, data_dir)` returns the same list of operations for
the same arguments.  An operation is one `tropspan` call: a subcommand,
its flags, and the text of the project file it reads.  The pools are
stratified (size, matrix kind and subcommand follow the slot index) and
only the entries are drawn at random, so the op-time distribution of a
pool barely moves from one seed to the next.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    """One CLI call.  `expect` is the exit code of a planted refusal the
    reference cannot decide itself (unparseable files); otherwise None."""

    command: str
    flags: tuple[str, ...]
    text: str | None          # None: the input file is absent
    expect: int | None = None

    @property
    def fmt(self) -> str:
        return "text" if "text" in self.flags else "json"

    @property
    def latest(self) -> bool:
        return "--latest" in self.flags

    @property
    def alpha(self) -> int:
        return int(self.flags[self.flags.index("--alpha") + 1]) if "--alpha" in self.flags else 0


def _dump(n, start_finish=None, start_start=None) -> str:
    doc = {"n": n}
    if start_finish is not None:
        doc["start_finish"] = start_finish
    if start_start is not None:
        doc["start_start"] = start_start
    return json.dumps(doc)


def start_start(rng: random.Random, n: int, density: float, positive_cycle: bool = False):
    """A start-start matrix built from potentials, so feasibility is known.

    Entry (i, j) is p_i - p_j - slack with slack in 0..3, which makes
    x = p a solution of C ⊗ x ≤ x.  A Hamiltonian cycle keeps the
    pattern strongly connected; every other off-diagonal entry is
    present with probability `density`.  With `positive_cycle`, one arc
    of the Hamiltonian cycle is raised until the cycle's weight is
    positive, which makes the constraints infeasible.
    """
    pot = [rng.randint(0, 10 * n) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    cycle = [(order[i], order[(i + 1) % n]) for i in range(n)]
    arcs = set(cycle)
    arcs.update((i, j) for i in range(n) for j in range(n)
                if i != j and rng.random() < density)
    c = [[None] * n for _ in range(n)]
    for i, j in sorted(arcs):
        c[i][j] = pot[i] - pot[j] - rng.randint(0, 3)
    if positive_cycle:
        weight = sum(c[i][j] for i, j in cycle)
        i, j = cycle[rng.randrange(n)]
        c[i][j] += rng.randint(1, 3) - weight
    return c


def _start_finish(rng: random.Random, n: int, lo: int, hi: int):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


MALFORMED = (
    "not json at all",
    '{"n": 3}',
    '{"n": 0, "start_finish": []}',
    '{"n": 2, "start_finish": [[1, 2], [3]]}',
    '{"n": 2, "start_finish": [[1, "x"], [1, 1]]}',
    '{"n": 1, "start_finish": [[1e999]]}',
)


def paper_cli(seed: int, data_dir: Path) -> list[Op]:
    """The paper's examples and refusals verbatim, then small random projects."""
    ex = {name: (data_dir / f"{name}.json").read_text()
          for name in ("ex1", "ex2", "ex3", "infeasible", "reducible")}
    ops = [
        Op("sf", ("--latest",), ex["ex1"]),
        Op("sf", (), ex["ex1"]),
        Op("sf", ("--latest", "--format", "text"), ex["ex1"]),
        Op("ss", ("--latest",), ex["ex2"]),
        Op("ss", ("--format", "text"), ex["ex2"]),
        Op("combined", ("--latest",), ex["ex3"]),
        Op("combined", ("--latest", "--format", "text", "--alpha", "5"), ex["ex3"]),
        Op("sf", ("--latest",), ex["ex3"]),
        Op("ss", ("--latest",), ex["ex3"]),
        Op("ss", (), ex["infeasible"]),
        Op("ss", ("--format", "text"), ex["infeasible"]),
        Op("ss", ("--latest",), ex["reducible"]),
        Op("sf", (), ex["ex2"]),
        Op("combined", (), ex["ex1"]),
        Op("sf", (), None, expect=4),
    ]
    ops += [Op("sf", (), text, expect=4) for text in MALFORMED]
    rng = random.Random(f"paper-cli:{seed}")
    for i in range(48):
        n = 3 + i % 10
        command = ("sf", "ss", "combined")[i % 3]
        flags = ("--latest",) if i % 2 else ()
        if i % 4 == 3:
            flags += ("--format", "text")
        if i % 5 == 4:
            flags += ("--alpha", str(rng.randint(-5, 5)))
        a = _start_finish(rng, n, -3, 9) if command != "ss" else None
        c = start_start(rng, n, rng.uniform(0.1, 0.5)) if command != "sf" else None
        ops.append(Op(command, flags, _dump(n, a, c)))
    return ops


def constrained_closure(seed: int) -> list[Op]:
    """`ss` and `combined --latest` with n 12–28, sparse or dense, one in eight infeasible."""
    rng = random.Random(f"constrained-closure:{seed}")
    ops = []
    for i in range(32):
        n = 12 + round(16 * i / 31)
        density = 1.0 if (i // 2) % 2 else rng.uniform(0.1, 0.5)
        c = start_start(rng, n, density, positive_cycle=i % 16 in (3, 12))
        if i % 2:
            ops.append(Op("combined", ("--latest",), _dump(n, _start_finish(rng, n, 0, 9), c)))
        else:
            ops.append(Op("ss", (), _dump(n, None, c)))
    return ops


def tied_families(seed: int) -> list[Op]:
    """`sf --latest` with n 16–40 on all-tied, narrow and shifted-range integer matrices."""
    rng = random.Random(f"tied-families:{seed}")
    ops = []
    for i in range(48):
        n = round(16 * 2.5 ** (i / 47))   # geometric, so op times spread evenly on a log scale
        kind = i % 4
        if kind == 0:
            a = [[0] * n for _ in range(n)]
        elif kind == 3:
            lo = rng.randint(0, 6)
            a = _start_finish(rng, n, lo, lo + 3)
        else:
            a = _start_finish(rng, n, 0, 2)
        ops.append(Op("sf", ("--latest",), _dump(n, a)))
    return ops


def decimal_probe(seed: int) -> list[Op]:
    """One-decimal twins of the shifted-range matrices: entries 0.lo .. 0.(lo+3).

    Binary floats cannot hold these values, so ties the exact answer has
    can be lost.  The benchmark runs these apart from the timed loop and
    reports the share the reference rejects.
    """
    rng = random.Random(f"decimal-probe:{seed}")
    ops = []
    for i in range(12):
        n = 16 + 2 * i
        lo = rng.randint(0, 6)
        a = [[rng.randint(lo, lo + 3) / 10 for _ in range(n)] for _ in range(n)]
        ops.append(Op("sf", ("--latest",), _dump(n, a)))
    return ops


WORKLOADS = ("paper-cli", "constrained-closure", "tied-families")


def build(name: str, seed: int, data_dir: Path) -> list[Op]:
    if name == "paper-cli":
        return paper_cli(seed, data_dir)
    if name == "constrained-closure":
        return constrained_closure(seed)
    if name == "tied-families":
        return tied_families(seed)
    raise ValueError(f"unknown workload {name!r}")
