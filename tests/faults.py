"""Planted faults: one-line changes to the package that tier-1 must catch.

Each entry of `FAULTS` is (name, file, old, new, why): `file` is a path
from the repository root, `old` occurs in it exactly once, and `new`
replaces it.  `test_faults.py` checks in tier-1 that every `old` still
occurs once, so a refactor that rewrites a line updates this list
instead of silently losing its fault.  A change that the code's own
proofs show to be harmless, such as `>` to `>=` in the tail skip of
the packed star, is no fault and is not listed.

    python tests/faults.py [name ...]

plants each fault (or the named ones) in its own copy of what tier-1
reads (src/, tests/, demos/, README.md and pyproject.toml) in a
temporary directory, runs tier-1 there with -x, two faults at a time,
and prints one line per fault: caught, with the first failing test, or
missed.  It exits 1 unless every fault was caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "demos", "README.md", "pyproject.toml")
SEMIRING, CLI, OPTIMIZER = ("src/tropspan/semiring.py", "src/tropspan/cli.py",
                            "src/tropspan/optimizer.py")
STAR_BIAS = "b = 2 * n * max(-extremes[0], extremes[1]) + 1"
TIE_ROWS = "list(compress(range(len(w)), map(eq, w_cols[k], repeat(col_right[k]))))"

FAULTS = [
    ("pairs-swapped", CLI,
     "(pair_heads[k], pair_tails[s],", "(pair_heads[s], pair_tails[k],",
     "the writer prints each pair with k and s swapped"),
    ("chunk-drops-last-piece", CLI,
     "out[i:i + _CHUNK]", "out[i:i + _CHUNK - 1]",
     "each bounded write of the output leaves out the last piece of its run"),
    ("text-block-of-previous-index", CLI,
     "blocks[k]", "blocks[k - 1]",
     "a text family takes the block edges and shared texts of index k - 1"),
    ("infeasibility-off", SEMIRING,
     "if ckk > b:", "if False:",
     "the packed star never refuses a positive cycle"),
    ("tail-skip-too-eager", SEMIRING,
     "tk + b > acc >> at & field", "tk + b > (acc >> at & field) + 1",
     "the packed tail skips a term one above the column it would raise"),
    ("add-keeps-right-of-tie", SEMIRING,
     "return a if b <= a else b", "return a if b < a else b",
     "max-plus and max-times ⊕ keep the right operand of an int/float tie"),
    ("field-one-bit-short", SEMIRING,
     "8 * s > (2 * b).bit_length()", "8 * s >= (2 * b).bit_length()",
     "the packed field leaves no room for its guard bit"),
    ("texts-first-value-only", CLI,
     "float in map(type, values)", "values and type(values[0]) is float",
     "the writer takes `repr` for a list whose first value is an int"),
    ("bias-halved", SEMIRING,
     STAR_BIAS, "b = n * max(-extremes[0], extremes[1]) + 1",
     "the packed bias b = n·M + 1 lets a cycle's sum borrow from its neighbour"),
    ("optimal-rows-sorted", OPTIMIZER,
     "dict.fromkeys(chain.from_iterable(tied))",
     "dict.fromkeys(sorted(chain.from_iterable(tied)))",
     "the report's bounds follow row order, not first appearance in the pairs"),
    ("range-bound-halved", CLI,
     "if 2 * n * largest > limit - abs(alpha):", "if n * largest > limit - abs(alpha):",
     "the CLI admits entries whose sums of 2n terms leave the float range"),
    ("pivot-loop-short", SEMIRING,
     "for k in range(n):", "for k in range(n - 1):",
     "the packed star skips its last pivot"),
    ("tie-drops-last-row", OPTIMIZER,
     f"tied = [{TIE_ROWS} for k in ks]",
     f"tied = [t[:-1] or t for t in ({TIE_ROWS} for k in ks)]",
     "a column with several tied rows loses its last one"),
    ("sum-drops-last", SEMIRING,
     "return max(values, default=self.zero)",
     "return max(list(values)[:-1], default=self.zero)",
     "max-plus `sum` leaves out its last value"),
    ("inv-of-zero", SEMIRING,
     "        if a == self.zero:\n            raise InversionOfZero(f\"the {self.name}",
     "        if False:\n            raise InversionOfZero(f\"the {self.name}",
     "max-plus and min-plus invert 𝟘 to the top element instead of refusing"),
    ("star-bound-from-max", SEMIRING,
     STAR_BIAS, "b = 2 * n * max(extremes) + 1",
     "the packed star takes M from the largest entry, not the largest |entry|"),
    ("masks-join", SEMIRING,
     "r_mask & mask", "r_mask | mask",
     "max-plus `product` writes max(r) + max(c) into every entry of an int product"),
]


def plant(fault: tuple, tree: Path) -> None:
    """Copy what tier-1 reads to `tree` and apply `fault` there."""
    name, file, old, new, _ = fault
    for part in TREE:
        source = ROOT / part
        if source.is_dir():
            shutil.copytree(source, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, tree / part)
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{name}: the old text occurs {text.count(old)} times in {file}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run(fault: tuple) -> tuple[str, bool, float, str]:
    """(name, caught, seconds, what tier-1 said) for one fault."""
    with tempfile.TemporaryDirectory(prefix=f"fault-{fault[0]}-") as tmp:
        tree = Path(tmp)
        plant(fault, tree)
        start = time.perf_counter()
        proc = subprocess.run(
            # test_faults.py would fail on any planted copy, as its old text is gone
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_faults.py"],
            cwd=tree, env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True)
        took = time.perf_counter() - start
    # exit 1: a test failed; any other code is no catch (0 passed, 2-5 a pytest problem)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    said = failed[0] if failed else (proc.stdout.strip().splitlines() or [""])[-1]
    return fault[0], proc.returncode == 1, took, said


def main(names: list[str]) -> int:
    unknown = set(names) - {fault[0] for fault in FAULTS}
    if unknown:
        raise SystemExit(f"unknown faults: {sorted(unknown)}")
    chosen = [fault for fault in FAULTS if not names or fault[0] in names]
    start = time.perf_counter()
    missed = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, caught, took, said in pool.map(run, chosen):
            missed += not caught
            print(f"{'caught' if caught else 'MISSED'}  {name}  {took:.0f} s  {said}", flush=True)
    print(f"{len(chosen) - missed} of {len(chosen)} faults caught "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
