"""Metamorphic relations of the CLI: two runs on related projects must give
related documents, exactly, at sizes no brute-force oracle reaches.

Relabelling the activities by a permutation π permutes the pairs, the
families and the schedules and keeps delta.  Shifting each activity's
clock by p_j, that is A ↦ A ⊗ P and C ↦ P⁻¹ ⊗ C ⊗ P with P = diag(p),
keeps delta and the pairs in order, moves every bound and initiation by
−p, and keeps the completions, since A ⊗ P ⊗ P⁻¹ ⊗ x = A ⊗ x.  Every
entry is an int, so both relations hold exactly.
"""

import contextlib
import io
import json
import random

import pytest

from tropspan.cli import EXIT_OK, main
from support import potential_start_start

SIZES = (3, 4, 5, 7, 10, 14, 20, 28, 40, 80, 160)


def _project(n):
    """A in 0..2 and a potential-based C, so every command solves."""
    rng = random.Random(n)
    a = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    c, _ = potential_start_start(rng, n, rng.choice((0.1, 0.3, 1.0)))
    return rng, a, c


def _run(tmp_path, command, a, c):
    """The parsed document of `command --latest` on the project (a, c)."""
    doc = {"n": len(a if a is not None else c)}
    if a is not None:
        doc["start_finish"] = a
    if c is not None:
        doc["start_start"] = c
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--input", str(path), "--latest"]) == EXIT_OK
    return json.loads(out.getvalue())


def _matrices(command, a, c):
    return (None if command == "ss" else a), (None if command == "sf" else c)


def _relabelled(doc, pi):
    """`doc` with activity i renamed π(i), its lists as sorted multisets."""
    def index(i):
        return pi[i - 1] + 1

    def vector(v):
        if v is None:
            return None
        out = [None] * len(v)
        for i, value in enumerate(v):
            out[pi[i]] = value
        return tuple(out)

    return (doc["delta"],
            sorted((index(p["k"]), index(p["s"])) for p in doc["pairs"]),
            sorted((index(f["pinned_index"]), f["pinned_value"], vector(f["upper_bounds"]))
                   for f in doc["families"]),
            sorted((vector(s["initiation"]), vector(s.get("completion")), s["span"])
                   for s in doc["schedules"]))


def _shifted(doc, p):
    """`doc` with every bound and initiation moved by −p, in order."""
    def vector(v):
        return [value - shift for value, shift in zip(v, p)]

    return {**doc,
            "families": [{"pinned_index": f["pinned_index"],
                          "pinned_value": f["pinned_value"] - p[f["pinned_index"] - 1],
                          "upper_bounds": vector(f["upper_bounds"])}
                         for f in doc["families"]],
            "schedules": [{**s, "initiation": vector(s["initiation"])}
                          for s in doc["schedules"]]}


@pytest.mark.parametrize("n", SIZES)
def test_relabelled_and_shifted_projects_give_related_answers(tmp_path, n):
    rng, a, c = _project(n)
    pi = rng.sample(range(n), n)
    a_pi = [[None] * n for _ in range(n)]
    c_pi = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a_pi[pi[i]][pi[j]] = a[i][j]
            c_pi[pi[i]][pi[j]] = c[i][j]
    p = [rng.randint(-3 * n, 3 * n) for _ in range(n)]
    a_p = [[v + p[j] for j, v in enumerate(row)] for row in a]
    c_p = [[None if v is None else v - p[i] + p[j] for j, v in enumerate(row)]
           for i, row in enumerate(c)]
    identity = list(range(n))
    for command in ("sf", "ss", "combined"):
        doc = _run(tmp_path, command, *_matrices(command, a, c))
        relabelled = _run(tmp_path, command, *_matrices(command, a_pi, c_pi))
        assert _relabelled(relabelled, identity) == _relabelled(doc, pi), f"{command}, relabelled"
        if command != "ss":
            shifted = _run(tmp_path, command, *_matrices(command, a_p, c_p))
            assert shifted == _shifted(doc, p), f"{command}, shifted"
