"""Exact, independent reference for the answers of the `tropspan` CLI.

Nothing here imports `tropspan`.  Inputs are read with
``parse_float=Fraction``, so every number is the exact value of its
decimal literal, and the closure C* is computed by Floyd–Warshall over
max-plus with ``None`` as the zero.  The CLI's output numbers are read
back as ``Fraction(text)``, so the check does not depend on how the CLI
formats a number.

The closed form: with D = A (sf), C* (ss) or A ⊗ C* (combined),

    delta = max_j (max_i D_ij - min_i D_ij)

and (k, s) is a maximizing pair when column k attains delta and row s
attains the minimum of column k.  Family (k, s) pins component k at
alpha - D_sk and bounds component j by alpha - D_sj; its latest
schedule is x = u (sf) or x = C* ⊗ u (ss, combined) for that bound
vector u, with completions y = A ⊗ x where A is given.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

EXIT_OK, EXIT_INFEASIBLE, EXIT_INVALID, EXIT_PARSE = 0, 2, 3, 4


def load_project(text: str):
    """(n, A, C) of a project file; absent matrices are None, null entries None."""
    raw = json.loads(text, parse_float=Fraction)
    return raw["n"], raw.get("start_finish"), raw.get("start_start")


def star(c, n):
    """C* = I ⊕ C ⊕ C² ⊕ ... by Floyd–Warshall, and whether C ⊗ x ≤ x is feasible.

    Feasible iff no cycle has positive weight, i.e. no diagonal entry
    of the closure exceeds 0.
    """
    d = [list(row) for row in c]
    for i in range(n):
        if d[i][i] is None or d[i][i] < 0:
            d[i][i] = 0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(n):
                dkj = dk[j]
                if dkj is not None:
                    v = dik + dkj
                    if di[j] is None or v > di[j]:
                        di[j] = v
    return d, all(d[i][i] <= 0 for i in range(n))


def strongly_connected(c, n) -> bool:
    """Whether the digraph with an arc j → i for every non-null c[i][j] is strongly connected."""
    def reaches_all(succ):
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w in succ(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    if n == 1:
        return c[0][0] is not None
    return (reaches_all(lambda j: (i for i in range(n) if c[i][j] is not None))
            and reaches_all(lambda i: (j for j in range(n) if c[i][j] is not None)))


def matmul(a, b):
    """Max-plus product of two dense matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[_max_plus_dot(row, col) for col in cols] for row in a]


def apply(m, x):
    """Max-plus matrix-vector product m ⊗ x."""
    return [_max_plus_dot(row, x) for row in m]


def _max_plus_dot(row, col):
    best = None
    for a, b in zip(row, col):
        if a is not None and b is not None and (best is None or a + b > best):
            best = a + b
    return best


def expected(text: str, command: str, alpha=0, latest: bool = False) -> dict:
    """The answer the CLI must give for one input file and subcommand.

    Returns ``{"exit": code}`` for refusals; for a solved instance also
    ``delta``, ``families`` (a dict from 0-based (k, s) to
    ``(pinned_value, upper_bounds)``), ``schedules`` (a list of
    ``(initiation, completion or None)``), and the matrices A and C
    the schedules are checked against.
    """
    n, a, c = load_project(text)
    if command in ("sf", "combined") and a is None:
        return {"exit": EXIT_INVALID}
    if command in ("ss", "combined") and c is None:
        return {"exit": EXIT_INVALID}
    closure = None
    if command == "sf":
        d = a
    else:
        if command == "ss" and not strongly_connected(c, n):
            return {"exit": EXIT_INVALID}
        closure, feasible = star(c, n)
        if not feasible:
            return {"exit": EXIT_INFEASIBLE}
        d = closure if command == "ss" else matmul(a, closure)
    if command == "sf":
        c = None

    cols = list(zip(*d))
    spread = [max(col) - min(col) for col in cols]
    delta = max(spread)
    families = {}
    for k, col in enumerate(cols):
        if spread[k] != delta:
            continue
        low = min(col)
        for s in range(len(d)):
            if col[s] == low:
                families[(k, s)] = (alpha - d[s][k], [alpha - v for v in d[s]])

    schedules = []
    if latest:
        by_row = {}
        for _, s in sorted(families):
            if s in by_row:
                continue
            u = [alpha - v for v in d[s]]
            x = apply(closure, u) if closure is not None else u
            y = apply(a, x) if command != "ss" else None
            by_row[s] = (x, y)
            if (x, y) not in schedules:
                schedules.append((x, y))
    return {"exit": EXIT_OK, "delta": delta, "families": families,
            "schedules": schedules, "A": a if command != "ss" else None, "C": c,
            "u_space": command != "sf"}


def parse_output(stdout: str, fmt: str) -> dict:
    """The CLI's stdout as a json-shaped document with exact numbers."""
    if fmt == "json":
        return json.loads(stdout, parse_float=Fraction)
    return _parse_text(stdout)


_FAMILY = re.compile(r"family k=(\d+) s=(\d+): (.*)")
_SCHEDULE = re.compile(
    r"schedule: initiation = \(([^)]*)\)(?:, completion = \(([^)]*)\))?, span = (\S+)")


def _parse_text(stdout: str) -> dict:
    lines = stdout.splitlines()
    status = lines[0].removeprefix("status: ")
    doc = {"status": status, "delta": None, "pairs": [], "families": [],
           "schedules": [], "vars": set()}
    for line in lines[1:]:
        if line.startswith("delta: "):
            doc["delta"] = Fraction(line.removeprefix("delta: "))
        elif m := _FAMILY.fullmatch(line):
            doc["pairs"].append({"k": int(m[1]), "s": int(m[2])})
            bounds, pinned = [], None
            for j, part in enumerate(m[3].split(", "), start=1):
                var, op, value = part.split(" ")
                doc["vars"].add(var.rstrip("0123456789"))
                if var[1:] != str(j) or op not in ("=", "<="):
                    raise ValueError(f"malformed family line {line!r}")
                if op == "=":
                    pinned = j
                bounds.append(Fraction(value))
            doc["families"].append({"pinned_index": pinned,
                                    "pinned_value": bounds[pinned - 1] if pinned else None,
                                    "upper_bounds": bounds})
        elif m := _SCHEDULE.fullmatch(line):
            entry = {"initiation": [Fraction(v) for v in m[1].split(", ")]}
            if m[2] is not None:
                entry["completion"] = [Fraction(v) for v in m[2].split(", ")]
            entry["span"] = Fraction(m[3])
            doc["schedules"].append(entry)
        else:
            raise ValueError(f"unexpected output line {line!r}")
    return doc


_STATUS = {EXIT_INFEASIBLE: "infeasible", EXIT_INVALID: "invalid_input",
           EXIT_PARSE: "invalid_input"}


def verify(want: dict, exit_code: int, stdout: str, fmt: str) -> str | None:
    """None when the CLI's exit code and output agree with `want`, else the first disagreement."""
    if exit_code != want["exit"]:
        return f"exit code {exit_code}, expected {want['exit']}"
    try:
        doc = parse_output(stdout, fmt)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    if want["exit"] != EXIT_OK:
        expected_status = _STATUS[want["exit"]]
        if doc.get("status") != expected_status:
            return f"status {doc.get('status')!r}, expected {expected_status!r}"
        if doc.get("delta") is not None or doc.get("families") or doc.get("schedules"):
            return "a refusal must carry no result"
        return None
    return _verify_solution(want, doc, fmt)


def _verify_solution(want: dict, doc: dict, fmt: str) -> str | None:
    if doc.get("status") != "ok":
        return f"status {doc.get('status')!r}, expected 'ok'"
    delta = want["delta"]
    if doc["delta"] != delta:
        return f"delta {doc['delta']}, expected {delta}"
    if fmt == "text" and doc["vars"] - {"u" if want["u_space"] else "x"}:
        return f"family variables {sorted(doc['vars'])} in the wrong space"

    pairs = [(p["k"] - 1, p["s"] - 1) for p in doc["pairs"]]
    if len(set(pairs)) != len(pairs):
        return "duplicate pairs"
    if set(pairs) != set(want["families"]):
        missing = sorted(set(want["families"]) - set(pairs))
        extra = sorted(set(pairs) - set(want["families"]))
        return f"pairs differ: missing {missing[:5]}, extra {extra[:5]} (0-based)"
    if len(doc["families"]) != len(pairs):
        return "one family per pair expected"
    for (k, s), fam in zip(pairs, doc["families"]):
        pinned_value, bounds = want["families"][(k, s)]
        if (fam["pinned_index"] != k + 1 or fam["pinned_value"] != pinned_value
                or fam["upper_bounds"] != bounds):
            return f"family of pair (k={k + 1}, s={s + 1}) differs"

    a, c = want["A"], want["C"]
    got = []
    for sched in doc["schedules"]:
        x = sched["initiation"]
        y = sched.get("completion")
        if (y is None) != (a is None):
            return "completions present exactly when a start-finish matrix is"
        if sched["span"] != delta:
            return f"schedule span {sched['span']}, expected {delta}"
        times = y if y is not None else x
        if max(times) - min(times) != delta:
            return "a schedule's times do not span delta"
        if y is not None and apply(a, x) != y:
            return "completion differs from A ⊗ x"
        if c is not None and any(v is not None and v > xi
                                 for v, xi in zip(apply(c, x), x)):
            return "schedule violates C ⊗ x <= x"
        got.append((x, y))
    if len(got) != len(want["schedules"]) or any(s not in got for s in want["schedules"]):
        return f"{len(got)} schedules, expected {len(want['schedules'])} distinct ones"
    return None
