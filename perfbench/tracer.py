"""Spans and counts around the layers of the `tropspan` CLI path.

The package itself records nothing.  `Tracer.installed()` replaces each
public function at the name its caller looks it up by (for example
`tropspan.scheduling.asterate`, which `max_initiation_spread` calls),
plus the few methods the CLI path reaches through objects, with a
wrapper that records a span: operation id, span id, parent span id,
name, start and end.  Spans stay in memory; `write` puts them in a file
at the end of a run and `LayerTotals` derives per-layer self times.

`count_semiring_ops` is the separate counting pass: it shadows `add`
and `mul` on the `max_plus` instance, whose bound methods every matrix
routine fetches per call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import tropspan.cli
import tropspan.matvec
import tropspan.optimizer
import tropspan.scheduling
import tropspan.solvers
from tropspan.semiring import max_plus

SOLVERS = ("scheduling.max_completion_spread", "scheduling.max_initiation_spread",
           "scheduling.max_completion_spread_constrained")


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call site.

    A counter maps (args, result) to (counter name, amount).
    """
    cli, sched, opt, mv = (tropspan.cli, tropspan.scheduling, tropspan.optimizer,
                           tropspan.matvec)
    return [
        (cli, "main", "cli.main", None),
        (cli, "max_completion_spread", SOLVERS[0], None),
        (cli, "max_initiation_spread", SOLVERS[1], None),
        (cli, "max_completion_spread_constrained", SOLVERS[2], None),
        (cli, "latest_schedule", "scheduling.latest_schedule",
         lambda args, out: (("scheduling.schedules", len(out)),
                            ("scheduling.families_in", len(args[0].families)))),
        (sched, "asterate", "matvec.asterate", None),
        (sched, "is_irreducible", "matvec.is_irreducible", None),
        (sched, "solve_norm_form", "optimizer.solve_norm_form", None),
        (opt, "solve_unconstrained", "optimizer.solve_unconstrained",
         lambda args, out: (("optimizer.families", len(out.families)),)),
        (mv, "tr_closure", "matvec.tr_closure", None),
        (mv.Matrix, "__init__", "matvec.Matrix", None),
        (mv.Matrix, "__matmul__", "matvec.matmul", None),
        (tropspan.solvers.BoxFamily, "__init__", "solvers.BoxFamily", None),
        (tropspan.solvers.BoxFamily, "scaled", "solvers.BoxFamily.scaled", None),
    ]


class Tracer:
    """In-memory span recorder; `op` is the id stamped on new spans."""

    def __init__(self):
        self.op = 0
        self.spans: list[tuple | None] = []   # (op, id, parent, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end)
            if counter is not None:
                for key, amount in counter(args, out):
                    self.counts[key] += amount
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block; targets a
        later version of the package no longer has are skipped."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_s": start, "dur_s": end - start}) + "\n")


class LayerTotals:
    """Per-layer sums over any number of traced passes."""

    def __init__(self):
        self.ops = 0
        self.op_s = 0.0
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)   # outermost spans of a name
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.box_s = 0.0

    def add(self, tracer: Tracer):
        spans = tracer.spans
        child_s = defaultdict(float)
        for span in spans:
            op, sid, parent, name, start, end = span
            if parent >= 0:
                child_s[parent] += end - start
        box = ("solvers.BoxFamily", "solvers.BoxFamily.scaled")
        for span in spans:
            op, sid, parent, name, start, end = span
            dur = end - start
            self.calls[name] += 1
            parent_name = spans[parent][3] if parent >= 0 else None
            if parent_name != name:
                self.incl_s[name] += dur
            self.self_s[name] += dur - child_s[sid]
            if name in box and parent_name not in box:
                self.box_s += dur
            if name == "cli.main":
                self.ops += 1
                self.op_s += dur
        self.counts.update(tracer.counts)

    def metrics(self) -> dict[str, float]:
        per_op = 1 / max(self.ops, 1)
        ms = 1000 * per_op
        solver_self = sum(self.self_s[name] for name in SOLVERS)
        families_in = self.counts["scheduling.families_in"]
        return {
            "trace.op_ms": self.op_s * ms,
            "cli.self_ms": self.self_s["cli.main"] * ms,
            "matvec.Matrix.calls": self.calls["matvec.Matrix"] * per_op,
            "matvec.Matrix_ms": self.incl_s["matvec.Matrix"] * ms,
            "matvec.matmul.calls": self.calls["matvec.matmul"] * per_op,
            "matvec.matmul_ms": self.incl_s["matvec.matmul"] * ms,
            "matvec.tr_closure.calls": self.calls["matvec.tr_closure"] * per_op,
            "matvec.tr_closure_ms": self.incl_s["matvec.tr_closure"] * ms,
            "matvec.asterate.calls": self.calls["matvec.asterate"] * per_op,
            "matvec.asterate_ms": self.incl_s["matvec.asterate"] * ms,
            "matvec.asterate_self_ms": self.self_s["matvec.asterate"] * ms,
            "matvec.asterate_share": self.incl_s["matvec.asterate"] / self.op_s if self.op_s else 0.0,
            "matvec.is_irreducible_ms": self.incl_s["matvec.is_irreducible"] * ms,
            "solvers.BoxFamily.calls": self.calls["solvers.BoxFamily"] * per_op,
            "solvers.BoxFamily_ms": self.box_s * ms,
            "optimizer.solve_unconstrained_ms": self.incl_s["optimizer.solve_unconstrained"] * ms,
            "optimizer.solve_norm_form_self_ms": self.self_s["optimizer.solve_norm_form"] * ms,
            "optimizer.families": self.counts["optimizer.families"] * per_op,
            "scheduling.solver_self_ms": solver_self * ms,
            "scheduling.latest_schedule_ms": self.incl_s["scheduling.latest_schedule"] * ms,
            "scheduling.schedules": self.counts["scheduling.schedules"] * per_op,
            "scheduling.distinct_ratio": (self.counts["scheduling.schedules"] / families_in
                                          if families_in else 0.0),
        }


@contextlib.contextmanager
def count_semiring_ops():
    """Count every max-plus ⊕ and ⊗ made inside the block; yields the Counter."""
    counts = Counter()
    add, mul = max_plus.add, max_plus.mul

    def counted_add(a, b):
        counts["add"] += 1
        return add(a, b)

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    max_plus.add, max_plus.mul = counted_add, counted_mul
    try:
        yield counts
    finally:
        del max_plus.add, max_plus.mul
