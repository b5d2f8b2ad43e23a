"""Maximizing the spread of initiation times under start-start constraints.

Entry (i, j) of the start-start matrix is the least lag between the
start of activity j and the start of activity i; None marks pairs with
no lag at all.  Feasible initiations are exactly the solutions of
c ⊗ x ≤ x, and we push them as far apart as the constraints allow.

Run with:  python demos/initiation_span.py
"""

from tropspan import (Matrix, TrConditionViolated, asterate, latest_schedule,
                      max_initiation_spread, max_plus)

c = Matrix(max_plus, [[None, -2, 1],
                      [0, None, 2],
                      [-1, None, None]])
print("start-start lags (None = no lag):")
print(c)

print("\nasterate(c) succeeds, so no cycle of lags is heavier than 0 and")
print("the constraints are feasible; the generator closure is")
print(asterate(c))

report, closure = max_initiation_spread(c)
print("\nlargest achievable initiation spread:", report.delta)

print("\noptimal generator vectors u (initiations are x = closure @ u):")
for (k, s), fam in zip(report.pairs, report.families):
    parts = []
    for j, bound in enumerate(fam.upper_bounds):
        op = "=" if j == fam.pinned_index else "<="
        parts.append(f"u{j + 1} {op} {bound}")
    print(f"  pinned pair (k={k + 1}, s={s + 1}):  " + ", ".join(parts))

sched, = latest_schedule(report, closure=closure)
x = sched.initiation.entries()
print("\nlatest optimal initiations x =", x)
print("constraint check c @ x <= x  =", (c @ sched.initiation).leq(sched.initiation))
print("spread max(x) - min(x)       =", max(x) - min(x))

print("\nan infeasible variant: a positive self-lag is a cycle heavier than 0")
bad = Matrix(max_plus, [[1]])
try:
    max_initiation_spread(bad)
except TrConditionViolated as exc:
    print("  rejected:", exc)
