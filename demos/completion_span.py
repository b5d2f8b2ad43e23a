"""Maximizing the spread of completion times under start-finish constraints.

A project has three activities.  Entry (i, j) of the start-finish
matrix is the least time that must pass between the start of activity
j and the finish of activity i; each activity finishes as early as the
constraints allow, so completions are y = a ⊗ x for initiations x.

We look for initiation times that spread the completions as far apart
as possible, for instance to stagger deliveries that share a single
loading dock.

Run with:  python demos/completion_span.py
"""

from tropspan import Matrix, latest_schedule, max_completion_spread, max_plus

a = Matrix(max_plus, [[4, 1, 1],
                      [2, 2, 0],
                      [0, 1, 3]])
print("start-finish lags:")
print(a)

report = max_completion_spread(a)
print("\nlargest achievable completion spread:", report.delta)
print("(equals (a @ a.conj()).norm() =", str((a @ a.conj()).norm()) + ")")

print("\nevery optimal initiation vector, as pinned boxes (shift-invariant):")
for (k, s), fam in zip(report.pairs, report.families):
    parts = []
    for j, bound in enumerate(fam.upper_bounds):
        op = "=" if j == fam.pinned_index else "<="
        parts.append(f"x{j + 1} {op} {bound}")
    print(f"  pinned pair (k={k + 1}, s={s + 1}):  " + ", ".join(parts))

for sched in latest_schedule(report, start_finish=a):
    x = sched.initiation.entries()
    y = sched.completion.entries()
    print("\nlatest optimal initiations x =", x)
    print("completions y = a @ x        =", y)
    print("spread max(y) - min(y)       =", max(y) - min(y))

# shifting every start by the same amount changes nothing but the clock origin
shifted, = latest_schedule(report, start_finish=a, alpha=10)
print("\nsame schedule anchored at alpha = 10:",
      shifted.initiation.entries(), "->", shifted.completion.entries())
