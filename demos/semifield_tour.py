"""A tour of the semifield layer and the matrix algebra built on it.

Run with:  python demos/semifield_tour.py
"""

from tropspan import INSTANCES, Matrix, TrConditionViolated, asterate, max_plus, ones

print("=== scalar arithmetic in the three shipped semifields ===")
for sf in INSTANCES:
    print(f"\n{sf.name}:  zero = {sf.zero}, one = {sf.one}")
    print(f"  add(3, 5)  = {sf.add(3, 5)}")
    print(f"  mul(3, 5)  = {sf.mul(3, 5)}")
    print(f"  inv(4)     = {sf.inv(4)}")
    print(f"  leq(3, 5)  = {sf.leq(3, 5)}   (order induced by addition)")

print("\n=== max-plus matrices ===")
a = Matrix(max_plus, [[4, 1, 1], [2, 2, 0], [0, 1, 3]])
print("a =")
print(a)
print("\na + a == a (idempotent addition):", a + a == a)
print("\na @ a  (products use max in place of +, + in place of *):")
print(a @ a)

x = Matrix.column(max_plus, [0, -1, -3])
print("\ncolumn x =", x.entries())
print("a @ x    =", (a @ x).entries())
print("x.norm() =", x.norm(), "  (the largest component)")

print("\nconjugate transpose inverts every entry while transposing:")
print(a.conj())
print("\n(a @ a.conj()).norm() =", (a @ a.conj()).norm(),
      " (the largest achievable completion spread, see the other demos)")

print("\n=== star closure ===")
# lags between starts; None stands for the semifield zero (no lag)
c = Matrix(max_plus, [[None, -2, 1], [0, None, 2], [-1, None, None]])
print("c =")
print(c)
star = asterate(c)
print("\nasterate(c) succeeds, so no cycle of c is heavier than 0 and")
print("the constraint c @ x <= x is satisfiable:")
print(star)
u = ones(max_plus, 3)
print("\nevery x = asterate(c) @ u solves c @ x <= x; with u = 0:",
      (star @ u).entries())
print("check: c @ x <= x entrywise:", (c @ (star @ u)).leq(star @ u))

# a cycle heavier than the unit leaves c @ x <= x without a regular solution
heavy = Matrix(max_plus, [[None, 2], [-1, None]])
try:
    asterate(heavy)
except TrConditionViolated as exc:
    print("\nasterate refuses a cycle of weight 1:", exc)
