#!/usr/bin/env python3
"""Exact scalars and affine feasibility: the kernel everything else reduces to."""

from fractions import Fraction

from sepcat import Field, solve_sparse

# Rational arithmetic is exact: scalars are reduced fractions.  A system is a
# list of sparse rows {column: coefficient} with their constants.
q = Field.rationals()
rows = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(4), 1: Fraction(3)}]
res = solve_sparse(rows, [Fraction(1), Fraction(5)], 2, q)
print("particular solution:", [str(v) for v in res.particular])
print("kernel dimension:", len(res.kernel))

# Over a prime field the same code runs on canonical residues.
f5 = Field.prime(5)
res5 = solve_sparse([{0: f5.from_int(2), 1: f5.from_int(1)}], [f5.from_int(1)], 2, f5)
print("over F5:", [str(v) for v in res5.particular], "+ kernel of dim", len(res5.kernel))

# Infeasibility is certified by a rank jump, not a tolerance.
bad = solve_sparse([{0: f5.zero()}], [f5.one()], 1, f5)
print("0·x = 1 over F5:", bad)

# Inverting an integer respects the characteristic.
f3 = Field.prime(3)
print("1/2 in F3 =", f3.inv_int(2))   # 2, since 2·2 = 4 = 1
try:
    Field.prime(2).inv_int(2)
except Exception as exc:
    print("1/2 in F2:", type(exc).__name__, "-", exc)
