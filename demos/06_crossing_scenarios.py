#!/usr/bin/env python3
# Six ways to drive a unitary system through its exceptional point: the
# Hamiltonian changes family across t = 0 while both one-sided limits agree
# exactly with the interface matrix.

from fractions import Fraction

from epgate import hamiltonian_at, sample_path, scenario_path
from epgate.scenarios import ROW_LABELS

# Rows 1-3 run the complex-symmetric model into the real asymmetric one
# (z = 1 + t before, lambda = t after); rows 4-6 are their time reversals.
for row, label in ROW_LABELS.items():
    print(row, label)
print()

# Row 2 glues the families through the Jordan block itself.
path = scenario_path(2, 3)
print("interface matrix of row 2:")
print(path.ep_matrix)
print()

# Exact matching at the interface: substituting t = 0 into either side gives
# the same matrix, entry for entry.
for row in range(1, 7):
    p = scenario_path(row, 4)
    assert p.left_family(Fraction(0)) == p.ep_matrix
    assert p.right_family(Fraction(0)) == p.ep_matrix
print("all six rows match exactly at t = 0 (N = 4)")

# Time reversal swaps row r with row 7 - r.
for t in (Fraction(-1, 2), Fraction(1, 4)):
    assert hamiltonian_at(1, 4, t) == hamiltonian_at(6, 4, -t)
print("row 1 run backwards is row 6")
print()

# Sampling a path bundles the exact matrix, its exact characteristic
# polynomial, and its eigenvalues at each time: the closed-form sl(2) ladder
# (N-1-2k) sqrt(d), certified against that polynomial and rounded.
for sample in sample_path(1, 3, [Fraction(-1, 2), Fraction(0), Fraction(1, 8)]):
    roots = ", ".join(f"{r.real:+.4f}{r.imag:+.4f}j" for r in sample.roots)
    print(f"t = {str(sample.t):>4}:  roots {roots}")
print("(all eigenvalues collapse to exactly 0 at the crossing, where d = 0)")
