#!/usr/bin/env python3
# Walk through the exact scalar layer: sums of Gaussian-rational multiples of
# integer square roots, with canonical (hence diff-able) representations.

from fractions import Fraction

from epgate import RadicalSum, invert_monomial, squarefree_decompose

# Every radicand is reduced to its squarefree part on entry.
print(squarefree_decompose(360))        # (10, 6): 360 = 6^2 * 10
print(RadicalSum.sqrt_int(8))           # 2*sqrt(2)
print(RadicalSum.sqrt_rational(Fraction(3, 4)))   # 1/2*sqrt(3)

# Arithmetic is exact and closed: products of radicals collapse back into
# canonical form, so equal values are structurally equal.
r2 = RadicalSum.sqrt_int(2)
r5 = RadicalSum.sqrt_int(5)
print(r2 * r2)                          # 2
print(r5 * r2)                          # sqrt(10)
print(r2 + r2)                          # 2*sqrt(2)
print(r2 - r2)                          # 0

# Coefficients are exact complex rationals; the imaginary unit lives in the
# coefficient, never under the root.
beta = RadicalSum.gaussian(-1, 1)       # -1 + i
print(beta * RadicalSum.gaussian(-1, -1))   # |beta|^2 = 2
value = Fraction(1, 2) + RadicalSum.gaussian(0, -2) * r2
print(value)                            # 1/2 + (-2*I)*sqrt(2)

# Single-term values invert exactly; sums do not (matrix code inverts through
# structural factorizations instead, which is all the models ever need).
mono = RadicalSum.gaussian(0, 1) * r2   # i*sqrt(2)
print(invert_monomial(mono))            # -1/2*I * sqrt(2)
print(mono * invert_monomial(mono))     # 1

# A double-precision bridge exists for the numeric layer.
print(complex(value))                   # 0.5 - 2.828...j
