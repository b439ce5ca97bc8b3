"""A fixed reference program, run in a fresh interpreter next to every round.

    python3 perfbench/reference.py

It imports nothing of padicsum and must never change: run.py divides each
round's times by the time this program took next to it, so that the timing
metrics follow the program and not the speed of a shared host, which drifts
by tens of percent over minutes.  Its work is a small mix of what padicsum
does: an interpreter loop on small ints, big-integer products and gcds, and
exact rational sums.  It prints one checksum line, which run.py checks.
"""

import math
from fractions import Fraction

# small ints: one Kurepa digit, (sum_{j<p} j!) mod p, at p = 200003
p = 200003
total, fact = 0, 1
for j in range(p):
    total = (total + fact) % p
    fact = fact * (j + 1) % p

# big ints: incremental left factorials and factorials with their gcd
lf, f, g = 2, 2, 0
for n in range(2, 900):
    g += math.gcd(lf, f)
    lf += f
    f *= n + 1

# exact rationals: a truncated sum of n! x^n / (n + 1)
acc = Fraction(0)
x = Fraction(-5, 7)
for n in range(800):
    acc += math.factorial(n) * x**n / (n + 1)

print(total, g, acc.numerator % 1000003, acc.denominator % 1000003)
