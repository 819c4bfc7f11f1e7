"""The recursive Fraction walk that once produced every theta series, kept
as the test oracle for both production routes (``qgap.quadratic.theta``).

It enumerates every lattice point of the input basis, unreduced and
without symmetry, from the validated LDL^T factors Q(x) = sum_i d_i (x_i +
sum_{j>i} u_ij x_j)^2, with exact Fraction interval bounds at every layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _interval(c: Fraction, bound: Fraction) -> range:
    """Integers t with (t + c)^2 <= bound, exactly."""
    if bound < 0:
        return range(0)
    p, q = c.numerator, c.denominator
    u, w = bound.numerator, bound.denominator
    # (t*q + p)^2 <= u*q^2/w  <=>  |t*q + p| <= isqrt(floor(u*q^2/w))
    y = isqrt(u * q * q // w)
    lo = -((y + p) // q)
    hi = (y - p) // q
    return range(lo, hi + 1)


def theta(gram, n_max: int) -> list[int]:
    """Entry n is #{x : Q_A(x) = 2n}, 0 <= n <= n_max, for a
    ``qgap.quadratic.GramMatrix``."""
    n = gram.rank
    d, u = gram.pivots, gram.multipliers
    counts = [0] * (n_max + 1)
    budget = Fraction(2 * n_max)
    x = [0] * n

    def walk(i: int, remaining: Fraction):
        if i < 0:
            used = budget - remaining
            counts[int(used) // 2] += 1
            return
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        for t in _interval(c, remaining / d[i]):
            x[i] = t
            walk(i - 1, remaining - d[i] * (t + c) ** 2)
        x[i] = 0

    walk(n - 1, budget)
    return counts
