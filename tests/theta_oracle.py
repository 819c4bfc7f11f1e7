"""The recursive Fraction walk that once produced every theta series, kept
as the test oracle for both production routes (``qgap.quadratic.theta``).

It enumerates every lattice point of the input basis, unreduced and
without symmetry, from its own exact rational LDL^T decomposition of the
Gram matrix, Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2, with exact
Fraction interval bounds at every layer.  It reads only ``gram.entries``
and ``gram.rank``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def ldl(rows) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Pivots d and multipliers u of a positive-definite matrix with
    Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    d = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = m[i][i]
        if di <= 0:
            raise ValueError(f"pivot {i + 1} is {di}")
        d.append(di)
        for j in range(i + 1, n):
            u[i][j] = m[i][j] / di
        for j in range(i + 1, n):
            for k in range(j, n):
                m[j][k] -= m[i][j] * m[i][k] / di
                m[k][j] = m[j][k]
    return d, u


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
    d, u = ldl(gram.entries)
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
