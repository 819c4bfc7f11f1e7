"""Exact scalar kernel: p-adic orders, digit sums, divisor sums, and
Bernoulli numbers.  Every divisor sum behind a q-expansion comes from one
sieve, ``divisor_sum_sieve``; ``sigma`` is the one per-n sum kept here.

All values are exact; the only non-integers returned are `fractions.Fraction`
instances.  The single deliberate exception is INFINITE (= ``math.inf``),
used as the p-adic order of zero.  It never enters series arithmetic.

Bernoulli convention: here every B_k is positive, defined through

    x / (e^x - 1) = 1 - x/2 + sum_{k>=1} (-1)^{k+1} B_k x^{2k} / (2k)!

so B_1 = 1/6, B_2 = 1/30, B_3 = 1/42, ...  This differs from the modern
signed convention B_2 = 1/30, B_4 = -1/30; conversion is
B_k(here) = |B_{2k}(modern)|.  The signed tables behind it are one memo,
``_signed_bernoulli``, registered with ``qgap.memo``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from qgap.memo import register

__all__ = [
    "INFINITE",
    "alpha_coeff",
    "bernoulli",
    "digit_sum",
    "divisor_sum_sieve",
    "largest_digit",
    "ord_p",
    "sigma",
]

#: p-adic order of zero.  Compares greater than every finite order.
INFINITE = math.inf


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def ord_p(x, p: int):
    """Exact p-adic order of a rational x; INFINITE for x = 0.

    For x = n/d in lowest terms this is ord_p(n) - ord_p(d), so the result
    is a (possibly negative) integer for every nonzero rational.
    """
    if not _is_prime(p):
        raise ValueError(f"ord_p requires a prime p, got {p}")
    if type(x) is int:
        num, den = abs(x), 1
    else:
        x = Fraction(x)
        num, den = abs(x.numerator), x.denominator
    if num == 0:
        return INFINITE
    a = 0
    while num % p == 0:
        num //= p
        a += 1
    while den % p == 0:
        den //= p
        a -= 1
    return a


def digit_sum(n: int, b: int) -> int:
    """Sum of the base-b digits of a positive integer."""
    if n <= 0:
        raise ValueError(f"digit_sum requires n >= 1, got {n}")
    if b < 2:
        raise ValueError(f"digit_sum requires base >= 2, got {b}")
    total = 0
    while n:
        n, r = divmod(n, b)
        total += r
    return total


def largest_digit(n: int, b: int) -> int:
    """Largest base-b digit of a positive integer."""
    if n <= 0:
        raise ValueError(f"largest_digit requires n >= 1, got {n}")
    if b < 2:
        raise ValueError(f"largest_digit requires base >= 2, got {b}")
    best = 0
    while n:
        n, r = divmod(n, b)
        if r > best:
            best = r
    return best


def divisor_sum_sieve(count: int, term, cofactor_modulus: int = 0) -> list[int]:
    """[s(1), ..., s(count)] with s(n) the sum of term(d) over the divisors d
    of n, leaving out the d whose cofactor n/d is a multiple of
    ``cofactor_modulus`` when one is given: one sieve for all n, each term
    evaluated once.  Its oracle, the per-n sums by trial division, is in
    ``tests/arith_oracle.py``."""
    sums = [0] * (count + 1)
    for d in range(1, count + 1):
        t = term(d)
        if t:
            for m in range(d, count + 1, d):
                sums[m] += t
            if cofactor_modulus:
                for m in range(d * cofactor_modulus, count + 1, d * cofactor_modulus):
                    sums[m] -= t
    return sums[1:]


def sigma(n: int, alpha: int) -> int:
    """Divisor power sum: sum of d^alpha over positive divisors d of n.
    Nothing in qgap calls it; it stays public as a target that
    ``bench/tracing.py`` traces."""
    if n <= 0:
        raise ValueError(f"sigma requires n >= 1, got {n}")
    if alpha < 0:
        raise ValueError(f"sigma requires alpha >= 0, got {alpha}")
    total, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            total += d**alpha if d * d == n else d**alpha + (n // d) ** alpha
        d += 1
    return total


@register
@lru_cache(maxsize=None)
def _signed_bernoulli(degree: int) -> tuple[Fraction, ...]:
    """The modern signed B_0, ..., B_degree for ``degree`` a power of two:
    the coefficients of x/(e^x - 1) times n!, from the division of x by
    e^x - 1, i.e. sum_{j<=n} C(n+1, j) B_j = 0 for n >= 1.  Each table
    continues the division where the one of half its degree stops, so
    every table up to degree D costs one division to degree D."""
    if degree == 1:
        return (Fraction(1), Fraction(-1, 2))
    b = list(_signed_bernoulli(degree // 2))
    for n in range(len(b), degree + 1):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n) if b[j]) / (n + 1))
    return tuple(b)


def bernoulli(k: int) -> Fraction:
    """B_k in the all-positive convention (B_1 = 1/6, B_2 = 1/30, ...),
    read from the signed table of the least power-of-two degree >= 2k
    (``_signed_bernoulli``), so B_1, ..., B_K cost one division of x by
    e^x - 1 in any order of calls."""
    if k < 1:
        raise ValueError(f"bernoulli requires k >= 1, got {k}")
    return abs(_signed_bernoulli(1 << (2 * k - 1).bit_length())[2 * k])


def alpha_coeff(h: int):
    """Eisenstein coefficient alpha_h = (-1)^{h/2} (2h) / B_{h/2}; alpha_0 = 0.

    Returns an int when the value is integral (all h <= 10), a Fraction
    otherwise (first at h = 12: 65520/691).
    """
    if h < 0 or h % 2 != 0:
        raise ValueError(f"alpha_coeff requires even h >= 0, got {h}")
    if h == 0:
        return 0
    k = h // 2
    g = Fraction((-1) ** k * 4 * k) / bernoulli(k)
    return int(g) if g.denominator == 1 else g
