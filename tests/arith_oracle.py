"""Per-n divisor sums by trial division: the exact oracle of
``qgap.arith.divisor_sum_sieve``, which builds every divisor sum behind a
q-expansion in one sieve."""


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, by trial division up to sqrt(n)."""
    if n <= 0:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma_odd(n: int) -> int:
    """Sum of the odd positive divisors of n."""
    if n <= 0:
        raise ValueError(f"sigma_odd requires n >= 1, got {n}")
    return sum(d for d in divisors(n) if d % 2 == 1)


def sigma_alt(n: int, k: int) -> int:
    """Sign-alternating divisor sum: sum of (-1)^d d^k over d | n."""
    if n <= 0:
        raise ValueError(f"sigma_alt requires n >= 1, got {n}")
    return sum((-(d**k) if d % 2 else d**k) for d in divisors(n))


def sigma_star(n: int, N: int, k: int) -> int:
    """Restricted divisor sum: sum of d^k over d | n with N not dividing n/d."""
    if n <= 0:
        raise ValueError(f"sigma_star requires n >= 1, got {n}")
    if N < 2:
        raise ValueError(f"sigma_star requires N >= 2, got {N}")
    return sum(d**k for d in divisors(n) if (n // d) % N != 0)
