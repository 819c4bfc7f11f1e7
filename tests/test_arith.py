from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgap import memo
from qgap.arith import (
    INFINITE,
    alpha_coeff,
    bernoulli,
    digit_sum,
    divisor_sum_sieve,
    largest_digit,
    ord_p,
    sigma,
)

from arith_oracle import sigma_alt, sigma_odd, sigma_star


def bernoulli_oracle(m: int) -> Fraction:
    """Akiyama-Tanigawa recurrence for the modern B_m (B_1 = +1/2 variant)."""
    row = [Fraction(0)] * (m + 1)
    out = []
    for i in range(m + 1):
        row[i] = Fraction(1, i + 1)
        for j in range(i, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out[m]


def ord_p_via_fraction(x, p):
    """ord_p as it read before its integer fast path: every x through
    Fraction."""
    x = Fraction(x)
    if x == 0:
        return INFINITE
    a, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        a += 1
    while den % p == 0:
        den //= p
        a -= 1
    return a


class TestOrdP:
    @settings(max_examples=300, derandomize=True)
    @given(st.one_of(st.integers(), st.integers(-10**6, 10**6).map(lambda n: n * 2**40),
                     st.just(0), st.fractions(max_denominator=10**6)),
           st.sampled_from([2, 3, 5, 7, 11]))
    def test_matches_fraction_path(self, x, p):
        got = ord_p(x, p)
        assert got == ord_p_via_fraction(x, p)
        assert type(got) is type(ord_p_via_fraction(x, p))

    def test_spec_examples(self):
        assert ord_p(48, 2) == 4
        assert ord_p(0, 3) == INFINITE
        assert ord_p(Fraction(5, 8), 2) == -3

    def test_negative_values(self):
        assert ord_p(-48, 2) == 4
        assert ord_p(Fraction(-9, 4), 3) == 2

    def test_rejects_nonprime(self):
        for p in (0, 1, 4, 6, 9):
            with pytest.raises(ValueError):
                ord_p(10, p)

    @given(
        st.fractions(max_denominator=50).filter(lambda x: x != 0),
        st.fractions(max_denominator=50).filter(lambda x: x != 0),
        st.sampled_from([2, 3, 5, 7]),
    )
    def test_additive_on_products(self, x, y, p):
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


class TestDigits:
    def test_spec_examples(self):
        assert digit_sum(1, 2) == 1
        assert digit_sum(5, 3) == 3  # 5 = 12_3
        assert largest_digit(5, 3) == 2

    def test_brute_force(self):
        for n in range(1, 400):
            for b in (2, 3, 10):
                digits = []
                m = n
                while m:
                    digits.append(m % b)
                    m //= b
                assert digit_sum(n, b) == sum(digits)
                assert largest_digit(n, b) == max(digits)

    def test_powers_of_two(self):
        for x in range(20):
            assert digit_sum(2**x, 2) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digit_sum(0, 2)
        with pytest.raises(ValueError):
            largest_digit(-3, 3)


class TestDivisorSums:
    def test_spec_examples(self):
        assert sigma(1, 3) == 1
        assert sigma(6, 1) == 12
        assert sigma(4, 0) == 3
        assert sigma_odd(3) == 4
        assert sigma_alt(2, 3) == 7
        assert sigma_star(4, 2, 3) == 64
        assert sigma_star(1, 2, 3) == 1

    def test_brute_force(self):
        for n in range(1, 300):
            ds = [d for d in range(1, n + 1) if n % d == 0]
            assert sigma(n, 2) == sum(d**2 for d in ds)
            assert sigma_odd(n) == sum(d for d in ds if d % 2)
            assert sigma_alt(n, 3) == sum((-1) ** d * d**3 for d in ds)
            for N in (2, 3):
                assert sigma_star(n, N, 3) == sum(
                    d**3 for d in ds if (n // d) % N != 0
                )

    def test_sigma_star_splitting(self):
        # the divisors with N | n/d are exactly the divisors of n/N, so
        # sigma_star(n,N,k) = sigma(n,k) - sigma(n/N,k) when N | n
        for n in range(1, 2001):
            for N in (2, 3):
                expected = sigma(n, 3)
                if n % N == 0:
                    expected -= sigma(n // N, 3)
                assert sigma_star(n, N, 3) == expected

    def test_rejects_nonpositive(self):
        for fn in (lambda: sigma(0, 1), lambda: sigma_odd(-1),
                   lambda: sigma_alt(0, 2), lambda: sigma_star(0, 2, 1)):
            with pytest.raises(ValueError):
                fn()


class TestDivisorSumSieve:
    @settings(max_examples=40, derandomize=True)
    @given(st.integers(0, 400), st.integers(0, 7), st.sampled_from([2, 3, 4, 5, 7]))
    def test_matches_per_n_sums(self, count, k, N):
        ns = range(1, count + 1)
        assert divisor_sum_sieve(count, lambda d: d**k) == [sigma(n, k) for n in ns]
        assert divisor_sum_sieve(count, lambda d: d**k, N) == [sigma_star(n, N, k) for n in ns]
        assert divisor_sum_sieve(count, lambda d: d if d % 2 else 0) == [sigma_odd(n) for n in ns]
        assert (divisor_sum_sieve(count, lambda d: -d**k if d % 2 else d**k)
                == [sigma_alt(n, k) for n in ns])

    def test_empty(self):
        assert divisor_sum_sieve(0, lambda d: d) == []


class TestBernoulli:
    def test_spec_examples(self):
        assert bernoulli(1) == Fraction(1, 6)
        assert bernoulli(2) == Fraction(1, 30)
        assert bernoulli(3) == Fraction(1, 42)

    def test_against_akiyama_tanigawa(self):
        # all-positive convention vs |B_2k| in the modern one
        for k in range(1, 16):
            assert bernoulli(k) == abs(bernoulli_oracle(2 * k))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bernoulli(0)

    @pytest.mark.parametrize("order", ["descending", "ascending"])
    def test_table_growth_against_akiyama_tanigawa(self, order):
        memo.clear()
        ks = range(64, 0, -1) if order == "descending" else range(1, 65)
        for k in ks:
            assert bernoulli(k) == abs(bernoulli_oracle(2 * k))


class TestAlphaCoeff:
    def test_table(self):
        table = {0: 0, 2: -24, 4: 240, 6: -504, 8: 480, 10: -264,
                 12: Fraction(65520, 691)}
        for h, want in table.items():
            assert alpha_coeff(h) == want

    def test_integral_values_are_ints(self):
        memo.clear()
        for h in range(2, 11, 2):
            assert type(alpha_coeff(h)) is int
        assert type(alpha_coeff(12)) is Fraction

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            alpha_coeff(5)

