import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgap.congruence import _RESIDUE_EXPONENTS
from qgap.series import (_EXACT, MUL_MOD_CROSSOVER, DefectError, QSeries, ReachError, delta_over_q,
                         inverse_mod, mul_mod, product_expand)

import series_oracle
from einf4_oracle import neg_power_einf4

# -- independent oracles -----------------------------------------------------


def brute_product(exponents: dict, prec: int) -> list:
    """Multiply out prod (1-q^n)^{e_n} directly as polynomial lists."""

    def poly_mul(a, b):
        out = [0] * prec
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if i + j >= prec:
                    break
                out[i + j] += x * y
        return out

    def poly_inv(a):
        out = [Fraction(1, a[0])]
        for n in range(1, prec):
            s = sum(a[k] * out[n - k] for k in range(1, n + 1) if k < len(a))
            out.append(-s / a[0])
        return [int(c) if c.denominator == 1 else c for c in map(Fraction, out)]

    acc = [1] + [0] * (prec - 1)
    for n, e in exponents.items():
        base = [0] * prec
        base[0] = 1
        if n < prec:
            base[n] = -1
        piece = [1] + [0] * (prec - 1)
        for _ in range(abs(e)):
            piece = poly_mul(piece, base)
        if e < 0:
            piece = poly_inv(piece)
        acc = poly_mul(acc, piece)
    return acc


coeff_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


@st.composite
def series_st(draw, min_window=1, max_window=8, invertible=False):
    val = draw(st.integers(min_value=-3, max_value=3))
    window = draw(st.integers(min_value=min_window, max_value=max_window))
    coeffs = draw(st.lists(coeff_st, min_size=window, max_size=window))
    if invertible and (not coeffs or coeffs[0] == 0):
        lead = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), 3]))
        coeffs = [lead] + coeffs[1:] if coeffs else [lead]
    return QSeries(val, coeffs)


# -- structural behaviour ----------------------------------------------------


class TestStructure:
    def test_normalization_strips_leading_zeros(self):
        s = QSeries(-2, [0, 0, 3, 1])
        assert s.valuation == 0
        assert s.reach == 2
        assert s.coefficients() == [3, 1]

    def test_zero_series(self):
        z = QSeries(1, [0, 0, 0])
        assert z.is_zero
        assert z.reach == 4
        assert z.coeff(2) == 0

    def test_fraction_normalized_to_int(self):
        s = QSeries(0, [Fraction(4, 2), Fraction(1, 3)])
        assert isinstance(s.coeff(0), int)
        assert s.coeff(1) == Fraction(1, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            QSeries(0, [1.5])

    def test_reach_error(self):
        s = QSeries(0, [1, 2])
        assert s.coeff(1) == 2
        with pytest.raises(ReachError):
            s.coeff(2)

    def test_agrees_with_beyond_reach_raises(self):
        short, long = QSeries(0, [1]), QSeries(0, [1, 5])
        assert short.agrees_with(long, upto=1)
        with pytest.raises(ReachError):
            short.agrees_with(long, upto=10)

    def test_below_valuation_is_exact_zero(self):
        s = QSeries(3, [5])
        assert s.coeff(-10) == 0
        assert s.coeff(0) == 0


class TestRingOps:
    def test_mul_valuations_cancel(self):
        a = QSeries.monomial(-1, 3)
        b = QSeries.monomial(1, 3)
        p = a * b
        assert p.valuation == 0
        assert p.coeff(0) == 1

    def test_mul_simple(self):
        p = QSeries(0, [1, 1]) * QSeries(0, [1, -1])
        assert p.coefficients() == [1, 0]  # 1 - q^2 needs window 3 to see
        p = QSeries(0, [1, 1, 0]) * QSeries(0, [1, -1, 0])
        assert p.coefficients() == [1, 0, -1]

    def test_add_renormalizes_valuation(self):
        a = QSeries(-2, [1, 0, 3])
        b = QSeries(-2, [-1, 0, 0])
        s = a + b
        assert s.valuation == 0
        assert s.coeff(0) == 3

    def test_mul_reach_rule(self):
        a = QSeries(-1, [1, 2, 3])  # reach 2
        b = QSeries(2, [1, 1])  # reach 4
        p = a * b
        assert p.reach == min(a.reach + b.valuation, b.reach + a.valuation)

    def test_scalar_ops(self):
        s = QSeries(0, [1, 2, 3])
        assert (2 * s).coefficients() == [2, 4, 6]
        assert (s + 10).coeff(0) == 11
        assert (s - Fraction(1, 2)).coeff(0) == Fraction(1, 2)

    def test_add_constant_needs_reach(self):
        s = QSeries(-3, [1, 1])  # reach -1
        with pytest.raises(ReachError):
            s + 1


class TestInvert:
    def test_geometric(self):
        s = QSeries(0, [1, -1, 0, 0, 0])
        assert s.invert().coefficients() == [1, 1, 1, 1, 1]

    def test_monomial(self):
        assert QSeries.monomial(1, 4).invert().valuation == -1

    def test_round_trip(self):
        s = QSeries(2, [3, Fraction(1, 2), -4, 0, 7])
        assert (s * s.invert()).agrees_with(QSeries.one(5))

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QSeries.zero(5).invert()


class TestPow:
    def test_zero_power(self):
        s = QSeries(1, [1, 2, 3])
        p = s**0
        assert p.coeff(0) == 1 and p.window == 3

    def test_square(self):
        assert (QSeries(0, [1, 1, 0]) ** 2).coefficients() == [1, 2, 1]

    def test_negative_power_of_delta_unit(self):
        delta = product_expand(lambda n: 24, 6).shift(1)
        inv = delta**-1
        assert inv.valuation == -1
        assert inv.coeff(-1) == 1
        assert inv.coeff(0) == 24

    def test_large_exponent_matches_repeated_mul(self):
        s = QSeries(0, [1, 1, 1, 1, 1])
        by_mul = s
        for _ in range(6):
            by_mul = by_mul * s
        assert (s**7).agrees_with(by_mul)


class TestRoot:
    def test_monomial_root(self):
        r = QSeries.monomial(2, 4).root(2)
        assert r.valuation == 1 and r.coeff(1) == 1

    def test_square_root_of_square(self):
        s = QSeries(0, [1, 1, 0, 0])
        assert (s * s).root(2).agrees_with(s)

    def test_round_trip(self):
        s = QSeries(3, [1, 5, -2, Fraction(7, 3), 1])
        assert ((s**3).root(3)).agrees_with(s)

    def test_bad_valuation(self):
        with pytest.raises(ValueError):
            QSeries.monomial(3, 4).root(2)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            QSeries(0, [4, 1]).root(2)


class TestDerivativeAndRescale:
    def test_derivative_of_constant(self):
        assert QSeries(0, [7, 0, 0]).q_derivative().is_zero

    def test_derivative_of_pole(self):
        d = QSeries.monomial(-3, 4).q_derivative()
        assert d.coeff(-3) == -3

    def test_derivative_kills_constant_term(self):
        s = QSeries(-2, [1, 2, 3, 4, 5])
        assert s.q_derivative().coeff(0) == 0

    def test_rescale(self):
        assert QSeries.monomial(1, 2).rescale(2).valuation == 2
        s = QSeries(0, [1, 1, 1]).rescale(3)
        assert s.coefficients() == [1, 0, 0, 1, 0, 0, 1]
        assert s.reach == 7


class TestProductExpand:
    def test_delta_tau_values(self):
        brute = brute_product({n: 24 for n in range(1, 10)}, 10)
        fast = product_expand(lambda n: 24, 10)
        assert fast.coefficients() == brute
        delta = fast.shift(1)
        assert delta.coeff(1) == 1
        assert delta.coeff(2) == -24
        assert delta.coeff(3) == 252
        assert delta.coeff(4) == -1472

    def test_long_delta_satisfies_the_hecke_relations(self):
        # past the crossover, Jacobi's squarings multiply in decimal
        n_max = MUL_MOD_CROSSOVER + 200
        tau = [0, *delta_over_q(n_max).coefficients()]
        assert tau[1:301] == product_expand(lambda n: 24, 300).coefficients()
        for n in range(2, n_max + 1):
            p = next(d for d in range(2, n + 1) if n % d == 0)
            pk = p
            while n % (pk * p) == 0:
                pk *= p
            if pk < n:  # tau(m n) = tau(m) tau(n) for coprime m, n
                assert tau[n] == tau[pk] * tau[n // pk]
            elif pk > p:  # tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1))
                assert tau[n] == tau[p] * tau[n // p] - p**11 * tau[n // p // p]

    def test_partition_numbers(self):
        p = product_expand(lambda n: -1, 10)
        assert p.coefficients() == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_empty_exponents(self):
        assert product_expand(lambda n: 0, 5).agrees_with(QSeries.one(5))

    def test_rejects_bad_prec(self):
        with pytest.raises(ValueError):
            product_expand(lambda n: 0, 0)
        with pytest.raises(ValueError):
            delta_over_q(0)


class TestNegPowerEinf4:
    def test_r0_is_one(self):
        assert neg_power_einf4(3, 5).coeff(-3) == 1

    def test_first_values(self):
        # E_{inf,4} = q + 8q^2 + 28q^3 + ...; its inverse starts q^-1 - 8 + 36q
        s = neg_power_einf4(1, 3)
        assert s.coeff(-1) == 1
        assert s.coeff(0) == -8
        assert s.coeff(1) == 36

    def test_sign_alternation(self):
        for s in (1, 2, 5, 16, 64):
            series = neg_power_einf4(s, 60)
            for n in range(60):
                c = series.coeff(n - s)
                assert c != 0
                assert (c > 0) == (n % 2 == 0)

    def test_matches_generic_inversion(self):
        from arith_oracle import sigma_star

        prec = 50
        einf = QSeries(1, [sigma_star(n, 2, 3) for n in range(1, prec + 1)])
        assert neg_power_einf4(1, prec).agrees_with(einf.invert())
        assert neg_power_einf4(3, prec).agrees_with(einf**-3)

    def test_matches_constant_term_path(self):
        from qgap.forms import constant_term

        # the Theorem 4.1 constant terms come from the generic Einf4^-s path
        for s in range(1, 65):
            assert constant_term(f"Einf4^-{s}") == neg_power_einf4(s, s + 1).coeff(0)


# -- property tests ----------------------------------------------------------


class TestRingLaws:
    @settings(max_examples=100, derandomize=True)
    @given(series_st(), series_st())
    def test_mul_commutes(self, a, b):
        assert (a * b).agrees_with(b * a)

    @settings(max_examples=100, derandomize=True)
    @given(series_st(), series_st(), series_st())
    def test_mul_associates(self, a, b, c):
        assert ((a * b) * c).agrees_with(a * (b * c))

    @settings(max_examples=100, derandomize=True)
    @given(series_st(), series_st(), series_st())
    def test_distributes(self, a, b, c):
        assert (a * (b + c)).agrees_with(a * b + a * c)

    @settings(max_examples=100, derandomize=True)
    @given(series_st(), series_st(), series_st())
    def test_add_associates(self, a, b, c):
        assert ((a + b) + c).agrees_with(a + (b + c))


@settings(max_examples=100, derandomize=True)
@given(series_st(invertible=True))
def test_invert_round_trip(a):
    assert (a * a.invert()).agrees_with(QSeries.one(a.window))


@settings(max_examples=100, derandomize=True)
@given(series_st(), series_st())
def test_leibniz_rule(a, b):
    lhs = (a * b).q_derivative()
    rhs = a.q_derivative() * b + a * b.q_derivative()
    assert lhs.agrees_with(rhs)


@settings(max_examples=60, derandomize=True)
@given(st.dictionaries(st.integers(min_value=1, max_value=6),
                       st.integers(min_value=-6, max_value=6), max_size=4))
def test_product_expand_inverse_pair(exps):
    prec = 12
    one = product_expand(lambda n: exps.get(n, 0), prec) * product_expand(
        lambda n: -exps.get(n, 0), prec
    )
    assert one.agrees_with(QSeries.one(prec))


@settings(max_examples=100, derandomize=True)
@given(st.dictionaries(st.integers(min_value=1, max_value=40),
                       st.integers(min_value=-30, max_value=30), max_size=8),
       st.integers(min_value=1, max_value=40))
def test_product_expand_matches_term_by_term_loop(exps, prec):
    assert (product_expand(lambda n: exps.get(n, 0), prec)
            == series_oracle.product_expand(exps, prec))


@settings(max_examples=200, derandomize=True)
@given(series_st(max_window=10), series_st(max_window=10), st.integers(-8, 12))
def test_product_coeff_matches_full_product(a, b, n):
    product = a * b
    if n >= product.reach:
        with pytest.raises(ReachError):
            a.product_coeff(b, n)
    else:
        got = a.product_coeff(b, n)
        assert got == product.coeff(n) and type(got) is type(product.coeff(n))


@settings(max_examples=60, derandomize=True)
@given(series_st(invertible=True), st.integers(min_value=2, max_value=4))
def test_root_round_trip(a, m):
    # force monic unit part
    coeffs = [1] + list(a.coefficients()[1:])
    a = QSeries(a.valuation * m, coeffs)
    assert (a.root(m) ** m).agrees_with(a)


# -- one recurrence for powers, inverses and roots against the old loops -----


@settings(max_examples=200, derandomize=True)
@given(series_st(invertible=True), st.integers(min_value=-6, max_value=6))
def test_pow_matches_repeated_mul(a, e):
    assert a**e == series_oracle.power(a, e)


@settings(max_examples=100, derandomize=True)
@given(series_st(invertible=True))
def test_invert_matches_old_recurrence(a):
    assert a.invert() == series_oracle.invert(a)


@settings(max_examples=100, derandomize=True)
@given(series_st(invertible=True), st.integers(min_value=1, max_value=4))
def test_root_matches_old_recurrence(a, m):
    a = QSeries(a.valuation * m, [1] + a.coefficients()[1:])
    assert a.root(m) == series_oracle.root(a, m)


@pytest.mark.parametrize("reach", range(-3, 4))
def test_powers_of_zero_series(reach):
    z = QSeries.zero(reach)
    for e in range(-6, 7):
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                z**e
            with pytest.raises(ZeroDivisionError):
                series_oracle.power(z, e)
        else:
            assert z**e == series_oracle.power(z, e)
    assert (z**3).reach == 3 * reach


# -- the integer-content kernel against per-term Fraction loops -------------


@st.composite
def fraction_series_st(draw, max_window=10, monic=False):
    """A series with at least one non-integral coefficient, a nonzero
    leading one (exactly 1 when ``monic``), valuation in -3..3."""
    val = draw(st.integers(min_value=-3, max_value=3))
    window = draw(st.integers(min_value=2 if monic else 1, max_value=max_window))
    coeffs = draw(st.lists(coeff_st, min_size=window, max_size=window))
    coeffs[0] = 1 if monic else draw(coeff_st.filter(bool))
    i = draw(st.integers(min_value=1 if monic else 0, max_value=window - 1))
    coeffs[i] = Fraction(draw(st.integers(-50, 50).filter(lambda x: x % 2)),
                         2 * draw(st.integers(1, 6)))
    return QSeries(val, coeffs)


def exact_type(x):
    return int if Fraction(x).denominator == 1 else Fraction


@settings(max_examples=80, derandomize=True)
@given(st.one_of(fraction_series_st(), series_st(max_window=10)))
def test_int_content_is_the_coefficients_over_their_lcm(a):
    nums, den = a._int_content()
    assert all(type(x) is int for x in nums) and den >= 1
    assert [Fraction(x, den) for x in nums] == a.coefficients()
    assert den == lcm(*(Fraction(c).denominator for c in a.coefficients()))
    if den == 1:  # an all-int series copies nothing
        assert nums is a._int_content()[0] and list(nums) == a.coefficients()


@settings(max_examples=120, derandomize=True)
@given(fraction_series_st(), st.one_of(fraction_series_st(), series_st(max_window=10)),
       st.integers(-8, 3))
def test_content_product_coeff_matches_per_term_fraction_sum(a, b, back):
    reach = min(a.reach + b.valuation, b.reach + a.valuation)
    for n in (reach + back, reach - 1, a.valuation + b.valuation - 1):
        if n >= reach:
            with pytest.raises(ReachError):
                a.product_coeff(b, n)
            continue
        for x, y in ((a, b), (b, a)):
            got, want = x.product_coeff(y, n), series_oracle.product_coeff(x, y, n)
            assert got == want and type(got) is exact_type(want)


@pytest.mark.parametrize("reach", [-2, 0, 3])
def test_content_product_coeff_with_a_zero_series(reach):
    z, a = QSeries.zero(reach), QSeries(-1, [Fraction(1, 3), 2, Fraction(5, 7)])
    for n in range(-4, reach - 1):
        assert z.product_coeff(a, n) == a.product_coeff(z, n) == 0
    with pytest.raises(ReachError):
        z.product_coeff(a, reach - 1)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(fraction_series_st(max_window=8), st.integers(-6, 6).filter(bool))
def test_content_power_matches_fraction_recurrence(a, p):
    got = a._power(p)
    assert got == series_oracle.miller_power(a, p) == series_oracle.power(a, p)
    assert all(type(c) is exact_type(c) for c in got.coefficients())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fraction_series_st(max_window=8, monic=True), st.integers(min_value=1, max_value=4))
def test_content_root_matches_fraction_recurrence(a, m):
    a = a.shift(a.valuation * (m - 1))  # valuation divisible by m
    assert a.root(m) == series_oracle.miller_power(a, 1, m) == series_oracle.root(a, m)


# -- one logarithmic derivative per series, shared by its powers and prefixes


#: exponents that read g: not 0 or 1 (no recurrence) and not -1 (the inverse)
g_exponent_st = st.integers(-6, 6).filter(lambda e: abs(e) > 1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(series_st(invertible=True), st.lists(g_exponent_st, min_size=2, max_size=5))
def test_powers_in_any_order_share_one_log_derivative(a, exps):
    g = None
    for e in exps:
        assert a**e == series_oracle.power(a, e)
        g = g or a._dlog
        assert a._dlog is g  # computed once, at the first power, and kept


@settings(max_examples=60, derandomize=True, deadline=None)
@given(series_st(min_window=2, max_window=10, invertible=True).filter(
           lambda a: all(type(c) is int for c in a.coefficients())),
       st.integers(1, 9), g_exponent_st, g_exponent_st)
def test_prefix_of_int_series_shares_the_log_derivative(a, w, e_big, e):
    w = min(w, a.window - 1)
    a**e_big
    small = a.prefix(w)
    fresh = QSeries(a.valuation, a.coefficients(w))
    assert small._dlog == fresh._log_derivative() == a._dlog[:w]
    assert small**e == series_oracle.power(fresh, e)


@st.composite
def fraction_tail_st(draw):
    """(a, w): a series whose first w coefficients are ints and whose
    coefficients past them include a Fraction, so ``a.prefix(w)`` has a
    smaller content denominator than a."""
    w = draw(st.integers(2, 7))
    head = [draw(st.sampled_from([1, -1, 2, -3, 5]))] + draw(
        st.lists(st.integers(-9, 9), min_size=w - 1, max_size=w - 1))
    tail = draw(st.lists(coeff_st, min_size=0, max_size=3))
    tail.append(Fraction(draw(st.integers(-50, 50).filter(lambda x: x % 3)), 3))
    return QSeries(draw(st.integers(-3, 3)), head + tail), w


@settings(max_examples=100, derandomize=True, deadline=None)
@given(fraction_tail_st(), g_exponent_st, g_exponent_st)
def test_prefix_with_smaller_denominator_gets_its_own_log_derivative(aw, e_big, e):
    a, w = aw
    assert a**e_big == series_oracle.miller_power(a, e_big)
    small = a.prefix(w)
    assert small._int_content()[1] < a._int_content()[1]
    assert small**e == series_oracle.miller_power(small, e)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(series_st(invertible=True), st.integers(-5, 5), g_exponent_st,
       st.lists(g_exponent_st, min_size=1, max_size=3))
def test_shift_keeps_the_log_derivative(a, k, e_first, exps):
    a**e_first
    s = a.shift(k)
    assert s._dlog is a._dlog
    for e in exps:
        assert s**e == series_oracle.power(s, e)


# -- residue kernels: mul_mod and inverse_mod ---------------------------------

#: The (p, K_p) of the section 3.3 tables.
PRODUCTION_K = tuple(_RESIDUE_EXPONENTS.items())
#: The (p, K) the packed kernel is checked at: the production K_p, moduli
#: of about 64 bits, and 2^105, the widest modulus of delta_over_q(4098).
KERNEL_K = PRODUCTION_K + ((2, 64), (3, 40), (5, 28), (7, 23), (2, 105))


def residues_of(series, count, m):
    """The coefficients of q^0 .. q^(count-1) of an exact series mod m
    (every denominator prime to m)."""
    out = []
    for i in range(count):
        c = Fraction(series.coeff(i))
        out.append(c.numerator * pow(c.denominator, -1, m) % m)
    return out


@st.composite
def residue_case(draw, count):
    """(m, [series, ...]): m = p^K for p in 2, 3, 5, 7 and K from 1 to a
    K_p of ``KERNEL_K``, and ``count`` integer coefficient lists of length
    1..300, each entry a random integer in [-m, m], 0 (interior zeros),
    m - 1 (a full slot) or 1 - m, drawn from a seeded generator."""
    p, top = draw(st.sampled_from(KERNEL_K))
    m = p ** draw(st.integers(1, top))
    rng = draw(st.randoms(use_true_random=False))
    return m, [[rng.choice([0, m - 1, 1 - m, rng.randint(-m, m)])
                for _ in range(draw(st.integers(1, 300)))] for _ in range(count)]


class TestResidueKernel:
    """The packed product and the Newton inverse against the exact
    schoolbook product and series inverse, reduced mod p^K."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(residue_case(2), st.integers(1, 300))
    def test_mul_mod_equals_the_schoolbook_product(self, case, n):
        m, (a, b) = case
        n = min(n, len(a), len(b))
        ra, rb = [c % m for c in a], [c % m for c in b]
        assert mul_mod(ra, rb, m, n) \
            == residues_of(QSeries(0, a) * QSeries(0, b), n, m)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(residue_case(1), st.sampled_from([1, -1, 11]))
    def test_inverse_mod_equals_the_miller_inverse(self, case, lead):
        m, (u,) = case
        u[0] = lead
        want = residues_of(QSeries(0, u).invert(), len(u), m)
        assert inverse_mod([c % m for c in u], m) == want

    @pytest.mark.parametrize("p, k", KERNEL_K)
    def test_full_slots_do_not_carry(self, p, k):
        m, n = p**k, 300
        full = QSeries(0, [m - 1] * n)
        assert mul_mod([m - 1] * n, [m - 1] * n, m, n) \
            == residues_of(full * full, n, m)


def int_product(a, b, m, n):
    """The first n coefficients of a*b mod m through one int product: each
    list packed in hex, a slot per coefficient wider than n*(m - 1)^2, so
    no slot carries, and read back the same way."""
    h = (n * (m - 1) ** 2).bit_length() // 4 + 1

    def pack(c):
        return int("".join(f"{x:0{h}x}" for x in reversed(c[:n])) or "0", 16)

    digits = f"{pack(a) * pack(b):x}".zfill(2 * n * h)
    return [int(digits[-(i + 1) * h:len(digits) - i * h], 16) % m for i in range(n)]


#: Lengths on both sides of the crossover, and one about the paper window.
LONG_LENGTHS = (MUL_MOD_CROSSOVER - 1, MUL_MOD_CROSSOVER, MUL_MOD_CROSSOVER + 1, 2100)


class TestLongResidueKernel:
    """``mul_mod`` across ``MUL_MOD_CROSSOVER``, where the int product
    gives way to the decimal one, against the int product packed apart."""

    @pytest.mark.parametrize("p, k", KERNEL_K)
    def test_balanced_and_square_products(self, p, k):
        m, rng = p**k, random.Random(f"{p}^{k}")
        for n in LONG_LENGTHS:
            a, b = ([rng.randrange(m) for _ in range(n)] for _ in range(2))
            assert mul_mod(a, b, m, n) == int_product(a, b, m, n)
            assert mul_mod(a, a, m, n) == int_product(a, a, m, n)

    @pytest.mark.parametrize("p, k", KERNEL_K)
    def test_full_slots_do_not_carry_across_the_crossover(self, p, k):
        # coefficient j of ((m - 1) * sum q^i)^2 is (j + 1)(m - 1)^2 = j + 1 mod m
        m = p**k
        for n in LONG_LENGTHS:
            full = [m - 1] * n
            assert mul_mod(full, full, m, n) == [(j + 1) % m for j in range(n)]

    @pytest.mark.parametrize("p, k", ((2, 48), (3, 20), (2, 105)))
    def test_uneven_shapes(self, p, k):
        m, rng, n = p**k, random.Random(p * k), 2100
        long, short = [rng.randrange(m) for _ in range(n + 37)], [rng.randrange(m) for _ in range(9)]
        for a, b, size in ((short, long, n), (long, short, n), (long, long[::-1], n - 60),
                           (long[:n // 2], long, n), ([], long, n), (long, [], n)):
            assert mul_mod(a, b, m, size) == int_product(a, b, m, size)

    @pytest.mark.parametrize("p, k", ((2, 48), (7, 8), (2, 105)))
    def test_slots_below_lo_are_left_out(self, p, k):
        m, rng = p**k, random.Random(f"lo {p}^{k}")
        for n in (64, MUL_MOD_CROSSOVER, 2100):
            a, b = ([rng.randrange(m) for _ in range(n)] for _ in range(2))
            want = int_product(a, b, m, n)
            for lo in (0, 1, n // 2, n - 1, n):
                assert mul_mod(a, b, m, n, lo) == want[lo:]

    def test_a_rounded_product_is_a_defect(self, monkeypatch):
        m, c = 2**48, MUL_MOD_CROSSOVER
        monkeypatch.setattr(_EXACT, "prec", 28)
        with pytest.raises(DefectError):
            mul_mod([m - 1] * c, [m - 1] * c, m, c)
        # the int product serves every operand shorter than the crossover,
        # however long n and the other operand are
        for a, b, n in (([m - 1] * (c - 1), [m - 1] * (c - 1), c - 1),
                        ([m - 1] * 5, [m - 1] * 2 * c, 2 * c),
                        ([m - 1] * 2 * c, [m - 1] * 2 * c, c - 1)):
            assert mul_mod(a, b, m, n) == int_product(a, b, m, n)

    @pytest.mark.parametrize("p, k", PRODUCTION_K)
    def test_long_inverse_times_u_is_one(self, p, k):
        # at 2,100 terms the Newton steps from 1,024 terms on multiply in decimal
        m, rng, n = p**k, random.Random(p), 2100
        u = [rng.randrange(m) for _ in range(n)]
        u[0] = 1 + p * rng.randrange(m // p)
        assert int_product(u, inverse_mod(u, m), m, n) == [1] + [0] * (n - 1)

    @pytest.mark.parametrize("p, k", PRODUCTION_K)
    def test_inverse_times_u_is_one_at_every_schedule_shape(self, p, k):
        # the top-down schedule lifts ceil(n/2) terms to n: every short length,
        # both sides of a power of two at the crossover, and about the window
        m, rng = p**k, random.Random(f"schedule {p}")
        for n in (*range(1, 65), 1023, 1024, 1025, 2049, 2050, 2051):
            u = [rng.randrange(m) for _ in range(n)]
            u[0] = 1 + p * rng.randrange(m // p)
            assert int_product(u, inverse_mod(u, m), m, n) == [1] + [0] * (n - 1)
