import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgap.forms
import satz_oracle
import series_oracle
from qgap import memo
from qgap.catalog import (DELTA, EGAMMA2, EINF4, G4, G6, J, J2, KINDS, T14, FormExpr, Generator,
                          dim_m, pairing_generator)
from qgap.congruence import _survey_batch
from qgap.exprs import parse_template
from qgap.forms import (
    FactorPowers,
    basis_factors,
    basis_m1,
    basis_m2,
    constant_term,
    eisenstein_g,
    eval_expr,
    g4_cubed,
    generator_series,
    identity_checks,
    m2,
    t_series,
)
from qgap.series import DefectError, QSeries, product_expand


def gen(kind, window, *params):
    """Cached expansion of one catalog generator."""
    return generator_series(Generator(kind, params), window)


CATALOG = [Generator(kind, params) for kind, params in (
    ("G", (4,)), ("G", (6,)), ("G", (10,)), ("Delta", ()), ("j", ()),
    ("Egamma2", ()), ("E04", ()), ("Einf4", ()), ("E", (2, 8)), ("E", (3, 6)),
    ("Delta2", ()), ("j2", ()), ("phi", (2,)), ("phi", (3,)), ("Phi", (3,)),
    ("S", (1, 2)), ("T", (8,)), ("T2", (6,)),
)]


@st.composite
def monomial_st(draw):
    """A catalog monomial of one to three distinct generators."""
    gens = draw(st.lists(st.sampled_from(CATALOG), min_size=1, max_size=3,
                         unique=True))
    exps = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(gens),
                         max_size=len(gens)))
    return FormExpr(tuple(zip(gens, exps)))


#: kind name -> every generator of that kind whose parameters lie in 0..24
ADMITTED = {
    name: [Generator(name, params)
           for params in itertools.product(range(25), repeat=len(kind.slots))
           if kind.check(*params) is None]
    for name, kind in KINDS.items()
}


#: A survey batch bound in increasing pole order (b), so only the order in
#: which ``_survey_batch`` reads it builds each series once.
FAMILY = (parse_template("G(4)^{a}*G(6)*Einf4^-{b}"),
          [{"a": a, "b": b} for b in range(1, 6) for a in range(1, 4)])


def padded_window(expr, prec):
    """The window eval_expr once used: prec plus the factors' pole margin
    plus one, rounded up to a multiple of 32."""
    margin = sum(max(0, -e * g.valuation) for g, e in expr.factors)
    return -(-(prec + margin + 1) // 32) * 32

class TestEisensteinG:
    def test_g4(self):
        g4 = eisenstein_g(4, 4)
        assert g4.coefficients() == [1, 240, 2160, 6720]

    def test_g6(self):
        g6 = eisenstein_g(6, 3)
        assert g6.coefficients() == [1, -504, -16632]

    def test_g2(self):
        g2 = eisenstein_g(2, 3)
        assert g2.coefficients() == [1, -24, -72]

    def test_g0_is_one(self):
        assert eisenstein_g(0, 5).agrees_with(QSeries.one(5))

    def test_g12_rational(self):
        g12 = eisenstein_g(12, 2)
        assert g12.coeff(1) == Fraction(65520, 691)

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            eisenstein_g(5, 3)


class TestDeltaAndJ:
    def test_delta_leading(self):
        d = gen("Delta", 6)
        assert d.valuation == 1
        assert d.coeff(1) == 1
        assert d.coeff(2) == -24

    def test_delta_inverse_round_trip(self):
        d = gen("Delta", 10)
        assert (d * d.invert()).agrees_with(QSeries.one(d.window))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 400))
    def test_delta_equals_the_product_recurrence(self, w):
        assert gen("Delta", w) == product_expand(lambda n: 24, w).shift(1)

    def test_delta_equals_the_product_recurrence_at_2050(self):
        assert gen("Delta", 2050) == product_expand(lambda n: 24, 2050).shift(1)

    def test_j_expansion(self):
        j = gen("j", 4)
        assert j.valuation == -1
        assert j.coeff(-1) == 1
        assert j.coeff(0) == 744
        assert j.coeff(1) == 196884
        assert j.coeff(2) == 21493760


class TestExactG4Cubed:
    """``g4_cubed``: G4^3 as E12 + (432000/691) Delta, the one G4^3 that j,
    S(n, d) and the section 3.3 tables read; the power G4**3 is its
    oracle."""

    @pytest.mark.parametrize("window", (1, 2, 3, 64, 512))
    def test_equals_the_cube_of_g4(self, window):
        assert g4_cubed(window) == generator_series(G4, window) ** 3

    def test_a_tau_off_691_is_a_defect(self, monkeypatch):
        # tau(3) + 1 breaks tau = sigma_11 (mod 691) at n = 3 only
        expand = generator_series

        def off_by_one(gen, window):
            series = expand(gen, window)
            if gen != DELTA:
                return series
            c = series.coefficients()
            return QSeries(series.valuation, c[:2] + [c[2] + 1] + c[3:])

        memo.clear()
        try:
            monkeypatch.setattr(qgap.forms, "generator_series", off_by_one)
            with pytest.raises(DefectError, match=r"tau\(3\)"):
                g4_cubed(8)
        finally:
            memo.clear()

    @pytest.mark.parametrize("w", (2, 64, 512))
    def test_j_and_s_equal_their_products_of_the_power(self, w):
        cube = generator_series(G4, w) ** 3
        assert generator_series(J, w) == cube * generator_series(T14, w)
        g6 = generator_series(G6, w)
        for n, d in ((1, 2), (3, 4)):
            blend = Fraction(n, d) * cube + Fraction(d - n, d) * g6**2
            assert gen("S", w, n, d) == generator_series(DELTA, w) * blend

    def test_a_cold_j_expands_no_g4(self, monkeypatch):
        expanded, real = [], qgap.forms._expand

        def spy(gen, window):
            expanded.append(gen)
            return real(gen, window)

        memo.clear()
        monkeypatch.setattr(qgap.forms, "_expand", spy)
        generator_series(J, 512)
        assert set(expanded) == {J, DELTA, T14}  # and no G(4)


class TestLevel2Generators:
    def test_egamma2(self):
        eg = gen("Egamma2", 4)
        assert eg.coefficients() == [1, 24, 24, 96]

    def test_e04(self):
        e04 = gen("E04", 4)
        assert e04.coefficients() == [1, -16, 112, -448]

    def test_einf4(self):
        einf = gen("Einf4", 4)
        assert einf.valuation == 1
        assert einf.coefficients() == [1, 8, 28, 64]

    def test_e2inf4_alias(self):
        assert gen("E", 10, 2, 4) == gen("Einf4", 10)

    def test_e3inf6(self):
        e = gen("E", 3, 3, 6)
        assert e.coeff(1) == 1
        assert e.coeff(3) == 243  # divisors 1 (excluded: 3 | 3) and 3

    def test_integrality(self):
        for s in (gen(kind, 40) for kind in ("Egamma2", "E04", "Einf4")):
            assert all(isinstance(c, int) for c in s.coefficients())


class TestDerivedForms:
    def test_delta2_is_cusp_like(self):
        d2 = gen("Delta2", 5)
        assert d2.valuation == 1
        assert d2.coeff(1) == 1

    def test_j2_constant_term(self):
        assert gen("j2", 3).coeff(-1) == 1
        assert gen("j2", 3).coeff(0) == 40

    def test_m2_constant_term(self):
        assert m2(3).coeff(0) == -24

    def test_phi2(self):
        phi2 = gen("phi", 5, 2)
        assert phi2.valuation == 1
        # Delta(2z)/Delta(z) recomputed directly
        d = product_expand(lambda n: 24, 12).shift(1)
        assert phi2.agrees_with(d.rescale(2) * d.invert())

    def test_phi3_valuation(self):
        assert gen("phi", 4, 3).valuation == 2

    def test_phi_root_round_trips(self):
        assert gen("Phi", 6, 2) == gen("phi", 6, 2)
        big = gen("Phi", 8, 3)
        assert big.valuation == 1
        assert (big * big).agrees_with(gen("phi", 8, 3))

    def test_s_family(self):
        s22 = eval_expr("S(2,2)", 4)  # Delta * G4^3 = Delta * j * Delta = ...
        assert s22.valuation == 1
        assert s22.coeff(1) == 1
        s12 = eval_expr("S(1,2)", 4)
        assert s12.coeff(1) == 1


class TestTSeries:
    def test_t2_8_shape(self):
        t = t_series(2, 8, 5)
        assert t.valuation == -3  # r(2,8) = 3
        assert t.coeff(-3) == 1

    def test_t2_weights(self):
        for h in range(4, 42, 2):
            g = Generator("T2", (h,))
            assert g.weight == 2 - h

    def test_t_level1_h14_is_delta_inverse(self):
        t = t_series(1, 14, 4)
        d_inv = gen("Delta", 6).invert()
        assert t.agrees_with(d_inv)

    def test_t_level1_valuation(self):
        for h in (4, 8, 12, 16, 24, 36):
            t = t_series(1, h, 3)
            assert t.valuation == -dim_m(1, h)

    def test_t_normalized(self):
        for h in (4, 10, 12, 26):
            assert t_series(1, h, 2).coeff(-dim_m(1, h)) == 1
        for h in (4, 6, 8, 10):
            t = t_series(2, h, 2)
            assert t.coeff(t.valuation) == 1

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            t_series(1, 2, 3)
        with pytest.raises(ValueError):
            t_series(2, 0, 3)
        with pytest.raises(ValueError):
            t_series(3, 8, 3)

    def test_pairing_generator_is_t_at_level_1_and_t2_at_level_2(self):
        assert pairing_generator(1, 12) == Generator("T", (12,))
        assert pairing_generator(2, 12) == Generator("T2", (12,))

    def test_pairing_generator_other_levels(self):
        for level in (0, 3, 7):
            want = f"pairing series exist at levels 1 and 2, not {level}"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                pairing_generator(level, 8)
        with pytest.raises(ValueError, match=r"^T\(h\) needs even h > 2, got T\(2\)$"):
            pairing_generator(1, 2)

    def test_t_series_is_the_generator_series(self):
        for level, h, window in ((1, 12, 3), (2, 12, 4), (2, 14, 6)):
            assert t_series(level, h, window) is generator_series(
                pairing_generator(level, h), window)

    def test_c0_matches_the_text_route(self):
        # the Satz suite reads c_0[T] from t_series; constant_term parses the text
        for level, name, h_start in ((1, "T", 4), (2, "T2", 2)):
            for h in range(h_start, 121, 2):
                pole = pairing_generator(level, h).pole_order
                assert constant_term(f"{name}({h})") == t_series(level, h, pole + 1).coeff(0)


class TestDimensions:
    def test_spec_values(self):
        assert dim_m(1, 12) == 2
        assert dim_m(1, 14) == 1
        assert dim_m(2, 8) == 3

    def test_level1_table(self):
        expected = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1,
                    16: 2, 18: 2, 20: 2, 22: 2, 24: 3, 26: 2}
        for h, r in expected.items():
            assert dim_m(1, h) == r

    def test_level2_table(self):
        for h in range(0, 42, 2):
            assert dim_m(2, h) == h // 4 + 1

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            dim_m(1, 7)


class TestBases:
    def test_basis_m2_4(self):
        b = basis_m2(4, 6)
        assert len(b) == 2
        # j2 * Einf4 = Egamma2^2
        eg = gen("Egamma2", 8)
        assert b[1].agrees_with(eg * eg, upto=6)

    def test_basis_m2_2(self):
        b = basis_m2(2, 6)
        assert len(b) == 1
        assert b[0].agrees_with(gen("Egamma2", 8), upto=6)

    def test_basis_m2_valuations_triangular(self):
        for h in (4, 6, 8, 12, 20, 26, 40):
            b = basis_m2(h, 4)
            vals = sorted(s.valuation for s in b)
            assert vals == list(range(dim_m(2, h)))
            for s in b:
                assert s.valuation >= 0  # holomorphic

    def test_elements_carry_exactly_prec(self):
        for prec in (1, 3, 9):
            for b in (*basis_m1(36, prec), *basis_m2(26, prec), *basis_m2(40, prec)):
                assert b.window == prec

    def test_basis_m1_valuations_triangular(self):
        for h in (4, 12, 14, 24, 26, 36):
            b = basis_m1(h, 4)
            vals = sorted(s.valuation for s in b)
            assert vals == list(range(dim_m(1, h)))

    def test_basis_m1_matches_per_element_oracle(self):
        # Delta^d G4^(a-3d) G6^b, each element built on its own, against the
        # ladder G4^a G6^b (1/j)^d
        for prec in (1, 2, 5, 13):
            for h in range(4, 121, 2):
                assert basis_m1(h, prec) == satz_oracle.basis_m1_oracle(h, prec), (h, prec)

    def test_basis_factors(self):
        assert basis_factors(2, 2) == (1, ((EGAMMA2, 1),), (J2, 1))
        assert basis_factors(2, 12) == (4, ((EINF4, 3),), (J2, 1))
        assert basis_factors(2, 14) == (4, ((EGAMMA2, 1), (EINF4, 3)), (J2, 1))
        assert basis_factors(1, 4) == (1, ((G4, 1),), (J, -1))
        assert basis_factors(1, 6) == (1, ((G6, 1),), (J, -1))
        assert basis_factors(1, 34) == (3, ((G4, 7), (G6, 1)), (J, -1))

    @pytest.mark.parametrize("level, h, message", [
        (2, 0, "basis_m2 needs even h > 0, got 0"),
        (2, 3, "basis_m2 needs even h > 0, got 3"),
        (1, 2, "basis_m1 needs even h >= 4, got 2"),
        (1, 7, "basis_m1 needs even h >= 4, got 7"),
        (3, 4, "bases exist at levels 1 and 2, not 3"),
    ])
    def test_basis_factors_rejects(self, level, h, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            basis_factors(level, h)
        if level in (1, 2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                (basis_m1 if level == 1 else basis_m2)(h, 4)


class TestEvalExpr:
    def test_delta_inverse(self):
        s = eval_expr("Delta^-1", 5)
        assert s.valuation == -1
        assert s.coefficients(5) == [1, 24, 324, 3200, 25650]

    def test_j2_definition(self):
        assert eval_expr("Egamma2^2 * Einf4^-1", 3).agrees_with(gen("j2", 3), upto=2)

    def test_g4(self):
        assert eval_expr("G(4)", 2).coefficients(2) == [1, 240]

    def test_window_guarantee(self):
        for text, prec in [("j^3 Delta^-2", 7), ("T2(20)", 4), ("phi(3)^-5", 9)]:
            s = eval_expr(text, prec)
            assert s.window == prec

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(monomial_st(), st.integers(1, 12))
    def test_exact_window_matches_padded_oracle(self, expr, prec):
        s = eval_expr(expr, prec)
        w = padded_window(expr, prec)
        oracle = None
        for g, e in expr.factors:
            piece = generator_series(g, w) ** e
            oracle = piece if oracle is None else oracle * piece
        assert s.window == prec
        assert s.valuation == oracle.valuation
        assert s.coefficients(prec) == oracle.coefficients(prec)

    def test_accepts_parsed_expr(self):
        from qgap.exprs import parse_expr

        e = parse_expr("Delta^-2")
        assert eval_expr(e, 3).coeff(0) == 1224


def window_prefix(big, w):
    """The first w coefficients of a series, as a series."""
    return QSeries(big.valuation, big.coefficients(w))


class TestWindowsArePrefixes:
    """The window-w series is the first w coefficients of the window-W
    series, W > w, on the same valuation: ``FactorPowers`` reads every
    smaller window from one build at the largest."""

    @pytest.mark.parametrize("name", KINDS)
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_kind(self, name, data):
        g = data.draw(st.sampled_from(ADMITTED[name]))
        w = data.draw(st.integers(1, 20))
        big = generator_series(g, data.draw(st.integers(w + 1, 32)))
        assert generator_series(g, w) == window_prefix(big, w)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(monomial_st(), st.integers(1, 10), st.integers(1, 10))
    def test_catalog_monomials(self, expr, w, extra):
        small, big = eval_expr(expr, w), eval_expr(expr, w + extra)
        assert small == window_prefix(big, w)


class TestFactorPowers:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(monomial_st(), min_size=1, max_size=6))
    def test_batch_constant_terms_match_evaluation(self, batch):
        # the drawn order asks for some series at a larger window than held
        powers = FactorPowers()
        for expr in batch:
            got = constant_term(expr, powers)
            want = eval_expr(expr, expr.pole_order + 1).coeff(0)
            assert got == want and type(got) is type(want)

    def test_family_shares_one_build_per_power(self, monkeypatch):
        import qgap.forms

        calls = []
        real = qgap.forms.factor_power

        def counted(gen, e, window):
            calls.append((str(gen), e, window))
            return real(gen, e, window)

        monkeypatch.setattr(qgap.forms, "factor_power", counted)
        template, envs = FAMILY
        records = _survey_batch(FAMILY)
        shared = list(calls)
        assert [r.c0 for r in records] == [constant_term(e) for e in template.bind(envs)]
        assert sorted(shared) == sorted(
            [("G(4)", a, 6) for a in range(1, 4)] + [("G(6)", 1, 6)]
            + [("Einf4", -b, b + 1) for b in range(1, 6)])

    def test_larger_window_is_rebuilt(self):
        powers = FactorPowers()
        assert constant_term("Delta^-1", powers) == 24
        assert constant_term("j*Delta^-1", powers) == constant_term("j*Delta^-1")
        assert powers.series(((Generator("Delta"), -1),), 1).window == 3

    def test_failed_build_fails_only_its_forms(self, monkeypatch):
        import qgap.forms

        real = qgap.forms.factor_power

        def broken(gen, e, window):
            if e == -2:
                raise DefectError("injected")
            return real(gen, e, window)

        monkeypatch.setattr(qgap.forms, "factor_power", broken)
        batch = [FormExpr(((Generator("j"), 1), (Generator("Delta"), -b)))
                 for b in (1, 2, 3)]
        powers = FactorPowers()
        with pytest.raises(DefectError, match="injected"):
            constant_term(batch[1], powers)
        assert constant_term(batch[2], powers) == eval_expr(batch[2], 5).coeff(0)

    def test_empty_product_is_a_defect(self):
        with pytest.raises(DefectError, match="empty product"):
            FactorPowers().series((), 3)


class TestConstantTerm:
    def test_matches_evaluation_at_pole_order_plus_one(self):
        for text, s in [("Delta^-1", 1), ("Delta^-3", 3), ("j^2*Delta^-2", 4)]:
            assert constant_term(text) == eval_expr(text, s + 1).coeff(0)

    def test_known_values(self):
        assert constant_term("Delta^-1") == 24
        assert constant_term("j") == 744
        assert constant_term("Delta") == 0
        assert constant_term("G(4)") == 1

    def test_accepts_parsed_expr(self):
        from qgap.exprs import parse_expr

        assert constant_term(parse_expr("Delta^-2")) == 1224


class TestDefects:
    def test_reach_shortfall_raises_defect(self, monkeypatch):
        import qgap.forms

        monkeypatch.setattr(qgap.forms, "factor_power",
                            lambda gen, e, window: QSeries(0, [1]))
        with pytest.raises(DefectError, match="reach propagation"):
            eval_expr("Delta^-1", 5)

    def test_constant_term_reach_shortfall_raises_defect(self, monkeypatch):
        import qgap.forms

        monkeypatch.setattr(qgap.forms, "factor_power",
                            lambda gen, e, window: QSeries(0, [1]))
        for text in ("Delta^-1", "j*Delta^-1", "G(4)*j*Delta^-1"):
            with pytest.raises(DefectError, match="reach propagation"):
                constant_term(text)

    def test_unhandled_kind_raises_defect(self):
        g = Generator("Delta")
        object.__setattr__(g, "kind", "bogus")
        with pytest.raises(DefectError):
            generator_series.__wrapped__(g, 3)

    def test_defect_is_not_a_value_error(self):
        assert not issubclass(DefectError, ValueError)


class TestIdentities:
    def test_all_pass_at_200(self):
        for name, ok in identity_checks(200):
            assert ok, name

    def test_perturbed_j2_fails_its_identities(self, monkeypatch):
        import qgap.forms

        def perturbed(gen, window):
            series = generator_series(gen, window)
            if gen.kind == "j2":  # add q^5, keeping the reach
                series = series + QSeries(5, [1] + [0] * (window - 7))
            return series

        monkeypatch.setattr(qgap.forms, "generator_series", perturbed)
        failed = [name for name, ok in identity_checks(200) if not ok]
        assert failed == ["j2 = m2 + 64", "D(j2) = -Egamma2*E04/Einf4"]


class TestOneExpansionPerGenerator:
    """``generator_series`` serves every window as a prefix of the largest
    expansion of the generator built so far."""

    @pytest.mark.parametrize("w", [1, 2, 7, 33])
    @pytest.mark.parametrize("name", KINDS)
    def test_prefix_after_larger_build_equals_fresh_build(self, name, w):
        for g in {ADMITTED[name][0], ADMITTED[name][-1]}:
            memo.clear()
            fresh = generator_series(g, w)
            big = generator_series(g, 40)  # longer than the build at w
            assert big.window == 40 and qgap.forms._largest[g] is big
            generator_series.cache_clear()  # w is now read from big
            assert generator_series(g, w) == fresh
            memo.clear()
            assert generator_series(g, 40) == big

    def test_batch_expands_each_generator_once(self, monkeypatch):
        expanded = []
        real = qgap.forms._expand

        def counted(gen, window):
            expanded.append((str(gen), window))
            return real(gen, window)

        monkeypatch.setattr(qgap.forms, "_expand", counted)
        memo.clear()
        template, envs = FAMILY
        got = [r.c0 for r in _survey_batch(FAMILY)]
        assert sorted(expanded) == [("Einf4", 6), ("G(4)", 6), ("G(6)", 6)]
        memo.clear()
        assert got == [eval_expr(e, e.pole_order + 1).coeff(0) for e in template.bind(envs)]


class TestPrefixesShareTheLogDerivative:
    """A ``generator_series`` prefix of an all-int expansion that a power
    has read carries that expansion's g (``QSeries._log_derivative``); a
    prefix of a Fraction expansion, such as G(12)'s, builds its own.  Either
    way its powers are those of repeated multiplication."""

    @pytest.mark.parametrize("name", KINDS)
    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_kind(self, name, data):
        gen = data.draw(st.sampled_from(ADMITTED[name]))
        w = data.draw(st.integers(1, 12))
        big_window = data.draw(st.integers(w + 1, 24))
        e_big, e = (data.draw(st.integers(-4, 4).filter(lambda x: abs(x) > 1))
                    for _ in range(2))
        memo.clear()
        big = generator_series(gen, big_window)
        big**e_big
        small = generator_series(gen, w)
        shared = big._int_content()[1] == 1
        assert small._dlog == (big._dlog[:w] if shared else None)
        assert small**e == series_oracle.power(small, e)


def test_generator_hash_is_cached_by_value_and_survives_pickling():
    import pickle

    for g in CATALOG:
        h = pickle.loads(pickle.dumps(g))
        assert h == g and repr(h) == repr(g)
        assert hash(h) == hash(g) == hash((g.kind, g.params))
