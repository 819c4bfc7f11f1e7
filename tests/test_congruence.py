import itertools
import json
import math
import pickle
from fractions import Fraction
from string import Formatter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgap.forms
from qgap import congruence, exprs, memo, series
from qgap.arith import INFINITE, ord_p
from qgap.catalog import KINDS, Generator
from qgap.cli import _SUITES
from qgap.exprs import ParseError, parse_expr, parse_template
from qgap.congruence import (
    SurveyRecord,
    classify_expr,
    delta_pn_compare,
    desk_rules_config,
    deviation_rules,
    deviation_window,
    full_rules_config,
    lehner_check,
    order_check,
    read_c0,
    reciprocal_compare,
    run_survey,
    render_summary,
    render_table,
)
from qgap.forms import eval_expr, generator_series
from qgap.series import MUL_MOD_CROSSOVER, DefectError, QSeries, ReachError, inverse_mod, mul_mod

from c0_oracle import mismatches


def only(checks):
    assert len(checks) == 1
    return checks[0]


class TestConductor1:
    def test_delta_inverse_2adic(self):
        # c0[Delta^-1] = 24, ord2 = 3 = 3*d_2(1)
        checks = classify_expr("Delta^-1", c0=24).checks
        assert checks[0].rule == "1a"
        assert checks[0].verdict == "PASS"

    def test_delta_inverse_3adic(self):
        # 24 = (-1)^1 * 3 mod 9
        checks = classify_expr("Delta^-1", c0=24).checks
        assert checks[1].rule == "1c"
        assert checks[1].verdict == "PASS"

    def test_delta_squared_inverse(self):
        c0 = eval_expr("Delta^-2", 3).coeff(0)
        assert c0 == 1224
        rec = classify_expr("Delta^-2")
        assert rec.ord2 == 3
        assert rec.verdict == "PASS"

    def test_clause_b_weight_2_mod_4(self):
        # G(6)*Delta^-1 has weight -6 = 2 mod 4; c0 = -480, ord2 = 5 >= 4
        rec = classify_expr("G(6)*Delta^-1")
        assert rec.c0 == -480
        two = [c for c in rec.checks if c.rule.endswith(("a", "b"))][0]
        assert two.rule == "1b"
        assert two.verdict == "PASS"

    def test_zero_constant_term_flagged(self):
        checks = classify_expr("Delta^-1", c0=0).checks
        assert checks[0].verdict == "ZERO_CONSTANT_TERM"
        assert checks[1].verdict == "ZERO_CONSTANT_TERM"

    def test_j_power(self):
        rec = classify_expr("j")
        assert rec.c0 == 744
        assert rec.verdict == "PASS"


class TestConductor2:
    def test_einf4_inverse(self):
        rec = classify_expr("Einf4^-1")
        assert rec.c0 == -8
        assert rec.ord2 == 3
        assert rec.verdict == "PASS"

    def test_delta2_inverse(self):
        # Delta2 = E04*Einf4 has valuation 1, so pole order 1: need ord2 = 3
        rec = classify_expr("Delta2^-1")
        assert rec.pole_order == 1
        assert only(rec.checks).rule == "2a"
        assert rec.verdict == "PASS"

    def test_t2_family_obeys_rule_2(self):
        rec = classify_expr("Egamma2*E04*Einf4^-3")  # T2(12) shape
        assert rec.conductor == 2
        assert rec.verdict == "PASS"

    def test_only_2adic_clause(self):
        assert len(classify_expr("Einf4^-1", c0=-8).checks) == 1


class TestConductor3:
    def test_phi3_inverse_double_pole(self):
        rec = classify_expr("phi(3)^-1")
        assert rec.pole_order == 2
        assert rec.c0 == 252
        assert only(rec.checks).rule == "3c"
        assert rec.verdict == "PASS"

    def test_big_phi3_inverse(self):
        rec = classify_expr("Phi(3)^-1")
        assert rec.pole_order == 1
        assert rec.c0 == -12
        assert rec.verdict == "PASS"

    def test_e3inf6_cube_power_obeys_rule_3(self):
        # a = 0 mod 3 sits in no deviation window at k = 6
        rec = classify_expr("E(3,inf,6)^-3")
        assert only(rec.checks).rule == "3c"
        assert rec.verdict == "PASS"

    def test_e3inf6_inverse_follows_sign_flip(self):
        # computed directly: c0 = -33 = +3 mod 9, the dev-3-2 side
        rec = classify_expr("E(3,inf,6)^-1")
        assert only(rec.checks).rule == "dev-3-2"
        assert rec.verdict == "PASS"


# (expression, rule, predicted, verdict) when c0 = 0: exact clauses report
# ZERO_CONSTANT_TERM, divisibility clauses pass (the order is infinite)
ZERO_C0_CLAUSES = [
    ("Delta^-1", "1a", "ord2=3", "ZERO_CONSTANT_TERM"),
    ("G(6)*Delta^-1", "1b", "ord2>=4", "PASS"),
    ("Delta^-1", "1c", "ord3=1,sign=-", "ZERO_CONSTANT_TERM"),
    ("G(4)*Delta^-1", "1d", "ord3=1,sign=+", "ZERO_CONSTANT_TERM"),
    ("G(4)*Delta^-2", "1e", "ord3>=3", "PASS"),
    ("G(8)*Delta^-1", "1f", "ord3>=2", "PASS"),
    ("Delta2^-1", "2a", "ord2=3", "ZERO_CONSTANT_TERM"),
    ("E(2,inf,6)^-1", "2b", "ord2>=4", "PASS"),
    ("phi(3)^-1", "3c", "ord3=2,sign=+", "ZERO_CONSTANT_TERM"),
    ("G(4)*Phi(3)^-1", "3d", "ord3=1,sign=+", "ZERO_CONSTANT_TERM"),
    ("G(4)*Phi(3)^-2", "3e", "ord3>=3", "PASS"),
    ("G(2)*Phi(3)^-1", "3f", "ord3>=2", "PASS"),
    ("E(2,inf,8)^-1", "dev-3-1", "ord2=7", "ZERO_CONSTANT_TERM"),
    ("E(3,inf,6)^-1", "dev-3-2", "ord3=1,sign=+", "ZERO_CONSTANT_TERM"),
    ("E(3,inf,6)^-2", "dev-3-3", "ord3=3", "ZERO_CONSTANT_TERM"),
    ("E(3,inf,8)^-1", "dev-3-4", "ord3=1,sign=-", "ZERO_CONSTANT_TERM"),
]


class TestOrderCheck:
    @pytest.mark.parametrize("expr, rule, predicted, verdict", ZERO_C0_CLAUSES,
                             ids=[c[1] for c in ZERO_C0_CLAUSES])
    def test_zero_constant_term_on_every_clause(self, expr, rule, predicted, verdict):
        checks = {c.rule: c for c in classify_expr(expr, c0=0).checks}
        chk = checks[rule]
        observed = "ord2=inf" if predicted.startswith("ord2") else "ord3=inf,sign=None"
        assert (chk.predicted, chk.observed, chk.verdict) == (predicted, observed, verdict)

    def test_rational_order_and_sign(self):
        # -3/2 = 3 * (-1/2) and -1/2 = 1 mod 3: ord_3 = 1 on the + side
        chk = order_check("x", 3, read_c0(Fraction(-3, 2)), 1, sign=1)
        assert (chk.observed, chk.verdict) == ("ord3=1,sign=1", "PASS")
        assert order_check("x", 3, read_c0(Fraction(-3, 2)), 1, sign=-1).verdict == "FAIL"
        assert order_check("x", 2, read_c0(Fraction(-3, 2)), -1).verdict == "PASS"

    def test_sign_needs_p_3(self):
        with pytest.raises(ValueError, match="p = 3"):
            order_check("x", 2, read_c0(8), 3, sign=1)

    @pytest.mark.parametrize("p", [5, 7, 1])
    def test_rejects_primes_other_than_2_and_3(self, p):
        with pytest.raises(ValueError, match=f"p = {p}"):
            order_check("x", p, read_c0(25), 2)


def sign3_oracle(c0) -> int | None:
    """Which of c0 = +3^a or -3^a (mod 3^(a+1)) holds, a = ord_3(c0), from
    the reduced part c0 * 3^(-a); None for zero."""
    if c0 == 0:
        return None
    t = Fraction(c0) * Fraction(3) ** (-ord_p(c0, 3))
    r = t.numerator * pow(t.denominator, -1, 3) % 3
    return 1 if r == 1 else -1


# numerators and denominators with and without factors 2 and 3, up to
# 3,100 bits (the full survey's constant terms reach 3,678 bits)
_SMOOTH = st.builds(lambda a, b: 2**a * 3**b, st.integers(0, 40), st.integers(0, 40))
_UNIT = st.one_of(st.integers(1, 10**6), st.integers(1, 2**3100))


class TestReadC0:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(
        st.just(0),
        st.integers(),
        st.fractions(max_denominator=10**6),
        st.builds(lambda sgn, u, s, v, t: Fraction(sgn * u * s, v * t),
                  st.sampled_from([1, -1]), _UNIT, _SMOOTH, _UNIT, _SMOOTH),
        st.builds(lambda u, s: u * s, st.integers(-2**3100, 2**3100), _SMOOTH),
    ))
    def test_matches_ord_p_and_sign_oracle(self, c0):
        read = read_c0(c0)
        assert read == (ord_p(c0, 2), ord_p(c0, 3), sign3_oracle(c0))
        assert type(read.ord2) is type(ord_p(c0, 2))
        assert type(read.ord3) is type(ord_p(c0, 3))

    def test_zero(self):
        assert read_c0(0) == read_c0(Fraction(0)) == (INFINITE, INFINITE, None)

    @pytest.mark.parametrize("c0", [1.5, 2.0, "3", True, None])
    def test_inexact_c0_is_a_type_error_naming_the_type(self, c0):
        with pytest.raises(TypeError, match=f"got {type(c0).__name__}$"):
            read_c0(c0)
        if c0 is not None:  # None asks classify_expr to evaluate c0
            with pytest.raises(TypeError, match=f"got {type(c0).__name__}$"):
                classify_expr("Delta^-1", c0=c0)

    def test_examples(self):
        # -33 = 3 * -11 and -11 = 1 mod 3; 5/72 = 3^-2 * 5/8, 5/8 = 1 mod 3
        assert read_c0(-33) == (0, 1, 1)
        assert read_c0(Fraction(5, 72)) == (-3, -2, 1)
        assert read_c0(Fraction(-5, 72)) == (-3, -2, -1)


class TestDeviations:
    def test_windows(self):
        assert deviation_window(2, 8, 1) == "dev-3-1"
        assert deviation_window(2, 8, 2) is None  # even a: plain rule 2
        assert deviation_window(2, 6, 1) is None  # k = 2 mod 4: plain rule 2
        assert deviation_window(2, 4, 5) is None  # Einf4 itself: plain rule 2
        assert deviation_window(3, 12, 1) == "dev-3-2"
        assert deviation_window(3, 12, 2) == "dev-3-3"
        assert deviation_window(3, 12, 3) is None
        assert deviation_window(3, 6, 1) == "dev-3-2"  # k = 6 deviates too
        assert deviation_window(3, 8, 1) == "dev-3-4"  # L(1) = 1
        assert deviation_window(3, 8, 7) is None  # L(7) = 2 -> rule 3
        assert deviation_window(3, 10, 1) is None  # k = 4 mod 6: rule 3

    def test_dev31_prediction(self):
        # E(2,inf,8)^-1: 3*d_2(1) + ord_2(2) + 8 - 5 = 7; c0 = -128
        rec = classify_expr("E(2,inf,8)^-1")
        assert rec.c0 == -128
        chk = only(rec.checks)
        assert chk.rule == "dev-3-1"
        assert chk.verdict == "PASS"

    def test_dev32_prediction(self):
        # E(3,inf,12)^-1: c0 = -2049 = (-1)^2 * 3 mod 9
        rec = classify_expr("E(3,inf,12)^-1")
        assert rec.c0 == -2049
        chk = only(rec.checks)
        assert chk.rule == "dev-3-2"
        assert chk.verdict == "PASS"

    def test_dev33_asserts_order_only(self):
        rec = classify_expr("E(3,inf,12)^-2")
        assert rec.c0 == 12240909
        chk = only(rec.checks)
        assert chk.rule == "dev-3-3"
        assert chk.verdict == "PASS"
        assert rec.ord3 == 3  # d_3(2) + ord_3(3) = 2 + 1
        assert rec.sign3 is not None  # recorded, not asserted

    def test_dev34_prediction(self):
        rec = classify_expr("E(3,inf,8)^-1")
        assert rec.c0 == -129
        chk = only(rec.checks)
        assert chk.rule == "dev-3-4"
        assert chk.verdict == "PASS"

    def test_window_miss_reports_not_applicable(self):
        chk = deviation_rules(2, 6, 3, read_c0(-10))
        assert chk.verdict == "NOT_APPLICABLE"


class TestSurveyRunner:
    def test_small_delta_survey(self):
        cfg = {"families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 16]}}]}
        report = run_survey(cfg)
        assert len(report.records) == 16
        assert all(r.verdict == "PASS" for r in report.records)

    def test_j_survey(self):
        cfg = {"families": [{"template": "j^{a}", "ranges": {"a": [1, 8]}}]}
        report = run_survey(cfg)
        assert len(report.records) == 8
        assert all(r.verdict == "PASS" for r in report.records)

    def test_empty_config(self):
        assert run_survey({"families": []}).records == []

    def test_filters(self):
        cfg = {"families": [{
            "template": "E(2,inf,8)^-{a}",
            "ranges": {"a": [1, 8]},
            "filters": ["a odd"],
        }]}
        report = run_survey(cfg)
        assert [r.expr for r in report.records] == [
            f"E(2,inf,8)^-{a}" for a in (1, 3, 5, 7)
        ]
        assert all(r.checks[0].rule == "dev-3-1" for r in report.records)

    def test_mod_filter(self):
        cfg = {"families": [{
            "template": "Delta^-{a}",
            "ranges": {"a": [1, 9]},
            "filters": ["a % 3 in 0, 1"],
        }]}
        report = run_survey(cfg)
        assert len(report.records) == 6

    def test_determinism(self):
        cfg = {"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 4]}},
            {"template": "j^{a}", "ranges": {"a": [1, 3]}},
        ]}
        a = run_survey(cfg)
        b = run_survey(cfg)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]

    def test_summary_counts(self):
        cfg = {"families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 4]}}]}
        rep = run_survey(cfg)
        assert rep.summary["total"] == 4
        assert rep.summary["verdicts"] == {"PASS": 4}

    def test_records_serialize(self):
        cfg = {"families": [{"template": "phi(3)^-{a}", "ranges": {"a": [1, 2]}}]}
        rep = run_survey(cfg)
        for r in rep.records:
            json.dumps(r.to_dict())

    def test_records_are_immutable_and_pickle(self):
        """Records are values: frozen, and equal after a pickle round trip."""
        records = [classify_expr("G(4)*Einf4^-3"), classify_expr("Delta^-1", 0),
                   classify_expr("j^2", Fraction(-9, 4))]
        assert [r.verdict for r in records] == ["PASS", "FAIL", "FAIL"]
        for rec in records:
            with pytest.raises(AttributeError):
                rec.c0 = 0
            back = pickle.loads(pickle.dumps(rec))
            assert type(back) is SurveyRecord
            assert back == rec and back.to_dict() == rec.to_dict()

    def test_table_renderer(self):
        cfg = {"families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 2]}}]}
        report = run_survey(cfg)
        text = render_table(report)
        assert "Delta^-1" in text and "PASS" in text
        assert text.splitlines()[-1] == render_summary(report) == "total 2: PASS=2"


def parse_or_error(text):
    try:
        return parse_expr(text)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestClauseMemo:
    def test_desk_records_match_fresh_classification_and_share_checks(self):
        records = run_survey(desk_rules_config()).records
        shared = {}
        for rec in records:
            assert rec.to_dict() == classify_expr(rec.expr).to_dict()
            # rebuilt, not read from the memo
            key = (rec.pole_order, rec.weight % 12, rec.conductor,
                   congruence._pure_e_power(parse_expr(rec.expr)), read_c0(rec.c0))
            assert congruence._rule_checks.__wrapped__(*key) \
                == ((rec.beta, rec.gamma, rec.largest3), rec.checks)
            assert shared.setdefault(rec.checks, rec.checks) is rec.checks
        assert len(shared) < len(records) / 10

    def test_one_memo_serves_every_survey_and_classify_expr(self):
        cfg = {"families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 6]}},
                            {"template": "E(3,inf,6)^-{a}", "ranges": {"a": [1, 4]}}]}
        first = run_survey(cfg).records
        before = congruence._rule_checks.cache_info()
        second = run_survey(cfg).records
        after = congruence._rule_checks.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 10)
        assert all(a.checks is b.checks for a, b in zip(first, second))
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
        again = classify_expr(first[2].expr)
        assert again.checks is first[2].checks
        assert congruence._rule_checks.cache_info().misses == after.misses


class TestTemplateParsing:
    """A survey parses each template once and binds each instance's field
    values; every instance must read as its own text does, errors
    included, and a template outside the grammar is rejected when parsed."""

    TEMPLATES = [
        "G(4)^{a}*Einf4^-{b}", "G({k})*Einf4^-{b}", "Delta^{a}", "Delta^-{a}",
        "Delta^{a}{b}", "G({k})^{a}", "G(4)^{a} Delta^-{b}", "Delta ^{a}",
        "Delta^ -{a}", "Delta^+{a}", "G(4)^{a}*G(6)^{a}", "Delta^-{a}*G(3)",
        "Delta^{a}*", "E(3,inf,{k})^-{a}", "j^{a}*Delta^-{b}*G(4)^{k}",
        "Delta^{a}5", "Delta^{a:d}", "G(4)^1{a}", "G(10)^-{a}*phi(3)^-{b}",
    ]
    #: template -> the position where ``parse_template`` rejects it
    REJECTED = {"Delta^{a}{b}": 9, "Delta^-{a}*G(3)": 11, "Delta^{a}*": 10,
                "Delta^{a}5": 9, "Delta^{a:d}": 6, "G(4)^1{a}": 6}

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_instances_read_as_their_own_text(self, template):
        if template in self.REJECTED:
            with pytest.raises(ParseError) as exc:
                parse_template(template)
            assert exc.value.pos == self.REJECTED[template]
            return
        fields = sorted({f for _, f, _, _ in Formatter().parse(template) if f})
        tmpl = parse_template(template)
        assert sorted(tmpl.fields) == fields
        values = {"a": range(-2, 4), "b": range(-1, 3), "k": range(-2, 9, 2)}
        for combo in itertools.product(*(values[f] for f in fields)):
            env = dict(zip(fields, combo))
            try:
                got = tmpl.bind([env])[0]
            except ValueError as exc:
                got = f"{type(exc).__name__}: {exc}"
            assert got == parse_or_error(template.format(**env))

    def test_one_parse_per_generator_set(self, monkeypatch):
        """One template parse per family; a valid instance is bound without
        a parse, and only an instance that cannot bind is parsed."""
        templates, calls = [], []
        real_template, real_expr = congruence.parse_template, exprs.parse_expr
        monkeypatch.setattr(congruence, "parse_template",
                            lambda text: templates.append(text) or real_template(text))
        for module in (congruence, exprs):
            monkeypatch.setattr(module, "parse_expr",
                                lambda text: calls.append(text) or real_expr(text))
        cfg = {"families": [{"template": "G({k})*Einf4^-{b}",
                             "ranges": {"k": [4, 8, 2], "b": [1, 10]}}]}
        assert len(run_survey(cfg).records) == 30
        assert (templates, calls) == (["G({k})*Einf4^-{b}"], [])
        with pytest.raises(ParseError, match=r"G\(3\)"):
            real_template("G({k})*Einf4^-{b}").bind([{"k": 3, "b": 1}])[0]
        assert calls == ["G(3)*Einf4^-1"]


class TestSurveyPlan:
    def test_template_shared_by_families_is_one_batch(self):
        cfg = {"families": [
            {"template": "E(2,inf,{k})^-{a}", "ranges": {"k": [8, 16, 4], "a": [1, 4]}},
            {"template": "Delta^-{a}", "ranges": {"a": [1, 3]}},
            {"template": "E(2,inf,{k})^-{a}", "ranges": {"k": [6, 14, 4], "a": [1, 3]}},
        ]}
        batches = congruence._instantiate(cfg)
        assert [t.text for t, _ in batches] == ["Delta^-{a}", "E(2,inf,{k})^-{a}"]
        texts = [str(template.bind([env])[0]) for template, envs in batches for env in envs]
        # (a, k) order: both E families interleave within one batch
        assert texts == [f"Delta^-{a}" for a in range(1, 4)] + [
            f"E(2,inf,{k})^-{a}" for a in range(1, 5) for k in range(6, 17, 2)
            if k % 4 == 0 or a <= 3]
        records = run_survey(cfg).records
        assert [r.expr for r in records] == texts
        assert [r.c0 for r in records] == [classify_expr(t).c0 for t in texts]

    def test_batch_records_come_in_bind_order(self):
        # pole order a + b is not monotone in (a, b), the bind order
        template = parse_template("j^{a}*Delta^-{b}")
        envs = [{"a": a, "b": b} for a in range(1, 4) for b in range(1, 4)]
        exprs = template.bind(envs)
        records = congruence._survey_batch((template, envs))
        assert [r.expr for r in records] == [str(e) for e in exprs]
        assert [r.c0 for r in records] == [classify_expr(e).c0 for e in exprs]

    def test_failed_power_build_is_one_error_record_per_form(self, monkeypatch):
        import qgap.forms

        real = qgap.forms.factor_power

        def broken(gen, e, window):
            if gen == Generator("Delta") and e == -2:
                raise DefectError("injected")
            return real(gen, e, window)

        monkeypatch.setattr(qgap.forms, "factor_power", broken)
        cfg = {"families": [{"template": "G(6)^{a}*Delta^-{b}",
                             "ranges": {"a": [1, 2], "b": [1, 3]}}]}
        records = run_survey(cfg).records
        assert [(r.expr, r.verdict) for r in records] == [
            (f"G(6)^{a}*Delta^-{b}", "ERROR" if b == 2 else "PASS")
            for a in (1, 2) for b in (1, 2, 3)]
        assert records[1].checks[0].observed == "DefectError: injected"


    @pytest.mark.parametrize("config", [desk_rules_config, full_rules_config])
    def test_the_built_in_configs_are_under_the_cap(self, config):
        cfg = config()
        counts = [math.prod(map(len, congruence._family_tasks(f)[1])) for f in cfg["families"]]
        batches = congruence._instantiate(cfg)
        assert sum(len(envs) for _, envs in batches) <= sum(counts) <= congruence.MAX_SURVEY_FORMS


    def test_a_config_at_the_cap_is_instantiated_and_one_more_instance_is_not(self):
        cap = congruence.MAX_SURVEY_FORMS
        at_cap = {"template": "Delta^-{a}", "ranges": {"a": [1, cap]},
                  "filters": [f"a % {cap // 4} == 0"]}
        (template, envs), = congruence._instantiate({"families": [at_cap]})
        assert envs == [{"a": a} for a in range(cap // 4, cap + 1, cap // 4)]
        one_more = {"template": "G(4)*Delta^-{a}", "ranges": {"a": [1, 1]}}
        with pytest.raises(ValueError, match=f"^survey family 1: {cap + 1:,} instances before "
                                             f"filters, 1 of them from this family, are over"):
            congruence._instantiate({"families": [at_cap, one_more]})


class TestSection33:
    def test_delta_2n_small(self):
        rows = {r["n"]: r for r in delta_pn_compare(2, 8)}
        assert rows[2]["delta_pn"] == 4  # 3*1 + 1
        assert rows[2]["verdict"] == "PASS"
        assert rows[4]["delta_pn"] == 7  # 3*2 + 1
        assert rows[-1]["verdict"] == "RECORDED"

    def test_delta_3n_small(self):
        rows = {r["n"]: r for r in delta_pn_compare(3, 9)}
        assert rows[3]["delta_pn"] == 2
        assert rows[1]["delta_pn"] == -1
        assert rows[9]["delta_pn"] == 4
        for n in (1, 3, 4, 6, 7, 9):
            assert rows[n]["verdict"] == "PASS"
        assert rows[2]["verdict"] == "RECORDED"

    def test_delta_5n(self):
        rows = {r["n"]: r for r in delta_pn_compare(5, 25)}
        assert rows[5]["verdict"] == "PASS"
        assert rows[25]["verdict"] == "PASS"

    def test_reciprocal_small(self):
        rows = reciprocal_compare(6)
        for row in rows:
            if row["p"] in (2, 3):
                assert row["verdict"] == "PASS"
        # n = 3 and p = 5 is excluded: 3 = 3 mod 5
        excluded = [r for r in rows if r["n"] == 3 and r["p"] == 5]
        assert excluded[0]["verdict"] == "NOT_APPLICABLE"

    def test_lehner_small(self):
        rows = lehner_check(8)
        by_key = {(r["n"], r["p"]): r for r in rows}
        assert by_key[(2, 2)]["required"] == 11
        assert by_key[(2, 2)]["verdict"] == "PASS"
        assert by_key[(3, 3)]["required"] == 5
        assert by_key[(3, 3)]["verdict"] == "PASS"
        assert by_key[(7, 7)]["required"] == 1
        assert by_key[(7, 7)]["verdict"] == "PASS"
        assert (1, 2) not in by_key


PRODUCTION_K = tuple(congruence._RESIDUE_EXPONENTS.items())
TINY_K = ((2, 1), (3, 1), (5, 1), (7, 1))
def inverse_orders(u, p, k):
    """The orders at p of 1/u, read from 1/u mod p^k, with the exact
    ``u.invert()`` as the fallback."""
    m = p**k
    res = inverse_mod([c % m for c in u.coefficients()], m)
    return congruence._Orders(-u.valuation, res, p, k, u.invert)


def exact_orders(u, exponents):
    """(n, p) -> ord_p of the exact inverse's coefficient, over its window."""
    inv = u.invert()
    return {(n, p): ord_p(inv.coeff(n), p)
            for n in range(inv.valuation, inv.reach) for p, _ in exponents}


def residue_orders(u, exponents):
    out = {}
    for p, k in exponents:
        orders = inverse_orders(u, p, k)
        out.update({(n, p): orders.ord(n)
                    for n in range(-u.valuation, -u.valuation + u.window)})
    return out


@st.composite
def unit_series(draw):
    """Integer series with a leading coefficient prime to 2, 3, 5 and 7."""
    lead = draw(st.sampled_from([1, -1, 11, 121]))
    rest = draw(st.lists(st.integers(-60, 60), max_size=95))
    return QSeries(draw(st.integers(-3, 3)), [lead, *rest])


def table_series(res):
    """The order readers a ``_TableResidues`` serves, with the exact
    series each one reads."""
    j = generator_series(Generator("j"), res.window)
    return [(res.j, j), (res.delta_inverse, generator_series(Generator("T", (14,)), res.window)),
            (res.inverse_j, j.invert())]


class TestInverseOrders:
    """Orders read from residues against the exact series."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(unit_series(), st.tuples(*(st.integers(1, 6) for _ in range(4))))
    def test_orders_equal_the_exact_inverse(self, u, small):
        small_k = tuple(zip((2, 3, 5, 7), small))
        want = exact_orders(u, PRODUCTION_K)
        assert residue_orders(u, PRODUCTION_K) == want
        assert residue_orders(u, small_k) == want

    def test_j_orders_and_residues_at_512(self):
        # q*j from the power G4**3 of the exact G4: the residues of q*j are
        # those of the table's G4^3 times a unit, so they fix the G4^3 read
        q_j = (generator_series(Generator("G", (4,)), 512) ** 3
               * generator_series(Generator("T", (14,)), 512)).shift(1)
        for p, k in PRODUCTION_K:
            res = congruence._TableResidues(p, k, 512)
            assert res._qj == [c % p**k for c in q_j.coefficients()]
            for orders, exact in table_series(res):
                assert [orders.ord(n) for n in range(exact.valuation, exact.reach)] \
                    == [ord_p(c, p) for c in exact.coefficients()]
                assert orders._exact is None

    def test_exact_zero_coefficients_report_infinite(self):
        # 1/(q^-1 (1 + q^2)) = q - q^3 + q^5 - ...: every even exponent is 0
        u = QSeries(-1, [1, 0, 1] + [0] * 37)
        orders = inverse_orders(u, 2, 64)
        assert [orders.ord(n) for n in range(-1, 8)] == [INFINITE, INFINITE, 0, INFINITE, 0,
                                                         INFINITE, 0, INFINITE, 0]
        assert orders._exact is not None
        assert inverse_orders(u, 5, 28).ord(2) == INFINITE

    def test_reading_beyond_reach_raises(self):
        for p, k in PRODUCTION_K + TINY_K:
            for orders, exact in table_series(congruence._TableResidues(p, k, 10)):
                orders.ord(exact.reach - 1)
                with pytest.raises(ReachError):
                    orders.ord(exact.reach)

    def test_non_unit_leading_coefficient_is_a_defect(self):
        with pytest.raises(DefectError, match="not a unit"):
            inverse_mod([6, 1, 1], 2**64)
        with pytest.raises(DefectError, match="not a unit"):
            inverse_mod([7, 1], 7**2)

    def test_tiny_k_rows_equal_the_exact_path(self, monkeypatch):
        n = 200
        # cleared before and after, so no production residues are read here
        # and no tiny-K residues outlive the test
        memo.clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(congruence, "_RESIDUE_EXPONENTS", dict(TINY_K))
                rows = {p: delta_pn_compare(p, n) for p in (2, 3, 5)}
                rows["reciprocal"], rows["lehner"] = reciprocal_compare(n), lehner_check(n)
                fallbacks = [(p, name) for p in (2, 3, 5, 7)
                             for name in ("j", "delta_inverse", "inverse_j")
                             if getattr(congruence._residues(p, n), name)._exact is not None]
        finally:
            memo.clear()
        assert fallbacks == [(p, name) for p in (2, 3, 5)
                             for name in ("j", "delta_inverse", "inverse_j")] + [(7, "j")]

        def order(series, m, p):
            o = ord_p(series.coeff(m), p)
            return "inf" if o == INFINITE else o

        j = generator_series(Generator("j"), n + 2)
        inv_d, inv_j = generator_series(Generator("T", (14,)), n + 2), j.invert()
        for p in (2, 3, 5):
            for row in rows[p]:
                assert (row["ord_j"], row["ord_inv_delta"]) \
                    == (order(j, row["n"], p), order(inv_d, row["n"], p))
        for row in rows["reciprocal"]:
            assert row["ord_inv_j"] == order(inv_j, row["n"], row["p"])
        for row in rows["lehner"]:
            assert row["ord"] == order(j, row["n"], row["p"])
        assert rows == {**{p: delta_pn_compare(p, n) for p in (2, 3, 5)},
                        "reciprocal": reciprocal_compare(n), "lehner": lehner_check(n)}

    def test_fallback_is_cold_at_the_full_windows(self):
        # what ``verify --suite sec33 --full`` reads: j and Delta^-1 from
        # delta_pn_compare, 1/j from reciprocal_compare, j from lehner_check;
        # a window's coefficients are a prefix of every larger window's, so
        # no zero residue there means none in any smaller table
        n_delta, n_recip = _SUITES["sec33"].full.args
        readers = {p: [congruence._residues(p, n_recip).j] for p, _ in PRODUCTION_K}
        for p in (2, 3, 5):
            res = congruence._residues(p, n_delta)
            readers[p] += [res.j, res.delta_inverse, congruence._residues(p, n_recip).inverse_j]
        for p, k in PRODUCTION_K:
            assert all(max(orders._orders) < k for orders in readers[p])


class TestTableInputs:
    """A cold section 3.3 table build reads only the exact Delta: G4^3 comes
    from Delta and the sigma_11 sieve, j and Delta^-1 from one inverse and
    one product mod p^K, and 1/j from the inverse of q*j."""

    N = 100

    def _cold_build(self, monkeypatch, *tables):
        """Build the tables from cold caches; the number of series
        inversions (invert() and **-1 both run QSeries._power(-1)) and the
        generators expanded."""
        inversions, built = [], set()
        power, expand = QSeries._power, generator_series

        def power_spy(self, p, q=1):
            inversions.append(p == -1)
            return power(self, p, q)

        def expand_spy(gen, window):
            built.add(gen)
            return expand(gen, window)

        memo.clear()
        with monkeypatch.context() as m:
            m.setattr(QSeries, "_power", power_spy)
            m.setattr(qgap.forms, "generator_series", expand_spy)
            m.setattr(congruence, "generator_series", expand_spy)
            for table in tables:
                table(self.N)
        return sum(inversions), built

    def test_cold_table_build_inverts_nothing_and_builds_no_j(self, monkeypatch):
        tables = [lambda n, p=p: delta_pn_compare(p, n) for p in (2, 3, 5)]
        tables += [reciprocal_compare, lehner_check]
        inversions, built = self._cold_build(monkeypatch, *tables)
        assert inversions == 0
        assert built == {Generator("Delta")}

    def test_j_tables_build_no_reciprocal_table(self, monkeypatch):
        tables = (lambda n: delta_pn_compare(2, n), lehner_check)
        monkeypatch.setattr(congruence._TableResidues, "inverse_j",
                            property(lambda self: pytest.fail("built 1/j residues")))
        inversions, built = self._cold_build(monkeypatch, *tables)
        assert inversions == 0
        assert built == {Generator("Delta")}

    def test_a_cold_build_at_2048_takes_18_full_window_products(self, monkeypatch):
        # the products that multiply in decimal, as ``mul_mod`` decides: G4^3
        # takes none, each of the four inverses of Delta/q two (the last
        # Newton step of ``series.inverse_mod``), each j one, and each of
        # the three 1/j two; with the crossover above the window every
        # product is an int one, and the rows are the same
        shapes, product = [], mul_mod

        def spy(a, b, m, n, lo=0):
            shapes.append(min(len(a), len(b), n))
            return product(a, b, m, n, lo)

        def cold_rows(*spied):
            # Delta is built before the spy: its three squarings in
            # ``series.delta_over_q`` are not table products
            memo.clear()
            generator_series(Generator("Delta"), 2048 + 2)
            with monkeypatch.context() as m:
                for module in spied:
                    m.setattr(module, "mul_mod", spy)
                return ([delta_pn_compare(p, 2048) for p in (2, 3, 5)]
                        + [reciprocal_compare(2048), lehner_check(2048)])

        try:
            rows = cold_rows(series, congruence)
            monkeypatch.setattr(series, "MUL_MOD_CROSSOVER", 2048 + 3)
            int_rows = cold_rows()
        finally:
            memo.clear()
        assert sum(n >= MUL_MOD_CROSSOVER for n in shapes) == 18
        assert int_rows == rows

    def test_the_divisibility_table_builds_no_delta_inverse_orders(self):
        # lehner_check reads j alone; at p = 7 no other table reads Delta^-1
        memo.clear()
        lehner_check(self.N)
        assert "delta_inverse" not in congruence._residues(7, self.N).__dict__
        delta_pn_compare(2, self.N)
        assert "delta_inverse" in congruence._residues(2, self.N).__dict__


class TestRecordInvariants:
    def test_ord2_congruence_equivalence(self):
        # for integers: ord_2(n) = a iff n = 2^a mod 2^(a+1)
        from qgap.arith import ord_p

        for n in range(1, 2000):
            a = ord_p(n, 2)
            assert n % 2 ** (a + 1) == 2**a
        for n in range(1, 500):
            for a in range(0, 8):
                if n % 2 ** (a + 1) == 2**a:
                    assert ord_p(n, 2) == a

    def test_theorem_41_forms_pass_the_survey_clause(self):
        # consistency: forms covered by the exact 2-adic theorems also pass
        # their survey rule
        for s in (1, 2, 4, 8):
            rec = classify_expr(f"Einf4^-{s}")
            assert rec.verdict == "PASS"
            assert rec.ord2 == 3

    def test_d3_membership_implies_c3(self):
        # a record passing clause (c) has ord3 == gamma by definition
        rec = classify_expr("Delta^-1")
        three = [c for c in rec.checks if c.rule == "1c"][0]
        assert three.verdict == "PASS"
        assert rec.ord3 == rec.gamma

    def test_infinite_order_on_zero(self):
        from qgap.arith import ord_p

        assert ord_p(0, 2) == INFINITE

    def test_every_kind_has_even_weight(self):
        # so every monomial weight is even and the 2-adic clause is (a) or (b)
        for name, kind in KINDS.items():
            for params in itertools.product(range(-30, 61), repeat=len(kind.slots)):
                if kind.check(*params) is None:
                    assert kind.weight(*params) % 2 == 0, (name, params)

    def test_no_pole_is_not_applicable(self):
        rec = classify_expr("Delta")
        assert rec.verdict == "NOT_APPLICABLE"


def test_desk_survey_c0_matches_independent_oracle():
    memo.clear()  # the survey builds cold, as a fresh run does
    records = run_survey(desk_rules_config()).records
    assert len(records) == 9212
    assert mismatches(records) == []


def test_survey_runs_in_one_process(monkeypatch):
    """``jobs`` other than 1 is refused before any batch is bound; the one
    process binds each batch once, in batch order."""
    cfg = {"families": [
        {"template": "Delta^-{a}", "ranges": {"a": [1, 6]}},
        {"template": "G(4)^{a}*Einf4^-{b}", "ranges": {"a": [1, 3], "b": [1, 4]}},
        {"template": "E(3,inf,6)^-{a}", "ranges": {"a": [1, 3]}},
    ]}
    binds = []
    bind = exprs.Template.bind
    monkeypatch.setattr(exprs.Template, "bind",
                        lambda self, envs: binds.append(self.text) or bind(self, envs))
    with pytest.raises(ValueError, match="^run_survey runs in one process; jobs must be 1$"):
        run_survey(cfg, jobs=2)
    assert binds == []
    assert len(run_survey(cfg, jobs=1).records) == 21
    assert binds == ["Delta^-{a}", "E(3,inf,6)^-{a}", "G(4)^{a}*Einf4^-{b}"]
