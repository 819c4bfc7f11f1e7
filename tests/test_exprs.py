import itertools
import pickle
import re
from string import Formatter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgap.catalog import KINDS, FormExpr, Generator
from qgap.exprs import ParseError, parse_expr, parse_template


class TestParsing:
    def test_single_generator(self):
        e = parse_expr("Delta")
        assert e.factors == ((Generator("Delta"), 1),)

    def test_exponent(self):
        e = parse_expr("Delta^-1")
        assert e.factors == ((Generator("Delta"), -1),)

    def test_parameterized(self):
        assert parse_expr("G(4)").factors[0][0] == Generator("G", (4,))
        assert parse_expr("E(3,inf,6)").factors[0][0] == Generator("E", (3, 6))
        assert parse_expr("S(1,2)").factors[0][0] == Generator("S", (1, 2))
        assert parse_expr("T2(12)").factors[0][0] == Generator("T2", (12,))

    def test_star_and_whitespace_separators(self):
        a = parse_expr("Egamma2^2*Einf4^-1")
        b = parse_expr("Egamma2^2 Einf4^-1")
        c = parse_expr("  Egamma2 ^ 2 * Einf4 ^ -1 ")
        assert a.factors == b.factors == c.factors

    def test_prefix_disambiguation(self):
        assert parse_expr("Delta2").factors[0][0].kind == "Delta2"
        assert parse_expr("j2").factors[0][0].kind == "j2"
        assert parse_expr("j").factors[0][0].kind == "j"
        assert parse_expr("T(8)").factors[0][0].kind == "T"

    def test_multi_factor(self):
        e = parse_expr("G(4)^2 G(6) Delta^-3")
        assert [x[1] for x in e.factors] == [2, 1, -3]

    def test_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("Delta^0")

    def test_unknown_generator(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("Zeta")
        assert "position 0" in str(exc.value)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("Delta^")
        assert "position 6" in str(exc.value)

    def test_trailing_star(self):
        with pytest.raises(ParseError):
            parse_expr("Delta^-1*")

    def test_bad_parameters(self):
        for text in ("G(5)", "E(4,inf,6)", "E(2,inf,2)", "phi(4)",
                     "S(3,2)", "T(2)", "T2(3)"):
            with pytest.raises(ParseError):
                parse_expr(text)

    def test_error_survives_pickling(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("Delta^-1*G(3)")
        back = pickle.loads(pickle.dumps(exc.value))
        assert type(back) is ParseError
        assert (str(back), back.pos, back.expected) \
            == (str(exc.value), exc.value.pos, exc.value.expected)


class TestSymbolicData:
    def test_weights(self):
        assert parse_expr("Delta").weight == 12
        assert parse_expr("j").weight == 0
        assert parse_expr("G(4)^2 Delta^-1").weight == -4
        assert parse_expr("T2(12)").weight == -10
        assert parse_expr("T(14)").weight == -12

    def test_valuations(self):
        assert parse_expr("Delta^-3").valuation == -3
        assert parse_expr("j^2").valuation == -2
        assert parse_expr("phi(3)^-1").pole_order == 2
        assert parse_expr("Phi(3)^-1").pole_order == 1
        assert parse_expr("T2(8)").valuation == -3
        assert parse_expr("T2(10)").valuation == -4

    def test_conductors(self):
        assert parse_expr("Delta^-1").conductor == 1
        assert parse_expr("G(4) Einf4^-2").conductor == 2
        assert parse_expr("phi(3)^-1").conductor == 3
        assert parse_expr("Einf4 phi(3)").conductor == 6

    def test_empty_factors_rejected(self):
        with pytest.raises(ValueError):
            FormExpr(())

    def test_form_survives_pickling(self):
        form = parse_expr("G(4)^2 Delta^-1")
        back = pickle.loads(pickle.dumps(form))
        assert type(back) is FormExpr
        assert (back, str(back), back.weight, back.pole_order) == (form, str(form), -4, 1)


#: One valid instance per kind: (kind, params, (str, weight, conductor,
#: leading exponent)), and an out-of-range parameter tuple (None when the
#: kind takes no parameters).
KIND_CASES = [
    ("Delta", (), ("Delta", 12, 1, 1), None),
    ("Delta2", (), ("Delta2", 8, 2, 1), None),
    ("j", (), ("j", 0, 1, -1), None),
    ("j2", (), ("j2", 0, 2, -1), None),
    ("G", (10,), ("G(10)", 10, 1, 0), (5,)),
    ("Egamma2", (), ("Egamma2", 2, 2, 0), None),
    ("E04", (), ("E04", 4, 2, 0), None),
    ("Einf4", (), ("Einf4", 4, 2, 1), None),
    ("E", (3, 6), ("E(3,inf,6)", 6, 3, 1), (4, 6)),
    ("phi", (3,), ("phi(3)", 0, 3, 2), (4,)),
    ("Phi", (3,), ("Phi(3)", 0, 3, 1), (5,)),
    ("S", (1, 2), ("S(1,2)", 24, 1, 1), (3, 2)),
    ("T", (14,), ("T(14)", -12, 1, -1), (2,)),
    ("T2", (10,), ("T2(10)", -8, 2, -4), (3,)),
]


def test_kind_cases_cover_the_catalog():
    assert [case[0] for case in KIND_CASES] == list(KINDS)


@pytest.mark.parametrize("kind, params, data, out_of_range", KIND_CASES)
class TestKinds:
    def test_symbolic_data_and_text(self, kind, params, data, out_of_range):
        g = Generator(kind, params)
        assert (str(g), g.weight, g.conductor, g.valuation) == data

    def test_parse_round_trip(self, kind, params, data, out_of_range):
        g = Generator(kind, params)
        spaced = str(g).replace("(", "( ").replace(",", " , ").replace(")", " )")
        for text in (str(g), spaced, f" {spaced}^-2 "):
            assert parse_expr(text).factors[0][0] == g

    def test_bad_parameters_raise(self, kind, params, data, out_of_range):
        bad = [params + (0,), tuple(map(str, params)) or ("0",), list(params) or [0]]
        if out_of_range is not None:
            bad.append(out_of_range)
        for p in bad:
            with pytest.raises(ValueError):
                Generator(kind, p)

    def test_bad_parameters_through_parser(self, kind, params, data, out_of_range):
        text = str(Generator(kind, params))
        inside = text[len(kind):]
        bad = ([kind + inside[:-1] + ",0)",
                kind + inside.replace(str(params[0]), "x", 1)]
               if params else [kind + "(0)", kind + "(x)"])
        for t in bad:
            with pytest.raises(ParseError):
                parse_expr(t)
        if out_of_range is not None:
            spec = KINDS[kind]
            with pytest.raises(ParseError, match=rf"{re.escape(spec.shape)} needs"):
                parse_expr(spec.render(out_of_range))


def test_unknown_name_message_lists_every_kind():
    with pytest.raises(ParseError) as exc:
        parse_expr("Zeta")
    for spec in KINDS.values():
        assert spec.shape in str(exc.value)


#: The parameter tuples below 30 that each kind accepts.
VALID_PARAMS = {name: [p for p in itertools.product(range(30), repeat=len(kind.slots))
                       if kind.check(*p) is None] for name, kind in KINDS.items()}
FIELDS = ("a", "b", "k")


@st.composite
def templates(draw):
    """A random in-grammar template and the fields it names: each integer
    is a literal or a field (fields may repeat), an exponent may carry a
    sign, and whitespace falls between tokens."""
    used = set()

    def ws():
        return draw(st.sampled_from(["", " ", "  ", "\t"]))

    def integer(literal):
        if draw(st.booleans()):
            return str(literal)
        used.add(name := draw(st.sampled_from(FIELDS)))
        return "{" + name + "}"

    template = ""
    for i in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(list(KINDS)))
        params = iter(draw(st.sampled_from(VALID_PARAMS[kind])))
        text = (draw(st.sampled_from(["*", " * ", " ", "\t"])) if i else "") + ws() + kind
        for literal, slot, _, _ in Formatter().parse(KINDS[kind].syntax):
            text += "".join(ws() + token for token in re.findall(r"\w+|\S", literal))
            if slot:
                text += ws() + integer(next(params))
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "+", "-"]))
            text += ws() + "^" + ws() + sign + integer(draw(st.integers(1, 40)))
        template += text + ws()
    return template, used


@settings(max_examples=400, derandomize=True, deadline=None)
@given(templates(), st.fixed_dictionaries({f: st.integers(-6, 40) for f in FIELDS}))
def test_template_binds_as_its_formatted_text_parses(drawn, env):
    template, used = drawn
    tmpl = parse_template(template)
    assert set(tmpl.fields) == used
    try:
        want = parse_expr(template.format(**env))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            tmpl.bind([env])[0]
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        got = tmpl.bind([env])[0]
        assert got == want and str(got) == str(want)


def test_parse_expr_admits_no_field():
    with pytest.raises(ParseError, match="position 6: expected a signed integer, found '{'"):
        parse_expr("Delta^{a}")


def form_data(form):
    return (str(form), form.factors, form.weight, form.valuation, form.pole_order,
            form.conductor)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(templates(), st.lists(st.fixed_dictionaries(
    {f: st.one_of(st.sampled_from([2, 3, 4, 12]), st.integers(-6, 40)) for f in FIELDS}),
    min_size=1, max_size=8))
def test_batch_binds_as_each_formatted_text_parses(drawn, envs):
    """A batch binds every env as its formatted text parses, up to the
    first env that does not parse, which raises the error ``parse_expr``
    raises; equal generators in one batch are one object."""
    template = parse_template(drawn[0])
    want = []
    for env in envs:
        try:
            want.append(parse_expr(drawn[0].format(**env)))
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                template.bind(envs)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            break
    good = template.bind(envs[:len(want)])
    assert [form_data(f) for f in good] == [form_data(f) for f in want]
    one = {}
    assert all(one.setdefault(g, g) is g for form in good for g, _ in form.factors)


def test_batch_builds_each_generator_once():
    template = parse_template("G(4)^{a}*G({k})*E(3,inf,{n})^-1")
    envs = [{"a": a, "k": k, "n": n} for a in (1, 2) for k in (4, 6) for n in (6, 8)]
    forms = template.bind(envs)
    gens = {id(g) for form in forms for g, _ in form.factors}
    assert len(gens) == 4  # G(4), G(6), E(3,inf,6), E(3,inf,8)
    assert [str(f) for f in forms] == [template.text.format(**env) for env in envs]
    assert [f.conductor for f in forms] == [3] * 8
