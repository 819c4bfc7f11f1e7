import json

from qgap.verdict import Verdict


def test_str_and_format_give_the_bare_name():
    for v in Verdict:
        assert str(v) == v.name
        assert f"{v}" == v.name
        assert format(v, "") == v.name
        assert "%s" % v == v.name
    assert f"{Verdict.PASS:>6}|" == "  PASS|"


def test_json_value_and_key():
    assert json.dumps(Verdict.PASS) == '"PASS"'
    assert json.dumps({"verdict": Verdict.FAIL}) == '{"verdict": "FAIL"}'
    assert json.dumps({Verdict.EXPERIMENTAL: 1}) == '{"EXPERIMENTAL": 1}'


def test_compares_equal_to_its_name():
    assert Verdict.PASS == "PASS"
    assert {Verdict.PASS: 4} == {"PASS": 4}
    assert Verdict("NOT_APPLICABLE") is Verdict.NOT_APPLICABLE


def test_exact_fails_set():
    assert {v for v in Verdict if v.fails} == {
        Verdict.FAIL, Verdict.ZERO_CONSTANT_TERM, Verdict.ERROR,
    }
