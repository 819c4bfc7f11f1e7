import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import golden
import qgap
from qgap.cli import _build_parser, main
from qgap import memo
from qgap.forms import MAX_WINDOW, constant_term
from qgap.quadratic import E8
from qgap.verdict import Verdict
from test_quadratic import E6, skewed

D4 = golden.GOLDEN_DIR / "d4.gram"


def write_gram(path, rows):
    path.write_text(f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the keys of the summary rows a verify suite may print besides its checks
SUMMARY_KEYS = {"rules": [{"summary", "config"}],
                "sec33": [{"table", "n_max", "rows", "failed"},
                          {"table", "n_max", "rows", "failed", "exceptions"}]}


def check_rows(suite, out):
    """The check rows of ``verify --suite SUITE --json`` output ``out``,
    once every row is a check row of exactly the four keys, all text, or a
    summary row of ``SUMMARY_KEYS``, and the closing suite line reads FAIL
    exactly when some check row fails."""
    *rows, last = map(json.loads, out.splitlines())
    checks = [r for r in rows if "check" in r]
    for r in checks:
        assert list(r) == ["check", "predicted", "observed", "verdict"], r
        assert all(type(v) is str for v in r.values()), r
        assert r["verdict"] in Verdict.__members__, r
    for r in rows:
        assert "check" in r or set(r) in SUMMARY_KEYS.get(suite, []), r
    fails = any(Verdict[r["verdict"]].fails for r in checks)
    assert last == {"suite": suite, "verdict": "FAIL" if fails else "PASS"}
    return checks


class TestExpand:
    def test_delta_inverse(self, capsys):
        code, out, _ = run(capsys, "expand", "Delta^-1", "--prec", "3")
        assert code == 0
        assert out.strip() == "val -1: [1, 24, 324]"

    def test_g4(self, capsys):
        code, out, _ = run(capsys, "expand", "G(4)", "--prec", "2")
        assert code == 0
        assert out.strip() == "val 0: [1, 240]"

    def test_fraction_rendering(self, capsys):
        code, out, _ = run(capsys, "expand", "G(12)", "--prec", "2")
        assert code == 0
        assert "65520/691" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "expand", "j", "--prec", "2", "--json")
        data = json.loads(out)
        assert data["valuation"] == -1
        assert data["coefficients"] == ["1", "744"]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "expand", "Delta^0")
        assert code == 2
        assert "position" in err

    def test_bad_prec(self, capsys):
        code, _, err = run(capsys, "expand", "Delta", "--prec", "0")
        assert code == 2


class TestC0:
    def test_delta_inverse(self, capsys):
        code, out, _ = run(capsys, "c0", "Delta^-1")
        assert code == 0
        assert out.strip() == "24"

    def test_holomorphic(self, capsys):
        code, out, _ = run(capsys, "c0", "Delta")
        assert code == 0
        assert out.strip() == "0"


class TestDigitCap:
    # c0 of E(2,inf,400)^-60 has 7,242 digits, past CPython's default cap of
    # 4,300 on int-to-text conversion
    FORM = "E(2,inf,400)^-60"

    def test_c0_prints_every_digit(self, capsys):
        code, out, _ = run(capsys, "c0", self.FORM)
        assert code == 0
        assert re.fullmatch(r"\d{7242}\n", out)

    def test_expand_json_prints_every_digit(self, capsys):
        code, out, _ = run(capsys, "expand", self.FORM, "--prec", "61", "--json")
        assert code == 0
        assert len(json.loads(out)["coefficients"][60]) == 7242

    def test_survey_json_prints_every_digit(self, tmp_path, capsys, monkeypatch):
        import qgap.congruence

        monkeypatch.setattr(qgap.congruence, "constant_term", lambda expr, powers=None: 7**6000)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 1]}}]}))
        code, out, _ = run(capsys, "survey", str(cfg), "--json")
        c0 = json.loads(out.splitlines()[0])["c0"]
        assert code == 1
        assert re.fullmatch(r"\d{5071}", c0) and int(c0[-9:]) == 7**6000 % 10**9

    def test_oversized_inputs_still_exit_2(self, tmp_path, capsys):
        # after a command that printed past the cap, inputs are capped again
        assert run(capsys, "c0", self.FORM)[0] == 0
        big = "9" * 4301
        gram = write_gram(tmp_path / "big.gram", [[big, 0], [0, 2]])
        code, _, err = run(capsys, "theta", str(gram))
        assert code == 2
        assert err == f"error: {gram}:2: entry 1 has 4301 digits, over the limit of 4300\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"families": [{"template": "Delta^-{a}", "ranges": {"a": [1, %s]}}]}' % big)
        code, _, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert "4300" in err

    def test_oversized_gram_entry_reported_by_position(self, tmp_path, capsys):
        big = "9" * 5000
        gram = write_gram(tmp_path / "big.gram", [[2, 0, 0], [0, 2, 0], [0, f"-{big}", 2]])
        code, out, err = run(capsys, "minima", str(gram))
        assert code == 2 and out == ""
        assert err == f"error: {gram}:4: entry 2 has 5000 digits, over the limit of 4300\n"
        gram.write_text(f"2\n2 0\n0 2x{big}\n")
        code, _, err = run(capsys, "minima", str(gram))
        assert code == 2 and "not integers" in err


class TestWindowCap:
    """A window over ``forms.MAX_WINDOW`` exits 2 before anything is expanded."""

    @pytest.mark.parametrize("argv", [
        ("expand", "G(4)", "--prec", str(MAX_WINDOW + 1)),
        ("expand", "G(4)", "--prec", "100000000"),
        ("c0", f"Delta^-{MAX_WINDOW}"),
        ("c0", "Delta^-100000000"),
        ("theta", str(D4), "--terms", str(MAX_WINDOW)),
    ])
    def test_past_the_cap_exit_2_before_any_expansion(self, capsys, monkeypatch, argv):
        built = []
        monkeypatch.setattr(qgap.forms, "_expand", lambda gen, window: built.append(gen))
        code, out, err = run(capsys, *argv)
        assert (code, out, built) == (2, "", [])
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(f"coefficients is over the cap of {MAX_WINDOW}\n")

    def test_expand_at_the_cap(self, capsys):
        try:
            code, out, _ = run(capsys, "expand", "G(4)", "--prec", str(MAX_WINDOW))
        finally:
            memo.clear()  # leave no expansion of the cap's size behind
        assert code == 0
        assert out.startswith("val 0: [1, 240, 2160, ") and out.count(", ") == MAX_WINDOW - 1


class TestSurvey:
    def test_table(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 4]}}]
        }))
        code, out, _ = run(capsys, "survey", str(cfg))
        assert code == 0
        assert "Delta^-3" in out
        assert "PASS=4" in out

    def test_json_lines(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "families": [{"template": "j^{a}", "ranges": {"a": [1, 2]}}]
        }))
        code, out, _ = run(capsys, "survey", str(cfg), "--json")
        lines = out.strip().splitlines()
        assert code == 0
        records = [json.loads(x) for x in lines]
        assert records[0]["expr"] == "j^1"
        assert "summary" in records[-1]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "survey", "/nonexistent/cfg.json")
        assert code == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json }")
        code, _, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert ":1:" in err


    def test_error_record_does_not_abort_batch(self, tmp_path, capsys, monkeypatch):
        import qgap.congruence
        from qgap.forms import constant_term
        from qgap.series import DefectError

        def flaky(expr, powers=None):
            if str(expr) == "Delta^-3":
                raise DefectError("injected\nfault")
            return constant_term(expr, powers)

        monkeypatch.setattr(qgap.congruence, "constant_term", flaky)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "families": [{"template": "Delta^-{a}", "ranges": {"a": [1, 4]}}]
        }))
        code, out, _ = run(capsys, "survey", str(cfg), "--json")
        records = [json.loads(x) for x in out.strip().splitlines()]
        assert code == 1
        assert [r["verdict"] for r in records[:-1]] == ["PASS", "PASS", "ERROR", "PASS"]
        assert records[2]["c0"] is None
        assert "DefectError: injected" in records[2]["rules"][0]["observed"]
        assert records[-1]["summary"]["verdicts"] == {"PASS": 3, "ERROR": 1}

    def test_bad_template_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "families": [{"template": "Delta^-{a}*G(3)", "ranges": {"a": [1, 2]}}]
        }))
        code, _, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert "error:" in err

    def test_bad_template_in_a_later_family_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 3]}},
            {"template": "Delta^-{a}*G(3)", "ranges": {"a": [1, 2]}},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: survey family 1: position 11: expected a valid generator")

    def test_bad_instance_in_a_later_family_exit_2(self, tmp_path, capsys):
        # G(3) fails when k = 3 is bound, after the first batch has run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 3]}},
            {"template": "G({k})*Einf4^-{b}", "ranges": {"k": [2, 4, 1], "b": [1, 3]}},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert (code, out) == (2, "")
        assert "G(3)" in err

    @pytest.mark.parametrize("families, count", [
        ([{"template": "Delta^-{a}", "ranges": {"a": [1, 1000000000]}}],
         "1,000,000,000 instances before filters, 1,000,000,000 of them from this family"),
        ([{"template": "Delta^-{a}", "ranges": {"a": [1, 3]}},
          {"template": "G(4)^{a}*Delta^-{b}", "ranges": {"a": [1, 100000], "b": [1, 30000]}}],
         "3,000,000,003 instances before filters, 3,000,000,000 of them from this family"),
        # each family is under the cap, the two together are over it
        ([{"template": "Delta^-{a}", "ranges": {"a": [1, 600000]}},
          {"template": "G(4)*Delta^-{a}", "ranges": {"a": [1, 600000]}, "filters": ["a odd"]}],
         "1,200,000 instances before filters, 600,000 of them from this family"),
    ])
    def test_oversized_config_exit_2_before_any_batch_is_bound(self, tmp_path, capsys,
                                                               monkeypatch, families, count):
        from qgap.congruence import MAX_SURVEY_FORMS
        from qgap.exprs import Template

        bound = []
        monkeypatch.setattr(Template, "bind", lambda self, envs: bound.append(self))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": families}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert (code, out, bound) == (2, "", [])
        assert err == (f"error: survey family {len(families) - 1}: {count}, "
                       f"are over the cap of {MAX_SURVEY_FORMS:,}\n")

    def test_config_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        code, _, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert err.startswith("error: ") and "'families'" in err

    def test_template_variable_missing_from_ranges_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 2]}},
            {"template": "Delta^-{b}", "ranges": {"a": [1, 2]}},
        ]}))
        code, _, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert err.startswith("error: survey family 1: ") and "'b'" in err

    def test_range_key_missing_from_template_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 2]}},
            {"template": "Delta^-{a}", "ranges": {"a": [1, 3], "b": [1, 2]}},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error: survey family 1: ") and "'b'" in err

    def test_empty_range_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 2]}},
            {"template": "Delta^-{a}", "ranges": {"a": [5, 1]}},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error: survey family 1: ")
        assert "empty" in err

    def test_misspelt_family_key_exit_2_before_any_form(self, tmp_path, capsys, monkeypatch):
        import qgap.congruence

        monkeypatch.setattr(qgap.congruence, "constant_term",
                            lambda expr, powers=None: pytest.fail("evaluated a form"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 2]}},
            {"template": "Delta^-{a}", "ranges": {"a": [1, 4]}, "filter": ["a odd"]},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error: survey family 1: unknown key 'filter'")

    def test_misspelt_config_key_exit_2_before_any_form(self, tmp_path, capsys, monkeypatch):
        import qgap.congruence

        monkeypatch.setattr(qgap.congruence, "constant_term",
                            lambda expr, powers=None: pytest.fail("evaluated a form"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nmae": "x", "families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 4]}}]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error: unknown key 'nmae'")

    @pytest.mark.parametrize("filt, word", [
        ("b odd", "'b'"), ("a % 0 == 1", "modulus 0"), ("a % 3 == 1, 2", "unsupported"),
        ("a % 3 in ,", "got []"), ("a % 3 in {}", "got []"), ("a % 3 == 7", "got [7]"),
        ("a % 3 in 0, 5", "got [0, 5]"), ("aodd", "unsupported"),
        ("a % 3 in 0,,2", "unsupported"), ("a % 3 in {0, 2", "unsupported"),
        ("a % 3 in }0{", "unsupported"),
    ])
    def test_bad_filter_exit_2_even_when_nothing_survives(self, tmp_path, capsys, filt, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [2, 2]},
             "filters": ["a odd", filt]},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg))
        assert code == 2
        assert out == "" and err.startswith("error: survey family 0: ") and word in err


@pytest.mark.parametrize("argv", [
    ("survey", "cfg.json", "--jobs", "2"),
    ("survey", "cfg.json", "--jobs", "1"),
    ("survey", "cfg.json", "--jobs", "0"),
    ("verify", "--suite", "rules", "--jobs", "2"),
    ("verify", "--suite", "rules", "--jobs", "-1"),
    ("verify", "--suite", "rules", "--jobs", "two"),
    ("verify", "--suite", "rules", "--jobs", "1.5"),
    ("verify", "--suite", "identities", "--jobs", "2"),
    ("verify", "--suite", "satz", "--jobs", "2"),
    ("verify", "--suite", "theorems4", "--jobs", "2"),
    ("verify", "--suite", "sec33", "--jobs", "2"),
])
def test_jobs_is_no_option_exit_2(tmp_path, capsys, monkeypatch, argv):
    """Every survey runs in one process; argparse refuses ``--jobs`` with any
    value, the old default 1 included, on every subcommand that once took it
    and on every suite."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"families": [
        {"template": "Delta^-{a}", "ranges": {"a": [1, 2]}}]}))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --jobs {argv[-1]}\n" in captured.err
    assert "Traceback" not in captured.err


class TestInternalError:
    @pytest.mark.parametrize("exc", [
        "DefectError", "ZeroDivisionError", "RuntimeError",
    ])
    def test_exit_3_one_line_no_traceback(self, capsys, monkeypatch, exc):
        import builtins

        import qgap.cli
        from qgap.series import DefectError

        cls = DefectError if exc == "DefectError" else getattr(builtins, exc)

        def broken(args):
            raise cls("something\nbroke")

        monkeypatch.setattr(qgap.cli, "_cmd_c0", broken)
        code, out, err = run(capsys, "c0", "Delta^-1")
        assert code == 3
        assert out == ""
        assert err == f"internal error: {exc}: something broke\n"
        assert "Traceback" not in err

    def test_bad_input_still_exit_2(self, capsys):
        code, _, err = run(capsys, "c0", "Delta^")
        assert code == 2
        assert err.startswith("error: ")


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_exit_141_and_nothing_on_stderr(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(qgap.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "qgap.cli", "verify", "--suite", "identities"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # the reader is gone before qgap prints a line
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


class TestGap:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "gap", "--hmax", "8", "--combos", "2")
        assert code == 0
        assert "seed=" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gap", "--hmax", "6", "--combos", "1",
                           "--json")
        lines = [json.loads(x) for x in out.strip().splitlines()]
        assert code == 0
        assert lines[0]["verdict"] == "PASS"
        assert lines[-1]["failed"] == 0

    def test_negative_combos_exit_2(self, capsys):
        code, out, err = run(capsys, "gap", "--combos", "-1")
        assert code == 2
        assert out == "" and err.startswith("error: ") and "combos" in err

    def test_hmax_below_first_weight_exit_2(self, capsys):
        for argv in (("--hmax", "1"), ("--level", "1", "--hmax", "3")):
            code, out, err = run(capsys, "gap", *argv)
            assert code == 2
            assert out == "" and err.startswith("error: ") and "hmax" in err


class TestThetaMinima:
    def test_theta(self, capsys):
        code, out, _ = run(capsys, "theta", str(D4), "--terms", "3")
        assert code == 0
        assert out.splitlines() == ["0\t1", "1\t24", "2\t24", "3\t96"]

    def test_minima(self, capsys):
        code, out, _ = run(capsys, "minima", str(D4))
        assert code == 0
        assert out.strip() == "min=2 bound=4 PASS"

    def test_minima_not_applicable(self, tmp_path, capsys):
        gram = tmp_path / "a1.gram"
        gram.write_text("1\n2\n")
        code, out, _ = run(capsys, "minima", str(gram))
        assert code == 0
        assert "NOT_APPLICABLE" in out

    def test_rank_cap(self, tmp_path, capsys):
        rows = ["17"] + [" ".join("2" if i == j else "0" for j in range(17))
                         for i in range(17)]
        gram = tmp_path / "big.gram"
        gram.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "theta", str(gram), "--terms", "1")
        assert code == 2
        assert "max-rank" in err

    def test_minima_rank_cap(self, tmp_path, capsys):
        gram = write_gram(tmp_path / "big.gram",
                          [[2 if i == j else 0 for j in range(17)] for i in range(17)])
        code, out, err = run(capsys, "minima", str(gram))
        assert (code, out) == (2, "")
        assert err == "error: rank 17 exceeds the cap 16; raise it with --max-rank\n"

    def test_minima_max_rank_raises_the_cap(self, tmp_path, capsys):
        gram = write_gram(tmp_path / "big.gram",
                          [[2 if i == j else 0 for j in range(17)] for i in range(17)])
        code, out, _ = run(capsys, "minima", str(gram), "--max-rank", "17")
        assert code == 0
        assert out.strip() == "min=2 bound=n/a NOT_APPLICABLE"

    @pytest.mark.parametrize("command", ["theta", "minima"])
    def test_rank_cap_refused_before_elimination(self, tmp_path, capsys, command):
        # a tridiagonal rank-400 form: validating it took 12.6 s before the
        # cap was checked at the rank line
        rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(400)]
                for i in range(400)]
        gram = write_gram(tmp_path / "big.gram", rows)
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(gram))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: rank 400 exceeds the cap 16; raise it with --max-rank\n"

    def test_theta_over_budget_exit_2_fast(self, tmp_path, capsys):
        # E6 (level 3) takes the enumeration route, whose budget binds
        gram = write_gram(tmp_path / "e6.gram", E6)
        start = time.perf_counter()
        code, out, err = run(capsys, "theta", str(gram), "--terms", "100")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == "" and err.startswith("error: ") and "2.39e+07" in err

    def test_theta_e8_to_200_terms(self, tmp_path, capsys):
        from qgap.arith import sigma

        gram = write_gram(tmp_path / "e8.gram", E8)
        start = time.perf_counter()
        code, out, _ = run(capsys, "theta", str(gram), "--terms", "200")
        assert time.perf_counter() - start < 1
        assert code == 0
        want = [1] + [240 * sigma(n, 3) for n in range(1, 201)]
        assert out.splitlines() == [f"{n}\t{c}" for n, c in enumerate(want)]

    @pytest.mark.parametrize("rows, below, above, line", [
        (E8, 3, 2, "min=2 bound=4 PASS"),
        (E6, 9, 7, "min=2 bound=n/a NOT_APPLICABLE"),
    ], ids=["E8", "E6"])
    def test_minima_skewed_basis(self, tmp_path, capsys, rows, below, above, line):
        gram = write_gram(tmp_path / "skewed.gram", skewed(rows, below, above))
        start = time.perf_counter()
        code, out, _ = run(capsys, "minima", str(gram))
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.strip() == line

    def test_gram_error_line_number(self, tmp_path, capsys):
        gram = tmp_path / "bad.gram"
        gram.write_text("2\n2 0\n0 x\n")
        code, _, err = run(capsys, "theta", str(gram))
        assert code == 2
        assert ":3:" in err


class TestVerify:
    def test_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "suite identities: PASS" in out

    def test_theorems4_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorems4", "--json")
        lines = [json.loads(x) for x in out.strip().splitlines()]
        assert code == 0
        assert lines[-1] == {"suite": "theorems4", "verdict": "PASS"}

    def test_rules_failure_lines_are_plain_text(self, capsys, monkeypatch):
        import qgap.congruence

        monkeypatch.setattr(qgap.congruence, "constant_term", lambda expr, powers=None: 3)
        code, out, _ = run(capsys, "verify", "--suite", "rules")
        assert code == 1
        assert "<Verdict." not in out
        assert out.splitlines()[1] == "FAIL: Delta2^-1 2a ord2=3 ord2=0 FAIL"
        # the whole text, byte for byte: the summary, the first 20 failing
        # forms and the suite line
        assert len(out.splitlines()) == 22
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "15269757f3d891e4a1e25bb95543e0df2ba6feb8c6c5b43d062208674551466e")

    def test_satz(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "satz")
        assert code == 0
        assert "suite satz: PASS" in out

    @pytest.mark.parametrize("suite", ["identities", "satz", "theorems4", "rules", "sec33"])
    def test_json_rows_are_checks_or_summaries(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--json")
        checks = check_rows(suite, out)
        # a passing rules or sec33 run prints its summary rows alone
        assert (code, bool(checks)) == (0, suite not in SUMMARY_KEYS)

    def test_satz_json_rows_observe_c0(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "satz", "--json")
        checks = check_rows("satz", out)
        t2 = [r for r in checks if "T2(" in r["check"]]
        assert code == 0 and len(t2) == 20
        assert all(r["observed"] == "0" for r in checks if r["check"].startswith("vanishing"))
        for r in t2:
            h = int(re.search(r"T2\((\d+)\)", r["check"]).group(1))
            # c0[T2(h)] by the text route, not the suite's own series read
            assert r["observed"] == str(constant_term(f"T2({h})")), r

    def test_rules_failure_json_rows(self, capsys, monkeypatch):
        import qgap.congruence

        monkeypatch.setattr(qgap.congruence, "constant_term", lambda expr, powers=None: 3)
        code, out, _ = run(capsys, "verify", "--suite", "rules", "--json")
        checks = check_rows("rules", out)
        assert code == 1
        assert checks[0] == {"check": "Delta2^-1 2a", "predicted": "ord2=3",
                             "observed": "ord2=0", "verdict": "FAIL"}
        assert [r["check"] for r in checks] == [f"Delta2^-{a} 2a" for a in range(1, 21)]

    def test_rules_failure_json_rows_leave_out_passing_clauses(self, capsys, monkeypatch):
        import qgap.congruence

        # c0 = 8 keeps Delta^-1's clause 1a (ord2=3) and breaks 1c (ord3=1)
        real = qgap.congruence.constant_term
        monkeypatch.setattr(qgap.congruence, "constant_term", lambda expr, powers=None:
                            8 if str(expr) == "Delta^-1" else real(expr, powers))
        code, out, _ = run(capsys, "verify", "--suite", "rules")
        assert (code, out.splitlines()[1:]) == (1, [
            "FAIL: Delta^-1 1a ord2=3 ord2=3 PASS; 1c ord3=1,sign=- ord3=0,sign=-1 FAIL",
            "suite rules: FAIL"])
        code, out, _ = run(capsys, "verify", "--suite", "rules", "--json")
        assert code == 1
        assert check_rows("rules", out) == [{"check": "Delta^-1 1c", "predicted": "ord3=1,sign=-",
                                             "observed": "ord3=0,sign=-1", "verdict": "FAIL"}]

    SEC33_DESK_TEXT = {"delta_2n": "delta_2n (n<=512): 513 rows, 0 failed",
                       "delta_3n": "delta_3n (n<=512): 513 rows, 0 failed",
                       "delta_5n": "delta_5n (n<=512): 513 rows, 0 failed",
                       "reciprocal": "reciprocal (n<=512): 1536 rows, 0 failed",
                       "lehner": "lehner (n<=512): 601 rows, 0 failed"}

    # each case: the patched table function, its rows, the text lines that
    # change, and the (check, predicted, observed) of the check rows
    @pytest.mark.parametrize("function, fake, text, checks", [
        ("delta_pn_compare",
         lambda p, n_max: [{"n": 2, "p": p, "ord_j": "0", "ord_inv_delta": "0", "delta_pn": 0,
                            "predicted": 4, "verdict": Verdict.FAIL}],
         {f"delta_{p}n": f"delta_{p}n (n<=512): 1 rows, 1 failed" for p in (2, 3, 5)},
         [(f"delta_{p}n n=2 p={p}", "4", "0") for p in (2, 3, 5)]),
        ("reciprocal_compare",
         lambda n_max: [{"n": 3, "p": 2, "ord_inv_j": "5", "ord_delta": "3",
                         "verdict": Verdict.FAIL}],
         {"reciprocal": "reciprocal (n<=512): 1 rows, 1 failed"},
         [("reciprocal n=3 p=2", "3", "5")]),
        # 25 failing rows: the first 20 become check rows
        ("lehner_check",
         lambda n_max: [{"n": n, "p": 2, "alpha": 1, "required": 11, "ord": "3",
                         "verdict": Verdict.FAIL} for n in range(2, 52, 2)],
         {"lehner": "lehner (n<=512): 25 rows, 25 failed"},
         [(f"lehner n={n} p=2", "11", "3") for n in range(2, 42, 2)]),
    ], ids=["delta", "reciprocal", "lehner"])
    def test_sec33_failure_json_rows(self, capsys, monkeypatch, function, fake, text, checks):
        import qgap.congruence

        monkeypatch.setattr(qgap.congruence, function, fake)
        code, out, _ = run(capsys, "verify", "--suite", "sec33")
        assert code == 1
        assert out.splitlines() == [*{**self.SEC33_DESK_TEXT, **text}.values(), "suite sec33: FAIL"]
        code, out, _ = run(capsys, "verify", "--suite", "sec33", "--json")
        assert code == 1
        assert check_rows("sec33", out) == [
            {"check": c, "predicted": p, "observed": o, "verdict": "FAIL"} for c, p, o in checks]

    @pytest.mark.parametrize("suite", ["identities", "satz", "theorems4"])
    def test_full_without_paper_scale_exit_2(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--full")
        assert (code, out) == (2, "")
        assert err.startswith("error: suite ") and suite in err


GOLDEN = golden.load()


def _argv_id(entry):
    return " ".join(entry["argv"])


# every desk-tier entry of tests/golden/golden.json; `python tests/golden.py`
# runs the paper tier
@pytest.mark.parametrize("entry", [e for e in GOLDEN if not golden.is_paper(e)],
                         ids=_argv_id)
def test_golden_output(entry):
    golden.check(entry)


@pytest.mark.parametrize("entry", [e for e in GOLDEN if golden.is_paper(e)],
                         ids=_argv_id)
def test_golden_paper_argv_parses_and_names_existing_files(entry):
    # the paper tier runs only in CI, so a typo in its argv fails here first
    args = _build_parser().parse_args(entry["argv"])
    for name in ("config", "gram"):
        if hasattr(args, name):
            assert (golden.GOLDEN_DIR / getattr(args, name)).is_file()


def test_golden_duplicate_argv_rejected(tmp_path):
    manifest = tmp_path / "golden.json"
    manifest.write_text(json.dumps([{"argv": ["c0", "Delta"], "sha256": "0"}] * 2))
    with pytest.raises(ValueError, match="duplicate argv: c0 Delta"):
        golden.load(manifest)


def test_golden_mismatch_names_argv_and_both_digests():
    entry = {"argv": ["c0", "Delta^-1"], "sha256": "0" * 64}
    with pytest.raises(AssertionError) as info:
        golden.check(entry)
    assert str(info.value) == (f"qgap c0 Delta^-1: sha256 {golden.digest(entry['argv'])}, "
                               f"pinned {'0' * 64}")


def test_golden_nonzero_exit_fails():
    with pytest.raises(AssertionError, match=r"qgap c0 Delta\^: exit 2"):
        golden.digest(["c0", "Delta^"])


def test_golden_desk_config_is_desk_rules_config():
    # the README's claim: rules-desk.json is desk_rules_config() written out
    from qgap.congruence import desk_rules_config

    path = golden.GOLDEN_DIR / "rules-desk.json"
    assert json.loads(path.read_text(encoding="utf-8")) == desk_rules_config()
