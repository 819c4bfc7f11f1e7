import hashlib
import json
import re
import time

import pytest

from qgap.cli import main
from qgap.quadratic import E8
from test_quadratic import E6, skewed

D4_GRAM = "4\n2 -1 0 0\n-1 2 -1 -1\n0 -1 2 0\n0 -1 0 2\n"


def write_gram(path, rows):
    path.write_text(f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_template_with_workers_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 3]}},
            {"template": "Delta^-{a}*G(3)", "ranges": {"a": [1, 2]}},
        ]}))
        code, out, err = run(capsys, "survey", str(cfg), "--jobs", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: survey family 1: position 11: expected a valid generator")

    def test_bad_instance_with_workers_matches_serial(self, tmp_path, capsys):
        # G(3) fails when k = 3 is bound, in the worker that runs its batch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 3]}},
            {"template": "G({k})*Einf4^-{b}", "ranges": {"k": [2, 4, 1], "b": [1, 3]}},
        ]}))
        serial = run(capsys, "survey", str(cfg), "--jobs", "1")
        assert serial[0] == 2
        assert "G(3)" in serial[2]
        assert run(capsys, "survey", str(cfg), "--jobs", "2") == serial

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


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ("survey", "cfg.json", "--jobs", "0"),
        ("verify", "--suite", "theorems4", "--jobs", "-1"),
    ])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"families": [
            {"template": "Delta^-{a}", "ranges": {"a": [1, 2]}}]}))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "jobs" in err

    @pytest.mark.parametrize("value", ["two", "1.5", ""])
    def test_non_integer_env_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QGAP_JOBS", value)
        code, out, err = run(capsys, "verify", "--suite", "theorems4")
        assert code == 2
        assert out == "" and err.startswith("error: QGAP_JOBS")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QGAP_JOBS", "two")
        code, out, _ = run(capsys, "verify", "--suite", "theorems4", "--jobs", "1")
        assert code == 0 and out.endswith("suite theorems4: PASS\n")


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
    def test_theta(self, tmp_path, capsys):
        gram = tmp_path / "d4.gram"
        gram.write_text(D4_GRAM)
        code, out, _ = run(capsys, "theta", str(gram), "--terms", "3")
        assert code == 0
        assert out.splitlines() == ["0\t1", "1\t24", "2\t24", "3\t96"]

    def test_minima(self, tmp_path, capsys):
        gram = tmp_path / "d4.gram"
        gram.write_text(D4_GRAM)
        code, out, _ = run(capsys, "minima", str(gram))
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

    def test_satz(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "satz")
        assert code == 0
        assert "suite satz: PASS" in out


# sha256 of stdout for commands whose output must stay byte-identical
GOLDEN = {
    ("verify", "--suite", "identities"):
        "9eaf11c602db7964ba4047069e2c02013aac83aa8f1d2bdbb1a4294a23876755",
    ("verify", "--suite", "identities", "--json"):
        "684046b39616e84f54cac765361ab8b0fdb49cb949750065e157a07b81f9c133",
    ("verify", "--suite", "satz"):
        "802d8a24b2138f51c3b79f8a96c145c206036f338b82425b77c9cdca49c47b4f",
    ("verify", "--suite", "satz", "--json"):
        "39a0b66ef672759e8406b924122d34f6d3d7490764e4622d54f517a1c17f570b",
    ("verify", "--suite", "theorems4"):
        "4324c963ee9187d03b1296510841452b58d82ad755e580671161efd0895d0f0b",
    ("verify", "--suite", "theorems4", "--json"):
        "56973c3012a06ca2c195d7255107d17dac7cdbe91b51a64fc772f65a1b87306a",
    ("verify", "--suite", "rules"):
        "95d6def75475d97c768eef152681f99929cf30adf9dcf14c02ffa99092672434",
    ("verify", "--suite", "rules", "--json"):
        "dd2b99c758e2a944e75d9c845e5e65f3cbb4ea3c5fd4bb6be89740a408eac25f",
    ("verify", "--suite", "sec33"):
        "6727fee499739168f6a7a67067e4625fe35c8150731db79221c581b3e5f066b4",
    ("verify", "--suite", "sec33", "--json"):
        "6effa145ba1298e3e594d4b47ed09eab25349ff190587c234798a85fb073474d",
    ("gap", "--hmax", "8", "--combos", "2"):
        "1fd34656dadedc002591d1bc0aceab272320011758538a1c13d6f42c39f63f0b",
    ("gap", "--hmax", "8", "--combos", "2", "--json"):
        "9c85bac0b83c7cd0f4897f16434b70bee3962b8797da93801bc26a3e6f45b9f7",
    ("minima", "{d4}"):
        "7ca34117cd745dfa48015a71ad9e2f00e9f92a50954bd905dc40b0d1a5e3b652",
    ("theta", "{d4}", "--terms", "3"):
        "1baa2cc343e2792e48437fd0a404079d01a4508a6a4429a99bef6a41332dbcf2",
    ("c0", "Delta^-1"):
        "68ca3fba3b7e864770cb61aeb306d4bd4354b68ab4dd38450860c5d823e42a53",
    ("expand", "G(12)", "--prec", "3"):
        "38cea9290686160695dfb9e9455c98ba7e3f930ee5f7240c0010f650c6b50181",
    ("expand", "G(12)", "--prec", "3", "--json"):
        "ea966a28b6097114065f4fcbe604e591344267efa28145483e767378e9fd4d7c",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_golden_output(argv, tmp_path, capsys):
    gram = tmp_path / "d4.gram"
    gram.write_text(D4_GRAM)
    code, out, _ = run(capsys, *(a.format(d4=gram) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


# sha256 of `qgap gap --hmax 120 --json` stdout at each level: every record
# of the on-demand suite equals the full-window suite's
GOLDEN_GAP = {
    "1": "27166b0930b9ad5d6eeda519639d92f5811dc4b0763b874d668379e8ee2cd76e",
    "2": "245775ff822456c752732a04b9f41a750f3c0e62a2dc52c14aab121cf0f3976b",
}


@pytest.mark.parametrize("level", sorted(GOLDEN_GAP))
def test_golden_gap_hmax120(level, capsys):
    code, out, _ = run(capsys, "gap", "--level", level, "--hmax", "120", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GAP[level]


# one family per survey clause (1a-1f, 2a/2b, 3c-3f), per deviation window
# (dev-3-1 .. dev-3-4), and per NOT_APPLICABLE record (no pole, conductor 6)
GOLDEN_SURVEY_CONFIG = {"name": "golden", "families": [
    {"template": t, "ranges": r} for t, r in (
        ("Delta^-{a}", {"a": [1, 4]}),
        ("G(6)*Delta^-{a}", {"a": [1, 3]}),
        ("G(4)*Delta^-{a}", {"a": [1, 3]}),
        ("G(8)*Delta^-{a}", {"a": [1, 3]}),
        ("Delta2^-{a}", {"a": [1, 3]}),
        ("E(2,inf,6)^-{a}", {"a": [1, 3]}),
        ("phi(3)^-{a}", {"a": [1, 3]}),
        ("G(4)*Phi(3)^-{a}", {"a": [1, 3]}),
        ("G(2)*Phi(3)^-{a}", {"a": [1, 3]}),
        ("E(2,inf,8)^-{a}", {"a": [1, 3]}),
        ("E(3,inf,6)^-{a}", {"a": [1, 3]}),
        ("E(3,inf,8)^-{a}", {"a": [1, 4]}),
        ("G({k})", {"k": [4, 6, 2]}),
        ("phi(2)^-1*phi(3)^-{a}", {"a": [1, 2]}),
    )
]}

# sha256 of `qgap survey` stdout on GOLDEN_SURVEY_CONFIG, the --json
# summary line's timestamp dropped
GOLDEN_SURVEY = {
    ():
        "902ce5a1c9f1d8110da777f58e931947351da795b429230fc526cf8fc90c5561",
    ("--json",):
        "45b2590cd4852361e2fa92318838e215a431e038447de465039f57dab71574ba",
}


@pytest.mark.parametrize("flags", sorted(GOLDEN_SURVEY), ids=" ".join)
def test_golden_survey_output(flags, tmp_path, capsys):
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_SURVEY_CONFIG))
    code, out, _ = run(capsys, "survey", str(cfg), *flags)
    assert code == 0
    out = re.sub(r', "timestamp": "[^"]*"\}$', "}", out, flags=re.M)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SURVEY[flags]
