"""Self-checks of the benchmark: each oracle accepts a true output and
rejects a corrupted one, and the span arithmetic charges each layer its own
time only."""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SURVEY_LINES = [("Delta^-1", "744", "PASS"), ("j^2", "-196884", "PASS")]


def _survey_ref():
    return {"items": 2, "sha256": oracles.survey_digest(SURVEY_LINES)}


def test_survey_oracle_accepts_reference():
    assert oracles.check_survey(SURVEY_LINES, _survey_ref())[:2] == (2, 0)


def test_survey_oracle_rejects_changed_c0_digit():
    bad = [SURVEY_LINES[0], ("j^2", "-196885", "PASS")]
    attempted, failed, notes = oracles.check_survey(bad, _survey_ref())
    assert (attempted, failed, notes["digest_ok"]) == (2, 2, False)


def test_survey_oracle_rejects_non_pass_and_missing_records():
    ref = _survey_ref()
    ref["sha256"] = oracles.survey_digest([SURVEY_LINES[0], ("j^2", "-196884", "FAIL")])
    assert oracles.check_survey([SURVEY_LINES[0], ("j^2", "-196884", "FAIL")], ref)[1] == 1
    assert oracles.check_survey(SURVEY_LINES[:1], _survey_ref())[1] == 2


def _table_rows():
    return [
        ("delta_pn", {"n": 4, "p": 2, "ord_j": 0, "ord_inv_delta": 0, "delta_pn": 7,
                      "predicted": 7, "verdict": "PASS"}),
        ("delta_pn", {"n": 25, "p": 5, "ord_j": 0, "ord_inv_delta": 0, "delta_pn": 3,
                      "predicted": 2, "verdict": "EXCEPTION"}),
        ("delta_pn", {"n": 8, "p": 3, "ord_j": 0, "ord_inv_delta": 0, "delta_pn": 4,
                      "predicted": None, "verdict": "RECORDED"}),
        ("reciprocal", {"n": 6, "p": 3, "ord_inv_j": 2, "ord_delta": 2, "verdict": "PASS"}),
        ("reciprocal", {"n": 8, "p": 5, "ord_inv_j": 0, "ord_delta": 1,
                        "verdict": "NOT_APPLICABLE"}),
        ("lehner", {"n": 8, "p": 2, "alpha": 3, "required": 17, "ord": 20, "verdict": "PASS"}),
    ]


def test_tables_oracle_accepts_and_records_p5_exceptions():
    rows = _table_rows()
    attempted, failed, notes = oracles.check_tables(rows, {"items": len(rows)})
    assert (attempted, failed, notes["p5_exceptions"]) == (6, 0, 1)


def test_tables_oracle_rejects_corrupted_rows():
    for index, field, value in [(0, "delta_pn", 8), (0, "predicted", 6),
                                (3, "ord_delta", 3), (5, "ord", 16),
                                (5, "required", 16), (2, "verdict", "PASS")]:
        rows = _table_rows()
        rows[index][1][field] = value
        assert oracles.check_tables(rows, {"items": len(rows)})[1] == 1, (index, field)


def test_theta_oracles_match_known_counts():
    # norms 2, 4, 6, 8: 240 roots of E8, 24 of D4; D4+D4 is D4 squared.
    assert oracles.theta_e8(4) == [1, 240, 2160, 6720, 17520]
    assert oracles.theta_d4(4) == [1, 24, 24, 96, 24]
    assert oracles.theta_d4d4(2) == [1, 48, 624]


def _lattice_result(counts=None):
    counts = counts or oracles.theta_e8(4)
    return [("E8", 4, counts, {"rank": 8, "level": 1, "min": 2, "bound": 4,
                               "verdict": "PASS"})]


def test_lattice_oracle_rejects_off_by_one_theta_count():
    assert oracles.check_lattice(_lattice_result(), {"items": 1})[:2] == (1, 0)
    counts = oracles.theta_e8(4)
    counts[3] += 1
    assert oracles.check_lattice(_lattice_result(counts), {"items": 1})[1] == 1


def test_lattice_oracle_rejects_wrong_minimum_record():
    result = _lattice_result()
    result[0][3]["min"] = 4
    assert oracles.check_lattice(result, {"items": 1})[1] == 1


def _pairing_out():
    return {
        "vanishing": [{"level": 1, "weight": 12, "c0": 0, "verdict": "PASS"}],
        "signs": [{"weight": 8, "dim": 3, "c0": Fraction(5, 2), "expected_sign": "+",
                   "verdict": "PASS"}],
        "gaps": [{"weight": 6, "level": 2, "dim": 2, "bound": 4, "form": "f",
                  "first_nonzero_index": 3, "verdict": "PASS"}],
        "theorem4": [{"theorem": "4.1", "verdict": "PASS"}],
    }


def test_pairing_oracle_accepts_true_checks():
    assert oracles.check_pairing(_pairing_out(), {"items": 4})[:2] == (4, 0)


def test_pairing_oracle_rejects_corrupted_checks():
    for key, field, value in [("vanishing", "c0", 1), ("signs", "c0", -3),
                              ("gaps", "first_nonzero_index", 5),
                              ("theorem4", "verdict", "FAIL")]:
        out = _pairing_out()
        out[key][0][field] = value
        assert oracles.check_pairing(out, {"items": 4})[1] == 1, key
    assert oracles.check_pairing(_pairing_out(), {"items": 5})[1] == 1


def test_lattice_inputs_are_seeded_changes_of_basis():
    a = workloads.make_inputs("lattice", 7, 0)
    assert a == workloads.make_inputs("lattice", 7, 0)
    assert a != workloads.make_inputs("lattice", 8, 0)
    assert a != workloads.make_inputs("lattice", 7, 1)
    for (name, rows, _), (_, original, _) in zip(a, workloads.LATTICES):
        assert sorted(map(abs, sum(rows, ()))) == sorted(map(abs, sum(original, ())))
        assert sorted(rows[i][i] for i in range(len(rows))) == sorted(
            original[i][i] for i in range(len(original)))


def test_schoolbook_products_matches_direct_count():
    for la in range(0, 6):
        for lb in range(0, 6):
            for n_out in range(0, 9):
                direct = sum(min(lb, n_out - i) for i in range(min(la, n_out)))
                assert tracing._schoolbook_products(la, lb, n_out) == direct


def test_self_time_excludes_child_spans(tmp_path):
    tracer = tracing.Tracer(pass_id=0)
    child = tracer._wrap(tracer.names.index("series.invert"),
                         lambda: time.sleep(0.2), None)

    def outer():
        time.sleep(0.02)
        child()

    tracer._wrap(tracer.names.index("series.mul"), outer, None)()
    path = tmp_path / "spans"
    tracer.write(path, {"workload": "test"})
    out = tracing.summarize(path)
    assert out["series.mul.calls"] == out["series.invert.calls"] == 1
    assert out["series.invert.self_s"] >= 0.2
    assert 0.02 <= out["series.mul.self_s"] < 0.2
