import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gap_oracle
import satz_oracle
import qgap.siegel
from qgap.catalog import Generator, dim_m, gap_bounds, pairing_generator
from qgap.forms import (FactorPowers, basis_m1, basis_m2, eisenstein_g, generator_series,
                        t_series)
from qgap.series import QSeries, ReachError
from qgap.siegel import (
    _basis_pairings,
    constant_term_t2,
    gap_check,
    run_gap_suite,
    run_satz_suite,
    satz1_check,
    theorem4_checks,
)


class TestSatz1:
    def test_level2_einf4(self):
        einf = generator_series(Generator("Einf4"), 8)
        assert satz1_check(2, 4, einf)["verdict"] == "PASS"

    def test_level1_g4(self):
        g4 = eisenstein_g(4, 6)
        assert satz1_check(1, 4, g4)["verdict"] == "PASS"

    def test_h0_rejected(self):
        with pytest.raises(ValueError, match=r"^T\(h\) needs even h > 2, got T\(2\)$"):
            satz1_check(1, 2, QSeries.one(5))

    def test_insufficient_reach(self):
        einf = generator_series(Generator("Einf4"), 2)
        with pytest.raises(ReachError):
            satz1_check(2, 40, einf)

    def test_nonholomorphic_rejected(self):
        with pytest.raises(ValueError):
            satz1_check(2, 4, QSeries.monomial(-1, 8))


class TestConstantTermT2:
    def test_h4_sign_negative(self):
        rec = constant_term_t2(4)  # r = 2: sign (-1)^3
        assert rec["c0"] == -240
        assert rec["verdict"] == "PASS"

    def test_h8_sign_positive(self):
        rec = constant_term_t2(8)  # r = 3: sign (-1)^4
        assert rec["c0"] > 0
        assert rec["verdict"] == "PASS"

    def test_h12_congruence(self):
        # h = 12 = 2^4 - 4: c0 = 16 mod 32
        c0 = t_series(2, 12, dim_m(2, 12) + 2).coeff(0)
        assert int(c0) % 32 == 16

    def test_rejects_h2mod4(self):
        with pytest.raises(ValueError):
            constant_term_t2(6)


class TestGapBounds:
    @pytest.mark.parametrize("h", range(0, 129, 2))
    def test_level2(self, h):
        r = h // 4 + 1
        want = (r, r, None) if h % 4 == 0 else (r, 2 * r, r + 1)
        assert gap_bounds(2, h) == want

    @pytest.mark.parametrize("h", range(0, 129, 2))
    def test_level1(self, h):
        assert gap_bounds(1, h) == (dim_m(1, h),) * 2 + (None,)


class TestGapCheck:
    def test_egamma2(self):
        eg = generator_series(Generator("Egamma2"), 6)
        (res,) = gap_check(2, [eg])
        assert res.bound == 2  # 2*r(2,2)
        assert res.first_nonzero_index == 1
        assert res.verdict == "PASS"

    def test_e04(self):
        e04 = generator_series(Generator("E04"), 6)
        (res,) = gap_check(4, [e04])
        assert res.bound == 2  # r(2,4)
        assert res.first_nonzero_index == 1
        assert res.verdict == "PASS"

    def test_g4_as_level2_form(self):
        g4 = eisenstein_g(4, 6)
        (res,) = gap_check(4, [g4])
        assert res.first_nonzero_index == 1

    def test_zero_constant_term_rejected(self):
        einf = generator_series(Generator("Einf4"), 8)
        with pytest.raises(ValueError):
            gap_check(4, [einf])

    def test_conjectured_bound_reported_only(self):
        eg = generator_series(Generator("Egamma2"), 6)
        (res,) = gap_check(2, [eg])
        assert res.conjectured_bound == 2  # r + 1
        assert res.within_conjectured is True

    def test_worst_case_form_needs_full_bound(self):
        # j2^0 E_inf4^(r-1) + tweaked combos can push the first index up to
        # r; the basis element with valuation r-1 has constant term 0, so
        # instead check a crafted form 1 + q^r at weight h = 4r - 4
        h, r = 12, dim_m(2, 12)
        f = QSeries(0, [1] + [0] * (r - 1) + [1] + [0] * 3)
        (res,) = gap_check(h, [f])
        assert res.first_nonzero_index == r
        assert res.verdict == "PASS"

    def test_short_reach_with_nonzero_q1_decides(self):
        h, r = 12, dim_m(2, 12)
        f = QSeries(0, [1, 5])
        assert f.reach <= r
        (res,) = gap_check(h, [f])
        assert (res.first_nonzero_index, res.verdict) == (1, "PASS")

    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c", "d"], []])
    def test_one_id_per_form(self, ids):
        eg = generator_series(Generator("Egamma2"), 6)
        with pytest.raises(ValueError, match=f"^{len(ids)} form ids for 3 forms$"):
            gap_check(2, [eg, eg, eg], form_ids=ids)
        assert [res.form for res in gap_check(2, [eg, eg, eg], form_ids=["a", "b", "c"])] \
            == ["a", "b", "c"]

    def test_short_reach_zero_after_c0_undecided(self):
        h, r = 12, dim_m(2, 12)
        f = QSeries(0, [1] + [0] * (r - 1))
        assert f.reach == r
        with pytest.raises(ReachError):
            gap_check(h, [f])


def _records(records):
    return [r.to_dict() for r in records]


class TestSuites:
    def test_satz_suite_small(self):
        out = run_satz_suite(hmax_level1=16, hmax_level2=16)
        assert all(r["verdict"] == "PASS" for r in out["vanishing"])
        assert all(r["verdict"] == "PASS" for r in out["signs"])
        assert all(r["verdict"] == "EXPERIMENTAL" for r in out["experimental"])
        # experimental records observed nonzero so far
        assert all(r["nonzero"] for r in out["experimental"])

    def test_satz_suite_matches_per_element_oracle(self):
        out = run_satz_suite(hmax_level1=120, hmax_level2=120)
        assert out["vanishing"] == satz_oracle.vanishing(120, 120)
        assert satz_oracle.t2_mismatches(out, 120) == []

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(1, 30), st.data())
    def test_basis_pairings_match_products(self, level, half, data):
        # a random t with the pole of T(h) or T2(h): the pairings are mostly
        # nonzero, so a wrong product cannot hide behind c_0 = 0
        h = 2 * half if level == 2 else 2 * max(half, 2)
        pole = pairing_generator(level, h).pole_order
        lead = data.draw(st.integers(-50, 50).filter(bool))
        rest = data.draw(st.lists(st.integers(-50, 50), min_size=pole, max_size=pole))
        t = QSeries(-pole, [lead] + rest)
        basis = (basis_m1 if level == 1 else basis_m2)(h, pole + 1)
        assert _basis_pairings(level, h, t, FactorPowers()) == [
            t.product_coeff(f, 0) for f in basis]

    def test_gap_suite_small(self):
        out = run_gap_suite(level=2, hmax=16, combos=5, seed=99)
        assert out["seed"] == 99
        assert all(r.verdict == "PASS" for r in out["records"])

    def test_gap_suite_level1(self):
        out = run_gap_suite(level=1, hmax=24, combos=5)
        assert all(r.verdict == "PASS" for r in out["records"])

    def test_gap_suite_deterministic(self):
        a = run_gap_suite(level=2, hmax=12, combos=4, seed=7)
        b = run_gap_suite(level=2, hmax=12, combos=4, seed=7)
        assert [r.to_dict() for r in a["records"]] == [
            r.to_dict() for r in b["records"]
        ]

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(4, 40), st.integers(0, 6),
           st.integers(0, 2**32))
    def test_gap_suite_matches_full_window_oracle(self, level, hmax, combos, seed):
        out = run_gap_suite(level=level, hmax=hmax, combos=combos, seed=seed)
        assert _records(out["records"]) == _records(
            gap_oracle.full_window_gap_suite(level, hmax, combos, seed))

    def test_gap_suite_doubles_window(self, monkeypatch):
        # a basis with every q^1 coefficient zeroed: no form is decided at
        # the first window of 2, so the suite doubles it, up to bound + 1
        windows = []

        def no_q1(h, prec):
            windows.append((h, prec))
            return [QSeries(0, [0 if n == 1 else b.coeff(n) for n in range(b.reach)])
                    for b in basis_m2(h, prec)]

        monkeypatch.setattr(qgap.siegel, "basis_m2", no_q1)
        out = run_gap_suite(level=2, hmax=12, combos=4, seed=5)
        assert [w for h, w in windows if h == 2] == [2, 3]  # bound 2
        assert [w for h, w in windows if h == 12] == [2, 4]  # bound 4
        assert {r.first_nonzero_index for r in out["records"]} >= {2}
        monkeypatch.setattr(gap_oracle, "basis_m2", no_q1)
        assert _records(out["records"]) == _records(
            gap_oracle.full_window_gap_suite(2, 12, 4, 5))


class TestTheorem4:
    def test_small_defaults(self):
        records = theorem4_checks(s_powers=(1, 2, 4, 8), s42_max=12,
                                  h43_max=100, x43_max=5)
        assert records
        for r in records:
            assert r["verdict"] == "PASS", r

    def test_41_values(self):
        recs = [r for r in theorem4_checks(s_powers=(1, 2), s42_max=1,
                                           h43_max=4, x43_max=3)
                if r["theorem"] == "4.1"]
        assert len(recs) == 2

    def test_42_includes_d3(self):
        recs = [r for r in theorem4_checks(s_powers=(), s42_max=6,
                                           h43_max=4, x43_max=3)
                if r["theorem"] == "4.2"]
        # s = 1, 2, 4 (D=1), 3, 6 (D=3), 5 (D=5)
        assert {r["instance"] for r in recs} == {"s=1", "s=2", "s=4", "s=3",
                                                 "s=6", "s=5"}

    def test_43_instances(self):
        recs = [r for r in theorem4_checks(s_powers=(), s42_max=1,
                                           h43_max=100, x43_max=5)
                if r["theorem"] == "4.3"]
        instances = {r["instance"] for r in recs}
        assert "T(20)" in instances  # h = 8 mod 12, r = 2
        assert "T(26)" in instances  # h = 2 mod 12, r = 2
        assert "T2(10)" in instances  # 2^4 - 6
        assert "T2(12)" in instances  # 2^4 - 4
        assert "T2(2)" in instances  # 2^3 - 6

    def test_zero_constant_term(self, monkeypatch):
        import qgap.siegel

        monkeypatch.setattr(qgap.siegel, "constant_term", lambda expr: 0)
        recs = theorem4_checks(s_powers=(1,), s42_max=1, h43_max=20, x43_max=3)
        assert [(r["theorem"], r["predicted"], r["observed"], r["verdict"])
                for r in recs] == [
            ("4.1", "ord2=3", "ord2=inf", "ZERO_CONSTANT_TERM"),
            ("4.2", "ord2=3", "ord2=inf", "ZERO_CONSTANT_TERM"),
            ("4.3", "16 mod 32", "0 mod 32", "FAIL"),
            ("4.3", "8 mod 16", "0 mod 16", "FAIL"),
            ("4.3", "16 mod 32", "0 mod 32", "FAIL"),
        ]
