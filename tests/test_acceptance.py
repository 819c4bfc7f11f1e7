"""Acceptance suite: every criterion checked at exact equality, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All arithmetic is exact; there are no tolerances to tune.
"""

import random
from fractions import Fraction

from qgap import congruence, siegel
from qgap.catalog import Generator, dim_m
from qgap.forms import (
    basis_m1,
    basis_m2,
    eval_expr,
    generator_series,
    identity_checks,
)
from qgap.quadratic import D4, direct_sum, level, theta, validate, verify_theorem51
from qgap.series import QSeries, product_expand

from arith_oracle import sigma_star
from einf4_oracle import neg_power_einf4


def _report(name: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_identity_suite():
    checks = identity_checks(200)
    ok = all(flag for _, flag in checks)
    assert _report("1 identity-suite", ok,
                   f"{sum(f for _, f in checks)}/{len(checks)} identities to 200 coefficients")


def test_criterion_2_satz_suite():
    out = siegel.run_satz_suite(hmax_level1=36, hmax_level2=40)
    vanish_ok = all(r["verdict"] == "PASS" for r in out["vanishing"])
    hs1 = {r["weight"] for r in out["vanishing"] if r["level"] == 1}
    hs2 = {r["weight"] for r in out["vanishing"] if r["level"] == 2}
    coverage_ok = hs1 == set(range(4, 37, 2)) and hs2 == set(range(2, 41, 2))
    signs_ok = (all(r["verdict"] == "PASS" for r in out["signs"])
                and {r["weight"] for r in out["signs"]} == set(range(4, 41, 4)))
    ok = vanish_ok and coverage_ok and signs_ok
    assert _report("2 satz-suite", ok,
                   f"{len(out['vanishing'])} vanishing + {len(out['signs'])} sign checks")


def test_criterion_3_gap_suite():
    out = siegel.run_gap_suite(level=2, hmax=40, combos=20)
    records = out["records"]
    ok = all(r.verdict == "PASS" for r in records)
    ok &= {r.weight for r in records} == set(range(2, 41, 2))
    experimental = [r for r in records if r.conjectured_bound is not None]
    within = sum(bool(r.within_conjectured) for r in experimental)
    assert _report("3 gap-suite", ok,
                   f"{len(records)} checks; experimental sharper bound held in "
                   f"{within}/{len(experimental)} h=2-mod-4 cases (reported only)")


def test_criterion_4_theorem4_suite():
    records = siegel.theorem4_checks(
        s_powers=(1, 2, 4, 8, 16, 32, 64), s42_max=80, h43_max=200,
        r43=(2, 4, 8), x43_max=6,
    )
    ok = all(r["verdict"] == "PASS" for r in records)
    instances = {r["instance"] for r in records if r["theorem"] == "4.3"}
    for want in ("T(20)", "T(44)", "T(92)", "T(26)", "T(50)", "T(98)",
                 "T2(10)", "T2(26)", "T2(58)", "T2(12)", "T2(28)", "T2(60)"):
        ok &= want in instances
    assert _report("4 theorem4-suite", ok, f"{len(records)} congruence instances")


def test_criterion_5_survey_reproduction():
    report = congruence.run_survey(congruence.desk_rules_config())
    by_expr = {r.expr: r for r in report.records}
    ok = not report.failed

    def family_pass(prefix_fmt, values):
        return all(by_expr[prefix_fmt.format(*vs)].verdict == "PASS"
                   for vs in values)

    # rule (1) families at the stated desk ranges
    ok &= family_pass("Delta^-{}", [(a,) for a in range(1, 65)])
    ok &= family_pass("j^{}", [(a,) for a in range(1, 21)])
    ok &= family_pass("j^{}*Delta^-{}",
                      [(a, b) for a in range(1, 11) for b in range(1, 11)])
    ok &= family_pass("G(6)^{}*Delta^-{}",
                      [(a, b) for a in range(1, 11) for b in range(1, 11)])
    # rule (2): section 3.2.2 families, exponents <= 32
    ok &= family_pass("Egamma2^{}*Einf4^-{}",
                      [(a, b) for a in range(1, 33) for b in range(1, 33)])
    ok &= family_pass("phi(2)^-{}", [(a,) for a in range(1, 33)])
    ok &= family_pass("Delta2^-{}", [(a,) for a in range(1, 33)])
    # rule (3)
    ok &= family_pass("phi(3)^-{}", [(a,) for a in range(1, 33)])
    ok &= family_pass("Phi(3)^-{}", [(a,) for a in range(1, 33)])
    # deviation rules on their windows, a <= 24, k <= 24
    dev = [r for r in report.records
           if r.checks[0].rule.startswith("dev-3-")]
    dev_ids = {r.checks[0].rule for r in dev}
    ok &= dev_ids == {"dev-3-1", "dev-3-2", "dev-3-3", "dev-3-4"}
    ok &= all(r.verdict == "PASS" for r in dev)
    assert _report("5 survey-desk", ok,
                   f"{report.summary['total']} forms, "
                   f"{len(dev)} in deviation windows, 0 failures required")


def test_criterion_6_sec33_suite():
    n_max = 512
    ok = True
    for p in (2, 3):
        rows = congruence.delta_pn_compare(p, n_max)
        applicable = [r for r in rows if r["predicted"] is not None]
        ok &= all(r["verdict"] == "PASS" for r in applicable)
        ok &= rows[0]["n"] == -1 and rows[0]["verdict"] == "RECORDED"
    recs = congruence.reciprocal_compare(n_max)
    ok &= all(r["verdict"] == "PASS" for r in recs if r["p"] in (2, 3))
    lehner = congruence.lehner_check(n_max)
    ok &= all(r["verdict"] == "PASS" for r in lehner)
    assert _report("6 sec33-suite", ok,
                   f"delta tables, reciprocal orders, {len(lehner)} "
                   f"divisibility rows at n_max={n_max}")


def test_criterion_7_quadratic_suite():
    d4 = validate(D4)
    ok = level(d4) == 2
    counts = theta(d4, 50)
    eg = generator_series(Generator("Egamma2"), 52)
    ok &= counts == [1] + [eg.coeff(n) for n in range(1, 51)]
    t = QSeries(0, theta(d4, 8))
    conv = t * t
    ok &= theta(direct_sum(d4, d4), 6) == [conv.coeff(n) for n in range(7)]
    acc = None
    for k in range(1, 5):
        acc = d4 if acc is None else direct_sum(acc, d4)
        ok &= verify_theorem51(acc)["verdict"] == "PASS"
    assert _report("7 quadratic-suite", ok,
                   "theta(D4) = weight-2 generator to 50 terms; bound holds "
                   "for D4 sums of rank 4, 8, 12, 16")


def _random_series(rng: random.Random, invertible=False, monic=False) -> QSeries:
    val = rng.randint(-3, 3)
    window = rng.randint(1, 8)
    coeffs = []
    for _ in range(window):
        if rng.random() < 0.25:
            coeffs.append(Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
        else:
            coeffs.append(rng.randint(-9, 9))
    if monic:
        coeffs[0] = 1
    elif invertible and coeffs[0] == 0:
        coeffs[0] = rng.choice([1, -1, 2, Fraction(1, 2)])
    return QSeries(val, coeffs)


def test_criterion_8_property_suites():
    rng = random.Random(20260810)
    cases = 200
    ok = True

    for _ in range(cases):  # ring laws
        a, b, c = (_random_series(rng) for _ in range(3))
        ok &= (a * b).agrees_with(b * a)
        ok &= ((a * b) * c).agrees_with(a * (b * c))
        ok &= (a * (b + c)).agrees_with(a * b + a * c)

    for _ in range(cases):  # invert round-trip
        a = _random_series(rng, invertible=True)
        ok &= (a * a.invert()).agrees_with(QSeries.one(a.window))

    for _ in range(cases):  # root round-trip
        m = rng.randint(2, 4)
        a = _random_series(rng, monic=True)
        a = QSeries(a.valuation * m, a.coefficients())
        ok &= (a.root(m) ** m).agrees_with(a)

    for _ in range(cases):  # Leibniz rule
        a, b = _random_series(rng), _random_series(rng)
        lhs = (a * b).q_derivative()
        ok &= lhs.agrees_with(a.q_derivative() * b + a * b.q_derivative())

    einf_cache = {}
    for _ in range(cases):  # specialized negative powers vs generic oracle
        s = rng.randint(1, 8)
        p = rng.randint(2, 60)
        fast = neg_power_einf4(s, p)
        if p not in einf_cache:
            einf_cache[p] = QSeries(1, [sigma_star(n, 2, 3)
                                        for n in range(1, p + 1)])
        ok &= fast.agrees_with(einf_cache[p] ** (-s))

    sign_ok = True
    for s in range(1, 65):  # sign alternation across the whole stated range
        series = neg_power_einf4(s, 201)
        for n in range(201):
            c = series.coeff(n - s)
            sign_ok &= c != 0 and (c > 0) == (n % 2 == 0)
    ok &= sign_ok

    for _ in range(cases):  # product expansion inverse pairs
        exps = {rng.randint(1, 6): rng.randint(-6, 6) for _ in range(rng.randint(0, 4))}
        one = product_expand(lambda n: exps.get(n, 0), 12) * product_expand(
            lambda n: -exps.get(n, 0), 12)
        ok &= one.agrees_with(QSeries.one(12))

    assert _report("8 property-suites", ok,
                   f"{cases}+ seeded cases per law; sign alternation for "
                   "s <= 64, n <= 200")
