"""Constant-term congruence rules, batch surveys, and the coefficientwise
j / 1/Delta comparison tables.

For a normalized form with rational expansion, a pole of order s > 0 at
infinity and weight w, write beta = d_2(s), gamma = d_3(s) (base-2/3 digit
sums) and L = largest base-3 digit of s.  The rules checked here:

  conductor 1 forms obey both a 2-adic and a 3-adic clause;
  conductor 2 forms obey the 2-adic clause only;
  conductor 3 forms obey the 3-adic clause only.

  2-adic:  (a) w = 0 mod 4:  ord_2(c_0) = 3*beta
           (b) w = 2 mod 4:  2^(4*beta) divides c_0
  3-adic:  (c) w = 0 mod 3:  c_0 = (-1)^s 3^gamma  (mod 3^(gamma+1))
           (d) w = 1 mod 3, L = 1:  c_0 = 3^gamma  (mod 3^(gamma+1))
           (e) w = 1 mod 3, L = 2:  3^(gamma+1) divides c_0
           (f) w = 2 mod 3:  3^(gamma+1) divides c_0

Pure negative powers E(N,inf,k)^-a deviate from these on four systematic
windows (rules dev-3-1 .. dev-3-4 below); everywhere else they follow the
conductor rule.  Weights of any sign use least non-negative residues.

Every clause above, every deviation rule, and Theorems 4.1/4.2 in
``qgap.siegel`` is one call of ``order_check``: ord_p(c_0) = want or
>= want for p = 2 or 3, optionally with the mod-3 side.  It reads a
``C0Read``, the (ord_2, ord_3, sign_3) that ``read_c0`` takes from one pass
over the numerator and denominator of c_0, and a survey record reads the
same one: ord_2 from the lowest set bits, ord_3 from one division loop, and
the sign from the two residues mod 3 left over (c_0 * 3^(-ord_3) is prime
to 3 above and below).  A vanishing c_0 satisfies a divisibility clause and
is ZERO_CONSTANT_TERM on an exact one.

A survey runs the forms of each template as one batch: it compiles each
template once, one ``Template.bind`` call binds the batch's field values
to forms (each distinct generator built once, each form's data summed
over its factors), and every form reads its factor powers from one
``forms.FactorPowers`` table; the forms are read in decreasing pole order,
so the table builds each factor power once, and the records keep the bind
order.  Each record is one ``classify_expr`` call
and one ``SurveyRecord`` tuple, and the survey runs its batches one after
another in one process.  The checks come from one memo per process,
``_rule_checks``, keyed on all that they read: (s, w mod 12, conductor,
``_pure_e_power``, ``C0Read``).  Equal check tuples are one object.  It,
``_SHARED_CHECKS`` and the table residues (``_residues``) register with
``qgap.memo``, and ``memo.clear()`` empties them.

The section 3.3 tables report p-adic orders only, and read every order at
p from residues mod p^K_p (``_RESIDUE_EXPONENTS``): j, Delta^-1 and 1/j are
built mod p^K_p from the exact Delta and the exact G4^3, which is
E12 + (432000/691)*Delta, built from the sigma_11 sieve and Delta without
a product (``forms.g4_cubed``, which j and S(n, d) read as well).
Delta^-1 is one Newton inverse (``series.inverse_mod``), j one packed
product ``series.mul_mod`` with G4^3, and 1/j the inverse of q*j;
ord_p(tau(n)) comes from the exact Delta.  A nonzero
residue gives the exact order.  A residue that is 0 mod p^K_p falls back
to the exact series for that row (``generator_series`` of j or T(14), or
``j.invert()``), built on first need, so a true zero still reads ``inf``
and no order is guessed.  Each residue series has the valuation and reach
of the exact one: exactness and reach are unchanged.  K_p is sized to the
orders the tables read: at least 3 above the largest order at p of j,
Delta^-1 or 1/j that any table reads to n = 4096 (44, 17, 7 and 5 at
p = 2, 3, 5, 7, measured at window 4098), so the fallback stays cold on
the paper-scale run, and a smaller K_p makes every product cheaper.
"""

from __future__ import annotations

import itertools
import math
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from qgap.arith import INFINITE, digit_sum, largest_digit, ord_p
from qgap.catalog import DELTA, J, T14, FormExpr
from qgap.exprs import Template, parse_expr, parse_template
from qgap.forms import FactorPowers, constant_term, g4_cubed, generator_series
from qgap.memo import register
from qgap.series import DefectError, QSeries, ReachError, inverse_mod, mul_mod
from qgap.verdict import Verdict

__all__ = [
    "C0Read",
    "RuleCheck",
    "SurveyRecord",
    "SurveyReport",
    "classify_expr",
    "delta_pn_compare",
    "desk_rules_config",
    "deviation_rules",
    "deviation_window",
    "full_rules_config",
    "lehner_check",
    "order_check",
    "read_c0",
    "reciprocal_compare",
    "render_summary",
    "render_table",
    "run_survey",
]

class RuleCheck(NamedTuple):
    """One clause on a survey c0; ``_asdict()`` is its JSON row."""

    rule: str
    predicted: str
    observed: str
    verdict: Verdict


class SurveyRecord(NamedTuple):
    """One survey form: its data, what the rules read of its c0, and the
    checks; a tuple, so a record costs what its fields do."""

    expr: str
    conductor: int
    weight: int
    pole_order: int
    c0: object  # exact int or Fraction; None on an ERROR record
    beta: int
    gamma: int
    largest3: int
    ord2: object  # int or INFINITE
    ord3: object
    sign3: int | None  # +1/-1: side of c0 = +-3^ord3 mod 3^(ord3+1)
    checks: tuple[RuleCheck, ...]

    @property
    def verdict(self) -> Verdict:
        verdicts = {c.verdict for c in self.checks}
        if Verdict.ERROR in verdicts:
            return Verdict.ERROR
        if any(v.fails for v in verdicts):
            return Verdict.FAIL
        if Verdict.PASS in verdicts:
            return Verdict.PASS
        return Verdict.NOT_APPLICABLE

    @property
    def rule_ids(self) -> str:
        return "+".join(c.rule for c in self.checks) or "-"

    def to_dict(self) -> dict:
        row = self._asdict()
        del row["checks"]
        # c0, ord2 and ord3 keep their places; rules and verdict follow sign3
        row.update(c0=None if self.c0 is None else str(self.c0),
                   ord2=_ord_str(self.ord2), ord3=_ord_str(self.ord3),
                   rules=[c._asdict() for c in self.checks], verdict=self.verdict)
        return row


@dataclass
class SurveyReport:
    records: list[SurveyRecord]
    timestamp: str = field(default_factory=lambda: time.strftime("%Y-%m-%dT%H:%M:%S"))

    @cached_property
    def summary(self) -> dict:
        verdicts: dict[str, int] = {}
        rules: dict[str, dict[str, int]] = {}
        for rec in self.records:
            verdicts[rec.verdict] = verdicts.get(rec.verdict, 0) + 1
            for c in rec.checks:
                bucket = rules.setdefault(c.rule, {})
                bucket[c.verdict] = bucket.get(c.verdict, 0) + 1
        return {"total": len(self.records), "verdicts": verdicts, "rules": rules}

    @property
    def failed(self) -> list[SurveyRecord]:
        if not any(v.fails for v in self.summary["verdicts"]):
            return []
        return [r for r in self.records if r.verdict.fails]


def _ord_str(v):
    if v is None:
        return None
    return "inf" if v == INFINITE else int(v)


# -- membership machinery ----------------------------------------------------


class C0Read(NamedTuple):
    """What every rule reads of a constant term c0: its orders at 2 and 3
    (INFINITE for c0 = 0) and ``sign3``, +1/-1 for the side of
    c0 = +-3^ord3 (mod 3^(ord3+1)), None for c0 = 0."""

    ord2: object  # int or INFINITE
    ord3: object
    sign3: int | None


def read_c0(c0) -> C0Read:
    """The ``C0Read`` of an int or Fraction c0, from one pass over its
    numerator and denominator: ord_2 from their lowest set bits, ord_3 from
    one division loop over each, and the sign from the product of the two
    residues mod 3 left over (each residue is its own inverse mod 3).
    TypeError for anything but an int (not a bool) or a Fraction."""
    if isinstance(c0, bool) or not isinstance(c0, (int, Fraction)):
        raise TypeError(f"c0 must be an exact int or Fraction, got {type(c0).__name__}")
    num, den = c0.numerator, c0.denominator
    if not num:
        return C0Read(INFINITE, INFINITE, None)
    ord2 = (num & -num).bit_length() - (den & -den).bit_length()
    ord3 = 0
    q, r = divmod(num, 3)
    while not r:
        ord3 += 1
        num = q
        q, r = divmod(num, 3)
    q, t = divmod(den, 3)
    while not t:
        ord3 -= 1
        den = q
        q, t = divmod(den, 3)
    return C0Read(ord2, ord3, 1 if r * t % 3 == 1 else -1)


def order_check(rule_id: str, p: int, read: C0Read, want: int, *,
                at_least: bool = False, sign: int | None = None) -> RuleCheck:
    """The one constant-term clause on the ``C0Read`` of c0, p = 2 or 3:
    ord_p(c0) = want, or ord_p(c0) >= want when ``at_least``; with
    ``sign`` (+1/-1, p = 3 only) also c0 = sign * 3^want (mod 3^(want+1)).
    A divisibility clause holds for c0 = 0 (its order is infinite); an
    exact clause reports ZERO_CONSTANT_TERM there."""
    if sign is not None and p != 3:
        raise ValueError(f"a sign condition needs p = 3, got p = {p}")
    if p == 2:
        o = read.ord2
        observed = f"ord2={_ord_str(o)}"
    elif p == 3:
        o = read.ord3
        observed = f"ord3={_ord_str(o)},sign={read.sign3}"
    else:
        raise ValueError(f"order_check reads ord_2 and ord_3 only, got p = {p}")
    predicted = f"ord{p}{'>=' if at_least else '='}{want}"
    if sign is not None:
        predicted += f",sign={'+' if sign > 0 else '-'}"
    if at_least:
        verdict = Verdict.PASS if o >= want else Verdict.FAIL
    elif o == INFINITE:
        verdict = Verdict.ZERO_CONSTANT_TERM
    else:
        ok = o == want and (sign is None or read.sign3 == sign)
        verdict = Verdict.PASS if ok else Verdict.FAIL
    return RuleCheck(rule_id, predicted, observed, verdict)


def _check_2adic(prefix: str, w: int, beta: int, read: C0Read) -> RuleCheck:
    # w is even: every catalog kind has even weight
    if w % 4 == 0:
        return order_check(prefix + "a", 2, read, 3 * beta)
    return order_check(prefix + "b", 2, read, 4 * beta, at_least=True)


def _check_3adic(prefix: str, w: int, s: int, gamma: int, L: int, read: C0Read) -> RuleCheck:
    if w % 3 == 0:
        return order_check(prefix + "c", 3, read, gamma, sign=1 if s % 2 == 0 else -1)
    if w % 3 == 1 and L == 1:
        return order_check(prefix + "d", 3, read, gamma, sign=1)
    clause = "e" if w % 3 == 1 else "f"
    return order_check(prefix + clause, 3, read, gamma + 1, at_least=True)


# -- deviation rules for pure E(N,inf,k)^-a powers ---------------------------


def deviation_window(N: int, k: int, a: int) -> str | None:
    """Which deviation rule (if any) governs E(N,inf,k)^-a."""
    if a < 1:
        return None
    if N == 2:
        if k % 4 == 0 and k >= 8 and a % 2 == 1:
            return "dev-3-1"
        return None
    if N == 3:
        # every k = 0 mod 6 deviates for a != 0 mod 3 (including k = 6:
        # verified directly from the divisor-sum expansion)
        if k % 6 == 0:
            if a % 3 == 1:
                return "dev-3-2"
            if a % 3 == 2:
                return "dev-3-3"
            return None
        if k % 6 == 2 and a % 3 == 1 and largest_digit(a, 3) == 1:
            return "dev-3-4"
        return None
    return None


def deviation_rules(N: int, k: int, a: int, read: C0Read) -> RuleCheck:
    """Check the deviation formula for E(N,inf,k)^-a on the ``C0Read`` of
    its constant term, or NOT_APPLICABLE when (N,k,a) sits in no deviation
    window (the plain conductor rule applies there instead)."""
    window = deviation_window(N, k, a)
    if window is None:
        return RuleCheck("dev-none", "no deviation window",
                         f"ord2={_ord_str(read.ord2)},ord3={_ord_str(read.ord3)}",
                         Verdict.NOT_APPLICABLE)
    if window == "dev-3-1":
        return order_check(window, 2, read, 3 * digit_sum(a, 2) + ord_p(a + 1, 2) + k - 5)
    if window == "dev-3-2":
        return order_check(window, 3, read, digit_sum(a, 3), sign=1 if a % 2 == 1 else -1)
    if window == "dev-3-3":
        # only the order is systematic; the +- side is recorded, not asserted
        return order_check(window, 3, read, digit_sum(a, 3) + ord_p(a + 1, 3))
    return order_check(window, 3, read, digit_sum(a, 3), sign=-1)  # dev-3-4


# -- record assembly ---------------------------------------------------------


def _pure_e_power(expr: FormExpr) -> tuple[int, int, int] | None:
    """(N, k, a) when the expression is a single negative power of a
    generator whose catalog ``e_inf`` is (N, k)."""
    if len(expr.factors) != 1:
        return None
    gen, e = expr.factors[0]
    if e >= 0 or gen.e_inf is None:
        return None
    return (*gen.e_inf, -e)


#: One object per distinct check tuple that ``_rule_checks`` has built.
_SHARED_CHECKS: dict = register({}, "qgap.congruence._SHARED_CHECKS")


@register
@lru_cache(maxsize=None)
def _rule_checks(s: int, w12: int, conductor: int, pure, read: C0Read):
    """((beta, gamma, L), checks) of a form with pole order s, weight
    w = w12 (mod 12), this conductor, ``_pure_e_power`` and ``C0Read``: all
    that the checks read, so one memo serves every caller of the process,
    and equal check tuples are one object."""
    digits = beta, gamma, L = (
        (digit_sum(s, 2), digit_sum(s, 3), largest_digit(s, 3)) if s > 0 else (0, 0, 0))
    if s <= 0:
        checks = (RuleCheck("-", "pole at infinity required", f"pole_order={s}",
                            Verdict.NOT_APPLICABLE),)
    elif pure is not None and deviation_window(*pure) is not None:
        checks = (deviation_rules(*pure, read),)
    elif conductor == 1:
        # the 2-adic and 3-adic clause families are independent
        checks = _check_2adic("1", w12, beta, read), _check_3adic("1", w12, s, gamma, L, read)
    elif conductor == 2:
        checks = (_check_2adic("2", w12, beta, read),)
    elif conductor == 3:
        checks = (_check_3adic("3", w12, s, gamma, L, read),)
    else:
        checks = (RuleCheck("-", f"no rule for conductor {conductor}", "-",
                            Verdict.NOT_APPLICABLE),)
    return digits, _SHARED_CHECKS.setdefault(checks, checks)


def classify_expr(expr: FormExpr | str, c0=None) -> SurveyRecord:
    """The record of a monomial: its constant term c0 (evaluated unless
    supplied), what the rules read of c0, and the checks of the rule
    matching its conductor, or of the deviation rule on its window.  Every
    survey record is one call of this."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    if c0 is None:
        c0 = constant_term(expr)
    s, w, conductor = expr.pole_order, expr.weight, expr.conductor
    read = read_c0(c0)
    digits, checks = _rule_checks(s, w % 12, conductor, _pure_e_power(expr), read)
    return SurveyRecord(str(expr), conductor, w, s, c0, *digits, *read, checks)


# -- survey runner -------------------------------------------------------------

#: The residues after ``in``: a comma list, bare or in one pair of braces.
#: An empty list (``,`` or ``{}``) is read, then refused for having none.
_RESIDUE_LIST = r"\d+(?:\s*,\s*\d+)*"
_FILTER_RE = re.compile(
    r"^\s*(?P<var>[A-Za-z_]\w*)(?:"
    r"\s+(?P<parity>odd|even)"
    r"|\s*%\s*(?P<mod>\d+)\s*(?:(?P<op>==|!=)\s*(?P<rhs>\d+)"
    rf"|in\s*(?P<set>{_RESIDUE_LIST}|\{{\s*(?:{_RESIDUE_LIST})?\s*\}}|,))"
    r")\s*$"
)


def _parse_filter(filt, names) -> tuple[str, int, frozenset, bool]:
    """(variable, modulus, residues, negate): the filter holds for env when
    (env[variable] % modulus in residues) != negate.  ValueError on bad
    syntax, a zero modulus, no residue, a residue not below the modulus,
    or a variable not among ``names``."""
    m = _FILTER_RE.match(filt) if isinstance(filt, str) else None
    if not m:
        raise ValueError(f"unsupported filter syntax: {filt!r}")
    var = m.group("var")
    if var not in names:
        raise ValueError(f"filter {filt!r} references unknown variable {var!r}")
    if m.group("parity"):
        return var, 2, frozenset({1 if m.group("parity") == "odd" else 0}), False
    mod = int(m.group("mod"))
    if mod == 0:
        raise ValueError(f"filter {filt!r} has modulus 0")
    residues = frozenset(int(x) for x in re.findall(r"\d+", m.group("set") or m.group("rhs")))
    if not residues or max(residues) >= mod:
        raise ValueError(f"filter {filt!r} needs residues in 0..{mod - 1}, got {sorted(residues)}")
    return var, mod, residues, m.group("op") == "!="


def _expand_range(spec) -> range:
    if isinstance(spec, list) and len(spec) in (2, 3) \
            and all(type(x) is int for x in spec):
        values = range(spec[0], spec[1] + 1, *spec[2:])
        if not values:
            raise ValueError(f"range {spec!r} is empty")
        return values
    raise ValueError(f"range must be [lo, hi] or [lo, hi, step] of integers, got {spec!r}")


def _check_keys(obj: dict, keys: tuple[str, ...], what: str) -> None:
    """ValueError naming the first key of ``obj`` not among ``keys``."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}: {what} has only "
                             + ", ".join(repr(k) for k in keys))


def _family_tasks(fam) -> tuple[Template, list[range], Callable[[tuple], bool]]:
    """The parsed template of one survey family, the range of each field
    in sorted order of the field names, and the predicate its filters put
    on a tuple of field values; ValueError when the family is malformed.
    No instance is built."""
    if isinstance(fam, dict):
        _check_keys(fam, ("template", "ranges", "filters"), "a family")
    if not isinstance(fam, dict) or not isinstance(fam.get("template"), str):
        raise ValueError("a family is an object with a string 'template'")
    ranges, filters = fam.get("ranges", {}), fam.get("filters", [])
    if not isinstance(ranges, dict) or not isinstance(filters, list):
        raise ValueError("'ranges' must be an object and 'filters' a list")
    template = parse_template(fam["template"])
    if set(ranges) != set(template.fields):
        raise ValueError(f"template {template.text!r} names {sorted(template.fields)}, "
                         f"'ranges' names {sorted(ranges)}")
    names = sorted(ranges)
    preds = [_parse_filter(f, names) for f in filters]
    at = {n: i for i, n in enumerate(names)}

    def keep(c: tuple) -> bool:
        return all((c[at[var]] % mod in res) != neg for var, mod, res, neg in preds)

    return template, [_expand_range(ranges[n]) for n in names], keep


#: The most instances, before filters, that one survey config may have:
#: 11.5 times the 91,061 forms of ``full_rules_config()``.  The records
#: alone take about 1 KB a form, so a run at the cap needs about 1.1 GB;
#: forms of pole order at most 4 run in about 22 s (a quarter of the cap
#: took 5.4 s and 274 MB on one Xeon core, CPython 3.11), and forms with
#: larger poles take longer.
MAX_SURVEY_FORMS = 1 << 20


def _instantiate(config: dict) -> list[tuple[Template, list[dict]]]:
    """(template, [field values, ...]) for every template, in lexicographic
    order of its text, with the instances of all its families sorted by
    their parameters.  A malformed config, or one whose families add up to
    more than ``MAX_SURVEY_FORMS`` instances before filters, raises
    ValueError naming the index of the family at fault, before any
    instance is built."""
    families = config.get("families", []) if isinstance(config, dict) else None
    if not isinstance(families, list):
        raise ValueError("a survey config is an object with a 'families' list")
    _check_keys(config, ("name", "families"), "a survey config")
    plans, total = [], 0
    for i, fam in enumerate(families):
        try:
            template, values, keep = _family_tasks(fam)
            count = math.prod(map(len, values))
            total += count
            if total > MAX_SURVEY_FORMS:
                raise ValueError(f"{total:,} instances before filters, {count:,} of them "
                                 f"from this family, are over the cap of {MAX_SURVEY_FORMS:,}")
        except ValueError as exc:
            raise ValueError(f"survey family {i}: {exc}") from None
        plans.append((template, values, keep))
    batches = {}
    for template, values, keep in plans:
        combos = filter(keep, itertools.product(*values))
        batches.setdefault(template.text, (template, []))[1].extend(combos)
    out = []
    for _, (template, combos) in sorted(batches.items()):
        names = sorted(template.fields)
        out.append((template, [dict(zip(names, c)) for c in sorted(combos)]))
    return out


def _survey_batch(batch: tuple[Template, list[dict]]) -> list[SurveyRecord]:
    """The records of one template's forms, in bind order: bind its
    instances, then classify each, in decreasing pole order so that one
    ``FactorPowers`` table, dropped when the batch ends, builds each
    series once."""
    template, envs = batch
    exprs = template.bind(envs)
    powers = FactorPowers()
    order = sorted(range(len(exprs)), key=lambda i: exprs[i].pole_order, reverse=True)
    records = [None] * len(exprs)
    for i in order:
        records[i] = _survey_record(exprs[i], powers)
    return records


def _survey_record(expr: FormExpr, powers: FactorPowers) -> SurveyRecord:
    """Classify one form; a defect or arithmetic failure on it, including
    one while building a factor power it needs, becomes an ERROR record
    carrying the exception text instead of ending the survey."""
    try:
        return classify_expr(expr, constant_term(expr, powers))
    except (DefectError, ReachError, ArithmeticError) as exc:
        check = RuleCheck("error", "-", f"{type(exc).__name__}: {exc}", Verdict.ERROR)
        return SurveyRecord(str(expr), expr.conductor, expr.weight, expr.pole_order,
                            None, 0, 0, 0, None, None, None, (check,))


def run_survey(config: dict, jobs: int = 1) -> SurveyReport:
    """Instantiate every family in the config, classify each form, and
    collect the records in deterministic (template, parameters) order.
    Every template is parsed before any form is evaluated.  The forms of
    one template are one batch, bound when the survey reaches it, where a
    bad instance raises its ValueError; the first bad batch in order ends
    the survey.  The survey runs in one process: ``jobs`` must be 1, and
    the keyword is kept only for the benchmark's ``run_survey(inputs,
    jobs=1)`` call."""
    if jobs != 1:
        raise ValueError("run_survey runs in one process; jobs must be 1")
    chunks = map(_survey_batch, _instantiate(config))
    return SurveyReport(records=[rec for chunk in chunks for rec in chunk])


def render_table(report: SurveyReport) -> str:
    """Aligned plain-text table, one row per record."""
    headers = ["expr", "cond", "w", "s", "ord2", "ord3", "rules", "verdict"]
    rows = [
        [
            r.expr,
            str(r.conductor),
            str(r.weight),
            str(r.pole_order),
            str(_ord_str(r.ord2)),
            str(_ord_str(r.ord3)),
            r.rule_ids,
            r.verdict,
        ]
        for r in report.records
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(row[i].ljust(widths[i]) for i in range(len(headers)))
                 for row in rows)
    lines.append("")
    lines.append(render_summary(report))
    return "\n".join(lines)


def render_summary(report: SurveyReport) -> str:
    """The closing line of the table: the total and the count per verdict."""
    s = report.summary
    return f"total {s['total']}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(s["verdicts"].items()))


# -- section 3.3 style tables: j vs 1/Delta, 1/j vs Delta, Lehner -------------


#: (p, K_p): every section 3.3 order at p is read from residues mod p^K_p.
#: K_p is at least 3 above the largest order any table reads to n = 4096,
#: measured at window 4098: 44, 17, 7, 5 (j at p = 2, 3, 5, 7), 17, 10, 7
#: (Delta^-1; 6 at p = 7, which no table reads) and 36, 14, 5 (1/j), so
#: the exact fallback stays cold on the paper-scale run.  A larger order
#: still reads exactly, through the fallback; K_p sets only the speed.
_RESIDUE_EXPONENTS = {2: 48, 3: 20, 5: 10, 7: 8}


class _Orders:
    """ord_p of the coefficients of one series, read from its residues mod
    p^K on the valuation and window of the exact series.  A nonzero residue
    r agrees with the exact coefficient mod p^K, so ord_p(r) < K is exact;
    only these orders are kept, one byte each.  A residue that is 0 mod p^K
    (an order of K or more, or an exact zero) is read from the exact series
    instead, built by ``exact`` on first need.  Reading at or beyond reach
    raises ReachError, as on the exact series."""

    def __init__(self, valuation: int, residues: list, p: int, k: int, exact):
        self._val, self._reach = valuation, valuation + len(residues)
        self._orders = bytes(ord_p(r, p) if r else k for r in residues)
        self._p, self._k = p, k
        self._build_exact = exact
        self._exact = None

    def ord(self, n: int):
        if n >= self._reach:
            raise ReachError(f"coefficient of q^{n} is beyond the justified reach {self._reach}")
        if n < self._val:
            return INFINITE
        o = self._orders[n - self._val]
        if o < self._k:
            return o
        if self._exact is None:
            self._exact = self._build_exact()
        return ord_p(self._exact.coeff(n), self._p)


class _TableResidues:
    """The orders at p of j, Delta^-1 and 1/j at one window, read from
    residues mod m = p^K of two exact inputs, Delta (Jacobi's series,
    ``series.delta_over_q``) and G4^3 (``forms.g4_cubed``, from sigma_11
    and Delta):

        Delta^-1 = inv(Delta/q) / q,  j = G4^3 * Delta^-1,
        1/j = q * inv(q*j),

    where inv is ``series.inverse_mod``.  Each series has the valuation and
    window of its exact expansion, which is its fallback.  The orders of
    Delta^-1 and of 1/j are read on first need, from the residues of
    q*Delta^-1 and of q*j held here: ``lehner_check`` reads only j."""

    def __init__(self, p: int, k: int, window: int):
        self.p, self.k, self.m, self.window = p, k, p**k, window
        self._d_inv = inverse_mod(self._mod(generator_series(DELTA, window)), self.m)
        self._qj = mul_mod(self._mod(g4_cubed(window)), self._d_inv, self.m, window)
        self.j = self._orders(-1, self._qj, lambda: generator_series(J, window))

    def _mod(self, series: QSeries) -> list:
        return [c % self.m for c in series.coefficients()]

    def _orders(self, valuation: int, residues: list, exact) -> _Orders:
        return _Orders(valuation, residues, self.p, self.k, exact)

    @cached_property
    def delta_inverse(self) -> _Orders:
        # T(14) is Delta^-1; its residues are read once, and then let go
        d_inv, self._d_inv = self._d_inv, None
        return self._orders(-1, d_inv, lambda: generator_series(T14, self.window))

    @cached_property
    def inverse_j(self) -> _Orders:
        return self._orders(1, inverse_mod(self._qj, self.m),
                            lambda: generator_series(J, self.window).invert())


@register
@lru_cache(maxsize=None)
def _residues(p: int, n_max: int) -> _TableResidues:
    """The residues mod p^K_p that a table to ``n_max`` reads (window
    n_max + 2), shared by every table of one process."""
    return _TableResidues(p, _RESIDUE_EXPONENTS[p], n_max + 2)


def delta_pn_compare(p: int, n_max: int) -> list[dict]:
    """Rows for delta_{p,n} = ord_p(c_n[j]) - ord_p(c_n[1/Delta]), n = -1 and
    1..n_max.  Predictions: p=2 even n: 3*ord_2(n)+1; p=3: 2*ord_3(n) when
    3|n, -1 when n=1 mod 3; p=5 (n>=5, 5|n): ord_5(n) with mismatches flagged
    EXCEPTION rather than failed.  Both orders come from residues mod p^K_p
    (``_TableResidues``)."""
    if p not in (2, 3, 5):
        raise ValueError(f"delta_pn_compare supports p in {{2,3,5}}, got {p}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    res = _residues(p, n_max)
    rows = []
    for n in [-1, *range(1, n_max + 1)]:
        oj = res.j.ord(n)
        od = res.delta_inverse.ord(n)
        diff = oj - od if INFINITE not in (oj, od) else INFINITE
        predicted = None
        verdict = Verdict.RECORDED
        if n >= 1:
            if p == 2 and n % 2 == 0:
                predicted = 3 * ord_p(n, 2) + 1
            elif p == 3 and n % 3 == 0:
                predicted = 2 * ord_p(n, 3)
            elif p == 3 and n % 3 == 1:
                predicted = -1
            elif p == 5 and n % 5 == 0 and n >= 5:
                predicted = ord_p(n, 5)
        if predicted is not None:
            if diff == predicted:
                verdict = Verdict.PASS
            else:
                verdict = Verdict.EXCEPTION if p == 5 else Verdict.FAIL
        rows.append({
            "n": n, "p": p, "ord_j": _ord_str(oj), "ord_inv_delta": _ord_str(od),
            "delta_pn": _ord_str(diff) if diff == INFINITE else diff,
            "predicted": predicted, "verdict": verdict,
        })
    return rows


def reciprocal_compare(n_max: int) -> list[dict]:
    """Rows checking ord_p(c_n[1/j]) = ord_p(c_n[Delta]) for p = 2, 3 over
    1 <= n <= n_max, and for p = 5 when n is not 3 or 4 mod 5 (asserted only
    on n <= 1225, recorded beyond).  The orders of 1/j come from its
    residues mod p^K_p (``_TableResidues``), those of tau(n) from the exact
    Delta."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d = generator_series(DELTA, n_max + 2)
    inv_j = {p: _residues(p, n_max).inverse_j for p in (2, 3, 5)}
    rows = []
    for n in range(1, n_max + 1):
        for p in (2, 3, 5):
            oj = inv_j[p].ord(n)
            od = ord_p(d.coeff(n), p)
            if p == 5:
                applicable = n % 5 not in (3, 4)
                if not applicable:
                    verdict = Verdict.NOT_APPLICABLE
                elif n > 1225:
                    verdict = Verdict.RECORDED
                else:
                    verdict = Verdict.PASS if oj == od else Verdict.FAIL
            else:
                verdict = Verdict.PASS if oj == od else Verdict.FAIL
            rows.append({
                "n": n, "p": p, "ord_inv_j": _ord_str(oj),
                "ord_delta": _ord_str(od), "verdict": verdict,
            })
    return rows


_LEHNER_BOUND = {
    2: lambda a: 3 * a + 8,
    3: lambda a: 2 * a + 3,
    5: lambda a: a + 1,
    7: lambda a: a,
}


def lehner_check(n_max: int) -> list[dict]:
    """For every argument m <= n_max divisible by p in {2,3,5,7} with
    a = ord_p(m), check ord_p(c_m[j]) against the classical Lehner lower
    bounds 3a+8 / 2a+3 / a+1 / a, reading ord_p(c_m[j]) from the residues
    of j mod p^K_p."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    j = {p: _residues(p, n_max).j for p in _LEHNER_BOUND}
    rows = []
    for m in range(1, n_max + 1):
        for p in (2, 3, 5, 7):
            a = ord_p(m, p)
            if a == 0:
                continue
            need = _LEHNER_BOUND[p](a)
            have = j[p].ord(m)
            rows.append({
                "n": m, "p": p, "alpha": a, "required": need,
                "ord": _ord_str(have),
                "verdict": Verdict.PASS if have >= need else Verdict.FAIL,
            })
    return rows


# -- built-in survey configurations -------------------------------------------


def _family_adder(fams: list):
    """add(template, **ranges) appends one family to fams."""

    def add(template, **ranges):
        fams.append({"template": template,
                     "ranges": {k: list(v) for k, v in ranges.items()}})

    return add


def desk_rules_config() -> dict:
    """Desk-scale survey: shrunken ranges that finish in minutes.  Pure
    E(N,inf,k) powers are dispatched per deviation window automatically, so
    the mixed families below produce a blend of rule and deviation records,
    all of which must PASS."""
    fams = []
    add = _family_adder(fams)
    # conductor one
    add("Delta^-{a}", a=(1, 64))
    add("j^{a}", a=(1, 20))
    add("j^{a}*Delta^-{b}", a=(1, 10), b=(1, 10))
    add("G(6)^{a}*Delta^-{b}", a=(1, 10), b=(1, 10))
    # conductor two
    add("Egamma2*E04*Einf4^-{a}", a=(1, 32))
    add("Egamma2^2*E04*Einf4^-{a}", a=(1, 32))
    add("j2^{a}", a=(1, 32))
    add("phi(2)^-{a}", a=(1, 32))
    add("G({k})*Einf4^-{b}", k=(0, 48, 2), b=(1, 32))
    add("G({k})^-1*Einf4^-{b}", k=(2, 22, 2), b=(1, 32))
    add("G(4)^{a}*Einf4^-{b}", a=(1, 32), b=(1, 32))
    add("G(6)^{a}*Einf4^-{b}", a=(1, 32), b=(1, 32))
    add("G(4)^{a}*G(6)*Einf4^-{b}", a=(1, 32), b=(1, 32))
    add("G(10)^{a}*Einf4^-{b}", a=(1, 32), b=(1, 32))
    add("Egamma2^{a}*Einf4^-{b}", a=(1, 32), b=(1, 32))
    add("Egamma2^{a}*Delta^-{b}", a=(1, 32), b=(1, 32))
    add("E04^{a}*Einf4^-{b}", a=(1, 32), b=(1, 32))
    add("Delta2^-{a}", a=(1, 32))
    # conductor three
    add("phi(3)^-{a}", a=(1, 32))
    add("Phi(3)^-{a}", a=(1, 32))
    # pure E(N,inf,k)^-a families (rule or deviation decided per window)
    add("E(2,inf,{k})^-{a}", k=(8, 24, 4), a=(1, 24))
    add("E(2,inf,{k})^-{a}", k=(6, 22, 4), a=(1, 12))
    add("E(3,inf,6)^-{a}", a=(1, 24))
    add("E(3,inf,{k})^-{a}", k=(12, 24, 6), a=(1, 24))
    add("E(3,inf,{k})^-{a}", k=(8, 20, 6), a=(1, 24))
    add("E(3,inf,{k})^-{a}", k=(10, 22, 6), a=(1, 12))
    return {"name": "rules-desk", "families": fams}


def full_rules_config() -> dict:
    """The full survey ranges (long-running; not part of the test suite)."""
    fams = []
    add = _family_adder(fams)
    add("Delta^-{a}", a=(1, 140))
    add("j^{a}", a=(1, 50))
    add("j*Delta^-{a}", a=(1, 100))
    add("j^{a}*Delta^-{b}", a=(1, 50), b=(1, 50))
    add("G(6)^{a}*Delta^-{b}", a=(1, 50), b=(1, 50))
    add("G(4)^{a}*G(6)^{b}*Delta^-{c}", a=(1, 50), b=(1, 11), c=(1, 50))
    add("G(4)^{a}*Delta^-{c}", a=(1, 50), c=(1, 50))
    add("G(10)^{a}*Delta^-{b}", a=(1, 50), b=(1, 50))
    add("G(14)^{a}*Delta^-{b}", a=(1, 50), b=(1, 50))
    add("G({k})*Delta^-{b}", k=(2, 14, 2), b=(1, 140))
    add("G({k})*Delta^-{b}", k=(16, 48, 2), b=(1, 50))
    add("G({k})^-1*Delta^-{b}", k=(2, 36, 2), b=(1, 50))
    for d in range(1, 5):
        for n in range(1, d + 1):
            add(f"S({n},{d})^-{{a}}", a=(1, 50))
    add("G(10)^{a}*S(1,2)^-{b}", a=(1, 50), b=(1, 50))
    add("G(14)^{a}*S(1,2)^-{b}", a=(1, 50), b=(1, 50))
    add("G(4)^{a}*G(6)^{b}*S(1,2)^-{c}", a=(1, 50), b=(1, 5), c=(1, 50))
    add("Egamma2*E04*Einf4^-{a}", a=(1, 100))
    add("Egamma2^2*E04*Einf4^-{a}", a=(1, 100))
    add("j2^{a}", a=(1, 100))
    add("phi(2)^-{a}", a=(1, 100))
    add("G({k})*Einf4^-{b}", k=(0, 48, 2), b=(1, 50))
    add("G({k})^-1*Einf4^-{b}", k=(2, 22, 2), b=(1, 50))
    add("G(4)^{a}*Einf4^-{b}", a=(1, 50), b=(1, 50))
    add("G(6)^{a}*Einf4^-{b}", a=(1, 50), b=(1, 50))
    add("G(4)^{a}*G(6)*Einf4^-{b}", a=(1, 50), b=(1, 50))
    add("G(10)^{a}*Einf4^-{b}", a=(1, 50), b=(1, 50))
    add("Egamma2^{a}*Einf4^-{b}", a=(1, 50), b=(1, 50))
    add("Egamma2^{a}*Delta^-{b}", a=(1, 50), b=(1, 50))
    add("E04^{a}*Einf4^-{b}", a=(1, 50), b=(1, 50))
    add("Delta2^-{a}", a=(1, 100))
    add("phi(3)^-{a}", a=(1, 100))
    add("G(10)^-{a}*phi(3)^-{b}", a=(1, 50), b=(1, 50))
    add("Phi(3)^-{a}", a=(1, 50))
    add("G({k})*Phi(3)^-{b}", k=(2, 48, 2), b=(1, 50))
    add("G(4)^{a}*Phi(3)^-{b}", a=(1, 50), b=(1, 50))
    add("G(10)^{a}*Phi(3)^-{b}", a=(1, 50), b=(1, 50))
    add("Einf4^-{a}", a=(1, 51))
    add("E(2,inf,{k})^-{a}", k=(6, 22, 4), a=(1, 51))
    add("E(2,inf,{k})^-{a}", k=(8, 24, 4), a=(1, 51))
    add("E(3,inf,6)^-{a}", a=(1, 98))
    add("E(3,inf,{k})^-{a}", k=(12, 24, 6), a=(1, 49))
    add("E(3,inf,{k})^-{a}", k=(8, 20, 6), a=(1, 97))
    add("E(3,inf,{k})^-{a}", k=(10, 22, 6), a=(1, 98))
    return {"name": "rules-full", "families": fams}
