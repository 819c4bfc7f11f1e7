"""The constant terms of a rules survey, recomputed mod the prime
P = 2^61 - 1 by a path that shares nothing with the survey's batch path.

Each record's ``expr`` is read through ``parse_expr``, not the template
binder.  Each generator's expansion comes from ``generator_series``, built
cold at the largest window any record reads it at, and is reduced mod P.
Factor powers come by repeated multiplication, a negative power from the
classical inverse loop

    b_0 = 1 / a_0,   b_k = -b_0 * sum_{i=1..k} a_i b_{k-i},

and each form's product is truncated at its pole order + 1, so its q^0
coefficient is one dot product.  It is compared with the record's c0 mod P;
a Fraction c0 is its numerator times the inverse of its denominator.  A
denominator divisible by P, or a record without a c0, is reported as a
mismatch, never skipped, as is an expansion that fails to build.

Run the paper-scale check with ``python tests/c0_oracle.py --full`` (the
desk survey without ``--full``); it exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction
from operator import mul

from qgap import memo
from qgap.congruence import desk_rules_config, full_rules_config, run_survey
from qgap.exprs import parse_expr
from qgap.forms import generator_series
from qgap.series import ReachError

P = 2**61 - 1


def _mod(c) -> int:
    """An int or Fraction mod P; ValueError when P divides its denominator."""
    c = Fraction(c)
    if c.denominator % P == 0:
        raise ValueError(f"denominator of {c} is divisible by P")
    return c.numerator * pow(c.denominator, -1, P) % P


def _mul(a: list, b: list) -> list:
    """The product of two series mod P, truncated to the length of ``a``."""
    return [sum(map(mul, a[:k + 1], reversed(b[:k + 1]))) % P for k in range(len(a))]


def _inverse(a: list) -> list:
    """The inverse series mod P by the classical loop."""
    if a[0] == 0:
        raise ValueError("leading coefficient divisible by P")
    b0 = pow(a[0], -1, P)
    b = [b0]
    for k in range(1, len(a)):
        b.append(-b0 * sum(map(mul, a[1:k + 1], reversed(b))) % P)
    return b


class _Tables:
    """Each generator's expansion, its powers and the head products of
    the forms (all factors but the last), mod P, each at the largest window
    a record reads it at and truncated to the window of the record."""

    def __init__(self, forms):
        self.window: dict = {}
        for form in forms:
            w = form.pole_order + 1
            for key in [g for g, _ in form.factors] + [form.factors[:-1]]:
                self.window[key] = max(self.window.get(key, 0), w)
        self.base: dict = {}
        self.powers: dict = {}
        self.heads: dict = {}

    def power(self, gen, e: int) -> tuple[int, list]:
        """(valuation, coefficients mod P) of gen^e at the window of gen."""
        if gen not in self.base:
            s = generator_series(gen, self.window[gen])
            self.base[gen] = (s.valuation, [_mod(c) for c in s.coefficients()])
        val, coeffs = self.base[gen]
        key = (gen, e > 0)
        if key not in self.powers:
            self.powers[key] = [coeffs if e > 0 else _inverse(coeffs)]
        powers = self.powers[key]
        while len(powers) < abs(e):
            powers.append(_mul(powers[-1], powers[0]))
        return val * e, powers[abs(e) - 1]

    def product(self, factors: tuple) -> tuple[int, list]:
        """(valuation, coefficients mod P) of the product of ``factors``."""
        if len(factors) == 1:
            return self.power(*factors[0])
        if factors not in self.heads:
            w = self.window[factors]
            val, acc = 0, [1] + [0] * (w - 1)
            for g, e in factors:
                v, c = self.power(g, e)
                val, acc = val + v, _mul(acc, c[:w])
            self.heads[factors] = (val, acc)
        return self.heads[factors]


def mismatches(records) -> list[str]:
    """One line for each survey record whose c0 the oracle does not read.
    Empties the ``qgap.memo`` memos first, so every expansion it reads is
    built cold."""
    memo.clear()
    forms = [parse_expr(rec.expr) for rec in records]
    tables = _Tables(forms)
    out = []
    for rec, form in zip(records, forms):
        w = form.pole_order + 1
        try:
            if rec.c0 is None:
                raise ValueError(f"no c0 (verdict {rec.verdict})")
            *head, last = form.factors
            val, b = tables.power(*last)
            if head:
                v, a = tables.product(tuple(head))
                val += v
            k = -val
            if k >= w:
                raise ValueError(f"q^0 lies past the window {w} (valuation {val})")
            if k < 0:
                got = 0
            elif head:
                got = sum(map(mul, a[:k + 1], reversed(b[:k + 1]))) % P
            else:
                got = b[k]
            want = _mod(rec.c0)
        except (ValueError, ReachError) as exc:
            out.append(f"{rec.expr}: {type(exc).__name__}: {exc}")
            continue
        if got != want:
            out.append(f"{rec.expr}: c0 = {want} mod P, the oracle reads {got}")
    return out


def main(argv: list[str]) -> int:
    config = full_rules_config() if "--full" in argv else desk_rules_config()
    start = time.process_time()
    records = run_survey(config).records
    survey_s = time.process_time() - start
    bad = mismatches(records)
    oracle_s = time.process_time() - start - survey_s
    for line in bad[:20]:
        print(line)
    print(f"{config['name']}: {len(records)} records, {len(bad)} mismatches "
          f"(survey {survey_s:.2f} s, oracle {oracle_s:.2f} s CPU)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
