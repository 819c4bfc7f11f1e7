"""Vanishing, sign, and Fourier-gap checks.

Three families of executable checks:

* satz-style vanishing: c_0[f * T] = 0 for every entire f of matching
  weight, at level 1 (T_h pairing an Eisenstein factor with Delta^-r) and
  level 2 (T_{2,h} built from the three level-2 generators).  T is
  ``catalog.pairing_generator(level, h)``, built once per weight and
  read to q^0 through ``forms.generator_series`` at its pole order + 1
  coefficients.  Each basis
  is A * H^d (``forms.basis_factors``), so by bilinearity the suite pairs
  T with A once per weight and reads c_0 of each element as one dot
  product against a power of H, shared by the weights of a level;
* the nonvanishing and sign of c_0[T_{2,h}] for h = 0 mod 4: the constant
  term has sign (-1)^(r+1), r = dim of the weight-h level-2 space;
* gap bounds (``catalog.gap_bounds``): an entire form of weight h with
  nonzero constant term has a nonzero coefficient at some index in
  [1, bound].  The conjectured level-2 bound for h = 2 mod 4 is measured
  and reported as EXPERIMENTAL, never asserted, as is the nonvanishing of
  c_0[T_{2,h}] for h = 2 mod 4.  A gap record reads only c_0 and the first
  nonzero index after it, so the gap suite builds each weight's forms to a
  window that starts at 2 and doubles, up to bound + 1, only while some
  form is still zero after c_0; a form of shorter reach is refused only
  when its verdict is undecided.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple

from qgap.arith import digit_sum
from qgap.catalog import Generator, dim_m, gap_bounds, pairing_generator
from qgap.congruence import RuleCheck, order_check, read_c0
from qgap.forms import (FactorPowers, basis_factors, basis_m1, basis_m2, constant_term,
                         generator_series)
from qgap.series import QSeries, ReachError
from qgap.verdict import Verdict

__all__ = [
    "DEFAULT_SEED",
    "GapCheckResult",
    "constant_term_t2",
    "gap_check",
    "run_gap_suite",
    "run_satz_suite",
    "satz1_check",
    "theorem4_checks",
]

DEFAULT_SEED = 271828


class GapCheckResult(NamedTuple):
    """One form against the gap bound for its weight; ``_asdict()`` is its
    JSON row."""

    weight: int
    level: int
    dim: int
    bound: int
    form: str
    first_nonzero_index: int | None
    verdict: Verdict
    conjectured_bound: int | None = None  # r+1 for h = 2 mod 4; reported only
    within_conjectured: bool | None = None

    def to_dict(self) -> dict:
        return self._asdict()


def satz1_check(level: int, h: int, f: QSeries) -> dict:
    """Exact check that c_0[f * T] vanishes for an entire weight-h form f.

    f must be holomorphic (valuation >= 0) with enough justified
    coefficients to cover the pole of the pairing series.
    """
    t = pairing_generator(level, h)
    pole = t.pole_order
    if not f.is_zero and f.valuation < 0:
        raise ValueError("satz1_check requires a holomorphic form")
    if f.reach < pole + 1:
        raise ReachError(
            f"f needs reach >= {pole + 1} to pair against a pole of order {pole}"
        )
    # t reaches q^0 only; the product's reach min(f.valuation + 1,
    # f.reach - pole) is still >= 1, so c_0 is justified
    return _vanishing(level, h, _to_q0(t).product_coeff(f, 0))


def _to_q0(t: Generator) -> QSeries:
    """The expansion of ``t`` read to q^0: pole order + 1 coefficients."""
    return generator_series(t, t.pole_order + 1)


def _vanishing(level: int, h: int, c0, **extra) -> dict:
    """The record of one vanishing check, c_0[f * T] = ``c0``, then the
    ``extra`` keys."""
    return {"level": level, "weight": h, "c0": c0,
            "verdict": Verdict.PASS if c0 == 0 else Verdict.FAIL, **extra}


def _basis_pairings(level: int, h: int, t: QSeries, powers: FactorPowers) -> list:
    """[c_0[f_d * t] for d < r] over the basis f_d = A * H^(e d) of
    ``basis_factors``, t with the pole of ``pairing_generator(level, h)``,
    read to q^0.  By bilinearity c_0[f_d * t] = c_0[H^(e d) * P] with
    P = A * t, so the weight costs one product, and each element one dot
    product against a power of H read from ``powers``."""
    r, head, (gen, e) = basis_factors(level, h)
    window = 1 - t.valuation
    p = powers.series(head, window) * t
    return [p.coeff(0)] + [powers.series(((gen, e * d),), window).product_coeff(p, 0)
                           for d in range(1, r)]


def constant_term_t2(h: int) -> dict:
    """c_0[T_{2,h}] for h = 0 mod 4: nonzero with sign (-1)^(r+1)."""
    if h < 4 or h % 4 != 0:
        raise ValueError(f"constant_term_t2 needs h = 0 mod 4, h >= 4, got {h}")
    r = dim_m(2, h)
    c0 = _to_q0(pairing_generator(2, h)).coeff(0)
    want_positive = (r + 1) % 2 == 0
    ok = c0 != 0 and (c0 > 0) == want_positive
    return {
        "weight": h,
        "dim": r,
        "c0": c0,
        "expected_sign": "+" if want_positive else "-",
        "verdict": Verdict.PASS if ok else Verdict.FAIL,
    }


def gap_check(h: int, forms, level: int = 2, form_ids=None) -> list[GapCheckResult]:
    """First nonzero positive-exponent coefficient of each form against the
    gap bound for its weight.  Forms must have a nonzero constant term.  A
    form whose reach is at most the bound is enough when its first nonzero
    index lies below the reach; ReachError only when the verdict is
    undecided, every justified coefficient after c_0 being zero.
    ``form_ids``, when given, names each form: ValueError unless there is
    exactly one id per form."""
    if h <= 0 or h % 2 != 0:
        raise ValueError(f"gap_check needs even h > 0, got {h}")
    r, bound, conj = gap_bounds(level, h)
    if form_ids is None:
        form_ids = [f"form[{i}]" for i in range(len(forms))]
    elif len(form_ids) != len(forms):
        raise ValueError(f"{len(form_ids)} form ids for {len(forms)} forms")
    results = []
    for fid, f in zip(form_ids, forms):
        if f.coeff(0) == 0:
            raise ValueError(f"{fid}: zero constant term (hypothesis violated)")
        first = f.first_nonzero_index(start=1)
        if first is None and f.reach <= bound:
            raise ReachError(f"{fid}: zero on [1, {f.reach}) and reach {f.reach} "
                             f"too small for bound {bound}")
        ok = first is not None and first <= bound
        results.append(GapCheckResult(
            weight=h, level=level, dim=r, bound=bound, form=fid,
            first_nonzero_index=first, verdict=Verdict.PASS if ok else Verdict.FAIL,
            conjectured_bound=conj,
            within_conjectured=None if conj is None or first is None
            else first <= conj,
        ))
    return results


def run_gap_suite(level: int = 2, hmax: int = 40, combos: int = 20,
                  seed: int = DEFAULT_SEED) -> dict:
    """Gap bounds over the basis element with nonzero constant term plus
    seeded random combinations of the basis, for even weights up to hmax.

    Each combination draws r weights in -9..9, redrawn while the weight on
    the valuation-0 basis element is 0, so its constant term is nonzero.  A
    record reads only c_0 and the first nonzero index after it, so each
    weight builds its basis and combinations to a window w = 2 first and
    doubles w, up to bound + 1, while some form is zero on [1, w)."""
    h_start = 2 if level == 2 else 4
    if hmax < h_start:
        raise ValueError(f"hmax {hmax} is below the first level-{level} weight {h_start}")
    if combos < 0:
        raise ValueError(f"combos must be >= 0, got {combos}")
    rng = random.Random(seed)
    basis_of = basis_m2 if level == 2 else basis_m1
    records: list[GapCheckResult] = []
    for h in range(h_start, hmax + 1, 2):
        r, bound, _ = gap_bounds(level, h)
        # the basis is triangular with valuations 0..r-1, so only the element
        # of valuation 0 has a nonzero constant term
        lead = r - 1 if level == 2 else 0
        weights = []
        for _ in range(combos):
            ws = [rng.randint(-9, 9) for _ in range(r)]
            while ws[lead] == 0:
                ws = [rng.randint(-9, 9) for _ in range(r)]
            weights.append(ws)
        window = 2  # bound >= 1 at every weight
        while True:
            basis = basis_of(h, window)
            cols = list(zip(*([b.coeff(n) for n in range(window)] for b in basis)))
            forms = [basis[lead]] + [QSeries(0, [sum(map(mul, ws, col)) for col in cols])
                                     for ws in weights]
            if window > bound or all(f.first_nonzero_index(start=1) is not None
                                     for f in forms):
                break
            window = min(2 * window, bound + 1)
        ids = [f"h={h} basis[{lead}]"] + [f"h={h} combo[{k}]" for k in range(combos)]
        records.extend(gap_check(h, forms, level=level, form_ids=ids))
    return {
        "level": level,
        "hmax": hmax,
        "combos": combos,
        "seed": seed,
        "records": records,
    }


def run_satz_suite(hmax_level1: int = 36, hmax_level2: int = 40) -> dict:
    """Vanishing of c_0[f*T] over full bases at both levels, the sign law
    for c_0[T_{2,h}] (h = 0 mod 4), and the EXPERIMENTAL record of
    c_0[T_{2,h}] for h = 2 mod 4."""
    vanishing = []
    for level, h_start, hmax in ((1, 4, hmax_level1), (2, 2, hmax_level2)):
        weights = range(h_start, hmax + 1, 2)
        ts = {h: pairing_generator(level, h) for h in weights}
        # one table per level, read in decreasing pole order, so each power
        # of H is built once, at the largest window the level reads it at
        powers = FactorPowers()
        pairings = {h: _basis_pairings(level, h, _to_q0(ts[h]), powers)
                    for h in sorted(weights, key=lambda h: ts[h].pole_order, reverse=True)}
        vanishing += [_vanishing(level, h, c0, form=f"level{level} h={h} basis[{d}]")
                      for h in weights for d, c0 in enumerate(pairings[h])]
    signs = [constant_term_t2(h) for h in range(4, hmax_level2 + 1, 4)]
    experimental = []
    for h in range(2, hmax_level2 + 1, 4):
        c0 = _to_q0(pairing_generator(2, h)).coeff(0)
        experimental.append({
            "weight": h,
            "c0": c0,
            "nonzero": c0 != 0,
            "verdict": Verdict.EXPERIMENTAL,
        })
    return {"vanishing": vanishing, "signs": signs, "experimental": experimental}


def theorem4_checks(s_powers=(1, 2, 4, 8, 16, 32, 64), s42_max: int = 80,
                    h43_max: int = 200, r43=(2, 4, 8), x43_max: int = 6) -> list[dict]:
    """The exact 2-adic congruence checks on constant terms:

    (4.1) ord_2(c_0[E_inf4^-s]) = 3 for s a power of two;
    (4.2) ord_2(c_0[Delta^-s]) = 3 d_2(s) for s = 2^x D, D in {1,3,5};
    (4.3) c_0[T_h] = 16 mod 32 (h = 8 mod 12) or 8 mod 32 (h = 2 mod 12)
          when the level-1 dimension is a power of two, and
          c_0[T_{2,h}] = 8 mod 16 (h = 2^x-6) or 16 mod 32 (h = 2^x-4).
    """
    checks = [(f"s={s}", order_check("4.1", 2, read_c0(constant_term(f"Einf4^-{s}")), 3))
              for s in s_powers]
    for D in (1, 3, 5):
        s = D
        while s <= s42_max:
            c0 = constant_term(f"Delta^-{s}")
            checks.append((f"s={s}", order_check("4.2", 2, read_c0(c0), 3 * digit_sum(s, 2))))
            s *= 2
    residues = [(f"T({h})", 16 if h % 12 == 8 else 8, 32)
                for h in range(4, h43_max + 1, 2)
                if dim_m(1, h) in r43 and h % 12 in (2, 8)]
    residues += [(f"T2({2**x - offset})", want, mod)
                 for x in range(3, x43_max + 1)
                 for offset, want, mod in ((6, 8, 16), (4, 16, 32))
                 if 2**x - offset >= 2]
    for name, want, mod in residues:
        got = int(constant_term(name)) % mod
        checks.append((name, RuleCheck("4.3", f"{want} mod {mod}", f"{got} mod {mod}",
                                       Verdict.PASS if got == want else Verdict.FAIL)))
    return [{"theorem": c.rule, "instance": instance, "predicted": c.predicted,
             "observed": c.observed, "verdict": c.verdict} for instance, c in checks]
