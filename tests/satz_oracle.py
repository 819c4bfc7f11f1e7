"""The per-element Satz check, kept as the test oracle for
``qgap.siegel.run_satz_suite``, and the level-1 basis as it was first
built, kept as the oracle of ``qgap.forms.basis_m1``.

The suite pairs each weight's T once, against the head A of the basis
A * H^(e d), and reads each element's c_0 as one dot product.  The oracle
builds every basis element to the pole order of T plus 1 and pairs each
with T by ``satz1_check``, one element at a time.  The suite reads
c_0[T_{2,h}] of its signs and EXPERIMENTAL records from ``t_series``; the
oracle reads it by parsing the text T2(h) (``forms.constant_term``).

Run the paper-scale comparison, weights to 240 at both levels, with
``python tests/satz_oracle.py --full`` (weights to 120 without ``--full``);
it exits 1 when the suite's vanishing records, or the c_0 of its signs and
EXPERIMENTAL records, differ from the oracle's.
"""

from __future__ import annotations

import sys
import time

from qgap.catalog import DELTA, G4, G6, dim_m, pairing_generator
from qgap.forms import basis_m1, basis_m2, constant_term, generator_series
from qgap.series import QSeries
from qgap.siegel import run_satz_suite, satz1_check


def basis_m1_oracle(h: int, prec: int) -> list[QSeries]:
    """Delta^d times the monomial G4^a G6^b of weight h - 12d (b in {0,1}
    fixed by h mod 4), for d < dim_m(1, h), each product built on its own."""
    g4, g6, dl = (generator_series(g, prec) for g in (G4, G6, DELTA))
    basis = []
    dpow = QSeries.one(prec)
    for d in range(dim_m(1, h)):
        w = h - 12 * d
        b = 0 if w % 4 == 0 else 1
        a = (w - 6 * b) // 4
        basis.append(dpow * g4**a * g6**b)
        dpow = dpow * dl
    return basis


def vanishing(hmax_level1: int, hmax_level2: int) -> list[dict]:
    """The vanishing records of ``run_satz_suite(hmax_level1,
    hmax_level2)``, one ``satz1_check`` per basis element."""
    records = []
    for level, h_start, hmax, basis in ((1, 4, hmax_level1, basis_m1),
                                        (2, 2, hmax_level2, basis_m2)):
        for h in range(h_start, hmax + 1, 2):
            for d, f in enumerate(basis(h, pairing_generator(level, h).pole_order + 1)):
                rec = satz1_check(level, h, f)
                rec["form"] = f"level{level} h={h} basis[{d}]"
                records.append(rec)
    return records


def t2_mismatches(suite: dict, hmax_level2: int) -> list[str]:
    """How the signs (h = 0 mod 4) and EXPERIMENTAL (h = 2 mod 4) records
    of ``suite``, a ``run_satz_suite(..., hmax_level2)`` result, differ
    from c_0[T_{2,h}] read by parsing the text T2(h)."""
    bad = []
    for key, h_start in (("signs", 4), ("experimental", 2)):
        weights = [rec["weight"] for rec in suite[key]]
        if weights != list(range(h_start, hmax_level2 + 1, 4)):
            bad.append(f"{key}: weights {weights}")
        for rec in suite[key]:
            want = constant_term(f"T2({rec['weight']})")
            if rec["c0"] != want:
                bad.append(f"{key} h={rec['weight']}: c0 = {rec['c0']}, "
                           f"the oracle reads {want}")
    return bad


def main(argv: list[str]) -> int:
    hmax = 240 if "--full" in argv else 120
    start = time.process_time()
    suite = run_satz_suite(hmax, hmax)
    got = suite["vanishing"]
    suite_s = time.process_time() - start
    want = vanishing(hmax, hmax)
    bad = [f"{w['form']}: c0 = {g['c0']}, the oracle reads {w['c0']}"
           for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        bad.append(f"{len(got)} records, the oracle has {len(want)}")
    bad += t2_mismatches(suite, hmax)
    oracle_s = time.process_time() - start - suite_s
    for line in bad[:20]:
        print(line)
    print(f"satz to weight {hmax}: {len(want)} vanishing records and "
          f"{len(suite['signs']) + len(suite['experimental'])} T2 constant terms, "
          f"{len(bad)} mismatches "
          f"(suite {suite_s:.2f} s, oracle {oracle_s:.2f} s CPU)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
