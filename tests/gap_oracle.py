"""The full-window gap suite, kept as the test oracle for
``qgap.siegel.run_gap_suite``.

Every basis element and every seeded random combination is built to the
whole window bound + 1, coefficient by coefficient, so each record's first
nonzero index is read from every coefficient the gap theorem bounds.
"""

from __future__ import annotations

import random

from qgap.catalog import gap_bounds
from qgap.forms import basis_m1, basis_m2
from qgap.series import QSeries
from qgap.siegel import DEFAULT_SEED, gap_check


def random_combination(rng: random.Random, basis: list[QSeries]) -> QSeries:
    """Small random integer combination with a nonzero constant term."""
    zero_val_index = next(i for i, b in enumerate(basis) if b.valuation == 0)
    while True:
        coeffs = [rng.randint(-9, 9) for _ in basis]
        if coeffs[zero_val_index] != 0:
            break
    reach = min(b.reach for b in basis)
    return QSeries(0, [sum(c * b.coeff(n) for c, b in zip(coeffs, basis))
                       for n in range(reach)])


def full_window_gap_suite(level: int = 2, hmax: int = 40, combos: int = 20,
                          seed: int = DEFAULT_SEED) -> list:
    """The records of ``run_gap_suite(level, hmax, combos, seed)``."""
    rng = random.Random(seed)
    records = []
    for h in range(2 if level == 2 else 4, hmax + 1, 2):
        prec = gap_bounds(level, h)[1] + 1
        basis = basis_m2(h, prec) if level == 2 else basis_m1(h, prec)
        forms, ids = [], []
        for d, b in enumerate(basis):
            if b.coeff(0) != 0:
                forms.append(b)
                ids.append(f"h={h} basis[{d}]")
        for k in range(combos):
            forms.append(random_combination(rng, basis))
            ids.append(f"h={h} combo[{k}]")
        records.extend(gap_check(h, forms, level=level, form_ids=ids))
    return records
