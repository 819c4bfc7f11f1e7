"""The four benchmark workloads: inputs made from the seed, the library calls,
and the reduction of their results to the plain data the oracles read.

``survey`` and ``tables`` have fixed inputs: the seed is recorded but unused.
``lattice`` permutes coordinates and flips signs of each Gram matrix, a change
of basis that leaves every theta series unchanged, so the same oracle holds
for every seed.  The permutation changes the cost of enumeration by up to a
tenth, so pass k of a run draws its own variants from (seed, k) and the
run's median averages over them.  ``pairing`` passes the seed to the random
combinations of the gap suite.

qgap is imported inside the functions, after the caller has put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

import random

TABLE_N = 2048
TABLE_PRIMES = (2, 3, 5)
PAIRING_HMAX = 120

D4 = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
E8 = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)
D4D4 = tuple(r + (0,) * 4 for r in D4) + tuple((0,) * 4 + r for r in D4)

#: (name, Gram matrix, largest n counted): about 93k lattice points in all.
LATTICES = (("E8", E8, 4), ("D4+D4", D4D4, 6), ("D4", D4, 60))


def permute_and_flip(rows, rng: random.Random):
    """P^T S A S P for a random permutation P and sign matrix S."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(
        tuple(sign[i] * sign[j] * rows[perm[i]][perm[j]] for j in range(n))
        for i in range(n)
    )


def make_inputs(workload: str, seed: int, pass_id: int):
    """The inputs of one pass; the library sees nothing but these."""
    if workload == "survey":
        from qgap.congruence import desk_rules_config

        return desk_rules_config()
    if workload == "tables":
        return TABLE_N
    if workload == "lattice":
        rng = random.Random(f"{seed}/{pass_id}")
        return [(name, permute_and_flip(rows, rng), n) for name, rows, n in LATTICES]
    if workload == "pairing":
        return seed
    raise ValueError(f"unknown workload {workload!r}")


def drive(workload: str, inputs):
    """The library calls of one pass; their results, unreduced."""
    if workload == "survey":
        from qgap.congruence import run_survey

        return run_survey(inputs, jobs=1)
    if workload == "tables":
        from qgap.congruence import delta_pn_compare, lehner_check, reciprocal_compare

        out = [("delta_pn", delta_pn_compare(p, inputs)) for p in TABLE_PRIMES]
        out.append(("reciprocal", reciprocal_compare(inputs)))
        out.append(("lehner", lehner_check(inputs)))
        return out
    if workload == "lattice":
        from qgap.quadratic import theta, validate, verify_theorem51

        out = []
        for name, rows, n in inputs:
            gram = validate(rows)
            out.append((name, n, theta(gram, n), verify_theorem51(gram)))
        return out
    if workload == "pairing":
        from qgap.siegel import run_gap_suite, run_satz_suite, theorem4_checks

        satz = run_satz_suite(PAIRING_HMAX, PAIRING_HMAX)
        gaps = [run_gap_suite(level, PAIRING_HMAX, seed=inputs) for level in (1, 2)]
        t4 = theorem4_checks(h43_max=480, x43_max=8)
        return satz, gaps, t4
    raise ValueError(f"unknown workload {workload!r}")


def reduce(workload: str, result):
    """Plain data for the oracle."""
    if workload == "survey":
        return [(r.expr, str(r.c0), r.verdict) for r in result.records]
    if workload == "tables":
        return [(kind, row) for kind, rows in result for row in rows]
    if workload == "lattice":
        return result
    if workload == "pairing":
        satz, gaps, t4 = result
        return {
            "vanishing": satz["vanishing"],
            "signs": satz["signs"],
            "gaps": [rec.to_dict() for suite in gaps for rec in suite["records"]],
            "theorem4": t4,
        }
    raise ValueError(f"unknown workload {workload!r}")
