"""Correctness oracles for the benchmark workloads.

Each oracle takes a workload's outputs, reduced to plain data, and returns
``(attempted, failed, notes)``.  An item is a survey record, a table row, a
lattice or a check; ``attempted`` is the number the workload is known to
produce, so missing items count as failed.  Nothing here imports qgap: the
oracles recompute what they check from first principles.
"""

from __future__ import annotations

import hashlib


def _divisor_sum(n: int, k: int, odd_only: bool = False) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d == 0 and (d % 2 == 1 or not odd_only):
            total += d**k
    return total


def _ord(n: int, p: int) -> int:
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


# -- survey --------------------------------------------------------------------


def survey_digest(lines) -> str:
    """sha256 of the ``expr<TAB>c0<TAB>verdict`` lines, in survey order."""
    h = hashlib.sha256()
    for expr, c0, verdict in lines:
        h.update(f"{expr}\t{c0}\t{verdict}\n".encode())
    return h.hexdigest()


def check_survey(lines, reference: dict):
    """Every record is PASS and the digest of all ``(expr, c0, verdict)``
    lines matches the reference.  A digest mismatch cannot be pinned to one
    record, so it fails them all."""
    expected = reference["items"]
    failed = sum(1 for _, _, verdict in lines if verdict != "PASS")
    failed += max(0, expected - len(lines))
    digest_ok = survey_digest(lines) == reference["sha256"]
    if not digest_ok:
        failed = expected
    return expected, min(failed, expected), {"digest_ok": digest_ok}


# -- tables --------------------------------------------------------------------

_LEHNER_BOUND = {2: (3, 8), 3: (2, 3), 5: (1, 1), 7: (1, 0)}  # ord_p >= a*alpha + b


def _delta_pn_prediction(n: int, p: int):
    if n < 1:
        return None
    if p == 2 and n % 2 == 0:
        return 3 * _ord(n, 2) + 1
    if p == 3 and n % 3 == 0:
        return 2 * _ord(n, 3)
    if p == 3 and n % 3 == 1:
        return -1
    if p == 5 and n % 5 == 0:
        return _ord(n, 5)
    return None


def _table_row_verdict(kind: str, row: dict) -> str:
    """The verdict a row must carry, derived from its own fields and the
    stated laws, not from the library's verdict."""
    n, p = row["n"], row["p"]
    if kind == "delta_pn":
        predicted = _delta_pn_prediction(n, p)
        if row["predicted"] != predicted:
            return "FAIL"
        if predicted is None:
            return "RECORDED"
        if row["delta_pn"] == predicted:
            return "PASS"
        return "EXCEPTION" if p == 5 else "FAIL"
    if kind == "reciprocal":
        if p == 5 and n % 5 in (3, 4):
            return "NOT_APPLICABLE"
        if p == 5 and n > 1225:
            return "RECORDED"
        return "PASS" if row["ord_inv_j"] == row["ord_delta"] else "FAIL"
    if kind == "lehner":
        alpha = _ord(n, p)
        a, b = _LEHNER_BOUND[p]
        if alpha == 0 or row["alpha"] != alpha or row["required"] != a * alpha + b:
            return "FAIL"
        have = row["ord"]
        return "PASS" if have == "inf" or have >= a * alpha + b else "FAIL"
    raise ValueError(f"unknown table kind {kind!r}")


def check_tables(rows, reference: dict):
    """No row FAILs, and each row's verdict is the one its own fields imply.
    p = 5 EXCEPTION rows are counted in the notes, not as failures."""
    expected = reference["items"]
    failed = max(0, expected - len(rows))
    exceptions = 0
    for kind, row in rows:
        want = _table_row_verdict(kind, row)
        if want == "FAIL" or row["verdict"] != want:
            failed += 1
        elif want == "EXCEPTION":
            exceptions += 1
    return expected, min(failed, expected), {"p5_exceptions": exceptions}


# -- lattice -------------------------------------------------------------------


def theta_e8(n_max: int) -> list[int]:
    """theta_E8 = 1 + 240 sum sigma_3(n) q^n."""
    return [1] + [240 * _divisor_sum(n, 3) for n in range(1, n_max + 1)]


def theta_d4(n_max: int) -> list[int]:
    """theta_D4 = 1 + 24 sum sigma_odd(n) q^n."""
    return [1] + [24 * _divisor_sum(n, 1, odd_only=True) for n in range(1, n_max + 1)]


def theta_d4d4(n_max: int) -> list[int]:
    """theta_{D4+D4} = theta_D4 squared."""
    t = theta_d4(n_max)
    return [sum(t[i] * t[n - i] for i in range(n + 1)) for n in range(n_max + 1)]


THETA_ORACLES = {"E8": theta_e8, "D4+D4": theta_d4d4, "D4": theta_d4}
LATTICE_LEVEL = {"E8": 1, "D4+D4": 2, "D4": 2}


def check_lattice(results, reference: dict):
    """Each lattice's counts equal its divisor-sum series, and its
    minimum-bound record names the true level, minimum and a PASS."""
    expected = reference["items"]
    failed = max(0, expected - len(results))
    for name, n_max, counts, record in results:
        want = THETA_ORACLES[name](n_max)
        first = next(n for n in range(1, n_max + 1) if want[n])
        rank = record["rank"]
        bound = 2 + rank // 4 if rank % 8 == 0 else 2 + rank // 2
        ok = (
            counts == want
            and record["level"] == LATTICE_LEVEL[name]
            and record["min"] == 2 * first
            and record["bound"] == bound
            and record["verdict"] == "PASS"
        )
        failed += not ok
    return expected, min(failed, expected), {}


# -- pairing -------------------------------------------------------------------


def _dim(level: int, h: int) -> int:
    """Dimension of the entire weight-h forms for SL2(Z) or Gamma0(2)."""
    if level == 1:
        return h // 12 if h % 12 == 2 else h // 12 + 1
    return h // 4 + 1


def check_pairing(out: dict, reference: dict):
    """Every non-EXPERIMENTAL check is PASS, every satz constant term is 0,
    each c_0[T_{2,h}] has sign (-1)^(r+1), and each gap record's first
    nonzero index lies within the bound its weight and level give."""
    expected = reference["items"]
    attempted = 0
    failed = 0
    for rec in out["vanishing"]:
        attempted += 1
        failed += not (rec["verdict"] == "PASS" and rec["c0"] == 0)
    for rec in out["signs"]:
        attempted += 1
        r = _dim(2, rec["weight"])
        failed += not (rec["verdict"] == "PASS" and rec["c0"] != 0
                       and (rec["c0"] > 0) == (r % 2 == 1))
    for rec in out["gaps"]:
        attempted += 1
        h, r = rec["weight"], _dim(rec["level"], rec["weight"])
        bound = r if rec["level"] == 1 or h % 4 == 0 else 2 * r
        first = rec["first_nonzero_index"]
        failed += not (rec["verdict"] == "PASS" and first is not None
                       and 1 <= first <= bound)
    for rec in out["theorem4"]:
        attempted += 1
        failed += rec["verdict"] != "PASS"
    failed += max(0, expected - attempted)
    return expected, min(failed, expected), {}


ORACLES = {
    "survey": check_survey,
    "tables": check_tables,
    "lattice": check_lattice,
    "pairing": check_pairing,
}
