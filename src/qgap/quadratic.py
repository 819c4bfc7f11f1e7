"""Even positive-definite quadratic forms: Gram validation, level, exact
theta series, minima, and the minimum bound check.

Q_A(x) = x^T A x for an integer symmetric matrix A with even diagonal, so
Q_A takes even values on integer vectors.  The theta series counts exact
representation numbers: entry n is #{x in Z^v : Q_A(x) = 2n}.

One fraction-free Gauss-Jordan elimination of [A | I] (Bareiss 1968),
run once at validation in integers, decides positive-definiteness (its
pivots are the leading minors), gives the determinant (the last pivot) and
the adjugate det(A) A^-1, from which the level is read.

``theta`` takes one of two routes:

* In the domain of the minimum bound (rank v = 0 mod 4, level <= 2) the
  theta series lies in M_{v/2}(Gamma_0(2)).  Only its first
  r = dim M_{v/2}(Gamma_0(2)) coefficients are counted; they are solved
  against the monic triangular ``forms.basis_m2``, which then produces the
  rest of the series.  A coefficient that comes out non-integral is a
  defect, never rounded.
* Every other matrix is first reduced by exact integer LLL (Lenstra,
  Lenstra and Lovasz 1982; Cohen, GTM 138, Algorithm 2.6.7) to U^T A U with
  U unimodular, whose integral Gram-Schmidt data give
  Q = sum_i (d_i x_i + sum_{j>i} l_ji x_j)^2 / (d_{i-1} d_i) with the
  leading minors d_i.  All lattice points are then enumerated Fincke-Pohst
  style, from the last coordinate to the first, with the bound scaled to
  an integer at every layer and x, -x counted together.

Both routes count through one enumerator; the only float is its estimate of
the points it would visit, a guard that never enters a count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import NamedTuple

from qgap.catalog import dim_m, gap_bounds
from qgap.forms import basis_m2
from qgap.series import DefectError
from qgap.verdict import Verdict

__all__ = [
    "D4",
    "E8",
    "GramMatrix",
    "direct_sum",
    "level",
    "load_gram",
    "min_represented",
    "parse_gram",
    "theorem51_applies",
    "theta",
    "verify_theorem51",
]

#: Gram matrix of the D4 root lattice (determinant 4, level 2).
D4 = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)

#: Gram matrix of the E8 root lattice (even unimodular).
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


def _eliminate(rows) -> tuple[list[int], list[list[int]]]:
    """Leading minors d_1, ..., d_v and the adjugate det(A) A^-1 of A, by
    fraction-free Gauss-Jordan on [A | I] without row exchanges (Bareiss
    1968), every division exact: pivot k is the k-th leading minor, and
    after the last pivot the left half is det(A) I and the right half
    adj(A).  ValueError at the first leading minor <= 0 (Sylvester's
    criterion), where going on would need row exchanges."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    minors = []
    prev = 1
    for k in range(n):
        p, pivot_row = m[k][k], m[k]
        if p <= 0:
            raise ValueError(f"not positive definite: leading minor {k + 1} is {p}")
        minors.append(p)
        for i in range(n):
            if i != k:
                c = m[i][k]
                m[i] = [(p * x - c * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = p
    return minors, [row[n:] for row in m]


class Reduction(NamedTuple):
    """An LLL-reduced basis of a form: ``entries`` = U^T A U for the
    unimodular ``basis`` U, with the integral Gram-Schmidt data of the new
    basis: ``minors`` d_0 = 1, d_1, ..., d_v (its leading minors) and
    ``lam[k][j]`` = d_{j+1} mu_kj for j < k, so that
    Q(x) = sum_i (d_{i+1} x_i + sum_{k>i} lam[k][i] x_k)^2 / (d_i d_{i+1})
    with 0-based coordinates."""

    entries: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    minors: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]


def _lll(rows) -> Reduction:
    """Exact integer LLL with delta = 3/4 on a positive-definite Gram matrix
    (Cohen, Algorithm 2.6.7), every division exact.  The basis starts
    sorted by norm, and the first vector's norm never grows, so the reduced
    diagonal's minimum is at most the input's."""
    n = len(rows)
    order = sorted(range(n), key=lambda i: rows[i][i])
    # 1-based as in Cohen: b[k] is basis vector k in input coordinates
    b = [None] + [[int(i == o) for i in range(n)] for o in order]
    d = [1] + [0] * n
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(1, k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        big = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k] * lam[i][k - 1] - mu * t) // d[k - 1]
            lam[i][k - 1] = (big * t + mu * lam[i][k]) // d[k]
        d[k - 1] = big

    d[1] = rows[order[0]][order[0]]
    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            # incremental Gram-Schmidt: b[k] is still the input vector order[k-1]
            kmax = k
            row = rows[order[k - 1]]
            for j in range(1, k + 1):
                u = sum(a * x for a, x in zip(row, b[j]))
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    cols = b[1:]
    images = [[sum(a * x for a, x in zip(row, c)) for row in rows] for c in cols]
    return Reduction(
        entries=tuple(tuple(sum(x * y for x, y in zip(c, img)) for img in images)
                      for c in cols),
        basis=tuple(zip(*cols)),
        minors=tuple(d),
        lam=tuple(tuple(r[1:]) for r in lam[1:]),
    )


@dataclass(frozen=True)
class GramMatrix:
    """Validated Gram matrix: integer, symmetric, even diagonal, positive
    definite.  The one elimination of validation (``_eliminate``) leaves the
    determinant ``det`` and the level; the LLL ``reduction`` is computed on
    first use."""

    entries: tuple[tuple[int, ...], ...]
    det: int = field(init=False, repr=False, compare=False)
    _level: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty matrix")
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix must be square")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("entries must be integers")
        for i in range(n):
            if rows[i][i] % 2 != 0:
                raise ValueError(f"diagonal entry a[{i}][{i}] = {rows[i][i]} is odd")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")
        minors, adj = _eliminate(rows)
        det = minors[-1]
        # see ``level``: the denominators of adj / det and of its halved diagonal
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "_level", lcm(
            *(det // gcd(x, det) for row in adj for x in row),
            *(2 * det // gcd(adj[i][i], 2 * det) for i in range(n))))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @cached_property
    def reduction(self) -> Reduction:
        return _lll(self.entries)


def validate(rows) -> GramMatrix:
    """Spec-facing constructor name."""
    return GramMatrix(tuple(tuple(r) for r in rows))


def direct_sum(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Block-diagonal sum of two forms."""
    n, m = a.rank, b.rank
    rows = []
    for i in range(n):
        rows.append(tuple(a.entries[i]) + (0,) * m)
    for i in range(m):
        rows.append((0,) * n + tuple(b.entries[i]))
    return GramMatrix(tuple(rows))


def level(gram: GramMatrix) -> int:
    """Smallest positive N with N*A^-1 integral and even on the diagonal:
    the lcm of the denominators of the entries of A^-1 and of half its
    diagonal entries, set at validation."""
    return gram._level


def theorem51_applies(gram: GramMatrix) -> bool:
    """Whether the form lies in the domain of the minimum bound, rank
    v = 0 mod 4 and level <= 2, where its theta series is a modular form
    of weight v/2 for Gamma_0(2)."""
    return gram.rank % 4 == 0 and level(gram) <= 2


#: Most lattice points the enumerator may visit, estimated from the ellipsoid
#: volume.  It counts about 4M (E8) to 9M (E6) points a second on a 2-core
#: x86 with CPython 3.11.  The modular-forms route enumerates only its
#: r = v/8 + 1 head coefficients, so in practice the budget binds on forms
#: outside the minimum bound's domain (E6 to n = 100 estimates 2.39e7).
THETA_POINT_BUDGET = 2_000_000


def _enumerate(gram: GramMatrix, n_max: int) -> list[int]:
    """Representation counts for 0 <= n <= n_max over the LLL-reduced basis.
    ValueError, before enumerating, when the estimated number of points
    visited exceeds ``THETA_POINT_BUDGET``."""
    v = gram.rank
    if n_max > 0:
        # the volume of Q(x) <= 2 n_max, (2 pi n_max)^(v/2) / (Gamma(v/2 + 1)
        # sqrt(det A)), taken in logarithms so that no input overflows it
        log_points = (v / 2 * math.log(2 * math.pi) + v / 2 * math.log(n_max)
                      - math.lgamma(v / 2 + 1) - math.log(gram.det) / 2)
        if log_points > math.log(THETA_POINT_BUDGET):
            estimate = math.exp(log_points) if log_points < 709 else math.inf
            raise ValueError(f"theta to n = {n_max} would visit about {estimate:.3g} "
                             f"lattice points, over the budget of {THETA_POINT_BUDGET:,}")
    red = gram.reduction
    dm, lam = red.minors, red.lam
    # scale * Q(x) = sum_i weight[i] * y_i^2 with y_i = d_{i+1} x_i + c_i
    scale = lcm(*(dm[i] * dm[i + 1] for i in range(v)))
    weight = [scale // (dm[i] * dm[i + 1]) for i in range(v)]
    step = 2 * scale
    top = step * n_max
    counts = [0] * (n_max + 1)
    counts[0] = 1
    x = [0] * v

    def walk(i: int, rem: int):
        # x[i+1:] is fixed and not all zero; every vector found is counted
        # with its negative
        c = sum(lam[k][i] * x[k] for k in range(i + 1, v))
        di, wi = dm[i + 1], weight[i]
        y_max = isqrt(rem // wi)
        lo, hi = -((y_max + c) // di), (y_max - c) // di
        if i == 0:
            used = top - rem
            for y in range(di * lo + c, di * hi + c + 1, di):
                counts[(used + wi * y * y) // step] += 2
            return
        for t in range(lo, hi + 1):
            x[i] = t
            y = di * t + c
            walk(i - 1, rem - wi * y * y)
        x[i] = 0

    # of x and -x, take the one whose last nonzero coordinate x_i is positive
    for i in range(v - 1, -1, -1):
        di, wi = dm[i + 1], weight[i]
        for t in range(1, isqrt(top // wi) // di + 1):
            x[i] = t
            rem = top - wi * (di * t) ** 2
            if i == 0:
                counts[(top - rem) // step] += 2
            else:
                walk(i - 1, rem)
        x[i] = 0
    return counts


def _theta_from_basis(gram: GramMatrix, n_max: int) -> list[int]:
    """Theta series of a form with ``theorem51_applies``: r enumerated
    coefficients solved against the monic triangular basis of
    M_{v/2}(Gamma_0(2)), which produces the rest."""
    h = gram.rank // 2
    r = dim_m(2, h)
    head = _enumerate(gram, min(n_max, r - 1))
    if n_max < r:
        return head
    # basis[k] = q^k + O(q^(k+1)); back-substitution from valuation 0 up
    basis = basis_m2(h, n_max + 1)[::-1]
    coords = []
    for k in range(r):
        coords.append(head[k] - sum(c * b.coeff(k) for c, b in zip(coords, basis)))
    series = [sum(c * b.coeff(n) for c, b in zip(coords, basis))
              for n in range(n_max + 1)]
    for value in coords + series:
        if Fraction(value).denominator != 1:
            raise DefectError(f"theta series in M_{h}(Gamma_0(2)) has the "
                              f"non-integral coefficient {value}")
    return [int(c) for c in series]


def theta(gram: GramMatrix, n_max: int) -> list[int]:
    """Representation counts: entry n is #{x : Q_A(x) = 2n}, 0 <= n <= n_max.
    ValueError, before enumerating, when the points to enumerate exceed
    ``THETA_POINT_BUDGET``."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if theorem51_applies(gram):
        return _theta_from_basis(gram, n_max)
    return _enumerate(gram, n_max)


def min_represented(gram: GramMatrix) -> int:
    """Smallest positive even value represented: the first nonzero positive
    coefficient of the theta series, expanded out to half the smallest
    diagonal entry of the reduced matrix (a value the form represents)."""
    cap = min(row[i] for i, row in enumerate(gram.reduction.entries)) // 2
    counts = theta(gram, cap)
    for m, c in enumerate(counts):
        if m > 0 and c > 0:
            return 2 * m
    raise DefectError("positive-definite form must represent its diagonal")


def verify_theorem51(gram: GramMatrix) -> dict:
    """Minimum bound for forms of level <= 2 in v = 0 mod 4 variables: the
    theta series is an entire weight-v/2 Gamma_0(2) form with c_0 = 1, so
    min <= twice the level-2 gap bound at h = v/2 (``catalog.gap_bounds``).
    Every other form gets a NOT_APPLICABLE record with bound None."""
    v, m = gram.rank, min_represented(gram)
    if not theorem51_applies(gram):
        return {"rank": v, "min": m, "bound": None, "verdict": Verdict.NOT_APPLICABLE}
    bound = 2 * gap_bounds(2, v // 2)[1]
    return {
        "rank": v,
        "level": level(gram),
        "min": m,
        "bound": bound,
        "verdict": Verdict.PASS if m <= bound else Verdict.FAIL,
    }


def parse_gram(text: str, source: str = "<gram>", max_rank: int | None = None) -> GramMatrix:
    """Gram file format: first data line is the rank v, then v lines of v
    integers; '#' starts a comment.  A rank over ``max_rank`` (``--max-rank``
    of ``qgap theta`` and ``qgap minima``) is refused at its line, before any
    elimination."""
    rows = []
    v = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        values = []
        for pos, x in enumerate(line.split(), start=1):
            try:
                values.append(int(x))
            except ValueError:
                digits = x[1:] if x[0] in "+-" else x
                if digits.isdecimal():  # an integer, too long for int() to read
                    raise ValueError(
                        f"{source}:{lineno}: entry {pos} has {len(digits)} digits, over "
                        f"the limit of {sys.get_int_max_str_digits()}") from None
                raise ValueError(f"{source}:{lineno}: not integers: {line!r}") from None
        if v is None:
            if len(values) != 1:
                raise ValueError(f"{source}:{lineno}: expected the rank alone")
            v = values[0]
            if v < 1:
                raise ValueError(f"{source}:{lineno}: rank must be >= 1")
            if max_rank is not None and v > max_rank:
                raise ValueError(f"rank {v} exceeds the cap {max_rank}; raise it with --max-rank")
            continue
        if len(values) != v:
            raise ValueError(
                f"{source}:{lineno}: expected {v} entries, got {len(values)}"
            )
        rows.append(tuple(values))
    if v is None:
        raise ValueError(f"{source}: empty file")
    if len(rows) != v:
        raise ValueError(f"{source}: expected {v} rows, got {len(rows)}")
    try:
        return GramMatrix(tuple(rows))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_gram(path, max_rank: int | None = None) -> GramMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram(fh.read(), source=str(path), max_rank=max_rank)
