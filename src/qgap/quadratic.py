"""Even positive-definite quadratic forms: Gram validation, level, exact
theta series by lattice-point enumeration, minima, and the minimum bound
check.

Q_A(x) = x^T A x for an integer symmetric matrix A with even diagonal, so
Q_A takes even values on integer vectors.  The theta series counts exact
representation numbers: entry n is #{x in Z^v : Q_A(x) = 2n}.

One exact rational LDL^T decomposition of A, computed once at validation,
Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2, serves every question about
the matrix: its pivots decide positive-definiteness and give the
determinant, its triangular factor gives A^-1 for the level, and
enumeration walks coordinates from the last to the first with exact integer
interval bounds at every layer (no floating point anywhere, so no boundary
misses).  The one float is ``theta``'s estimate of the points it would
visit, a guard that never enters a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm, prod

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


def _ldl(rows: tuple[tuple[int, ...], ...]):
    """Pivots d and multipliers u with Q(x) = sum_i d_i (x_i + sum_{j>i}
    u_ij x_j)^2.  The product d_1...d_k is the k-th leading minor, so the
    pivots decide positive-definiteness; elimination stops after the first
    pivot <= 0, where going on would need row swaps."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    d = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = m[i][i]
        d.append(di)
        if di <= 0:
            break
        for j in range(i + 1, n):
            u[i][j] = m[i][j] / di
        for j in range(i + 1, n):
            for k in range(j, n):
                m[j][k] -= m[i][j] * m[i][k] / di
                m[k][j] = m[j][k]
    return d, u


@dataclass(frozen=True)
class GramMatrix:
    """Validated Gram matrix: integer, symmetric, even diagonal, positive
    definite.  Validation keeps the LDL^T factors (``pivots`` d and
    ``multipliers`` u, see ``_ldl``) for the determinant, level and theta
    series."""

    entries: tuple[tuple[int, ...], ...]
    pivots: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    multipliers: tuple[tuple[Fraction, ...], ...] = field(
        init=False, repr=False, compare=False)

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
        d, u = _ldl(rows)
        if d[-1] <= 0:
            raise ValueError(
                f"not positive definite: leading minor {len(d)} is {int(prod(d))}"
            )
        object.__setattr__(self, "pivots", tuple(d))
        object.__setattr__(self, "multipliers", tuple(map(tuple, u)))

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def det(self) -> int:
        return int(prod(self.pivots))

    def value(self, x) -> int:
        """Q_A(x) = x^T A x."""
        n = self.rank
        return sum(self.entries[i][j] * x[i] * x[j] for i in range(n) for j in range(n))


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
    diagonal entries.  With A = U^T D U from the LDL^T decomposition,
    A^-1 = V D^-1 V^T for the unit upper triangular V = U^-1."""
    d, u = gram.pivots, gram.multipliers
    n = gram.rank
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            v[i][j] = -sum(u[i][k] * v[k][j] for k in range(i + 1, j + 1))
    inv = [[sum(v[i][k] * v[j][k] / d[k] for k in range(max(i, j), n))
            for j in range(n)] for i in range(n)]
    return lcm(*(x.denominator for row in inv for x in row),
               *((inv[i][i] / 2).denominator for i in range(n)))


def _interval(c: Fraction, bound: Fraction) -> range:
    """Integers t with (t + c)^2 <= bound, exactly."""
    if bound < 0:
        return range(0)
    p, q = c.numerator, c.denominator
    u, w = bound.numerator, bound.denominator
    # (t*q + p)^2 <= u*q^2/w  <=>  |t*q + p| <= isqrt(floor(u*q^2/w))
    y = isqrt(u * q * q // w)
    lo = -((y + p) // q)
    hi = (y - p) // q
    return range(lo, hi + 1)


#: Most lattice points ``theta`` may visit.  Enumeration runs at about 24k
#: points a second (2-core x86, CPython 3.11); the largest test and
#: benchmark input, E8 to n = 6, is estimated at 84k points.
THETA_POINT_BUDGET = 2_000_000


def theta(gram: GramMatrix, n_max: int) -> list[int]:
    """Representation counts: entry n is #{x : Q_A(x) = 2n}, 0 <= n <= n_max.
    ValueError, before enumerating, when the estimated number of points
    visited exceeds ``THETA_POINT_BUDGET``."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > 0:
        # the volume of Q(x) <= 2 n_max, (2 pi n_max)^(v/2) / (Gamma(v/2 + 1)
        # sqrt(det A)), taken in logarithms so that no input overflows it
        v = gram.rank
        log_points = (v / 2 * math.log(2 * math.pi) + v / 2 * math.log(n_max)
                      - math.lgamma(v / 2 + 1) - math.log(gram.det) / 2)
        if log_points > math.log(THETA_POINT_BUDGET):
            estimate = math.exp(log_points) if log_points < 709 else math.inf
            raise ValueError(f"theta to n = {n_max} would visit about {estimate:.3g} "
                             f"lattice points, over the budget of {THETA_POINT_BUDGET:,}")
    n = gram.rank
    d, u = gram.pivots, gram.multipliers
    counts = [0] * (n_max + 1)
    budget = Fraction(2 * n_max)
    x = [0] * n

    def walk(i: int, remaining: Fraction):
        if i < 0:
            used = budget - remaining
            counts[int(used) // 2] += 1
            return
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        for t in _interval(c, remaining / d[i]):
            x[i] = t
            walk(i - 1, remaining - d[i] * (t + c) ** 2)
        x[i] = 0

    walk(n - 1, budget)
    return counts


def min_represented(gram: GramMatrix) -> int:
    """Smallest positive even value represented: found by expanding the
    theta series out to half the smallest diagonal entry (Q(e_i) = a_ii
    guarantees termination there)."""
    cap = min(gram.entries[i][i] for i in range(gram.rank)) // 2
    counts = theta(gram, cap)
    for m, c in enumerate(counts):
        if m > 0 and c > 0:
            return 2 * m
    raise DefectError("positive-definite form must represent its diagonal")


def verify_theorem51(gram: GramMatrix) -> dict:
    """Minimum bound for forms of level <= 2 in v = 0 mod 4 variables:
    min <= 2 + v/4 when 8 | v, min <= 2 + v/2 when v = 4 mod 8."""
    v = gram.rank
    if v % 4 != 0:
        raise ValueError(f"bound applies when 4 | v; rank is {v}")
    lv = level(gram)
    if lv > 2:
        raise ValueError(f"bound applies to level <= 2 forms; level is {lv}")
    bound = 2 + v // 4 if v % 8 == 0 else 2 + v // 2
    m = min_represented(gram)
    return {
        "rank": v,
        "level": lv,
        "min": m,
        "bound": bound,
        "verdict": Verdict.PASS if m <= bound else Verdict.FAIL,
    }


def parse_gram(text: str, source: str = "<gram>") -> GramMatrix:
    """Gram file format: first data line is the rank v, then v lines of v
    integers; '#' starts a comment."""
    rows = []
    v = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            values = [int(x) for x in parts]
        except ValueError:
            raise ValueError(f"{source}:{lineno}: not integers: {line!r}") from None
        if v is None:
            if len(values) != 1:
                raise ValueError(f"{source}:{lineno}: expected the rank alone")
            v = values[0]
            if v < 1:
                raise ValueError(f"{source}:{lineno}: rank must be >= 1")
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


def load_gram(path) -> GramMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gram(fh.read(), source=str(path))
