"""Truncated Laurent series in q with exact rational coefficients.

A QSeries stores the coefficients of q^valuation ... q^(reach-1).  ``reach``
is the first exponent whose coefficient is NOT guaranteed correct: every
operation propagates it pessimistically from its operands, and asking for a
coefficient at or beyond reach raises ReachError instead of silently
returning zero.  Below the valuation all coefficients are exactly zero.

Coefficients are exact ints or fractions.Fraction; a Fraction that reduces
to an integer is stored as an int (this is invisible: both are exact
rationals and compare equal).  Floats are rejected.  A series also has an
integer content: its coefficients as int numerators over one common
positive denominator, computed once, on first use.  An all-int series is
its own content, over 1, known when it is made, so nothing is copied.

Multiplication of QSeries is schoolbook convolution: it takes any exact
coefficients, and bignum coefficient growth dominates its cost at the few
thousand terms this package targets.  Integer powers and m-th roots share
one O(n^2) recurrence for u^(p/q), through the logarithmic derivative
g = theta(V)/V (theta = q d/dq) of the scaled integer content V of u: one
dot product per coefficient, since theta(b)/b = (p/q)*g for b = u^(p/q).
g is computed once per series, on first use, and kept: every exponent
asked of one series reuses it, and ``shift`` and ``prefix`` hand it on
where the integer content, and so V, is unchanged (a prefix of an all-int
series).  The inverse is the one-sum recurrence C*V = 1 and needs no g.
None of them goes through repeated multiplication, and the divisions are
exact integer divisions wherever the result is integral after one scaling
(always for integer p).  A single
coefficient of a product, such as a constant term, is one int dot product
of the two contents and one division (``product_coeff``).

Residue lists mod m multiply through one packed kernel, ``mul_mod``
(Kronecker substitution: one exact product of two packed numbers per series
product): an int product for short lists, and from ``MUL_MOD_CROSSOVER``
terms on a ``decimal`` one, which libmpdec takes by a number-theoretic
transform, in a context of maximal precision that traps ``Inexact`` and
``Rounded``.  It serves ``delta_over_q`` and ``inverse_mod``, the Newton
inverse of a residue list, which with it builds the p-adic tables of
``qgap.congruence``.  By Jacobi's identity prod (1 - q^n)^3 =
sum_k (-1)^k (2k+1) q^(k(k+1)/2), a sparse series with small coefficients,
so Delta/q, its eighth power, is three packed squarings, each exact because
it runs mod a power of two above twice the elementary bound on its
coefficients.  ``product_expand``
expands any product prod (1 - q^n)^(e_n) by its O(n^2) recurrence.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterable

from qgap.arith import divisor_sum_sieve

__all__ = ["DefectError", "QSeries", "ReachError", "delta_over_q", "inverse_mod", "mul_mod",
           "product_expand"]


class ReachError(LookupError):
    """A coefficient beyond the justified truncation order was requested."""


class DefectError(Exception):
    """An internal invariant failed: a bug in qgap, not a problem with the
    input."""


def _norm_coeff(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a series coefficient")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"exact coefficients only (int or Fraction), got {type(c).__name__}")


class QSeries:
    """Immutable truncated Laurent series.

    Invariants: the first stored coefficient is nonzero unless the series is
    identically zero up to reach (then no coefficients are stored and
    valuation == reach); reach == valuation + number of stored coefficients.
    """

    __slots__ = ("_val", "_coeffs", "_reach", "_content", "_dlog")

    def __init__(self, valuation: int, coeffs: Iterable):
        coeffs = list(coeffs)
        integral = all(type(c) is int for c in coeffs)
        if not integral:
            coeffs = [_norm_coeff(c) for c in coeffs]
        reach = valuation + len(coeffs)
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        coeffs = coeffs[lead:]
        valuation += lead
        self._val = valuation if coeffs else reach
        self._coeffs = tuple(coeffs)
        self._reach = reach
        # an all-int series is its own integer content
        self._content = (self._coeffs, 1) if integral else None
        self._dlog = None  # the g of ``_log_derivative``, once computed

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, reach: int) -> "QSeries":
        """The series known to vanish at every exponent below ``reach``."""
        return cls(reach, [])

    @classmethod
    def one(cls, window: int) -> "QSeries":
        """The constant 1, justified for ``window`` coefficients."""
        return cls.monomial(0, window)

    @classmethod
    def monomial(cls, exponent: int, window: int) -> "QSeries":
        """q^exponent with ``window`` justified coefficients."""
        if window < 1:
            raise ValueError("window must be >= 1")
        return cls(exponent, [1] + [0] * (window - 1))

    # -- inspection --------------------------------------------------------

    @property
    def valuation(self) -> int:
        """Exponent of the first nonzero coefficient (== reach if zero)."""
        return self._val

    @property
    def reach(self) -> int:
        return self._reach

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def pole_order(self) -> int:
        """Order of the pole at infinity: max(0, -valuation)."""
        return 0 if self.is_zero else max(0, -self._val)

    @property
    def window(self) -> int:
        """Number of justified coefficients starting at the valuation."""
        return self._reach - self._val

    def coeff(self, n: int):
        """Coefficient of q^n.  Exact zero below the valuation; ReachError
        at or beyond reach."""
        if n >= self._reach:
            raise ReachError(
                f"coefficient of q^{n} is beyond the justified reach {self._reach}"
            )
        if n < self._val:
            return 0
        return self._coeffs[n - self._val]

    def coefficients(self, count: int | None = None) -> list:
        """The first ``count`` coefficients from the valuation (all if None)."""
        if count is None:
            return list(self._coeffs)
        if count > self.window:
            raise ReachError(
                f"{count} coefficients requested but only {self.window} are justified"
            )
        out = list(self._coeffs[:count])
        out.extend([0] * (count - len(out)))
        return out

    def _int_content(self) -> tuple[tuple, int]:
        """(numerators, denominator): the stored coefficients as ints over
        their least common positive denominator, computed on first use."""
        if self._content is None:
            c = self._coeffs
            den = lcm(*[x.denominator for x in c if type(x) is not int])
            self._content = (c, 1) if den == 1 else (
                tuple(x.numerator * (den // x.denominator) for x in c), den)
        return self._content

    def first_nonzero_index(self, start: int = 1) -> int | None:
        """Smallest exponent n >= start with a nonzero (justified)
        coefficient, or None if all justified coefficients from start on
        vanish."""
        for n in range(max(start, self._val), self._reach):
            if self._coeffs[n - self._val] != 0:
                return n
        return None

    def agrees_with(self, other: "QSeries", upto: int | None = None) -> bool:
        """Coefficientwise equality on the shared justified range, or below
        exponent ``upto`` (exclusive); ReachError when ``upto`` lies beyond
        either reach, where agreement cannot be checked."""
        end = min(self._reach, other._reach)
        if upto is not None:
            if upto > end:
                raise ReachError(f"agreement below q^{upto} asked; justified below q^{end} only")
            end = upto
        start = min(self._val, other._val)
        return all(self.coeff(n) == other.coeff(n) for n in range(start, end))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self._val == other._val
            and self._coeffs == other._coeffs
            and self._reach == other._reach
        )

    __hash__ = None

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self._coeffs[:8]):
            if c == 0:
                continue
            n = self._val + i
            if n == 0:
                terms.append(f"{c}")
            elif n == 1:
                terms.append(f"{c}*q")
            else:
                terms.append(f"{c}*q^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"QSeries({body} + O(q^{self._reach}))"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._add_constant(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        reach = min(self._reach, other._reach)
        val = min(self._val, other._val, reach)
        out = [0] * (reach - val)
        for term in (self, other):
            base = term._val - val
            for i, c in enumerate(term._coeffs):
                pos = base + i
                if pos < len(out):
                    out[pos] = out[pos] + c
        return QSeries(val, out)

    __radd__ = __add__

    def _add_constant(self, c):
        if c == 0:
            return self
        if self._reach <= 0:
            raise ReachError("cannot add a constant: exponent 0 is beyond reach")
        val = min(self._val, 0)
        out = [0] * (self._reach - val)
        for i, x in enumerate(self._coeffs):
            out[self._val - val + i] = x
        out[-val] = out[-val] + c
        return QSeries(val, out)

    def __neg__(self):
        return QSeries(self._val, [-c for c in self._coeffs]) if self._coeffs \
            else QSeries.zero(self._reach)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._add_constant(-other)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QSeries.zero(self._reach)
            return QSeries(self._val, [c * other for c in self._coeffs]) \
                if self._coeffs else QSeries.zero(self._reach)
        if not isinstance(other, QSeries):
            return NotImplemented
        reach = min(self._reach + other._val, other._reach + self._val)
        val = self._val + other._val
        n_out = reach - val
        if n_out <= 0 or not self._coeffs or not other._coeffs:
            return QSeries.zero(reach)
        out = [0] * n_out
        b = other._coeffs
        for i, a in enumerate(self._coeffs):
            if i >= n_out:
                break
            if a == 0:
                continue
            lim = min(len(b), n_out - i)
            for j in range(lim):
                if b[j] != 0:
                    out[i + j] += a * b[j]
        return QSeries(val, out)

    __rmul__ = __mul__

    def product_coeff(self, other: "QSeries", n: int):
        """Coefficient of q^n in ``self * other`` as one dot product over
        the terms whose exponents add up to n: O(n) work where the full
        product costs O(n^2).  Justified exactly where the product's
        coefficient is; ReachError at or beyond the product's reach.  It runs
        on the integer contents: an int dot product over one denominator."""
        reach = min(self._reach + other._val, other._reach + self._val)
        if n >= reach:
            raise ReachError(
                f"coefficient of q^{n} is beyond the justified reach {reach}"
            )
        (a, da), (b, db) = self._int_content(), other._int_content()
        k = n - self._val - other._val
        lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
        if lo > hi:
            return 0
        s = sum(map(mul, a[lo:hi + 1], reversed(b[k - hi:k - lo + 1])))
        return s if da * db == 1 else _norm_coeff(Fraction(s, da * db))

    def invert(self) -> "QSeries":
        """Multiplicative inverse, justified on the same-size window.

        Requires a nonzero leading coefficient (in particular, at least one
        justified coefficient).
        """
        return self._power(-1)

    def __pow__(self, e: int) -> "QSeries":
        if not isinstance(e, int):
            raise TypeError("series powers must be integers")
        if e == 0:
            return QSeries.one(max(self.window, 1))
        if e == 1:
            return self
        if e > 0 and not self._coeffs:
            return QSeries.zero(e * self._reach)
        return self._power(e)

    def root(self, m: int) -> "QSeries":
        """The monic m-th root: b with b**m == self, requiring m | valuation
        and a monic unit part (leading coefficient exactly 1)."""
        if m < 1:
            raise ValueError("root index must be a positive integer")
        if not self._coeffs:
            raise ZeroDivisionError("cannot take a root of a series that is zero up to reach")
        if self._val % m != 0:
            raise ValueError(f"valuation {self._val} is not divisible by {m}")
        if self._coeffs[0] != 1:
            raise ValueError("root requires a monic unit part (leading coefficient 1)")
        return self._power(1, m)

    def _power(self, p: int, q: int = 1) -> "QSeries":
        """self^(p/q) on the same window; q > 1 needs q | valuation and a
        monic unit part, which the caller checks.

        It runs on the integer content U of self (``_int_content``).  With
        V_0 = 1 and V_i = U_i * U_0^(i-1), the power is
        b_k = b_0 * C_k / U_0^k, C = V^(p/q).  Let theta = q d/dq and
        g = theta(V)/V (``_log_derivative``); then theta(C)/C = (p/q)*g, so

            q*k*C_k = p * sum_{i=1..k} g_i * C_{k-i},   C_0 = 1:

        one dot product per coefficient, against a g shared by every
        exponent of this series.  C_k is an integer for integer p, so the
        division is exact; only a root may leave a Fraction.  The inverse
        (p = -q) needs no g: C*V = 1 gives C_k = -sum_{i=1..k} V_i * C_{k-i},
        with no division at all.
        """
        if not self._coeffs:
            raise ZeroDivisionError("cannot invert a series that is zero up to reach")
        u, _ = self._int_content()
        u0 = u[0]
        b0 = _norm_coeff(Fraction(self._coeffs[0]) ** p) if q == 1 else 1
        c = [1]
        if p + q:
            g = self._log_derivative()
            for k in range(1, len(u)):
                s = p * sum(map(mul, g[1:k + 1], reversed(c)))
                c.append(s // (q * k) if type(s) is int and not s % (q * k) else Fraction(s, q * k))
        else:
            v = self._scaled_content()
            for k in range(1, len(u)):
                c.append(-sum(map(mul, v[1:k + 1], reversed(c))))
        val = self._val * p // q
        if u0 == 1 and b0 == 1:
            return QSeries(val, c)
        b, f = [], b0.denominator
        for x in c:
            b.append(Fraction(b0.numerator * x, f))
            f *= u0
        return QSeries(val, b)

    def _scaled_content(self):
        """V of ``_power``, which is the integer content U when U_0 = 1."""
        u, _ = self._int_content()
        if u[0] == 1:
            return u
        v, f = [1], 1
        for c in u[1:]:
            v.append(c * f)
            f *= u[0]
        return v

    def _log_derivative(self) -> tuple:
        """g = theta(V)/V for the V of ``_scaled_content``, computed on first
        use and kept.  theta(V) = g*V with V_0 = 1 and g_0 = 0 gives

            g_k = k*V_k - sum_{i=1..k-1} g_i * V_{k-i},

        so every g_k is an integer.  g_k depends on V_0..V_k only, so a
        prefix with the same content denominator shares g (``prefix``)."""
        if self._dlog is None:
            v = self._scaled_content()
            g = [0]
            for k in range(1, len(v)):
                g.append(k * v[k] - sum(map(mul, g[1:], reversed(v[1:k]))))
            self._dlog = tuple(g)
        return self._dlog

    def q_derivative(self) -> "QSeries":
        """The operator q d/dq (= d/d log q): coefficient of q^n becomes n*c_n."""
        if not self._coeffs:
            return QSeries.zero(self._reach)
        out = [(self._val + i) * c for i, c in enumerate(self._coeffs)]
        return QSeries(self._val, out)

    def rescale(self, N: int) -> "QSeries":
        """Substitute q -> q^N.  Exponent n maps to N*n; the gaps in between
        are exact zeros, so the reach scales to N*(reach-1)+1."""
        if N < 1:
            raise ValueError("rescale factor must be a positive integer")
        if N == 1:
            return self
        new_reach = N * (self._reach - 1) + 1
        if not self._coeffs:
            return QSeries.zero(new_reach)
        out = [0] * (new_reach - N * self._val)
        for i, c in enumerate(self._coeffs):
            out[N * i] = c
        return QSeries(N * self._val, out)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (exact: shifts valuation and reach)."""
        s = QSeries.__new__(QSeries)
        s._val = self._val + k
        s._coeffs = self._coeffs
        s._reach = self._reach + k
        s._content = self._content
        s._dlog = self._dlog
        return s

    def prefix(self, window: int) -> "QSeries":
        """The first ``window`` justified coefficients of this series, which
        holds at least as many.  An all-int series hands on the first
        ``window`` entries of its g (``_log_derivative``); a Fraction series
        does not, since its prefix may have a smaller content denominator,
        and so another V and another g."""
        if self.window == window:
            return self
        s = QSeries(self._val, self.coefficients(window))
        if self._dlog is not None and self._content[1] == 1:
            s._dlog = self._dlog[:window]
        return s


def product_expand(exponents: Callable[[int], int], prec: int) -> QSeries:
    """Expand prod_{n>=1} (1 - q^n)^{e_n} to ``prec`` coefficients.

    ``exponents`` is a callable n -> e_n, consulted for 1 <= n < prec.  Uses
    the classical recursion for coefficients of q-products (Apostol,
    Introduction to Analytic Number Theory, Theorem 14.8): with
    g(k) = -sum_{d|k} d*e_d,

        n*p(n) = sum_{k=1..n} g(k) p(n-k),   p(0) = 1.
    """
    if prec <= 0:
        raise ValueError(f"prec must be >= 1, got {prec}")
    e = [0] * prec
    for n in range(1, prec):
        en = exponents(n)
        if not isinstance(en, int):
            raise TypeError("product exponents must be integers")
        e[n] = en
    g = [0] + divisor_sum_sieve(prec - 1, lambda d: -d * e[d])
    p = [1]
    for n in range(1, prec):
        q, r = divmod(sum(map(mul, g[1:n + 1], reversed(p))), n)
        if r:
            raise ArithmeticError("non-integral product coefficient; exponent data invalid")
        p.append(q)
    return QSeries(0, p)


#: The shorter packed operand length from which ``mul_mod`` multiplies in
#: ``decimal``.  A sweep on CPython 3.11 (residues mod 2^48, 3^20, 5^10, 7^8,
#: balanced lists and the 2n x n shape of a Newton step) found the int
#: product faster up to about 900 terms and the decimal one from 1,024 on.
MUL_MOD_CROSSOVER = 1000

#: Exact decimal arithmetic: a product that would round raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def mul_mod(a: list, b: list, m: int, n: int, lo: int = 0) -> list:
    """Coefficients lo, ..., n - 1 of a*b mod m, for residue lists a, b with
    entries in [0, m).  Kronecker substitution: each list is packed, to at
    most n terms, into one number with a slot per coefficient wide enough
    for n*(m - 1)^2, the largest coefficient of the product, so no slot
    carries; one product holds every coefficient, a square (``a is b``)
    packs once, and the slots below lo are never unpacked (a Newton step
    of ``inverse_mod`` knows them).  Below ``MUL_MOD_CROSSOVER`` terms in
    the shorter packed operand a slot is 2*bits(m - 1) + bits(n) bits and
    the product is an int product.  From there on a slot is the decimal
    digits of n*(m - 1)^2, lowest coefficient last, read exactly by
    ``Decimal(str)``, and the product is a ``decimal`` product in a context
    that raises DefectError rather than round.  Bytes and ``decimal``, not ``str`` of an int, carry
    the packing, so the int-to-str digit cap never applies."""
    if min(len(a), len(b), n) < MUL_MOD_CROSSOVER:
        s = (2 * (m - 1).bit_length() + n.bit_length() + 7) // 8

        def pack(c):
            return int.from_bytes(b"".join(x.to_bytes(s, "little") for x in c[:n]), "little")

        x = pack(a)
        buf = (x * (x if b is a else pack(b))).to_bytes(2 * s * n, "little")
        return [int.from_bytes(buf[i:i + s], "little") % m for i in range(lo * s, s * n, s)]
    d = len(str(n * (m - 1) ** 2))

    def pack(c):
        return Decimal("".join([str(x).zfill(d) for x in reversed(c[:n])]))

    x = pack(a)
    try:
        prod = _EXACT.multiply(x, x if b is a else pack(b))
    except (Inexact, Rounded):
        raise DefectError("the decimal residue product was rounded") from None
    digits = format(prod, "f")[-n * d:].zfill(n * d)
    return [int(digits[i - d:i]) % m for i in range((n - lo) * d, 0, -d)]


def inverse_mod(u: list, m: int) -> list:
    """1/u mod m to len(u) coefficients, for a residue list u whose leading
    coefficient is a unit mod m (else DefectError).  Newton lifting: with
    b = 1/u below q^k, u*b - 1 vanishes below q^k, and b - b*(u*b - 1) is
    1/u below q^2k.  The schedule runs top down, through the lengths n,
    ceil(n/2), ceil(n/4), ..., 1 read in reverse, so each step at most
    doubles b and the last one ends at n: no step lifts a few coefficients
    with a product as long as the window."""
    if not u:
        raise ZeroDivisionError("cannot invert a series that is zero up to reach")
    try:
        b = [pow(u[0], -1, m)]
    except ValueError:
        raise DefectError(f"leading coefficient {u[0]} is not a unit mod {m}") from None
    lengths = []
    n = len(u)
    while n > 1:
        lengths.append(n)
        n = (n + 1) // 2
    for k2 in reversed(lengths):
        k = len(b)
        e = mul_mod(u, b, m, k2, k)
        b += [-x % m for x in mul_mod(b, e, m, k2 - k)]
    return b


def delta_over_q(prec: int) -> QSeries:
    """Expand Delta/q = prod_{n>=1} (1 - q^n)^24 to ``prec`` coefficients
    as J^8, where J = sum_k (-1)^k (2k+1) q^(k(k+1)/2) is the cube
    prod (1 - q^n)^3 (Jacobi's identity, Hardy and Wright, Theorem 357),
    by three squarings through ``mul_mod``.  With L1 the sum of |J_i| over
    the window, every coefficient of J^e is at most L1^e in absolute value,
    so J^e is exact mod M = 2^B once M/2 > L1^e: each square is taken mod
    that M and lifted back to the symmetric range [-M/2, M/2)."""
    if prec <= 0:
        raise ValueError(f"prec must be >= 1, got {prec}")
    c = [0] * prec
    k = 0
    while k * (k + 1) // 2 < prec:
        c[k * (k + 1) // 2] = -(2 * k + 1) if k % 2 else 2 * k + 1
        k += 1
    l1 = sum(map(abs, c))
    for e in (2, 4, 8):
        half = 1 << (l1**e).bit_length()
        r = [x % (2 * half) for x in c]
        c = [x - 2 * half if x >= half else x for x in mul_mod(r, r, 2 * half, prec)]
    return QSeries(0, c)
