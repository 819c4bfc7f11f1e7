"""Exact oracles for ``QSeries.invert``, ``root`` and ``**``, independent of
the logarithmic-derivative recurrence those share: the classical inverse
and root coefficient loops, powers by repeated multiplication, and J. C. P.
Miller's two-sum recurrence, which ``QSeries._power`` ran before.  Also the
term-by-term loop ``product_expand`` once ran, as the oracle of its
dot-product form."""

from fractions import Fraction

from qgap.series import QSeries


def invert(a: QSeries) -> QSeries:
    """1/a on the same window: u_0*w_m = -sum_{k=1..m} u_k*w_{m-k}."""
    if a.is_zero:
        raise ZeroDivisionError("cannot invert a series that is zero up to reach")
    u = a.coefficients()
    w = [Fraction(1) / u[0]]
    for m in range(1, len(u)):
        s = sum(u[k] * w[m - k] for k in range(1, m + 1) if u[k] != 0)
        w.append(Fraction(-s) / u[0])
    return QSeries(-a.valuation, w)


def root(a: QSeries, m: int) -> QSeries:
    """The monic m-th root of a monic a with m | valuation, from
    m*u*D(b) = D(u)*b with D = q d/dq:

        m*k*b_k = sum_{i=1..k} (i - m*(k-i)) u_i b_{k-i}.
    """
    u = a.coefficients()
    b = [1]
    for k in range(1, len(u)):
        s = sum((i - m * (k - i)) * u[i] * b[k - i] for i in range(1, k + 1) if u[i] != 0)
        b.append(Fraction(s, m * k))
    return QSeries(a.valuation // m, b)


def power(a: QSeries, e: int) -> QSeries:
    """a**e by repeated multiplication (of 1/a when e < 0)."""
    if e == 0:
        return QSeries.one(max(a.window, 1))
    base = invert(a) if e < 0 else a
    result = base
    for _ in range(abs(e) - 1):
        result = result * base
    return result


def product_expand(exponents: dict, prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^n)^{e_n} to ``prec`` coefficients, term by term:
    n*p(n) = sum_{k=1..n} g(k) p(n-k) with g(k) = -sum_{d|k} d*e_d."""
    g = [0] * prec
    for d, e in exponents.items():
        if 1 <= d < prec and e:
            for k in range(d, prec, d):
                g[k] -= d * e
    p = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        s = 0
        for k in range(1, n + 1):
            if g[k] and p[n - k]:
                s += g[k] * p[n - k]
        q, r = divmod(s, n)
        if r:
            raise ArithmeticError("non-integral product coefficient")
        p[n] = q
    return QSeries(0, p)


def miller_power(a: QSeries, p: int, q: int = 1) -> QSeries:
    """a^(p/q) by J. C. P. Miller's recurrence run term by term on the
    stored coefficients, each b_k one Fraction division:

        q*k*u_0*b_k = sum_{i=1..k} ((p+q)*i - q*k) * u_i * b_{k-i}.

    q > 1 needs a monic unit part and q | valuation."""
    if a.is_zero:
        raise ZeroDivisionError("cannot invert a series that is zero up to reach")
    u = a.coefficients()
    b = [Fraction(u[0]) ** p if q == 1 else Fraction(1)]
    for k in range(1, len(u)):
        s = sum(((p + q) * i - q * k) * u[i] * b[k - i] for i in range(1, k + 1))
        b.append(s / (q * k * u[0]))
    return QSeries(a.valuation * p // q, b)


def product_coeff(a: QSeries, b: QSeries, n: int):
    """Coefficient of q^n in a*b as a per-term Fraction sum over the
    exponent pairs that add up to n, each read through ``coeff``."""
    return sum((Fraction(a.coeff(i)) * b.coeff(n - i)
                for i in range(a.valuation, n - b.valuation + 1)), Fraction(0))
