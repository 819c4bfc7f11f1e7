"""Series expansions for the generator catalog, bases of the level-1 and
level-2 spaces, and evaluation of parsed expressions.

Both bases have the form A * H^d, d < r, stated once by ``basis_factors``
and built as one ladder of products with H; by bilinearity
``siegel.run_satz_suite`` pairs T with A once per weight and reads each
element as one dot product against H^d.

All builders take a ``window``: the number of justified coefficients from
the valuation.  Every construction here preserves windows (a product of
series with window L has window L), so a builder returns exactly the
coefficients it is asked for, and each caller asks for exactly those it
reads: the constant term of a monomial with pole order s takes s + 1.

Every window is a prefix: the first w coefficients of a window-W series
(W > w) are the window-w series, since coefficient n of a generator, and of
any product, power or root of generators, depends only on the coefficients
up to n of its inputs.  ``constant_term`` relies on this.  It reads each
factor power, and the product of all factors but the last, from a
``FactorPowers`` table, which builds a series again only when asked for a
larger window than it holds, and takes c_0 as one dot product
(``QSeries.product_coeff``) of the two.  A survey family is one batch,
read in decreasing pole order, so each series is first asked for at the
largest window the batch reads it at and is built once.

Delta is q times the eighth power of Jacobi's series for prod (1 - q^n)^3,
three exact packed squarings (``series.delta_over_q``); ``product_expand``,
the O(n^2) product recurrence, is its test oracle and builds the eta
quotient in ``identity_checks``.  G4^3 is built once per window, with no
product, from Delta and the sigma_11 sieve (``g4_cubed``); j and S(n, d)
read it, and so do the section 3.3 tables of ``qgap.congruence``, which
reduce it and Delta mod p^K_p, K_p at least 3 above the largest order any
table reads to n = 4096 (44, 17, 7 and 5 at p = 2, 3, 5, 7, measured at
window 4098).

Each generator is expanded only when a window longer than its largest
expansion so far is asked for; ``generator_series`` serves every other
window as a prefix of that one, and memoizes the prefix per (generator,
window).  A batch read in decreasing pole order asks for each generator
first at the largest window it reads, so it expands each of its
generators once.  A prefix of an all-int expansion also carries the
expansion's logarithmic derivative g (``QSeries.prefix``), so once a
power has read g, every exponent that a batch, a ``FactorPowers`` table
or a Satz weight asks of any window of the generator costs one dot
product per coefficient.  Factor powers sit in an LRU cache of
FACTOR_CACHE_SIZE entries.  These three memos and ``g4_cubed`` register
with ``qgap.memo``, and ``memo.clear()`` is the one way to forget
expansions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from qgap.arith import alpha_coeff, divisor_sum_sieve
from qgap.catalog import (DELTA, E04, EGAMMA2, EINF4, G4, G6, J, J2, T14, FormExpr,
                          Generator, dim_m, pairing_generator)
from qgap.exprs import parse_expr
from qgap.memo import register
from qgap.series import DefectError, QSeries, delta_over_q, product_expand

__all__ = [
    "FactorPowers",
    "basis_factors",
    "basis_m1",
    "basis_m2",
    "constant_term",
    "eisenstein_g",
    "eval_expr",
    "factor_power",
    "g4_cubed",
    "generator_series",
    "identity_checks",
    "m2",
    "t_series",
]


def eisenstein_g(h: int, prec: int) -> QSeries:
    """Level-one Eisenstein series 1 + alpha_h * sum sigma_{h-1}(n) q^n.

    h = 2 is admitted (the quasi-modular weight-2 series, alpha_2 = -24);
    h = 0 gives the constant 1.
    """
    if h < 0 or h % 2 != 0:
        raise ValueError(f"eisenstein_g needs even h >= 0, got {h}")
    if h == 0:
        return QSeries.one(prec)
    a = alpha_coeff(h)
    sums = divisor_sum_sieve(prec - 1, lambda d: d ** (h - 1))
    return QSeries(0, [1] + [a * s for s in sums])


def m2(prec: int) -> QSeries:
    """The hauptmodul shift E04/Einf4 (equals j2 - 64), built without j2 so
    that ``identity_checks`` compares two independent expansions."""
    return generator_series(E04, prec) * generator_series(EINF4, prec).invert()


def t_series(level: int, h: int, prec: int) -> QSeries:
    """The weight (2-h) pole-at-infinity series used in the vanishing and
    gap arguments, ``catalog.pairing_generator(level, h)``: level 1 pairs
    an Eisenstein factor with Delta^-r, level 2 pairs E_gamma2 (squared for
    h = 2 mod 4) and E_04 with a power of 1/E_inf4.  Memoized by
    ``generator_series``."""
    return generator_series(pairing_generator(level, h), prec)


#: The largest expansion of each generator built so far.
_largest: dict[Generator, QSeries] = register({}, "qgap.forms._largest")

#: The largest window ``generator_series`` builds.  Every expansion goes
#: through it, so a larger ``expand --prec``, pole order or ``theta
#: --terms`` exits 2 at once instead of running out of memory.  At the cap
#: ``qgap expand Delta`` takes 1.2 s and 62 MB (CPython 3.11, one Xeon
#: core); no suite reads a window over 4,098.
MAX_WINDOW = 1 << 16


@register
@lru_cache(maxsize=None)
def generator_series(gen: Generator, window: int) -> QSeries:
    """Expansion of a catalog generator with ``window`` justified
    coefficients from its valuation: the prefix of the largest expansion of
    ``gen`` built so far, which is built first when it is shorter.  A
    window over ``MAX_WINDOW`` raises ValueError before anything is built.
    Only ``memo.clear()`` forgets both the prefixes and the largest
    expansions."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > MAX_WINDOW:
        raise ValueError(f"{gen} to {window} coefficients is over the cap of {MAX_WINDOW}")
    big = _largest.get(gen)
    if big is None or big.window < window:
        big = _largest[gen] = _expand(gen, window)
    return big.prefix(window)


@register
@lru_cache(maxsize=None)
def g4_cubed(window: int) -> QSeries:
    """The exact G4^3 to ``window`` coefficients, with no product.  From
    691*E12 = 441*E4^3 + 250*E6^2 and E4^3 - E6^2 = 1728*Delta,
    E4^3 = E12 + (432000/691)*Delta, so for n >= 1

        c_n = (65520*sigma_11(n) + 432000*tau(n)) / 691,

    an integer since tau(n) = sigma_11(n) (mod 691) (Ramanujan); sigma_11
    comes from the divisor sieve and tau from the exact Delta.  A nonzero
    remainder is a DefectError."""
    tau = generator_series(DELTA, window).coefficients()
    out = [1]
    for n, (s, t) in enumerate(zip(divisor_sum_sieve(window - 1, lambda d: d**11), tau), 1):
        c, r = divmod(65520 * s + 432000 * t, 691)
        if r:
            raise DefectError(f"65520*sigma_11({n}) + 432000*tau({n}) is not a multiple of 691")
        out.append(c)
    return QSeries(0, out)


def _expand(gen: Generator, window: int) -> QSeries:
    """Build the expansion of ``gen`` to ``window`` coefficients, reading
    the generators it is made of through ``generator_series``."""
    kind, p = gen.kind, gen.params

    if gen.e_inf is not None:
        N, k = gen.e_inf
        return QSeries(1, divisor_sum_sieve(window, lambda d: d ** (k - 1), N))
    if kind == "G":
        return eisenstein_g(p[0], window)
    if kind == "Delta":
        return delta_over_q(window).shift(1)
    if kind == "j":
        # T(14) is Delta^-1: its entry is the one inversion of Delta per
        # window, shared by j and phi
        return g4_cubed(window) * generator_series(T14, window)
    if kind == "Egamma2":
        sums = divisor_sum_sieve(window - 1, lambda d: d if d % 2 else 0)
        return QSeries(0, [1] + [24 * s for s in sums])
    if kind == "E04":
        sums = divisor_sum_sieve(window - 1, lambda d: -d**3 if d % 2 else d**3)
        return QSeries(0, [1] + [16 * s for s in sums])
    if kind == "Delta2":
        return generator_series(E04, window) * generator_series(EINF4, window)
    if kind == "j2":
        eg = generator_series(EGAMMA2, window)
        return eg * eg * generator_series(EINF4, window).invert()
    if kind == "phi":
        N = p[0]
        dl = generator_series(DELTA, window)
        return dl.rescale(N) * generator_series(T14, window)
    if kind == "Phi":
        N = p[0]
        phi = generator_series(Generator("phi", (N,)), window)
        return phi if N == 2 else phi.root(2)
    if kind == "S":
        n, d = p
        g6 = generator_series(G6, window)
        blend = Fraction(n, d) * g4_cubed(window) + Fraction(d - n, d) * g6**2
        return generator_series(DELTA, window) * blend
    if kind == "T":
        # Delta^-s, times the G(k) that makes up the rest of the weight
        s = gen.pole_order
        eis_weight = gen.weight + 12 * s
        tail = generator_series(DELTA, window) ** (-s)
        if eis_weight == 0:
            return tail
        return generator_series(Generator("G", (eis_weight,)), window) * tail
    if kind == "T2":
        eg = generator_series(EGAMMA2, window)
        head = eg * eg if p[0] % 4 == 2 else eg
        tail = generator_series(EINF4, window) ** (-gen.pole_order)
        return head * generator_series(E04, window) * tail
    raise DefectError(f"unhandled generator kind {kind!r}")


#: Entries kept by ``factor_power``; chosen from desk-survey peak RSS and time.
FACTOR_CACHE_SIZE = 2048


@register
@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def factor_power(gen: Generator, exponent: int, window: int) -> QSeries:
    """Cached gen**exponent at the given window."""
    return generator_series(gen, window) ** exponent


def eval_expr(expr: FormExpr | str, prec: int) -> QSeries:
    """Evaluate a monomial expression with exactly ``prec`` justified
    coefficients from its valuation.

    The left-to-right product of ``FactorPowers.series``, each factor power
    taken at window ``prec``; window-preserving arithmetic then makes the
    product's window exactly ``prec``, so a reach failure here is a defect,
    not an input problem.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    if prec < 1:
        raise ValueError("prec must be >= 1")
    return FactorPowers().series(expr.factors, prec)


class FactorPowers:
    """The series the monomials of a batch read for their constant terms:
    each factor power, and the product of the leading factors of each
    monomial, built when first asked for and built again only when asked
    for a larger window than held.  A batch read in decreasing pole order
    (``congruence._survey_batch``) asks for each series, and each
    generator, first at the largest window it reads, so each is built
    once.  Factor powers come from ``factor_power``.  Nothing is built
    before a monomial asks for it, so a failing build fails only the
    monomials that need it."""

    def __init__(self):
        self._built: dict[tuple, QSeries] = {}

    def series(self, factors: tuple, window: int) -> QSeries:
        """The product of ``factors`` ((generator, exponent) pairs) with at
        least ``window`` justified coefficients."""
        if not factors:
            raise DefectError("an empty product has no series")
        built = self._built.get(factors)
        if built is None or built.window < window:
            if len(factors) == 1:
                (gen, e), = factors
                built = factor_power(gen, e, window)
            else:
                built = (self.series(factors[:-1], window).prefix(window)
                         * self.series(factors[-1:], window).prefix(window))
            self._built[factors] = built
        if built.window < window:
            raise DefectError(
                f"reach propagation failure: window {built.window} < {window}")
        return built


def constant_term(expr: FormExpr | str, powers: FactorPowers | None = None):
    """Exact constant term of a monomial expression with pole order s at
    infinity: the product of all factors but the last, to s + 1
    coefficients, dotted with the last factor.  ``powers`` is the table of
    a batch that holds ``expr``; by default the expression is its own
    batch."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    if powers is None:
        powers = FactorPowers()
    window = expr.pole_order + 1
    *head, last = expr.factors
    tail = powers.series((last,), window)
    if not head:
        return tail.coeff(0)
    return powers.series(tuple(head), window).product_coeff(tail, 0)


def basis_factors(level: int, h: int) -> tuple[int, tuple, tuple[Generator, int]]:
    """(r, head, (H, e)): the one statement of both bases.  The monic
    triangular basis of the weight-h space at level 1 or 2 is A * (H^e)^d
    for d = 0..r-1, A the product of the ``head`` factors ((generator,
    exponent) pairs) and r = ``dim_m(level, h)``.  Level 2: A =
    E_gamma2^[h = 2 mod 4] E_inf4^(r-1), H^e = j2.  Level 1: A = G4^a G6^b,
    b = [h = 2 mod 4], and H^e = 1/j, since Delta^d G4^(a-3d) G6^b =
    A (Delta/G4^3)^d.  By bilinearity the Satz suite pairs T with A once
    and each element is one dot product against a power of H."""
    if level == 2:
        if h <= 0 or h % 2 != 0:
            raise ValueError(f"basis_m2 needs even h > 0, got {h}")
        r = dim_m(2, h)
        head = ((EGAMMA2, h % 4 // 2), (EINF4, r - 1))
        step = (J2, 1)
    elif level == 1:
        if h < 4 or h % 2 != 0:
            raise ValueError(f"basis_m1 needs even h >= 4, got {h}")
        r, b = dim_m(1, h), h % 4 // 2
        head = ((G4, (h - 6 * b) // 4), (G6, b))
        step = (J, -1)
    else:
        raise ValueError(f"bases exist at levels 1 and 2, not {level}")
    return r, tuple((g, e) for g, e in head if e), step


def _basis(level: int, h: int, prec: int) -> list[QSeries]:
    """The ladder A, A*H^e, A*H^2e, ... of ``basis_factors``, each element
    with exactly ``prec`` coefficients from its valuation."""
    r, head, (gen, e) = basis_factors(level, h)
    basis = [FactorPowers().series(head, prec)]
    while len(basis) < r:
        basis.append(basis[-1] * factor_power(gen, e, prec))
    return basis


def basis_m2(h: int, prec: int) -> list[QSeries]:
    """Monic triangular basis of the level-2 weight-h space, A * j2^d
    (``basis_factors``): powers of j2 times E_inf4^(r-1), with an E_gamma2
    factor when h = 2 mod 4.  The d-th element has valuation r-1-d, so
    valuations run over 0..r-1.  Each element carries exactly ``prec``
    coefficients from its valuation."""
    return _basis(2, h, prec)


def basis_m1(h: int, prec: int) -> list[QSeries]:
    """Monic triangular basis of the level-1 weight-h space, A * j^-d
    (``basis_factors``): Delta^d times the monomial G4^a G6^b of weight
    h - 12d (b in {0,1} fixed by h mod 4), built as G4^a G6^b
    (Delta/G4^3)^d.  The d-th element has valuation d and exactly
    ``prec`` coefficients from it."""
    return _basis(1, h, prec)


def identity_checks(prec: int = 200) -> list[tuple[str, bool]]:
    """The structural series identities among the generators, each checked
    to ``prec`` coefficients with exact equality."""
    eg, e04, einf, ej2 = (generator_series(g, prec + 2) for g in (EGAMMA2, E04, EINF4, J2))
    g4 = eisenstein_g(4, prec + 2)
    results = []

    results.append(("G4 = E04 + 256*Einf4", g4.agrees_with(e04 + 256 * einf, upto=prec)))
    results.append(
        ("Egamma2^2 = E04 + 64*Einf4", (eg * eg).agrees_with(e04 + 64 * einf, upto=prec))
    )

    product_form = product_expand(
        lambda n: 8 if n % 2 == 0 else -8, prec + 1
    ).shift(1)
    results.append(
        ("Einf4 = q*prod (1-q^even)^8 (1-q^odd)^-8",
         einf.agrees_with(product_form, upto=prec))
    )

    mm = m2(prec + 2)
    results.append(
        ("m2 = E04/Einf4", (mm * einf).agrees_with(e04, upto=prec))
    )
    results.append(("j2 = m2 + 64", ej2.agrees_with(mm + 64, upto=prec)))

    dj2 = ej2.q_derivative()
    rhs = -(eg * e04 * einf.invert())
    results.append(("D(j2) = -Egamma2*E04/Einf4", dj2.agrees_with(rhs, upto=prec)))

    return results
