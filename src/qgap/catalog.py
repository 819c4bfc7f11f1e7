"""Generator catalog: the named forms usable in expressions, with their
symbolic data (weight, conductor, leading exponent), the dimension
formulas for the spaces they live in, the gap bounds read from them, and
the pairing series T(h) / T2(h) of each level (``pairing_generator``).

``KINDS`` holds one entry per generator kind: its parameter syntax, its
parameter check and its symbolic data.  The parser and the printer read
it, and a ``Generator`` computes its symbolic data from it when it is
made, so adding a kind takes one ``KINDS`` entry plus one builder branch in
``forms.generator_series``.  A ``FormExpr`` sums its factors' data once,
when it is made.

Every generator is normalized: the leading Fourier coefficient is 1.  The
weight of a monomial is the sum of the factor weights, and its leading
exponent is the sum of the factor leading exponents (no cancellation can
occur among monic leading terms).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from string import Formatter
from typing import NamedTuple

__all__ = ["DELTA", "E04", "EGAMMA2", "EINF4", "G4", "G6", "J", "J2", "KINDS", "T14",
           "FormExpr", "Generator", "Kind", "dim_m", "gap_bounds", "pairing_generator"]


def dim_m(level: int, h: int) -> int:
    """Dimension of the space of entire weight-h forms at level 1 or 2:
    floor(h/12)+1 at level 1 (floor(h/12) when h = 2 mod 12), and
    floor(h/4)+1 at level 2, for even h >= 0."""
    if h < 0 or h % 2 != 0:
        raise ValueError(f"dimension formulas need even h >= 0, got {h}")
    if level == 1:
        return h // 12 if h % 12 == 2 else h // 12 + 1
    if level == 2:
        return h // 4 + 1
    raise ValueError(f"dimension formula implemented for levels 1 and 2, not {level}")


def gap_bounds(level: int, h: int) -> tuple[int, int, int | None]:
    """(r, asserted gap bound, conjectured bound or None) at weight h, r =
    ``dim_m(level, h)``: an entire weight-h form with c_0 != 0 has c_n != 0
    for some n in [1, bound], bound = r, or 2r (r + 1 conjectured) for
    level 2 and h = 2 mod 4."""
    r = dim_m(level, h)
    if level == 1 or h % 4 == 0:
        return r, r, None
    return r, 2 * r, r + 1


def pairing_generator(level: int, h: int) -> Generator:
    """The series T that Siegel's Satz 2 pairs with entire weight-h forms:
    T(h) at level 1, T2(h) at level 2."""
    if level not in (1, 2):
        raise ValueError(f"pairing series exist at levels 1 and 2, not {level}")
    return Generator("T" if level == 1 else "T2", (h,))


@dataclass(frozen=True)
class Kind:
    """Everything the catalog knows about one generator kind.

    ``syntax`` is the text after the name with one ``{slot}`` per integer
    parameter, e.g. ``"({N},inf,{k})"``.  The other fields are functions of
    the parameters: ``check`` returns the violated condition or None,
    ``valuation`` is the leading exponent, and ``e_inf`` is the (N, k) of
    the series E(N,inf,k) the generator equals, or None.
    """

    name: str
    syntax: str
    check: Callable[..., str | None]
    weight: Callable[..., int]
    conductor: Callable[..., int]
    valuation: Callable[..., int]
    e_inf: Callable[..., tuple[int, int] | None] = lambda *params: None

    @cached_property
    def slots(self) -> tuple[str, ...]:
        return tuple(f for _, f, _, _ in Formatter().parse(self.syntax) if f)

    def render(self, values) -> str:
        return self.name + self.syntax.format(**dict(zip(self.slots, values)))

    @cached_property
    def shape(self) -> str:
        """The kind with its slot names, e.g. ``E(N,inf,k)``."""
        return self.render(self.slots)


def _fixed(name: str, weight: int, conductor: int, valuation: int, **extra) -> Kind:
    return Kind(name, "", lambda: None, lambda: weight, lambda: conductor,
                lambda: valuation, **extra)


def _n_23(N):
    return None if N in (2, 3) else "N in {2,3}"


#: The generator kinds, in the order error messages list them.
KINDS = {kind.name: kind for kind in (
    _fixed("Delta", 12, 1, 1),
    _fixed("Delta2", 8, 2, 1),
    _fixed("j", 0, 1, -1),
    _fixed("j2", 0, 2, -1),
    Kind("G", "({h})", lambda h: None if h >= 0 and h % 2 == 0 else "even h >= 0",
         lambda h: h, lambda h: 1, lambda h: 0),
    _fixed("Egamma2", 2, 2, 0),
    _fixed("E04", 4, 2, 0),
    _fixed("Einf4", 4, 2, 1, e_inf=lambda: (2, 4)),
    Kind("E", "({N},inf,{k})",
         lambda N, k: _n_23(N) or (None if k > 2 and k % 2 == 0 else "even k > 2"),
         lambda N, k: k, lambda N, k: N, lambda N, k: 1, e_inf=lambda N, k: (N, k)),
    Kind("phi", "({N})", _n_23, lambda N: 0, lambda N: N, lambda N: N - 1),
    Kind("Phi", "({N})", _n_23, lambda N: 0, lambda N: N, lambda N: 1),
    Kind("S", "({n},{d})", lambda n, d: None if 1 <= n <= d <= 4 else "1 <= n <= d <= 4",
         lambda n, d: 24, lambda n, d: 1, lambda n, d: 1),
    Kind("T", "({h})", lambda h: None if h > 2 and h % 2 == 0 else "even h > 2",
         lambda h: 2 - h, lambda h: 1, lambda h: -dim_m(1, h)),
    # T2(h): pole order r for h = 0 mod 4, r+1 for h = 2 mod 4
    Kind("T2", "({h})", lambda h: None if h >= 2 and h % 2 == 0 else "even h >= 2",
         lambda h: 2 - h, lambda h: 2, lambda h: -dim_m(2, h) - h % 4 // 2),
)}


@dataclass(frozen=True)
class Generator:
    """One catalog entry, e.g. G(6), Delta, E(3,inf,8), T2(12), with the
    symbolic data its ``Kind`` gives for its parameters."""

    kind: str
    params: tuple[int, ...] = ()
    weight: int = field(init=False, repr=False, compare=False)
    conductor: int = field(init=False, repr=False, compare=False)
    valuation: int = field(init=False, repr=False, compare=False)
    e_inf: tuple[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        p = self.params
        if (not isinstance(p, tuple) or len(p) != len(kind.slots)
                or any(type(x) is not int for x in p)):
            raise ValueError(f"{kind.shape} takes {len(kind.slots)} integer "
                             f"parameter(s), got {p!r}")
        violated = kind.check(*p)
        if violated is not None:
            raise ValueError(f"{kind.shape} needs {violated}, got {self}")
        for name in ("weight", "conductor", "valuation", "e_inf"):
            object.__setattr__(self, name, getattr(kind, name)(*p))
        # generators key every expansion and factor-power table: hash once
        object.__setattr__(self, "_hash", hash((self.kind, p)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so the hash is that of the loading process
        return Generator, (self.kind, self.params)

    @property
    def pole_order(self) -> int:
        return max(0, -self.valuation)

    def __str__(self) -> str:
        return KINDS[self.kind].render(self.params)


#: The fixed generators that other generators and the bases are built from.
DELTA, J, J2, EGAMMA2, E04, EINF4 = map(Generator,
                                       ("Delta", "j", "j2", "Egamma2", "E04", "Einf4"))
G4, G6, T14 = Generator("G", (4,)), Generator("G", (6,)), Generator("T", (14,))


class _Form(NamedTuple):
    factors: tuple[tuple[Generator, int], ...]
    text: str
    weight: int
    valuation: int
    pole_order: int
    conductor: int


class FormExpr(_Form):
    """A parsed monomial: ordered (generator, nonzero exponent) factors,
    its text, and the weight, valuation, pole order and conductor they
    give.  A tuple, so a template binder that has checked the factors
    makes a form at tuple cost (``bound``)."""

    __slots__ = ()

    def __new__(cls, factors, text: str = ""):
        if not factors:
            raise ValueError("an expression needs at least one factor")
        if any(e == 0 for _, e in factors):
            raise ValueError("zero exponents are not allowed")
        return cls.bound(factors, text)

    @classmethod
    def bound(cls, factors, text: str) -> FormExpr:
        """The form of factors already checked to be nonempty with nonzero
        exponents, as ``exprs.Template.bind`` fills them."""
        weight = valuation = 0
        for g, e in factors:
            weight += g.weight * e
            valuation += g.valuation * e
        return tuple.__new__(cls, (factors, text, weight, valuation, max(0, -valuation),
                                   lcm(*[g.conductor for g, _ in factors])))

    def __getnewargs__(self):
        return self.factors, self.text

    @property
    def canonical_text(self) -> str:
        parts = []
        for g, e in self.factors:
            parts.append(str(g) if e == 1 else f"{g}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.text or self.canonical_text
