"""Generator catalog: the named forms usable in expressions, with their
symbolic data (weight, conductor, leading exponent) and the dimension
formulas for the spaces they live in.

Every generator is normalized: the leading Fourier coefficient is 1.  The
weight of a monomial is the sum of the factor weights, and its leading
exponent is the sum of the factor leading exponents (no cancellation can
occur among monic leading terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from qgap.series import DefectError

__all__ = ["Generator", "FormExpr", "dim_m"]


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


_FIXED = {
    # kind: (weight, conductor, leading exponent)
    "Delta": (12, 1, 1),
    "j": (0, 1, -1),
    "Egamma2": (2, 2, 0),
    "E04": (4, 2, 0),
    "Einf4": (4, 2, 1),
    "Delta2": (8, 2, 1),
    "j2": (0, 2, -1),
}


@dataclass(frozen=True)
class Generator:
    """One catalog entry, e.g. G(6), Delta, E(3,inf,8), T2(12)."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        kind, p = self.kind, self.params
        if kind in _FIXED:
            if p:
                raise ValueError(f"{kind} takes no parameters")
        elif kind == "G":
            (h,) = p
            if h < 0 or h % 2 != 0:
                raise ValueError(f"G(h) needs even h >= 0, got G({h})")
        elif kind == "E":
            N, k = p
            if N not in (2, 3):
                raise ValueError(f"E(N,inf,k) needs N in {{2,3}}, got N={N}")
            if k <= 2 or k % 2 != 0:
                raise ValueError(f"E(N,inf,k) needs even k > 2, got k={k}")
        elif kind in ("phi", "Phi"):
            (N,) = p
            if N not in (2, 3):
                raise ValueError(f"{kind}(N) supports N in {{2,3}}, got N={N}")
        elif kind == "S":
            n, d = p
            if not (1 <= d <= 4 and 1 <= n <= d):
                raise ValueError(f"S(n,d) needs 1 <= n <= d <= 4, got S({n},{d})")
        elif kind == "T":
            (h,) = p
            if h <= 2 or h % 2 != 0:
                raise ValueError(f"T(h) needs even h > 2, got T({h})")
        elif kind == "T2":
            (h,) = p
            if h < 2 or h % 2 != 0:
                raise ValueError(f"T2(h) needs even h >= 2, got T2({h})")
        else:
            raise ValueError(f"unknown generator kind {kind!r}")

    @property
    def weight(self) -> int:
        if self.kind in _FIXED:
            return _FIXED[self.kind][0]
        if self.kind == "G":
            return self.params[0]
        if self.kind == "E":
            return self.params[1]
        if self.kind in ("phi", "Phi"):
            return 0
        if self.kind == "S":
            return 24
        # T(h), T2(h)
        return 2 - self.params[0]

    @property
    def conductor(self) -> int:
        if self.kind in _FIXED:
            return _FIXED[self.kind][1]
        if self.kind in ("G", "S", "T"):
            return 1
        if self.kind == "T2":
            return 2
        if self.kind == "E" or self.kind in ("phi", "Phi"):
            return self.params[0]
        raise DefectError(f"no conductor for generator kind {self.kind!r}")

    @property
    def valuation(self) -> int:
        """Leading exponent of the normalized expansion at infinity."""
        kind = self.kind
        if kind in _FIXED:
            return _FIXED[kind][2]
        if kind == "G":
            return 0
        if kind == "E":
            return 1
        if kind == "phi":
            return self.params[0] - 1
        if kind == "Phi":
            return 1
        if kind == "S":
            return 1
        if kind == "T":
            return -dim_m(1, self.params[0])
        # T2(h): pole order r for h = 0 mod 4, r+1 for h = 2 mod 4
        h = self.params[0]
        r = dim_m(2, h)
        return -r if h % 4 == 0 else -(r + 1)

    @property
    def pole_order(self) -> int:
        return max(0, -self.valuation)

    @property
    def text(self) -> str:
        if self.kind in _FIXED:
            return self.kind
        if self.kind == "E":
            N, k = self.params
            return f"E({N},inf,{k})"
        return f"{self.kind}({','.join(str(x) for x in self.params)})"

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class FormExpr:
    """A parsed monomial: ordered (generator, nonzero exponent) factors."""

    factors: tuple[tuple[Generator, int], ...]
    text: str = ""

    def __post_init__(self):
        if not self.factors:
            raise ValueError("an expression needs at least one factor")
        if any(e == 0 for _, e in self.factors):
            raise ValueError("zero exponents are not allowed")

    @property
    def weight(self) -> int:
        return sum(g.weight * e for g, e in self.factors)

    @property
    def valuation(self) -> int:
        return sum(g.valuation * e for g, e in self.factors)

    @property
    def pole_order(self) -> int:
        return max(0, -self.valuation)

    @property
    def conductor(self) -> int:
        return lcm(*(g.conductor for g, _ in self.factors))

    @property
    def canonical_text(self) -> str:
        parts = []
        for g, e in self.factors:
            parts.append(g.text if e == 1 else f"{g.text}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        return self.text or self.canonical_text
