"""Parser for the monomial expression grammar.

    expr := term (('*' | whitespace) term)*
    term := gen ('^' signed-integer)?
    gen  := name syntax

The generator grammar is read from ``catalog.KINDS``: a kind's name, then
its syntax with an integer in each slot (``({N},inf,{k})`` reads
``E(3,inf,8)``).  Names are tried longest first, so ``Delta2`` is not read
as ``Delta``.
Whitespace-insensitive; a missing exponent means 1; exponents must be
nonzero.  Errors carry the offending position and what was expected.
"""

from __future__ import annotations

import re
from string import Formatter

from qgap.catalog import KINDS, FormExpr, Generator

__all__ = ["ParseError", "parse_expr"]


def _steps(name: str, syntax: str) -> tuple[tuple[str | None, str | None], ...]:
    """The syntax after ``name`` as (literal, expected) steps; (None, None)
    is an integer slot."""
    steps = []
    for literal, slot, _, _ in Formatter().parse(syntax):
        for token in re.findall(r"\w+|\S", literal):
            steps.append((token, f"'{token}'" + (f" after {name}" if not steps else "")))
        if slot:
            steps.append((None, None))
    return tuple(steps)


_NAME = re.compile("|".join(map(re.escape, sorted(KINDS, key=len, reverse=True))))
_STEPS = {name: _steps(name, kind.syntax) for name, kind in KINDS.items()}
_EXPECTED_NAME = ("a generator name (one of "
                  + ", ".join(kind.shape for kind in KINDS.values()) + ")")


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        found = repr(text[pos]) if pos < len(text) else "end of input"
        super().__init__(f"position {pos}: expected {expected}, found {found}")
        self.pos = pos
        self.expected = expected


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str, expected: str):
        if not self.take(literal):
            raise ParseError(self.text, self.pos, expected)

    def integer(self, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError(self.text, self.pos,
                             "a signed integer" if signed else "an integer")
        return int(self.text[start:self.pos])


def _parse_generator(sc: _Scanner) -> Generator:
    sc.skip_ws()
    start = sc.pos
    match = _NAME.match(sc.text, start)
    if match is None:
        raise ParseError(sc.text, start, _EXPECTED_NAME)
    name = match[0]
    sc.pos = match.end()
    params = []
    for literal, expected in _STEPS[name]:
        if literal is None:
            params.append(sc.integer())
        else:
            sc.expect(literal, expected)
    try:
        return Generator(name, tuple(params))
    except ValueError as exc:
        raise ParseError(sc.text, start, f"a valid generator ({exc})") from None


def parse_expr(text: str) -> FormExpr:
    """Parse an expression like 'G(4)^2 * Delta^-1' into a FormExpr."""
    sc = _Scanner(text)
    factors = []
    while True:
        gen = _parse_generator(sc)
        exponent = 1
        if sc.take("^"):
            pos = sc.pos
            exponent = sc.integer(signed=True)
            if exponent == 0:
                raise ParseError(text, pos, "a nonzero exponent")
        factors.append((gen, exponent))
        if sc.at_end():
            break
        sc.take("*")
        if sc.at_end():
            raise ParseError(text, sc.pos, "a term after '*'")
    return FormExpr(tuple(factors), text=text)
