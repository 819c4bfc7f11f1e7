"""Parser for the monomial expression grammar and its survey templates.

    expr := term (('*' | whitespace) term)*
    term := gen ('^' signed-integer)?
    gen  := name syntax

The generator grammar is read from ``catalog.KINDS``: a kind's name, then
its syntax with an integer in each slot (``({N},inf,{k})`` reads
``E(3,inf,8)``).  Names are tried longest first, so ``Delta2`` is not read
as ``Delta``.
Whitespace-insensitive; a missing exponent means 1; exponents must be
nonzero.  Errors carry the offending position and what was expected.

A template has a ``{field}`` wherever the grammar reads an integer, signed
or not in an exponent (``G({k})*Delta^-{a}``); ``parse_expr`` reads with
the same scanner, admitting no field.  ``Template.bind`` binds a batch of
field values: it builds each distinct generator of the batch once, sums
each form's data over its factors and formats each text once.  A value
that cannot stand in its slot re-reads the text through ``parse_expr``,
which raises its own error.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from qgap.catalog import KINDS, FormExpr, Generator

__all__ = ["ParseError", "Template", "parse_expr", "parse_template"]


_FIELD = re.compile(r"\{([A-Za-z_]\w*)\}")
_NAME = re.compile("|".join(map(re.escape, sorted(KINDS, key=len, reverse=True))))
#: The syntax after each name as tokens: a field is an integer slot.
_TOKENS = {name: re.findall(r"\{\w+\}|\w+|\S", kind.syntax) for name, kind in KINDS.items()}
_EXPECTED_NAME = ("a generator name (one of "
                  + ", ".join(kind.shape for kind in KINDS.values()) + ")")


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        found = repr(text[pos]) if pos < len(text) else "end of input"
        super().__init__(f"position {pos}: expected {expected}, found {found}")
        self.text = text
        self.pos = pos
        self.expected = expected

    def __reduce__(self):
        # args holds only the message; rebuild from the constructor's own
        # arguments, so that the error survives pickling
        return ParseError, (self.text, self.pos, self.expected)


class _Field(NamedTuple):
    """A field in an integer slot, after ``sign`` ('+', '-' or ''); the
    slot is an exponent when ``signed``, else a generator parameter."""

    name: str
    sign: str
    signed: bool


class _Scanner:
    def __init__(self, text: str, fields: bool = False):
        self.text = text
        self.pos = 0
        self.fields = [] if fields else None  # None: fields are not admitted

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

    def integer(self, signed: bool = False) -> int | _Field:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        field = _FIELD.match(self.text, digits) if self.fields is not None else None
        if field:
            self.pos = field.end()
            self.fields.append(field[1])
            return _Field(field[1], self.text[start:digits], signed)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError(self.text, self.pos,
                             ("a signed integer" if signed else "an integer")
                             + (" or a {field}" if self.fields is not None else ""))
        return int(self.text[start:self.pos])


def _parse_generator(sc: _Scanner) -> Generator | tuple[str, tuple]:
    """The next generator; (name, parameters) when a parameter is a field."""
    sc.skip_ws()
    start = sc.pos
    match = _NAME.match(sc.text, start)
    if match is None:
        raise ParseError(sc.text, start, _EXPECTED_NAME)
    name = match[0]
    sc.pos = match.end()
    params = []
    for i, token in enumerate(_TOKENS[name]):
        if token[0] == "{":
            params.append(sc.integer())
        elif not sc.take(token):
            raise ParseError(sc.text, sc.pos, f"'{token}'" + (f" after {name}" if i == 0 else ""))
    if any(isinstance(p, _Field) for p in params):
        return name, tuple(params)
    try:
        return Generator(name, tuple(params))
    except ValueError as exc:
        raise ParseError(sc.text, start, f"a valid generator ({exc})") from None


def _factors(sc: _Scanner) -> tuple:
    factors = []
    while True:
        gen = _parse_generator(sc)
        exponent = 1
        if sc.take("^"):
            pos = sc.pos
            exponent = sc.integer(signed=True)
            if exponent == 0:
                raise ParseError(sc.text, pos, "a nonzero exponent")
        factors.append((gen, exponent))
        if sc.at_end():
            return tuple(factors)
        sc.take("*")
        if sc.at_end():
            raise ParseError(sc.text, sc.pos, "a term after '*'")


def parse_expr(text: str) -> FormExpr:
    """Parse an expression like 'G(4)^2 * Delta^-1' into a FormExpr."""
    return FormExpr(_factors(_Scanner(text)), text=text)


class Template(NamedTuple):
    """A compiled template: ``factors`` as in a FormExpr, each generator
    either fixed (a ``Generator``) or a kind with parameter slots
    ((name, parameters), a ``_Field`` in each slot a field fills), each
    exponent an int or a ``_Field``; ``fields`` in order of first use."""

    text: str
    factors: tuple
    fields: tuple[str, ...]

    def bind(self, envs) -> list[FormExpr]:
        """For each field-value dict in ``envs``, the FormExpr that
        ``parse_expr(self.text.format(**env))`` reads, with the same text
        and one object per distinct generator; the first env whose text
        does not parse raises its error."""
        gens = {(g.kind, g.params): g for g, _ in self.factors if type(g) is Generator}
        forms = []
        for env in envs:
            text = self.text.format_map(env)
            try:
                factors = tuple([(g if type(g) is Generator else _generator(g, env, gens),
                                  e if type(e) is int else _fill(e, env))
                                 for g, e in self.factors])
            except ValueError:
                forms.append(parse_expr(text))
                continue
            forms.append(FormExpr.bound(factors, text))
        return forms


def _generator(slot: tuple, env, gens: dict) -> Generator:
    """The generator of kind ``slot[0]`` with ``slot[1]`` filled from env,
    one object per (kind, parameters) in ``gens``; ValueError where the
    parameters are no integers the kind accepts."""
    key = slot[0], tuple(p if type(p) is int else _fill(p, env) for p in slot[1])
    gen = gens.get(key)
    if gen is None:
        gen = gens[key] = Generator(*key)
    return gen


def _fill(slot: _Field, env) -> int:
    """The integer the text reads in ``slot``; ValueError where it reads
    none: a sign before a negative value, a negative parameter, or a zero
    exponent."""
    v = env[slot.name]
    if v < 0 and (slot.sign or not slot.signed) or v == 0 and slot.signed:
        raise ValueError(f"{slot.sign}{v} cannot stand in this slot")
    return -v if slot.sign == "-" else v


def parse_template(template: str) -> Template:
    """Parse a survey template like 'G({k})*Einf4^-{b}' once; ParseError
    at the template position where it leaves the grammar."""
    sc = _Scanner(template, fields=True)
    one = {}  # equal fixed generators are one object
    factors = tuple((one.setdefault(g, g) if type(g) is Generator else g, e)
                    for g, e in _factors(sc))
    return Template(template, factors, tuple(dict.fromkeys(sc.fields)))
