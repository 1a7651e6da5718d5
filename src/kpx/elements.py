"""Parser for textual algebra elements.

Grammar::

    expr   := ['-'] term (('+'|'-') term)*
    term   := [coef '*'] factor ('*' factor)*
    coef   := int | int '/' int
    factor := 's(' path ')' | 'g(' path ')'
    path   := id ('.' id)*

``s(p)`` is the path generator, ``g(p)`` the ghost generator; inside the
parentheses a path literal is a vertex id or dot-joined edge ids.
"""

import re

from . import algebra
from .errors import KpxError, ParseError

_INT = re.compile(r"\d+")


class _Parser:
    def __init__(self, g, ring, text):
        self.g = g
        self.ring = ring
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, lit):
        self._skip()
        if not self.text.startswith(lit, self.pos):
            got = self.text[self.pos : self.pos + len(lit)] or "end of input"
            raise ParseError(f"expected {lit!r}, got {got!r}", column=self.pos)
        self.pos += len(lit)

    def integer(self):
        self._skip()
        m = _INT.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", column=self.pos)
        try:
            value = int(m.group())
        except ValueError:  # longer than the interpreter converts
            raise ParseError(
                f"integer of {len(m.group())} digits is too long", column=self.pos
            ) from None
        self.pos = m.end()
        return value

    def parse(self):
        words = []
        sign = 1
        if self.peek() == "-":
            self.expect("-")
            sign = -1
        words.append(self.term(sign))
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            words.append(self.term(sign))
        self._skip()
        if self.pos != len(self.text):
            raise ParseError(
                f"trailing input {self.text[self.pos:]!r}", column=self.pos
            )
        return algebra.reduce(self.ring, words)

    def term(self, sign):
        coeff = self.ring.from_int(sign)
        if self.peek() is not None and self.peek().isdigit():
            num = self.integer()
            den = 1
            if self.peek() == "/":
                self.expect("/")
                den = self.integer()
            coeff = coeff * self.ring.from_fraction(num, den)
            self.expect("*")
        factors = [self.factor()]
        while self.peek() == "*":
            self.expect("*")
            factors.append(self.factor())
        return (coeff, factors)

    def factor(self):
        kind = self.peek()
        if kind not in ("s", "g"):
            raise ParseError(
                f"expected a generator s(...) or g(...)", column=self.pos
            )
        self.expect(kind)
        self.expect("(")
        end = self.text.find(")", self.pos)
        if end < 0:
            raise ParseError("unclosed generator parenthesis", column=self.pos)
        literal = self.text[self.pos : end].strip()
        self.pos = end + 1
        try:
            path = self.g.parse_path(literal)
        except KpxError as exc:
            raise ParseError(f"bad path {literal!r}: {exc}") from exc
        return algebra.PathSym(path) if kind == "s" else algebra.GhostSym(path)


def parse_element(g, ring, text):
    """Parse an element expression into span form."""
    return _Parser(g, ring, text).parse()


def parse_cell(g, text):
    """Parse a cell literal: ``LAM*MU`` or ``LAM*MU\\NU1;NU2`` (semicolon-
    separated avoid paths, since edge ids may contain commas)."""
    from . import groupoid

    body, _, avoid_text = text.partition("\\")
    lam_text, sep, mu_text = body.partition("*")
    if not sep:
        raise ParseError(f"cell literal {text!r} needs LAM*MU")
    lam = g.parse_path(lam_text.strip())
    mu = g.parse_path(mu_text.strip())
    avoid = [
        g.parse_path(part.strip())
        for part in avoid_text.split(";")
        if part.strip()
    ]
    return groupoid.make_cell(lam, mu, avoid)
