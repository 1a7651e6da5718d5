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

from . import algebra, groupoid, rings
from .errors import KpxError, ParseError, quoted

_INT = re.compile(r"\d+")


def _path(g, literal, column):
    """The path a literal names; any error in it is a ParseError at column."""
    try:
        return g.parse_path(literal)
    except KpxError as exc:
        raise ParseError(f"bad path {quoted(literal)}: {exc}", column=column) from exc


class _Parser:
    def __init__(self, g, ring, text):
        self.g = g
        self.ring = ring
        self.text = text
        self.pos = 0

    def peek(self):
        """The next character past the whitespace, which is skipped, or None
        at the end of the text."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else None

    def expect(self, lit):
        self.peek()
        if not self.text.startswith(lit, self.pos):
            got = self.text[self.pos : self.pos + len(lit)] or "end of input"
            raise ParseError(f"expected {lit!r}, got {got!r}", column=self.pos + 1)
        self.pos += len(lit)

    def integer(self):
        self.peek()
        m = _INT.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an integer", column=self.pos + 1)
        try:
            value = rings.integer(m.group())
        except ParseError as exc:  # longer than the interpreter converts
            raise ParseError(str(exc), column=self.pos + 1) from None
        self.pos = m.end()
        return value

    # A caller that has peeked a one-character token steps past it with
    # pos += 1 rather than peeking it again through expect.

    def parse(self):
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        words = [self.term(sign)]
        while (c := self.peek()) in ("+", "-"):
            self.pos += 1
            words.append(self.term(1 if c == "+" else -1))
        if c is not None:  # peek has skipped the whitespace after the last term
            raise ParseError(
                f"trailing input {quoted(self.text[self.pos:])}", column=self.pos + 1
            )
        return algebra.reduce(self.ring, words)

    def term(self, sign):
        coeff = self.ring.from_int(sign)
        c = self.peek()
        if c is not None and c.isdigit():
            num = self.integer()
            den = 1
            if self.peek() == "/":
                self.pos += 1
                den = self.integer()
            coeff = coeff * self.ring.from_fraction(num, den)
            self.expect("*")
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        return (coeff, factors)

    def factor(self):
        kind = self.peek()
        if kind not in ("s", "g"):
            raise ParseError("expected a generator s(...) or g(...)", column=self.pos + 1)
        self.pos += 1
        self.expect("(")
        end = self.text.find(")", self.pos)
        if end < 0:
            raise ParseError("unclosed generator parenthesis", column=self.pos + 1)
        start, self.pos = self.pos, end + 1
        literal = self.text[start:end]
        # the column of the literal's first character, as in parse_cell
        path = _path(self.g, literal.strip(), start + len(literal) - len(literal.lstrip()) + 1)
        return algebra.PathSym(path) if kind == "s" else algebra.GhostSym(path)


def parse_element(g, ring, text):
    """Parse an element expression into span form."""
    return _Parser(g, ring, text).parse()


def parse_cell(g, text):
    """Parse a cell literal: ``LAM*MU`` or ``LAM*MU\\NU1;NU2`` (semicolon-
    separated avoid paths, since edge ids may contain commas).  Errors carry
    the 1-based column of the literal at fault, as in element expressions."""
    body, _, avoid_text = text.partition("\\")
    lam_text, sep, mu_text = body.partition("*")
    if not sep:
        raise ParseError(f"cell literal {quoted(text)} needs LAM*MU", column=len(body) + 1)
    paths, offset = [], 0  # every separator is one character
    for i, part in enumerate([lam_text, mu_text, *avoid_text.split(";")]):
        literal = part.strip()
        if i < 2 or literal:  # empty avoid paths are skipped
            paths.append(_path(g, literal, offset + len(part) - len(part.lstrip()) + 1))
        offset += len(part) + 1
    lam, mu, *avoid = paths
    return groupoid.make_cell(lam, mu, avoid)
