"""Parsing and printing of expressions.

The accepted grammar is deliberately small:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := rational | name | '(' expr ')'

There is no implicit multiplication; ``2*x`` is required, ``2x`` is an
error.  Names resolve against the chart, including derivative spellings
such as ``f_pp``.  Rendering is the inverse: parsing a rendered expression
on the same chart reproduces it exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .chart import Chart
from .errors import DegreeOverflow, ParseError, UnknownName
from .expr import Expression

MAX_EXPONENT = 512

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = n - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r} after expression", pos)
        return e

    def expr(self) -> Expression:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.advance()
            negate = True
        e = self.term()
        if negate:
            e = -e
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "*":
                    e = e * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    e = e / rhs
            else:
                return e

    def factor(self) -> Expression:
        e = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "num" or "." in val:
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            n = int(val)
            if n > MAX_EXPONENT:
                raise DegreeOverflow(f"exponent {n} exceeds {MAX_EXPONENT}")
            e = e ** n
        return e

    def atom(self) -> Expression:
        kind, val, pos = self.advance()
        if kind == "num":
            return Expression.const(self.chart, Fraction(val))
        if kind == "name":
            try:
                return Expression.var(self.chart, val)
            except UnknownName as exc:
                raise ParseError(str(exc), pos) from None
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {val!r}", pos)


def parse_expression(text: str, chart: Chart) -> Expression:
    return _Parser(text, chart).parse()


# ----------------------------------------------------------------------
# rendering


def _name_latex(name: str) -> str:
    head, sep, tail = name.partition("_")
    if sep:
        return f"{head}_{{{tail}}}"
    if len(name) > 1 and name[-1].isdigit() and not name[0].isdigit():
        # a3 prints as a_3 and dx1 as dx_1
        base = name.rstrip("0123456789")
        return f"{base}_{{{name[len(base):]}}}"
    return name


# how a style spells a variable name, a power of it, and a product
_TEXT = (str, "{}^{}", "*")
_LATEX = (_name_latex, "{}^{{{}}}", " ")


def _poly_str(chart: Chart, p, style) -> str:
    """The terms of p in order, signs between them, in one style."""
    if p.is_zero:
        return "0"
    spell, power, times = style
    out = []
    for mono, coeff in p.terms:
        parts = [str(abs(coeff))] if abs(coeff) != 1 or not mono else []
        for key, e in mono:
            name = spell(chart.var_name(key))
            parts.append(name if e == 1 else power.format(name, e))
        out.append((" - " if coeff < 0 else " + ") + times.join(parts))
    head = out[0]
    out[0] = "-" + head[3:] if head[1] == "-" else head[3:]
    return "".join(out)


def _is_simple_factor(p) -> bool:
    # safe to the right of '/' without parentheses
    if len(p) != 1:
        return False
    mono, coeff = p.terms[0]
    if not mono:
        return coeff > 0
    return coeff == 1 and len(mono) == 1


def render_text(e: Expression) -> str:
    chart = e.chart
    num, den = e.num, e.den
    num_s = _poly_str(chart, num, _TEXT)
    if den.is_const and den.const_value() == 1:
        return num_s
    den_s = _poly_str(chart, den, _TEXT)
    if len(num) != 1:
        num_s = f"({num_s})"
    if not _is_simple_factor(den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def render_latex(e: Expression) -> str:
    num_s = _poly_str(e.chart, e.num, _LATEX)
    if e.den.is_const and e.den.const_value() == 1:
        return num_s
    return f"\\frac{{{num_s}}}{{{_poly_str(e.chart, e.den, _LATEX)}}}"
