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

Parsing computes with polynomials first.  Every operand is an integer
polynomial over a positive int, each sum gathers its terms in one dict
over the lcm of those ints, and the result is reduced once, by
``Expression.make``.  Only a divisor that is not constant brings in
``Expression`` arithmetic, which cancels a gcd at every step; the value
the text denotes, and so the canonical Expression, is the same either way.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .chart import Chart
from .errors import DegreeOverflow, ParseError, UnknownName
from .expr import Expression
from .poly import Polynomial

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


def _pair_or_expression(e: Expression):
    """Back to a polynomial over an int once no divisor is left."""
    if e.den.is_const:
        return e.num, e.den.const_value()
    return e


class _Parser:
    """Recursive descent that evaluates as it goes.

    A value is a pair ``(p, d)``, the polynomial p over the positive int d,
    and is never reduced on the way.  Only a divisor that is not constant
    turns a value into an Expression, whose operators reduce at every
    step; an Expression that comes out with a constant denominator turns
    back into a pair, so an Expression value is never zero.  ``parse``
    reduces a pair once, with ``Expression.make``.
    """

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

    def expression(self, v) -> Expression:
        if isinstance(v, Expression):
            return v
        p, d = v
        return Expression.make(self.chart, p, Polynomial.const(d))

    def parse(self) -> Expression:
        v = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r} after expression", pos)
        return self.expression(v)

    def expr(self):
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.advance()
        terms = [(negate, self.term())]
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.advance()
            terms.append((val == "-", self.term()))
        if len(terms) > 1:
            return self.add(terms)
        negate, v = terms[0]
        if not negate:
            return v
        return -v if isinstance(v, Expression) else (-v[0], v[1])

    def add(self, terms):
        """One dict over the lcm of the pairs' ints, then the Expressions."""
        lcm = math.lcm(*(v[1] for _, v in terms if isinstance(v, tuple)))
        acc = {}
        rest = []
        for negate, v in terms:
            if isinstance(v, Expression):
                rest.append(-v if negate else v)
                continue
            p, d = v
            k = -(lcm // d) if negate else lcm // d
            for m, c in p.terms:
                acc[m] = acc.get(m, 0) + k * c
        total = Polynomial.from_dict(acc), lcm
        if not rest:
            return total
        return _pair_or_expression(sum(rest, self.expression(total)))

    def term(self):
        v = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in "*/":
                return v
            self.advance()
            rhs = self.factor()
            if val == "*":
                v = self.product(v, rhs)
                continue
            if isinstance(rhs, tuple):
                q, d = rhs
                if q.is_zero:
                    raise ParseError("division by zero", pos)
                if q.is_const:
                    # v / (c/d) is v * d / c, the sign on the polynomial
                    c = q.const_value()
                    inverse = Polynomial.const(-d if c < 0 else d), abs(c)
                    v = self.product(v, inverse)
                    continue
            v = _pair_or_expression(self.expression(v) / self.expression(rhs))

    def product(self, a, b):
        if isinstance(a, Expression) or isinstance(b, Expression):
            return _pair_or_expression(self.expression(a) * self.expression(b))
        return a[0] * b[0], a[1] * b[1]

    def factor(self):
        v = self.atom()
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
            if isinstance(v, Expression):
                return _pair_or_expression(v ** n)
            v = v[0] ** n, v[1] ** n
        return v

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            if "." not in val:
                return Polynomial.const(int(val)), 1
            f = Fraction(val)
            return Polynomial.const(f.numerator), f.denominator
        if kind == "name":
            try:
                return Polynomial.var(self.chart.resolve(val)), 1
            except UnknownName as exc:
                raise ParseError(str(exc), pos) from None
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
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
