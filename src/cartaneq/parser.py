"""Parsing and printing of expressions.

The accepted grammar is deliberately small:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := rational | name | '(' expr ')'

Parentheses nest at most ``MAX_NESTING`` deep; the first ``(`` past that
is a ``ParseError``.  Each level takes four frames of the recursive
descent, so the limit keeps a parse well inside Python's default
recursion limit of 1000.

The text is cut into tokens by one scan of one regular expression.
Whitespace (what ``str.isspace`` calls whitespace, the no-break and em
spaces included) separates tokens and is otherwise skipped; any other
character that starts no token is a ``ParseError`` at its position.
There is no implicit multiplication; ``2*x`` is required, ``2x`` is an
error.  Names resolve against the chart, including derivative spellings
such as ``f_pp``.  Rendering is the inverse: parsing a rendered expression
on the same chart reproduces it exactly.

Parsing computes with polynomials first.  Every operand with no divisor
but an integer is an entry of ``expr._Base`` over the empty base, an
integer polynomial over a positive int: sums, products and the one final
reduction are that class's, so every sum goes through ``poly.lin_comb``,
over the lcm of the ints.  Only a divisor that is not constant brings in
``Expression`` arithmetic, which cancels a gcd at every step; the value
the text denotes, and so the canonical Expression, is the same either way.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .chart import Chart
from .errors import DegreeOverflow, ParseError, UnknownName
from .expr import Expression, _Base
from .poly import Polynomial

MAX_EXPONENT = 512
MAX_NESTING = 100

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S)"
)


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that evaluates as it goes.

    A value is an entry ``(p, d, ())`` over the empty base (see
    ``expr._Base``), the polynomial p over the positive int d, and is
    never reduced on the way.  Only a divisor that is not constant turns
    a value into an Expression, whose operators reduce at every step; an
    Expression that comes out with a constant denominator turns back into
    an entry, so an Expression value is never zero.  ``parse`` reduces an
    entry once, with ``_Base.reduce``.
    """

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.base = _Base(chart, [])
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

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
        return self.base.reduce(*v)

    def entry(self, e: Expression):
        """Back to an entry once no divisor is left."""
        if e.den.is_const:
            return self.base.over(e)
        return e

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
        terms = [(-1 if negate else 1, self.term())]
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                break
            self.advance()
            terms.append((-1 if val == "-" else 1, self.term()))
        return self.add(terms)

    def add(self, terms):
        """One sum of the (sign, value) ``terms`` that are entries, then the
        Expressions."""
        entries = [t for t in terms if isinstance(t[1], tuple)]
        rest = [v if k == 1 else -v
                for k, v in terms if isinstance(v, Expression)]
        if entries:
            total = self.base.sum(entries)
            if not rest:
                return total
            rest.insert(0, self.expression(total))
        return self.entry(sum(rest[1:], rest[0]))

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
                q, d, _ = rhs
                if q.is_zero:
                    raise ParseError("division by zero", pos)
                if q.is_const:
                    # v / (c/d) is v * d / c, the sign on the polynomial
                    c = q.const_value()
                    inverse = Polynomial.const(-d if c < 0 else d), abs(c), ()
                    v = self.product(v, inverse)
                    continue
            v = self.entry(self.expression(v) / self.expression(rhs))

    def product(self, a, b):
        if isinstance(a, Expression) or isinstance(b, Expression):
            return self.entry(self.expression(a) * self.expression(b))
        return _Base.product(a, b)

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
                return self.entry(v ** n)
            v = v[0] ** n, v[1] ** n, ()
        return v

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            if "." not in val:
                return Polynomial.const(int(val)), 1, ()
            f = Fraction(val)
            return Polynomial.const(f.numerator), f.denominator, ()
        if kind == "name":
            try:
                return Polynomial.var(self.chart.resolve(val)), 1, ()
            except UnknownName as exc:
                raise ParseError(str(exc), pos) from None
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            v = self.expr()
            self.expect_op(")")
            self.depth -= 1
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


def _rendered(e) -> Expression:
    """``e`` itself, once checked to be an Expression."""
    if not isinstance(e, Expression):
        raise TypeError("only an Expression can be rendered")
    return e


def render_text(e: Expression) -> str:
    chart = _rendered(e).chart
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
    _rendered(e)
    num_s = _poly_str(e.chart, e.num, _LATEX)
    if e.den.is_const and e.den.const_value() == 1:
        return num_s
    return f"\\frac{{{num_s}}}{{{_poly_str(e.chart, e.den, _LATEX)}}}"
