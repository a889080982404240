"""Exact rational expressions over a chart.

An Expression is a reduced fraction of two integer polynomials: numerator
and denominator share no factor (integer content included), the denominator
has a positive leading coefficient, and zero is always 0/1.  Two equal
values therefore have identical representations, so ``==`` is a decision
procedure for equality of rational functions.

Derivatives treat opaque function symbols through the chain rule: the
partial of f_I along an argument coordinate v is the symbol f_{Iv}, and
zero along anything else.

Three reductions cancel only what can be shared.  A partial derivative
reduces against gcd(D, D') of its denominator D, which holds every
factor the quotient rule's numerator can share with its denominator
(see ``Expression.partial``).  The image of a polynomial under a
``VariableMap`` brings its denominator groups over their lcm and
reduces once.  The image of a one-term polynomial c*m is c times the
reduced image of m, so it loses integer content alone: c and the
denominator's content cancel, and no polynomial gcd is taken.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import poly
from .chart import KIND_COORD, KIND_DERIV, KIND_PARAM, Chart
from .errors import ArgumentEscape, ChartMismatch, DivisionByZero, UnknownName
# bench/tracing.py wraps exact_div and gcd here; expr itself calls neither
from .poly import Polynomial, exact_div, gcd

_ONE = poly.one()


class Expression:
    __slots__ = ("chart", "num", "den")

    def __init__(self, chart: Chart, num: Polynomial, den: Polynomial):
        # callers must provide a reduced, sign-normalized pair; use make()
        self.chart = chart
        self.num = num
        self.den = den

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def make(chart: Chart, num: Polynomial, den: Polynomial) -> "Expression":
        """Canonical expression num/den, reducing as needed."""
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            return Expression(chart, poly.zero(), poly.one())
        _, num, den = poly.cofactors(num, den)
        if den.lead_coeff < 0:
            num, den = -num, -den
        return Expression(chart, num, den)

    @staticmethod
    def const(chart: Chart, value) -> "Expression":
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"a constant must be an int or a Fraction, not {value!r}")
        f = Fraction(value)
        return Expression(
            chart,
            Polynomial.const(f.numerator),
            Polynomial.const(f.denominator),
        )

    @staticmethod
    def var(chart: Chart, name: str) -> "Expression":
        """Variable by name; derivative spellings like ``f_pp`` resolve."""
        key = chart.resolve(name)
        return Expression(chart, Polynomial.var(key), poly.one())

    @staticmethod
    def from_key(chart: Chart, key) -> "Expression":
        return Expression(chart, Polynomial.var(key), poly.one())

    def _coerce(self, other) -> "Expression":
        if isinstance(other, Expression):
            if other.chart != self.chart:
                raise ChartMismatch("operands live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return Expression.const(self.chart, other)
        return NotImplemented

    # ------------------------------------------------------------------
    # predicates

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    def const_value(self) -> Fraction:
        return Fraction(self.num.const_value(), self.den.const_value())

    @property
    def size(self) -> int:
        return len(self.num) + len(self.den)

    def variables(self) -> frozenset:
        return self.num.variables() | self.den.variables()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.const(self.chart, other)
        return (
            isinstance(other, Expression)
            and self.chart == other.chart
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        from .parser import render_text

        return f"<{render_text(self)}>"

    # ------------------------------------------------------------------
    # field operations

    def __neg__(self):
        return Expression(self.chart, -self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b == d:
            if b == _ONE:
                # a sum of polynomials over 1 is already canonical
                return Expression(self.chart, a + c, b)
            return Expression.make(self.chart, a + c, b)
        g, b1, d1 = poly.cofactors(b, d)
        num = a * d1 + c * b1
        if num.is_zero:
            return Expression.const(self.chart, 0)
        if g == poly.one():
            return Expression(self.chart, num, b * d)
        _, num, g = poly.cofactors(num, g)
        return Expression(self.chart, num, g * b1 * d1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero or c.is_zero:
            return Expression.const(self.chart, 0)
        if b == d == _ONE:
            # a product of polynomials over 1 is already canonical
            return Expression(self.chart, a * c, b)
        _, a, d = poly.cofactors(a, d)
        _, c, b = poly.cofactors(c, b)
        return Expression(self.chart, a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise DivisionByZero("division by the zero expression")
        inv = Expression(self.chart, other.den, other.num)
        if inv.den.lead_coeff < 0:
            inv = Expression(self.chart, -inv.num, -inv.den)
        return self * inv

    def __rtruediv__(self, other):
        if self.num.is_zero:
            raise DivisionByZero("division by the zero expression")
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Expression.const(self.chart, 1)
        if n < 0:
            if self.num.is_zero:
                raise DivisionByZero("negative power of zero")
            base = Expression.const(self.chart, 1) / self
            n = -n
        else:
            base = self
        # reduced fractions stay reduced under powers
        return Expression(self.chart, base.num ** n, base.den ** n)

    # ------------------------------------------------------------------
    # calculus

    def _poly_partial(self, p: Polynomial, key) -> Polynomial:
        """d(p)/d(key) with the chain rule through derivative symbols."""
        out = p.derivative(key)
        if key[0] == KIND_COORD:
            for w in p.variables():
                if w[0] == KIND_DERIV:
                    higher = self.chart.extend_deriv(w, key)
                    if higher is not None:
                        out = out + p.derivative(w) * Polynomial.var(higher)
        return out

    def partial(self, name_or_key) -> "Expression":
        """Partial derivative along a coordinate or parameter.

        With N/D reduced, g = gcd(D, D'), D = g D1 and D' = g E1, the
        quotient rule gives (N' D1 - N E1) / (g D1^2).  No factor p of D1
        divides that numerator: p divides neither E1 (D1 and E1 are
        coprime) nor N, yet it divides N' D1.  So every factor the two
        can share divides g, integer content included, and one gcd
        against g reduces the quotient.  That g is small.  Let p be
        irreducible with p' != 0.  If p holds a symbol s whose derivative
        s_v it lacks (take s of top order), p' is linear in s_v with
        coefficient dp/ds, of lower degree in s than p; else p' = dp/dv,
        of lower degree in v.  So p never divides p', and a factor p^e
        of D leaves only p^(e-1) in g.
        """
        if isinstance(name_or_key, str):
            key = self.chart.key_of(name_or_key)
        else:
            key = name_or_key
        if key[0] not in (KIND_COORD, KIND_PARAM):
            raise UnknownName("can only differentiate along a basis direction")
        dn = self._poly_partial(self.num, key)
        dd = self._poly_partial(self.den, key)
        if dd.is_zero:
            if dn.is_zero:
                return Expression.const(self.chart, 0)
            return Expression.make(self.chart, dn, self.den)
        g, d1, e1 = poly.cofactors(self.den, dd)
        num = dn * d1 - self.num * e1
        if num.is_zero:
            return Expression.const(self.chart, 0)
        _, num, g = poly.cofactors(num, g)
        # g, d1 and so the denominator keep positive leading coefficients
        return Expression(self.chart, num, g * d1 * d1)

    # ------------------------------------------------------------------
    # substitution and evaluation

    def map_vars(self, mapping, chart: Chart) -> "Expression":
        """Image under an assignment {key: Expression on ``chart``}.

        ``mapping`` must give an image for every variable present.
        """
        return VariableMap(chart, mapping.__getitem__)(self)

    def substitute(self, fname: str, value: "Expression") -> "Expression":
        """Replace an opaque function symbol by a concrete expression.

        One call of a ``Substitution``; build that once to substitute the
        same value into many expressions.
        """
        return Substitution(self.chart, fname, value)(self)

    def subs_coords(self, mapping) -> "Expression":
        """Composition with a coordinate map name -> Expression.

        The values live on this chart, and an unmapped variable maps to
        itself.  Derivative symbols are not rewritten, so the expression
        must not contain symbols of functions whose arguments are being
        replaced.
        """
        ch = self.chart
        keymap = {
            ch.key_of(name): require_chart(val, ch, "a substitution value")
            for name, val in mapping.items()
        }
        present = self.variables()
        for w in present:
            if w[0] == KIND_DERIV:
                fn = ch.functions[w[1]]
                for a in fn.args:
                    if ch.key_of(a) in keymap:
                        raise ArgumentEscape(
                            f"cannot substitute under the opaque symbol {fn.name!r}"
                        )
        image = {k: Expression.from_key(ch, k) for k in present}
        return self.map_vars(image | keymap, ch)

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as {name: int or Fraction}."""
        vals = {}
        for name, v in point.items():
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"a coordinate must be an int or a Fraction, not {v!r}")
            vals[self.chart.resolve(name)] = Fraction(v)
        missing = self.variables() - set(vals)
        if missing:
            names = sorted(self.chart.var_name(k) for k in missing)
            raise UnknownName(f"point does not cover {names}")
        d = self.den.evaluate(vals)
        if d == 0:
            raise DivisionByZero("denominator vanishes at the point")
        return self.num.evaluate(vals) / d

    def rebase(self, chart: Chart) -> "Expression":
        """Reinterpret on an extended chart; variable keys stay valid."""
        if chart == self.chart:
            return self
        if not chart.is_extension_of(self.chart):
            raise ChartMismatch("target chart does not extend the source")
        return Expression(chart, self.num, self.den)

    def project(self, chart: Chart) -> "Expression":
        """Reinterpret on a smaller chart that this chart extends.

        Valid only when every variable actually present is declared there.
        """
        if chart == self.chart:
            return self
        if not self.chart.is_extension_of(chart):
            raise ChartMismatch("current chart does not extend the target")
        for k in self.variables():
            kind = k[0]
            if kind == KIND_COORD and k[1] >= len(chart.coords):
                raise ChartMismatch(f"{self.chart.var_name(k)!r} missing from target")
            if kind == KIND_PARAM and k[1] >= len(chart.params):
                raise ChartMismatch(f"{self.chart.var_name(k)!r} missing from target")
            if kind == KIND_DERIV and k[1] >= len(chart.functions):
                raise ChartMismatch(f"{self.chart.var_name(k)!r} missing from target")
        return Expression(chart, self.num, self.den)


def require_chart(e, chart: Chart, name: str) -> Expression:
    """``e`` itself, once checked to be an Expression on ``chart``."""
    if not isinstance(e, Expression):
        raise TypeError(f"{name} must be an Expression")
    if e.chart != chart:
        coords = ", ".join(chart.coords)
        raise ChartMismatch(f"{name} must live on the ({coords}) chart")
    return e


class Partials(dict):
    """The partials of one expression, keyed by sorted index tuples.

    ``along[i]`` names the direction of index i, so ``[i, j]`` is the
    partial along i, then j.  Mixed partials commute, so each is taken
    once, when first read, from the entry one index shorter.
    """

    def __init__(self, e: Expression, along):
        super().__init__({(): e})
        self.along = along

    def __missing__(self, index):
        got = self[index] = self[index[:-1]].partial(self.along[index[-1]])
        return got


class VariableMap:
    """The image of expressions under an assignment of every variable.

    ``image_of_key`` gives the image of one variable key, an Expression on
    ``chart``.  The image of a monomial is that of its prefix times the
    image of one power; both are kept for every monomial and power mapped,
    so expressions sharing monomials or powers share the work.  The term
    images of a polynomial are summed in one dict per denominator; a
    one-term polynomial scales its monomial's image and cancels integer
    content alone.
    """

    def __init__(self, chart: Chart, image_of_key):
        self.chart = chart
        self._image_of_key = image_of_key
        self._monomials = {(): Expression.const(chart, 1)}
        self._powers = {}

    def _monomial(self, m) -> Expression:
        got = self._monomials.get(m)
        if got is None:
            power = self._powers.get(m[-1])
            if power is None:
                k, e = m[-1]
                power = self._image_of_key(k) ** e
                self._powers[m[-1]] = power
            got = self._monomial(m[:-1]) * power
            self._monomials[m] = got
        return got

    def _poly(self, p: Polynomial) -> Expression:
        if len(p) == 1:
            # c times a kept image n/d: n/d is reduced, integer content
            # included, so gcd(c*n, d) = gcd(c, content(d)); a zero image
            # 0/1 stays 0/1
            (m, c), = p.terms
            t = self._monomial(m)
            g = math.gcd(c, t.den.icontent())
            return Expression(self.chart, t.num.scale(c // g), t.den.div_int(g))
        groups = {}
        for m, c in p.terms:
            t = self._monomial(m)
            acc = groups.setdefault(t.den, {})
            for mm, cc in t.num.terms:
                acc[mm] = acc.get(mm, 0) + c * cc
        if not groups:
            return Expression.const(self.chart, 0)
        (lcm, acc), *rest = groups.items()
        if not rest:
            return Expression.make(self.chart, Polynomial.from_dict(acc), lcm)
        # the lcm of the small group denominators, with each group's
        # multiplier lcm/den kept as it grows
        parts = [(acc, poly.one())]
        for den, acc in rest:
            _, lq, dq = poly.cofactors(lcm, den)
            parts = [(a, q * dq) for a, q in parts]
            parts.append((acc, lq))
            lcm = lcm * dq
        total = {}
        for acc, q in parts:
            for m, c in (Polynomial.from_dict(acc) * q).terms:
                total[m] = total.get(m, 0) + c
        return Expression.make(self.chart, Polynomial.from_dict(total), lcm)

    def __call__(self, e: Expression) -> Expression:
        return self._poly(e.num) / self._poly(e.den)


class Substitution(VariableMap):
    """Replace one opaque function symbol by a concrete expression.

    The value may only involve the function's declared arguments (and
    opaque symbols depending on a subset of them); anything else would
    contradict the partials already taken, so it raises ArgumentEscape.
    The partials of the value are one ``Partials`` table.
    """

    def __init__(self, chart: Chart, fname: str, value: Expression):
        fkey = chart.key_of(fname)
        if fkey[0] != KIND_DERIV:
            raise UnknownName(f"{fname!r} is not an opaque function")
        fidx = fkey[1]
        fn = chart.functions[fidx]
        if value.chart != chart:
            raise ChartMismatch("substitution value lives on a different chart")
        allowed = {chart.key_of(a) for a in fn.args}
        for w in value.variables():
            if w[0] == KIND_COORD:
                if w not in allowed:
                    raise ArgumentEscape(
                        f"{chart.var_name(w)!r} is not an argument of {fname!r}"
                    )
            elif w[0] == KIND_PARAM:
                raise ArgumentEscape(
                    f"group parameter {chart.var_name(w)!r} cannot enter {fname!r}"
                )
            else:
                inner = chart.functions[w[1]]
                if not set(inner.args) <= set(fn.args):
                    raise ArgumentEscape(
                        f"{inner.name!r} depends on more than the arguments of {fname!r}"
                    )

        derivs = Partials(value, [chart.key_of(a) for a in fn.args])

        def image(k):
            if k[0] == KIND_DERIV and k[1] == fidx:
                return derivs[k[3]]
            return Expression.from_key(chart, k)

        super().__init__(chart, image)

    def __call__(self, e: Expression) -> Expression:
        if e.chart != self.chart:
            raise ChartMismatch("expression lives on a different chart")
        return super().__call__(e)

