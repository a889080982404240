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
(see ``Expression.partial``).  A table of partials (``Partials``) and
the images under a ``VariableMap`` are fractions kept unreduced over a
squarefree, pairwise coprime base of the denominators they start from
(``_Base``): a table takes the parts of ``poly.squarefree`` of its
denominator as they are, and a map refines those of its images against
each other (``poly.refine``).  Taking a partial, multiplying and adding
are then polynomial arithmetic alone; a value is reduced once, when it
is read, by gcds against the small base polynomials and by integer
content.  The image of a one-term polynomial c*m, m a power of one
variable, is c times that power of the reduced image of the variable, so
it loses integer content alone: c and the denominator's content cancel,
and no polynomial gcd is taken.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import poly
from .chart import KIND_COORD, KIND_DERIV, KIND_PARAM, Chart
from .errors import ArgumentEscape, ChartMismatch, DivisionByZero, UnknownName
# bench/tracing.py wraps exact_div and gcd here; expr calls exact_div in
# ``_Base.over`` alone, and gcd never
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
        key = basis_key(self.chart, name_or_key)
        dn = poly_partial(self.chart, self.num, key)
        dd = poly_partial(self.chart, self.den, key)
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
        return VariableMap(chart, {k: mapping[k] for k in self.variables()})(self)

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


def basis_key(chart: Chart, name_or_key):
    """The key of a coordinate or parameter; anything else is refused."""
    key = chart.key_of(name_or_key) if isinstance(name_or_key, str) else name_or_key
    if key[0] not in (KIND_COORD, KIND_PARAM):
        raise UnknownName("can only differentiate along a basis direction")
    return key


def poly_partial(chart: Chart, p: Polynomial, key) -> Polynomial:
    """d(p)/d(key) with the chain rule through derivative symbols."""
    out = p.derivative(key)
    if key[0] == KIND_COORD and chart.functions:
        for w in p.variables():
            if w[0] == KIND_DERIV:
                higher = chart.extend_deriv(w, key)
                if higher is not None:
                    out = out + p.derivative(w) * Polynomial.var(higher)
    return out


def require_chart(e, chart: Chart, name: str) -> Expression:
    """``e`` itself, once checked to be an Expression on ``chart``."""
    if not isinstance(e, Expression):
        raise TypeError(f"{name} must be an Expression")
    if e.chart != chart:
        coords = ", ".join(chart.coords)
        raise ChartMismatch(f"{name} must live on the ({coords}) chart")
    return e


class _Base:
    """Squarefree, pairwise coprime polynomials B_i, and entries over them.

    The B_i are primitive, of positive leading coefficient.  An entry
    (N, c, e) stands for N / (c prod B_i^e_i), c a positive integer, and
    need not be reduced: products and sums of entries are polynomial
    arithmetic alone, and ``reduce`` cancels once.  With no B_i an entry
    is a polynomial over an integer.
    """

    __slots__ = ("chart", "polys", "zeros", "_powers")

    def __init__(self, chart: Chart, polys):
        self.chart = chart
        self.polys = polys
        self.zeros = (0,) * len(polys)
        self._powers = {}

    def power(self, i, k) -> Polynomial:
        """B_i^k, kept."""
        got = self._powers.get((i, k))
        if got is None:
            got = self._powers[i, k] = self.polys[i] ** k
        return got

    def over(self, e: Expression):
        """``e`` as an entry; its denominator must be c prod B_i^e_i."""
        den = e.den
        if den.is_const:
            return e.num, den.const_value(), self.zeros
        exps = []
        for b in self.polys:
            k = 0
            q = exact_div(den, b)
            while q is not None:
                den, k = q, k + 1
                q = exact_div(den, b)
            exps.append(k)
        return e.num, den.const_value(), tuple(exps)

    @staticmethod
    def product(a, b):
        """The entry of the product of the entries a and b."""
        return (a[0] * b[0], a[1] * b[1],
                tuple([x + y for x, y in zip(a[2], b[2])]))

    def sum(self, terms, d: int = 1):
        """The entry of the sum of k*t over (k, t) in ``terms``, over d.

        Terms over the same c and exponents add in one dict; each such
        group is then brought over the lcm of the c and the greatest
        exponent of each B_i.
        """
        groups = {}
        for k, (num, c, exps) in terms:
            groups.setdefault((c, exps), []).append((k, num))
        if len(groups) == 1:
            ((c, exps), pairs), = groups.items()
            return poly.lin_comb(pairs), c * d, exps
        top = tuple(map(max, *(exps for _, exps in groups)))
        lcm = math.lcm(*(c for c, _ in groups))
        pairs = []
        for (c, exps), group in groups.items():
            q = poly.lin_comb(group)
            for i, (t, e) in enumerate(zip(top, exps)):
                if t > e:
                    q = q * self.power(i, t - e)
            pairs.append((lcm // c, q))
        return poly.lin_comb(pairs), lcm * d, top

    def reduce(self, num: Polynomial, c: int, exps) -> Expression:
        """N / (c prod B_i^e_i) in canonical form.

        B_i is squarefree, so g = gcd(N, B_i) cancels one power of it at a
        time: either g = B_i, or g is a proper factor, B_i/g shares
        nothing with N and g goes on in place of B_i, or g = 1.  The B_i
        are primitive, so what is left of the denominator has integer
        content c, and gcd(content(N), c) ends it.
        """
        if num.is_zero:
            return Expression(self.chart, num, _ONE)
        den = _ONE
        for i, e in enumerate(exps):
            b, own = self.polys[i], True
            while e:
                g, q_num, q = poly.cofactors(num, b)
                if g.is_const:
                    break
                num = q_num
                if not q.is_const:
                    den = den * q ** e
                    b, own = g, False
                e -= 1
            if e:
                den = den * (self.power(i, e) if own else b ** e)
        if c != 1:
            g = math.gcd(num.icontent(), c)
            num, c = num.div_int(g), c // g
        return Expression(self.chart, num, den.scale(c))


class Partials(dict):
    """The partials of one expression N/D, keyed by sorted index tuples.

    ``along`` maps each index to the name of a direction, so ``[i, j]``
    is the partial along i, then j; each direction is a coordinate or a
    parameter.  D is split once into c prod B_i^m_i over a squarefree,
    pairwise coprime base, exactly as ``poly.squarefree`` returns it, so
    the base does not depend on ``along``.  ``raw(index)`` is an entry
    over that base (see ``_Base``), taken from the entry one index
    shorter by the quotient rule.  Along v, with S the B_i that hold v
    and P their product,

        d(N / (c prod B_i^e_i)) = (N' P - N sum_S e_i B_i' P / B_i)
                                  / (c prod_S B_i^(e_i + 1) prod_rest B_i^e_i),

    so the exponent of each B_i in S rises by one and no gcd is taken.
    A factor of such a B_i free of v may then divide the numerator, and
    reading cancels it.  Mixed partials commute, so each is taken once.
    Reading ``[index]`` reduces the entry once (``_Base.reduce``) and
    keeps the result; ``[()]`` is the expression itself, already reduced.
    """

    def __init__(self, e: Expression, along):
        super().__init__({(): e})
        ch = e.chart
        self.along = {i: basis_key(ch, name) for i, name in along.items()}
        c, parts = poly.squarefree(e.den)
        self.base = _Base(ch, [b for b, _ in parts])
        self._raw = {(): (e.num, c, tuple([m for _, m in parts]))}
        self._dbase = {}

    def raw(self, index):
        """The unreduced entry of ``index``, kept."""
        got = self._raw.get(index)
        if got is None:
            got = self._raw[index] = self._step(index)
        return got

    def _step(self, index):
        """The entry of ``index``, one partial from that of index[:-1]."""
        num, c, exps = self.raw(index[:-1])
        key = self.along[index[-1]]
        base = self.base
        out = poly_partial(base.chart, num, key)
        # P and T = sum_S e_i B_i' P / B_i, grown one B_i in S at a time
        P, T = _ONE, poly.zero()
        grown = list(exps)
        for i, e in enumerate(exps):
            if e:
                db = self._dbase.get((i, key))
                if db is None:
                    db = self._dbase[i, key] = poly_partial(
                        base.chart, base.polys[i], key)
                if not db.is_zero:
                    b = base.polys[i]
                    T = T * b + db.scale(e) * P
                    P = P * b
                    grown[i] += 1
        if P is _ONE:
            return out, c, exps
        return out * P - num * T, c, tuple(grown)

    def __missing__(self, index):
        got = self[index] = self.base.reduce(*self.raw(index))
        return got


class VariableMap:
    """The image of expressions under an assignment of variables.

    ``images`` gives the image of every variable mapped, an Expression on
    ``chart``.  The squarefree parts of their denominators are refined
    against each other into one squarefree, pairwise coprime base
    (``poly.refine``), and each image is an entry over it (see
    ``_Base``).  The image of a monomial is the product of the entries
    of its powers, and both are kept for every monomial and power
    mapped, so expressions sharing monomials or powers share the work;
    no gcd is taken.  The image of N/D with D an integer is one sum of
    the term images of N over their common exponent vector, divided by
    D and reduced once.  A one-term N = c k^e maps to c times the e-th
    power of the reduced image of k, which stays reduced, so it loses
    integer content alone.
    """

    def __init__(self, chart: Chart, images):
        polys = []
        for e in images.values():
            if not e.den.is_const:
                for b, _ in poly.squarefree(e.den)[1]:
                    polys = poly.refine(polys, b)
        self._images = images
        self._start(_Base(chart, polys))

    def _start(self, base: _Base):
        self.chart = base.chart
        self.base = base
        self._monomials = {(): (_ONE, 1, base.zeros)}
        self._powers = {}

    def _entry(self, k):
        """The entry of the image of the variable k."""
        return self.base.over(self._images[k])

    def _reduced(self, k) -> Expression:
        """The image of the variable k, reduced."""
        return self._images[k]

    def _power(self, k, e):
        """The entry of k^e, kept."""
        got = self._powers.get((k, e))
        if got is None:
            if e == 1:
                got = self._entry(k)
            else:
                num, c, exps = self._power(k, 1)
                got = num ** e, c ** e, tuple([x * e for x in exps])
            self._powers[k, e] = got
        return got

    def _monomial(self, m):
        """The entry of the image of the monomial m, kept."""
        got = self._monomials.get(m)
        if got is None:
            got = self._monomials[m] = self.base.product(
                self._monomial(m[:-1]), self._power(*m[-1]))
        return got

    def _poly(self, p: Polynomial, d: int = 1) -> Expression:
        """The image of p/d, d a positive integer."""
        if len(p) > 1 or p.terms and len(p.terms[0][0]) > 1:
            return self.base.reduce(*self.base.sum(
                [(c, self._monomial(m)) for m, c in p.terms], d))
        if p.is_const:
            return Expression.const(self.chart, Fraction(p.const_value(), d))
        # c (n/q)^e / d with n/q reduced, integer content included:
        # gcd(c n^e, d q^e) = gcd(c content(n^e), d content(q^e)), and
        # with d = 1 that is gcd(c, content(q^e)); a zero image 0/1
        # stays 0/1
        (((k, e),), c), = p.terms
        t = self._reduced(k)
        n, q = t.num, t.den
        if e != 1:
            n, q = n ** e, q ** e
        g = math.gcd(c if d == 1 else c * n.icontent(), d * q.icontent())
        return Expression(self.chart, n.scale(c).div_int(g),
                          q.scale(d).div_int(g))

    def __call__(self, e: Expression) -> Expression:
        if e.den.is_const:
            return self._poly(e.num, e.den.const_value())
        return self._poly(e.num) / self._poly(e.den)


class Substitution(VariableMap):
    """Replace one opaque function symbol by a concrete expression.

    The value may only involve the function's declared arguments (and
    opaque symbols depending on a subset of them); anything else would
    contradict the partials already taken, so it raises ArgumentEscape.
    The partials of the value are one ``Partials`` table, whose base is
    the map's: a derivative symbol of the function maps to its entry in
    the table, every other variable to itself.
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
        self._fidx = fidx
        self.table = Partials(value, dict(enumerate(fn.args)))
        self._start(self.table.base)

    def _entry(self, k):
        if k[0] == KIND_DERIV and k[1] == self._fidx:
            return self.table.raw(k[3])
        return Polynomial.var(k), 1, self.base.zeros

    def _reduced(self, k) -> Expression:
        if k[0] == KIND_DERIV and k[1] == self._fidx:
            return self.table[k[3]]
        return Expression.from_key(self.chart, k)

    def __call__(self, e: Expression) -> Expression:
        if e.chart != self.chart:
            raise ChartMismatch("expression lives on a different chart")
        return super().__call__(e)
