"""Sparse multivariate polynomials with integer coefficients.

Terms are kept sorted in graded lexicographic order, highest first, with
earlier chart variables more significant.  Because construction always
re-sorts and drops zero coefficients, equal polynomials are identical
objects term for term, which is what makes the canonical form of the
rational layer bit-for-bit reproducible.

The gcd is exact over the integers and is computed in stages: trivial
cases, trial exact division, a random-specialization certificate that can
prove single variables absent from the gcd, and finally a primitive
pseudo-remainder sequence in one chosen variable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from .errors import DivisionByZero

# A monomial is a tuple of (var_key, exponent) pairs, sorted ascending by
# key, exponents strictly positive.  () is the constant monomial.


def _mkey(m):
    # sort key: ascending order of _mkey = descending graded lex
    return (-sum(e for _, e in m), tuple((k, -e) for k, e in m))


def _mmul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        k1, e1 = m1[i]
        k2, e2 = m2[j]
        if k1 == k2:
            out.append((k1, e1 + e2))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mdiv(m, d):
    """Monomial quotient m / d, or None when not divisible."""
    if not d:
        return m
    out = []
    i = 0
    n = len(m)
    for k, e in d:
        while i < n and m[i][0] < k:
            out.append(m[i])
            i += 1
        if i >= n or m[i][0] != k or m[i][1] < e:
            return None
        if m[i][1] > e:
            out.append((k, m[i][1] - e))
        i += 1
    out.extend(m[i:])
    return tuple(out)


def _mgcd(m1, m2):
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        k1, e1 = m1[i]
        k2, e2 = m2[j]
        if k1 == k2:
            out.append((k1, min(e1, e2)))
            i += 1
            j += 1
        elif k1 < k2:
            i += 1
        else:
            j += 1
    return tuple(out)


class Polynomial:
    """Immutable sparse polynomial over the integers."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms):
        # terms must already be combined, nonzero, sorted; use from_dict
        # or the arithmetic below rather than calling this directly.
        self.terms = terms
        self._hash = hash(terms)

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def from_dict(d) -> "Polynomial":
        items = [(m, c) for m, c in d.items() if c]
        items.sort(key=lambda t: _mkey(t[0]))
        return Polynomial(tuple(items))

    @staticmethod
    def const(c: int) -> "Polynomial":
        if c == 0:
            return _ZERO
        return Polynomial((((), int(c)),))

    @staticmethod
    def var(key, exp: int = 1) -> "Polynomial":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return _ONE
        return Polynomial(((((key, exp),), 1),))

    # ------------------------------------------------------------------
    # predicates and views

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def const_value(self) -> int:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and not self.terms[0][0]:
            return self.terms[0][1]
        raise ValueError("not a constant polynomial")

    def __len__(self):
        return len(self.terms)

    def variables(self) -> frozenset:
        return frozenset(k for m, _ in self.terms for k, _ in m)

    def degree_in(self, key) -> int:
        d = 0
        for m, _ in self.terms:
            for k, e in m:
                if k == key and e > d:
                    d = e
        return d

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Polynomial({self.terms!r})"

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self):
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def __add__(self, other):
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = dict(self.terms)
        for m, c in other.terms:
            nc = d.get(m, 0) + c
            if nc:
                d[m] = nc
            elif m in d:
                del d[m]
        return Polynomial.from_dict(d)

    def __sub__(self, other):
        if not other.terms:
            return self
        d = dict(self.terms)
        for m, c in other.terms:
            nc = d.get(m, 0) - c
            if nc:
                d[m] = nc
            elif m in d:
                del d[m]
        return Polynomial.from_dict(d)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return _ZERO
        if self.is_const:
            return other.scale(self.terms[0][1])
        if other.is_const:
            return self.scale(other.terms[0][1])
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mmul(m1, m2)
                nc = d.get(m, 0) + c1 * c2
                if nc:
                    d[m] = nc
                else:
                    del d[m]
        return Polynomial.from_dict(d)

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return _ZERO
        if c == 1:
            return self
        return Polynomial(tuple((m, c * k) for m, k in self.terms))

    def mul_term(self, mono, coeff: int) -> "Polynomial":
        if coeff == 0 or not self.terms:
            return _ZERO
        if not mono:
            return self.scale(coeff)
        return Polynomial(
            tuple((_mmul(m, mono), coeff * c) for m, c in self.terms)
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # contents, normalization

    def icontent(self) -> int:
        """Nonnegative gcd of the integer coefficients (0 for the zero poly)."""
        g = 0
        for _, c in self.terms:
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def mcontent(self):
        """Monomial dividing every term (the per-variable minimum exponents)."""
        if not self.terms:
            return ()
        it = iter(self.terms)
        m = next(it)[0]
        for mm, _ in it:
            if not m:
                return ()
            m = _mgcd(m, mm)
        return m

    def div_int(self, c: int) -> "Polynomial":
        if c == 1:
            return self
        return Polynomial(tuple((m, k // c) for m, k in self.terms))

    def div_mono(self, mono) -> "Polynomial":
        if not mono:
            return self
        out = []
        for m, c in self.terms:
            q = _mdiv(m, mono)
            if q is None:
                raise ValueError("monomial does not divide every term")
            out.append((q, c))
        return Polynomial(tuple(out))

    @property
    def lead_coeff(self) -> int:
        return self.terms[0][1] if self.terms else 0

    def monic_sign(self) -> "Polynomial":
        """Flip the sign if the leading coefficient is negative."""
        if self.terms and self.terms[0][1] < 0:
            return -self
        return self

    # ------------------------------------------------------------------
    # calculus and evaluation

    def derivative(self, key) -> "Polynomial":
        """Formal partial derivative with respect to one variable key."""
        d = {}
        for m, c in self.terms:
            for i, (k, e) in enumerate(m):
                if k == key:
                    if e == 1:
                        nm = m[:i] + m[i + 1:]
                    else:
                        nm = m[:i] + ((k, e - 1),) + m[i + 1:]
                    d[nm] = d.get(nm, 0) + c * e
                    break
        return Polynomial.from_dict(d)

    def evaluate(self, vals) -> Fraction:
        """Value at a point; ``vals`` must cover every variable present."""
        total = Fraction(0)
        for m, c in self.terms:
            v = Fraction(c)
            for k, e in m:
                v *= vals[k] ** e
            total += v
        return total

    def univariate_image(self, key, vals):
        """Integer coefficient list in ``key`` after evaluating all else.

        Returns coefficients ascending by exponent, trailing zeros trimmed.
        """
        n = self.degree_in(key)
        out = [0] * (n + 1)
        for m, c in self.terms:
            e0 = 0
            for k, e in m:
                if k == key:
                    e0 = e
                else:
                    c *= vals[k] ** e
            out[e0] += c
        while out and out[-1] == 0:
            out.pop()
        return out


_ZERO = Polynomial(())
_ONE = Polynomial((((), 1),))


def zero() -> Polynomial:
    return _ZERO


def one() -> Polynomial:
    return _ONE


# ----------------------------------------------------------------------
# exact division

def exact_div(a: Polynomial, b: Polynomial):
    """Quotient a / b when the division is exact over Z, else None."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero:
        return _ZERO
    if b.is_const:
        bc = b.terms[0][1]
        if bc in (1, -1):
            return a.scale(bc)
        out = []
        for m, c in a.terms:
            q, r = divmod(c, bc)
            if r:
                return None
            out.append((m, q))
        return Polynomial(tuple(out))

    bm, bc = b.terms[0]
    rem = list(a.terms)
    quot = []
    while rem:
        lm, lc = rem[0]
        qm = _mdiv(lm, bm)
        if qm is None:
            return None
        qc, r = divmod(lc, bc)
        if r:
            return None
        quot.append((qm, qc))
        # rem -= (qm, qc) * b, merging two descending-sorted term lists
        prod = [(_mmul(qm, m), qc * c) for m, c in b.terms]
        merged = []
        i, j = 1, 1  # leading terms cancel by construction
        while i < len(rem) and j < len(prod):
            mi, ci = rem[i]
            mj, cj = prod[j]
            if mi == mj:
                c = ci - cj
                if c:
                    merged.append((mi, c))
                i += 1
                j += 1
            elif _mkey(mi) < _mkey(mj):
                merged.append((mi, ci))
                i += 1
            else:
                merged.append((mj, -cj))
                j += 1
        merged.extend(rem[i:])
        merged.extend((m, -c) for m, c in prod[j:])
        rem = merged
    quot.sort(key=lambda t: _mkey(t[0]))
    return Polynomial(tuple(quot))


# ----------------------------------------------------------------------
# gcd

_CERT_RNG = random.Random(0x5EED)
_CERT_TRIES = 8


def _int_list_gcd_degree(f, g) -> int:
    """Degree of gcd of two integer coefficient lists (ascending)."""
    # primitive Euclid over Q is enough; work with Fractions for clarity
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while b:
        # a mod b
        while len(a) >= len(b):
            if not a:
                break
            q = a[-1] / b[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= q * b[i]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _certify_var_absent(a: Polynomial, b: Polynomial, key) -> bool:
    """Try to prove deg_key(gcd(a, b)) == 0 by univariate specialization.

    If a random point keeps the leading coefficients of both operands in
    ``key`` nonzero, any common divisor keeps its ``key``-degree under the
    specialization, so a degree-zero univariate gcd settles the question.
    False means inconclusive, never "present".
    """
    others = (a.variables() | b.variables()) - {key}
    da, db = a.degree_in(key), b.degree_in(key)
    for _ in range(_CERT_TRIES):
        vals = {k: _CERT_RNG.randint(-17, 17) for k in others}
        fa = a.univariate_image(key, vals)
        fb = b.univariate_image(key, vals)
        if len(fa) - 1 != da or len(fb) - 1 != db:
            continue  # a leading coefficient vanished, pick a new point
        return _int_list_gcd_degree(fa, fb) == 0
    return False


def _to_univariate(p: Polynomial, key):
    """Coefficient list of p in ``key``, ascending, entries Polynomial."""
    n = p.degree_in(key)
    buckets = [{} for _ in range(n + 1)]
    for m, c in p.terms:
        e0 = 0
        rest = []
        for k, e in m:
            if k == key:
                e0 = e
            else:
                rest.append((k, e))
        nm = tuple(rest)
        bucket = buckets[e0]
        bucket[nm] = bucket.get(nm, 0) + c
    return [Polynomial.from_dict(b) for b in buckets]


def _from_univariate(coeffs, key) -> Polynomial:
    d = {}
    for e, p in enumerate(coeffs):
        for m, c in p.terms:
            if e:
                nm = _mmul(m, ((key, e),))
            else:
                nm = m
            d[nm] = d.get(nm, 0) + c
    return Polynomial.from_dict(d)


def _trim(coeffs):
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _poly_list_gcd(ps) -> Polynomial:
    g = _ZERO
    for p in ps:
        g = gcd(g, p)
        if g == _ONE:
            return g
    return g


def _primitive_univ(coeffs):
    """Strip the coefficient-ring content from a univariate poly."""
    cont = _poly_list_gcd(coeffs)
    if cont.is_zero or cont == _ONE:
        return coeffs, cont
    return [exact_div(c, cont) for c in coeffs], cont


def _pseudo_rem(f, g):
    """Pseudo-remainder of univariate polys over the polynomial ring."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        lf = f[-1]
        off = len(f) - 1 - dg
        f = [lg * c for c in f[:-1]]
        for i in range(dg):
            f[off + i] = f[off + i] - lf * g[i]
        _trim(f)
    return f


def _univ_prs_gcd(f, g):
    """Primitive remainder sequence gcd of two primitive univariate polys."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g)
        if r:
            r, _ = _primitive_univ(r)
        f, g = g, r
    return f


@lru_cache(maxsize=1 << 14)
def _gcd_cached(a: Polynomial, b: Polynomial) -> Polynomial:
    # both nonzero, non-constant, integer- and monomial-content free
    if a == b or a == -b:
        return a.monic_sign()

    # trial division, cheaper operand as candidate divisor first
    first, second = (a, b) if len(a) <= len(b) else (b, a)
    if exact_div(second, first) is not None:
        return first.monic_sign()
    if len(first) == len(second) and exact_div(first, second) is not None:
        return second.monic_sign()

    shared = a.variables() & b.variables()
    if not shared:
        return _ONE

    undecided = []
    for key in sorted(shared):
        if not _certify_var_absent(a, b, key):
            undecided.append(key)
    if not undecided:
        return _ONE

    # pseudo-remainder sequence in the cheapest undecided variable
    def cost(k):
        da, db = a.degree_in(k), b.degree_in(k)
        return (min(da, db), da + db)

    key = min(undecided, key=cost)
    ua, ub = _to_univariate(a, key), _to_univariate(b, key)
    ua, conta = _primitive_univ(ua)
    ub, contb = _primitive_univ(ub)
    gp = _univ_prs_gcd(ua, ub)
    gp, _ = _primitive_univ(gp)
    g = _from_univariate(gp, key) * gcd(conta, contb)
    return g.monic_sign()


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor over Z, leading coefficient positive."""
    if a.is_zero:
        return b.monic_sign()
    if b.is_zero:
        return a.monic_sign()
    if a.is_const or b.is_const:
        return Polynomial.const(math.gcd(a.icontent(), b.icontent()))

    ca, cb = a.icontent(), b.icontent()
    ma, mb = a.mcontent(), b.mcontent()
    cg = math.gcd(ca, cb)
    mg = _mgcd(ma, mb)
    a0 = a.div_int(ca if a.terms[0][1] > 0 else -ca).div_mono(ma)
    b0 = b.div_int(cb if b.terms[0][1] > 0 else -cb).div_mono(mb)
    if a0.is_const:
        core = _ONE
    elif b0.is_const:
        core = _ONE
    else:
        if (len(b0), b0.terms) < (len(a0), a0.terms):
            a0, b0 = b0, a0
        core = _gcd_cached(a0, b0)
    return core.mul_term(mg, cg)
