"""Sparse multivariate polynomials with integer coefficients.

Terms are kept sorted in graded lexicographic order, highest first, with
earlier chart variables more significant, and never hold a zero
coefficient, so equal polynomials are identical objects term for term,
which is what makes the canonical form of the rational layer bit-for-bit
reproducible.

The one order key is a monomial packed into one int (``_shifts``,
``_pack``): the total degree in the top field, then one field per
variable in ascending key order, so descending ints are descending graded
lex.  The fields are laid out afresh for each sort, product or division,
just wide enough for the exponents it can meet.  Only work that can
upset the order sorts: a sum whose shorter operand brings no new monomial
keeps the longer operand's order, a derivative keeps its input's order
(dividing every surviving term by one variable keeps them in order), and
a product with a one-term operand shifts the other's terms
(``mul_term``).  Other products (``_packed_mul``) take one of two
accumulators, which give the same terms in the same order.  A product's
exponent box holds every exponent vector whose exponent in each variable
lies between 0 and the sum of the operands' top exponents in it.  When
the box has no more cells than the product has term pairs, and there are at
least 256 pairs, the product is dense: it sums in a flat list indexed by
the exponents in mixed radix and reads the nonzero cells out by total
degree, with no sort (``_box_mul``).  Any other product adds packed
ints in a dict and sorts them once (``_dict_mul``).  Either way a
square runs over the upper triangle of its term pairs.

``cofactors(a, b)`` returns the gcd over the integers with the quotients
a/g and b/g.  It is computed in stages, and every stage but the last
hands back the quotients it already holds:

1. equal operands;
2. trial exact division, smaller operand first;
3. a certificate that specializes all variables but one at one point
   drawn from the operands themselves, computes mod the prime 2^61 - 1,
   and can prove single variables absent from the gcd; it tries the
   shared variables in key order and stops at the first it cannot;
4. the heuristic gcd GCDHEU of Char, Geddes and Gonnet (J. Symbolic
   Comput. 7, 1989): evaluate at a large integer, take the integer gcd,
   interpolate back and accept only a result that divides both operands;
5. when the heuristic gives up, a primitive pseudo-remainder sequence
   that pseudo-divides ``Polynomial``s in one chosen variable, whose
   quotients are divided afresh.  It is counted in ``prs_fallbacks``.

Every stage depends only on its operands, never on earlier calls: there
is no memo table, the operands are used in the order given, and a
polynomial's hash is computed when asked for, not when it is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress, product

from .errors import DivisionByZero

# A monomial is a tuple of (var_key, exponent) pairs, sorted ascending by
# key, exponents strictly positive.  () is the constant monomial.


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


def _shifts(keys, w):
    """Bit offset of each variable's w-bit field, earlier keys higher, and
    the offset of the total-degree field above them all."""
    shift = {}
    s = top = len(keys) * w
    for k in sorted(keys):
        s -= w
        shift[k] = s
    return shift, top


def _pack(m, shift, top):
    """Monomial as one int; its exponents must fit their fields."""
    v = tot = 0
    for k, e in m:
        v += e << shift[k]
        tot += e
    return v + (tot << top)


def _degree(terms):
    """Total degree of the leading term, hence of the whole polynomial."""
    return sum(e for _, e in terms[0][0])


# A product of fewer term pairs than this always sums in a dict: below it
# the box's fixed costs (a pass for the top exponents, the list, the walk
# over every cell) cost more than hashing saves.  With no floor the
# products of a rational-rhs benchmark round took 1.3-1.4x as long.
_BOX_MIN_PAIRS = 256


def _packed_mul(ta, tb) -> "Polynomial":
    """Product of two term tuples of two or more terms each.

    The exponent box of the product holds every exponent vector whose
    exponent in each variable lies between 0 and the sum of the operands'
    top exponents in it.  When it has no more cells than the product has
    term pairs, and there are at least ``_BOX_MIN_PAIRS`` pairs, the
    product sums in a flat list over the box (``_box_mul``), so the list
    is never longer than the pair loop.  Any other product, a sparse one,
    sums in a dict keyed by packed monomials (``_dict_mul``).  Both
    return the terms in graded lex order, highest first.
    """
    if len(ta) > len(tb):
        ta, tb = tb, ta
    pairs = len(ta) * len(tb)
    if pairs < _BOX_MIN_PAIRS:
        keys = {k for t in (ta, tb) for m, _ in t for k, _ in m}
        return Polynomial(_dict_mul(ta, tb, keys))
    radix = {}
    for t in (ta, tb):
        top = {}
        for m, _ in t:
            for k, e in m:
                if e > top.get(k, 0):
                    top[k] = e
        for k, e in top.items():
            radix[k] = radix.get(k, 1) + e
    cells = math.prod(radix.values())
    if cells <= pairs:
        return Polynomial(_box_mul(ta, tb, radix, cells))
    return Polynomial(_dict_mul(ta, tb, radix))


def _dict_mul(ta, tb, keys):
    """Terms of a product summed in a dict keyed by packed monomials.

    The packing is made for this product alone (Monagan and Pearce, ISSAC
    2009), each field w bits wide with 2^w above the total degree of the
    product.  No field of a product can carry, so monomials multiply by
    integer addition, and one sort of the ints orders the result.  A
    square (``ta is tb``) adds each square term once and each cross term
    of the upper triangle twice.
    """
    w = (_degree(ta) + _degree(tb)).bit_length()
    shift, top = _shifts(keys, w)
    pb = [(_pack(m, shift, top), c) for m, c in tb]
    d = {}
    get = d.get
    if ta is tb:
        for i, (a, ca) in enumerate(pb):
            k = a + a
            d[k] = get(k, 0) + ca * ca
            ca += ca
            for b, cb in pb[i + 1:]:
                k = a + b
                d[k] = get(k, 0) + ca * cb
    else:
        for m, ca in ta:
            a = _pack(m, shift, top)
            for b, cb in pb:
                k = a + b
                d[k] = get(k, 0) + ca * cb

    mask = (1 << w) - 1
    fields = list(shift.items())
    out = []
    for k in sorted(d, reverse=True):
        c = d[k]
        if c:
            m = []
            for key, s in fields:
                e = k >> s & mask
                if e:
                    m.append((key, e))
            out.append((tuple(m), c))
    return tuple(out)


def _box_mul(ta, tb, radix, cells):
    """Terms of a product summed in a list over its exponent box.

    ``radix`` gives each variable's number of exponent values in the
    product.  A monomial's cell is its mixed-radix index, earlier keys
    more significant, so monomials multiply by adding indices, and
    ascending indices within one total degree are ascending lex.  The
    nonzero cells go into one bucket per total degree, and the buckets
    read from the top degree down, each reversed, are graded lex,
    highest first, with no comparison sort.  A square (``ta is tb``) adds
    each square term once and each cross term of the upper triangle
    twice.
    """
    stride = {}
    s = 1
    for k in sorted(radix, reverse=True):
        stride[k] = s
        s *= radix[k]

    def index(m):
        i = 0
        for k, e in m:
            i += e * stride[k]
        return i

    pb = [(index(m), c) for m, c in tb]
    acc = [0] * cells
    if ta is tb:
        for i, (a, ca) in enumerate(pb):
            acc[a + a] += ca * ca
            ca += ca
            for b, cb in pb[i + 1:]:
                acc[a + b] += ca * cb
    else:
        for m, ca in ta:
            a = index(m)
            for b, cb in pb:
                acc[a + b] += ca * cb

    # the box in rows along the last variable, whose stride is 1; a head
    # holds the other variables' exponents as a monomial piece and a degree
    keys = sorted(radix)
    last = keys.pop()
    width = radix[last]
    tails = [((last, e),) if e else () for e in range(width)]
    heads = product(*[[(((k, e),) if e else (), e) for e in range(radix[k])]
                      for k in keys])
    buckets = [[] for _ in range(sum(radix.values()) - len(radix) + 1)]
    for start, head in zip(range(0, cells, width), heads):
        row = acc[start:start + width]
        if any(row):
            m = ()
            tot = 0
            for piece, e in head:
                m += piece
                tot += e
            for e in compress(range(width), row):
                buckets[tot + e].append((m + tails[e], row[e]))
    out = []
    for bucket in reversed(buckets):
        bucket.reverse()
        out += bucket
    return tuple(out)


class Polynomial:
    """Immutable sparse polynomial over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # terms must already be combined, nonzero, sorted; use from_dict
        # or the arithmetic below rather than calling this directly.
        self.terms = terms

    # ------------------------------------------------------------------
    # construction

    @staticmethod
    def from_dict(d) -> "Polynomial":
        """Polynomial of {monomial: coefficient}; zero coefficients drop.

        The terms are sorted by packed keys whose fields hold the largest
        exponent present.
        """
        if len(d) < 2:
            return Polynomial(tuple([(m, c) for m, c in d.items() if c]))
        keys = set()
        bits = 0
        for m in d:
            for k, e in m:
                keys.add(k)
                bits |= e
        shift, top = _shifts(keys, bits.bit_length())
        # _pack inlined, which is most of the cost on two or three terms;
        # packed keys are distinct, so no two terms are ever compared
        keyed = []
        for t in d.items():
            if t[1]:
                v = tot = 0
                for k, e in t[0]:
                    v += e << shift[k]
                    tot += e
                keyed.append((v + (tot << top), t))
        keyed.sort(reverse=True)
        return Polynomial(tuple([t for _, t in keyed]))

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
        return hash(self.terms)

    def __repr__(self):
        return f"Polynomial({self.terms!r})"

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self):
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    # An operand of another type has no terms.  Reading them in a try
    # costs the hot path nothing, where an isinstance check would not.

    def __add__(self, other):
        try:
            long, short = self.terms, other.terms
        except AttributeError:
            return NotImplemented
        if not long:
            return other
        if not short:
            return self
        if len(long) < len(short):
            long, short = short, long
        # a dict keeps insertion order: updates and deletions leave the
        # longer operand's terms in order, only a new monomial upsets it
        d = dict(long)
        new = False
        for m, c in short:
            got = d.get(m)
            if got is None:
                d[m] = c
                new = True
            else:
                c += got
                if c:
                    d[m] = c
                else:
                    del d[m]
        if new:
            return Polynomial.from_dict(d)
        return Polynomial(tuple(d.items()))

    def __sub__(self, other):
        try:
            other.terms
        except AttributeError:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        try:
            tb = other.terms
        except AttributeError:
            return NotImplemented
        ta = self.terms
        if not ta or not tb:
            return _ZERO
        if len(ta) == 1:
            return other.mul_term(*ta[0])
        if len(tb) == 1:
            return self.mul_term(*tb[0])
        return _packed_mul(ta, tb)

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
            n >>= 1
            if n:
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
        """Formal partial derivative with respect to one variable key.

        Graded lex is a monomial order, so dividing every surviving term
        by ``key`` keeps the terms distinct and in order; no sort needed.
        """
        out = []
        for m, c in self.terms:
            for i, (k, e) in enumerate(m):
                if k == key:
                    if e == 1:
                        nm = m[:i] + m[i + 1:]
                    else:
                        nm = m[:i] + ((k, e - 1),) + m[i + 1:]
                    out.append((nm, c * e))
                    break
        return Polynomial(tuple(out))

    def evaluate(self, vals) -> Fraction:
        """Value at a point; ``vals`` must cover every variable present.

        With variable k at n/d and E its top exponent here, a term is an
        integer over prod d^E: each factor k^e reads n^e d^(E-e), and an
        absent k reads d^E.  So the sum is an integer, divided once.
        """
        top = {}
        for m, _ in self.terms:
            for k, e in m:
                if e > top.get(k, 0):
                    top[k] = e
        den = 1
        for k, e in top.items():
            den *= vals[k].denominator ** e
        factors = {}

        def factor(k, e):
            got = factors.get((k, e))
            if got is None:
                v = vals[k]
                got = v.numerator ** e * v.denominator ** (top[k] - e)
                factors[(k, e)] = got
            return got

        total = 0
        for m, c in self.terms:
            exps = dict(m)
            for k in top:
                c *= factor(k, exps.get(k, 0))
            total += c
        return Fraction(total, den)


_ZERO = Polynomial(())
_ONE = Polynomial((((), 1),))


def zero() -> Polynomial:
    return _ZERO


def one() -> Polynomial:
    return _ONE


def lin_comb(pairs) -> Polynomial:
    """The sum of k*p over (k, p) in ``pairs``, the k nonzero integers.

    The sum runs in one dict that starts from the longest p, so, as in
    ``Polynomial.__add__``, a sum that brings no monomial new to it keeps
    its order and sorts nothing.
    """
    pairs = list(pairs)
    top = max(range(len(pairs)), key=lambda i: len(pairs[i][1].terms))
    k, p = pairs.pop(top)
    d = dict(p.terms) if k == 1 else {m: k * c for m, c in p.terms}
    new = False
    for k, p in pairs:
        for m, c in p.terms:
            got = d.get(m)
            if got is None:
                d[m] = k * c
                new = True
            else:
                d[m] = got + k * c
    if new:
        return Polynomial.from_dict(d)
    return Polynomial(tuple([t for t in d.items() if t[1]]))


# ----------------------------------------------------------------------
# exact division

def exact_div(a: Polynomial, b: Polynomial):
    """Quotient a / b when the division is exact over Z, else None."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero:
        return _ZERO
    bm, bc = b.terms[0]
    if not bm and bc in (1, -1):
        return a.scale(bc)

    # The remainder is a's terms, read in order, plus the products of the
    # quotient with b's tail, kept in a dict and a heap of their negated
    # packed keys; each step takes the remainder's leading term.  Those
    # products all lie below the current leading term, so a monomial once
    # taken never comes back, and a heap entry whose monomial was merged
    # with a term of a is stale.  Every remainder monomial is below
    # lead(a), so fields as wide as the degree of a hold its exponents,
    # and a product's key is the sum of its factors' keys.
    terms = a.terms
    deg = _degree(terms)
    if _degree(b.terms) > deg:
        return None
    shift, top = _shifts(a.variables() | b.variables(), deg.bit_length())
    akeys = [_pack(m, shift, top) for m, _ in terms]
    bkey = _pack(bm, shift, top)
    tail = [(m, c, _pack(m, shift, top)) for m, c in b.terms[1:]]
    n = len(terms)
    i = 0
    pending = {}
    heap = []
    quot = []
    while i < n or heap:
        if i < n and (not heap or akeys[i] >= -heap[0][0]):
            lkey = akeys[i]
            lm, lc = terms[i]
            i += 1
            lc += pending.pop(lm, 0)
        else:
            lkey, lm = heappop(heap)
            lkey = -lkey
            lc = pending.pop(lm, None)
            if lc is None:
                continue
        if not lc:
            continue
        qm = _mdiv(lm, bm)
        if qm is None:
            return None
        qc, r = divmod(lc, bc)
        if r:
            return None
        quot.append((qm, qc))
        qkey = lkey - bkey
        for m, c, mkey in tail:
            pm = _mmul(qm, m)
            if pm in pending:
                pending[pm] -= qc * c
            else:
                pending[pm] = -qc * c
                heappush(heap, (-qkey - mkey, pm))
    # leading terms came out in descending order, so quot is sorted
    return Polynomial(tuple(quot))


# ----------------------------------------------------------------------
# gcd

_P = (1 << 61) - 1  # a Mersenne prime: the certificate computes mod _P
_HEU_TRIES = 6

# gcds the heuristic gave up on, finished by the pseudo-remainder sequence
prs_fallbacks = 0


def _image_mod_p(p: Polynomial, key, vals):
    """Coefficients of p in ``key`` mod _P at ``vals``, ascending, untrimmed."""
    out = [0] * (p.degree_in(key) + 1)
    for m, c in p.terms:
        e0 = 0
        for k, e in m:
            if k == key:
                e0 = e
            else:
                c *= vals[k] ** e
        out[e0] += c % _P
    return [c % _P for c in out]


def _gcd_degree_mod_p(f, g) -> int:
    """Degree of the gcd of two coefficient lists (ascending) over GF(_P).

    Both lists must have a nonzero leading entry; ``f`` is consumed.
    """
    while g:
        inv = pow(g[-1], -1, _P)
        dg = len(g) - 1
        while len(f) > dg:
            q = f.pop() * inv % _P
            off = len(f) - dg
            for i in range(dg):
                f[off + i] = (f[off + i] - q * g[i]) % _P
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _certify_var_absent(a: Polynomial, b: Polynomial, key) -> bool:
    """Try to prove deg_key(gcd(a, b)) == 0 by univariate specialization.

    The other variables are set to one point mod _P, drawn from the hash
    of the operands, so the verdict depends on nothing else: one 64-bit
    linear congruential step per variable, in sorted order, gives the
    value h % (_P - 1) + 1.  If both leading coefficients in ``key`` stay
    nonzero there, any common divisor keeps its ``key``-degree under the
    specialization, so a degree-zero gcd of the images settles the
    question.  False means inconclusive (a leading coefficient vanished,
    say), never "present".
    """
    h = hash((a, b, key))
    vals = {}
    for k in sorted((a.variables() | b.variables()) - {key}):
        # Knuth's MMIX multiplier and increment, mod 2^64
        h = (h * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        vals[k] = h % (_P - 1) + 1
    fa = _image_mod_p(a, key, vals)
    fb = _image_mod_p(b, key, vals)
    return bool(fa[-1] and fb[-1]) and _gcd_degree_mod_p(fa, fb) == 0


def _eval_var(p: Polynomial, key, xi: int) -> Polynomial:
    """p with the variable ``key`` set to the integer xi."""
    powers = [1]
    for _ in range(p.degree_in(key)):
        powers.append(powers[-1] * xi)
    d = {}
    for m, c in p.terms:
        for i, (k, e) in enumerate(m):
            if k == key:
                c *= powers[e]
                m = m[:i] + m[i + 1:]
                break
        d[m] = d.get(m, 0) + c
    return Polynomial.from_dict(d)


def _interpolate(h: Polynomial, key, xi: int) -> Polynomial:
    """Read each coefficient of h in symmetric base-xi digits, the digit
    of weight xi^e becoming the coefficient of key^e."""
    half = xi // 2
    d = {}
    for m, c in h.terms:
        e = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                d[_mmul(m, ((key, e),)) if e else m] = r
            c = (c - r) // xi
            e += 1
    return Polynomial.from_dict(d)


def _max_norm(p: Polynomial) -> int:
    return max(abs(c) for _, c in p.terms)


def _heu_gcd(a: Polynomial, b: Polynomial):
    """GCDHEU: (g, a/g, b/g) for two non-constant polynomials, or None when
    it gives up.

    One variable is set to an integer xi, the gcd of the images is found
    the same way down to an integer gcd, and its symmetric xi-adic digits
    are read back as the coefficients of that variable.  With xi at least
    2 min(|a|, |b|) + 2 in max norm, a primitive result that divides both
    operands is the gcd up to the integer content (Char, Geddes and
    Gonnet 1989); the bound holds at every level, since each level
    chooses xi from its own operands.  The quotients are those of that
    divisibility test.
    """
    ca, cb = a.icontent(), b.icontent()
    a, b = a.div_int(ca), b.div_int(cb)
    key = min(a.variables() | b.variables())
    na, nb = _max_norm(a), _max_norm(b)
    xi = max(2 * min(na, nb) + 29,
             2 * min(na // abs(a.lead_coeff), nb // abs(b.lead_coeff)) + 4)
    for _ in range(_HEU_TRIES):
        fa, fb = _eval_var(a, key, xi), _eval_var(b, key, xi)
        if not (fa.is_zero or fb.is_zero):
            # an integer image ends the recursion; its cofactors would be
            # big-integer divisions that no caller reads
            if fa.is_const or fb.is_const:
                h = Polynomial.const(math.gcd(fa.icontent(), fb.icontent()))
            else:
                got = _heu_gcd(fa, fb)
                if got is None:
                    return None
                h = got[0]
            h = _interpolate(h, key, xi)
            h = h.div_int(h.icontent())
            qa = exact_div(a, h)
            qb = None if qa is None else exact_div(b, h)
            if qb is not None:
                cg = math.gcd(ca, cb)
                s = cg if h.lead_coeff > 0 else -cg
                return h.scale(s), qa.scale(ca // s), qb.scale(cb // s)
        # grow by a factor of about 2.73 xi^(1/4), the schedule of SymPy's
        # dmp_zz_heu_gcd
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _coeffs(p: Polynomial, key):
    """{exponent: coefficient} of p as a polynomial in ``key``; taking the
    same power of ``key`` out of terms keeps them in order, so none sorts."""
    out = {}
    for m, c in p.terms:
        e0 = 0
        for i, (k, e) in enumerate(m):
            if k == key:
                e0 = e
                m = m[:i] + m[i + 1:]
                break
        out.setdefault(e0, []).append((m, c))
    return {e: Polynomial(tuple(t)) for e, t in out.items()}


def _content(p: Polynomial, key):
    """(c, p/c), c the gcd of p's coefficients in ``key``, taken in
    ascending powers: in the order the terms come it can cost 4x more."""
    cs = _coeffs(p, key)
    c = _ZERO
    for e in sorted(cs):
        c = gcd(c, cs[e])
        if c == _ONE:
            return c, p
    return c, exact_div(p, c)


def _prem(f: Polynomial, g: Polynomial, key) -> Polynomial:
    """Pseudo-remainder of f by g in ``key``: while deg f >= deg g, f
    becomes f lc(g) - g lc(f) key^(deg f - deg g)."""
    cg = _coeffs(g, key)
    dg = max(cg)
    while f.terms:
        cf = _coeffs(f, key)
        df = max(cf)
        if df < dg:
            break
        f = f * cg[dg] - g * (cf[df] * Polynomial.var(key, df - dg))
    return f


def _prs_gcd(a: Polynomial, b: Polynomial, shared) -> Polynomial:
    """The counted fallback: primitive PRS in the cheapest shared variable."""
    global prs_fallbacks
    prs_fallbacks += 1

    def cost(k):
        da, db = a.degree_in(k), b.degree_in(k)
        return (min(da, db), da + db)

    key = min(shared, key=cost)
    ca, a = _content(a, key)
    cb, b = _content(b, key)
    if a.degree_in(key) < b.degree_in(key):
        a, b = b, a
    while b.terms:
        r = _prem(a, b, key)
        if r.terms:
            r = _content(r, key)[1]
        a, b = b, r
    g = _content(a, key)[1] * gcd(ca, cb)
    return g.monic_sign()


def _gcd_core(a: Polynomial, b: Polynomial):
    # both non-constant, integer- and monomial-content free, leading
    # coefficients positive; returns (g, a/g, b/g)
    if a == b:
        return a, _ONE, _ONE

    # trial division, cheaper operand as candidate divisor first
    if len(a) <= len(b):
        q = exact_div(b, a)
        if q is not None:
            return a, _ONE, q
    if len(b) <= len(a):
        q = exact_div(a, b)
        if q is not None:
            return b, q, _ONE

    shared = sorted(a.variables() & b.variables())
    if not shared:
        return _ONE, a, b

    if all(_certify_var_absent(a, b, k) for k in shared):
        return _ONE, a, b

    got = _heu_gcd(a, b)
    if got is None:
        g = _prs_gcd(a, b, shared)
        got = g, exact_div(a, g), exact_div(b, g)
    return got


def cofactors(a: Polynomial, b: Polynomial):
    """(g, a/g, b/g) with g the gcd over Z, leading coefficient positive.

    For two zero operands g and a/g are zero and b/g is one.
    """
    if a.is_zero:
        s = -1 if b.lead_coeff < 0 else 1
        return b.scale(s), _ZERO, Polynomial.const(s)
    if b.is_zero:
        s = -1 if a.lead_coeff < 0 else 1
        return a.scale(s), Polynomial.const(s), _ZERO
    if a.is_const or b.is_const:
        # only the constant's divisors can be common, so a unit ends it
        k, other = (a, b) if a.is_const else (b, a)
        k = abs(k.const_value())
        if k == 1:
            return _ONE, a, b
        cg = math.gcd(k, other.icontent())
        return Polynomial.const(cg), a.div_int(cg), b.div_int(cg)
    ca, cb = a.icontent(), b.icontent()

    # signed contents, so that the cores have positive leading coefficients
    if a.lead_coeff < 0:
        ca = -ca
    if b.lead_coeff < 0:
        cb = -cb
    ma, mb = a.mcontent(), b.mcontent()
    a0, b0 = a.div_int(ca).div_mono(ma), b.div_int(cb).div_mono(mb)
    if a0.is_const or b0.is_const:
        g, qa, qb = _ONE, a0, b0
    else:
        g, qa, qb = _gcd_core(a0, b0)
    cg, mg = math.gcd(ca, cb), _mgcd(ma, mb)
    return (g.mul_term(mg, cg),
            qa.mul_term(_mdiv(ma, mg), ca // cg),
            qb.mul_term(_mdiv(mb, mg), cb // cg))


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor over Z, leading coefficient positive."""
    return cofactors(a, b)[0]


# ----------------------------------------------------------------------
# squarefree bases


def squarefree(p: Polynomial):
    """(c, [(b, m), ...]) with p = c * prod b^m, c the signed integer content.

    The b are squarefree, pairwise coprime, primitive and of positive
    leading coefficient.  A variable of the monomial content is one b.
    The rest is split by Yun's algorithm in its first variable, after the
    content in that variable is taken out; that content, free of the
    variable, is split the same way.
    """
    if p.is_zero:
        raise DivisionByZero("squarefree decomposition of zero")
    c = p.icontent()
    if p.lead_coeff < 0:
        c = -c
    mono = p.mcontent()
    parts = [(Polynomial.var(k), e) for k, e in mono]
    rest = p.div_int(c).div_mono(mono)
    while not rest.is_const:
        key = min(rest.variables())
        rest, prim = _content(rest, key)
        # Yun: with prim = prod a_i^i, b_i = prod_{j >= i} a_j and
        # d_i = (sum_{j >= i} (j - i + 1) a_j' / a_j) b_i,
        # a_i = gcd(b_i, d_i - b_i'), b_i+1 = b_i / a_i, d_i+1 = (d_i - b_i') / a_i
        _, b, d = cofactors(prim, prim.derivative(key))
        i = 1
        while not b.is_const:
            a, b, d = cofactors(b, d - b.derivative(key))
            if not a.is_const:
                parts.append((a, i))
            i += 1
    return c, parts


def refine(base, a: Polynomial):
    """The squarefree, pairwise coprime ``base`` with squarefree ``a`` added.

    A base element b that shares g with a becomes g and b/g, and a goes on
    as a/g; all are squarefree, so g is coprime to both quotients (Bach,
    Driscoll and Shallit, "Factor refinement", J. Algorithms 15, 1993).
    """
    out = []
    for b in base:
        if not a.is_const:
            g, a, q = cofactors(a, b)
            if not g.is_const:
                out.append(g)
                b = q
                if b.is_const:
                    continue
        out.append(b)
    if not a.is_const:
        out.append(a)
    return out
