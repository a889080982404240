"""Integer polynomial layer: canonical ordering, arithmetic, exact gcd."""

import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cartaneq import poly
from cartaneq.poly import Polynomial, exact_div, gcd, one, zero

X = (0, 0)
Y = (0, 1)
Z = (0, 2)


def P(d):
    return Polynomial.from_dict(d)


def test_construction_drops_zeros():
    p = P({((X, 1),): 3, ((Y, 1),): 0})
    assert len(p) == 1
    assert p.variables() == {X}


def test_terms_are_grlex_sorted_and_hash_stable():
    p = P({((X, 2),): 1, ((X, 1), (Y, 1)): 2, ((Y, 1),): 3, (): 7})
    degs = [sum(e for _, e in m) for m, _ in p.terms]
    assert degs == sorted(degs, reverse=True)
    q = P({(): 7, ((Y, 1),): 3, ((X, 1), (Y, 1)): 2, ((X, 2),): 1})
    assert p == q and hash(p) == hash(q)


def _random_poly(rng, nvars=3, nterms=4, deg=3, coeff=9):
    d = {}
    for _ in range(rng.randint(0, nterms)):
        m = []
        for v in range(nvars):
            e = rng.randint(0, deg)
            if e:
                m.append(((0, v), e))
        d[tuple(m)] = rng.randint(-coeff, coeff)
    return Polynomial.from_dict(d)


def test_ring_axioms_against_rational_evaluation():
    rng = random.Random(101)
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        vals = {
            (0, v): Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            for v in range(3)
        }
        assert (a + b).evaluate(vals) == a.evaluate(vals) + b.evaluate(vals)
        assert (a - b).evaluate(vals) == a.evaluate(vals) - b.evaluate(vals)
        assert (a * b).evaluate(vals) == a.evaluate(vals) * b.evaluate(vals)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_pow_matches_repeated_mul():
    rng = random.Random(102)
    for _ in range(30):
        a = _random_poly(rng, nterms=3, deg=2)
        acc = one()
        for n in range(6):
            assert a ** n == acc
            acc = acc * a


def test_derivative_product_rule():
    rng = random.Random(103)
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        for v in (X, Y, Z):
            lhs = (a * b).derivative(v)
            rhs = a.derivative(v) * b + a * b.derivative(v)
            assert lhs == rhs


def test_exact_div_roundtrip():
    rng = random.Random(104)
    x1 = P({((X, 1),): 1}) + one()
    hits = 0
    for _ in range(120):
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero:
            continue
        assert exact_div(a * b, b) == a
        hits += 1
        if not a.is_zero:
            # a strictly larger polynomial never divides a
            assert exact_div(a, a * x1) is None
    assert hits > 80


def test_gcd_divides_and_certifies_products():
    rng = random.Random(105)
    for _ in range(120):
        a = _random_poly(rng, nterms=3, deg=2, coeff=5)
        b = _random_poly(rng, nterms=3, deg=2, coeff=5)
        c = _random_poly(rng, nterms=2, deg=2, coeff=5)
        if c.is_zero or (a.is_zero and b.is_zero):
            continue
        g = gcd(a * c, b * c)
        assert exact_div(a * c, g) is not None
        assert exact_div(b * c, g) is not None
        assert exact_div(g, c) is not None


def test_gcd_normalization_and_edges():
    rng = random.Random(106)
    z = zero()
    for _ in range(40):
        a = _random_poly(rng)
        if a.is_zero:
            continue
        g = gcd(a, z)
        assert g in (a, -a)
        assert g.lead_coeff > 0
        assert gcd(a, a) == g
        assert gcd(a, -a) == g
    assert gcd(z, z).is_zero
    assert gcd(Polynomial.const(6), Polynomial.const(-4)) == Polynomial.const(2)


def test_gcd_strips_monomial_content():
    x = P({((X, 1),): 1})
    y = P({((Y, 1),): 1})
    a = x ** 3 * y
    b = x * y ** 2
    assert gcd(a, b) == x * y


# ----------------------------------------------------------------------
# the packed product against a term-by-term reference and SymPy

# ten keys of all three kinds; derivative keys are (2, k, len(I), I)
MUL_KEYS = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0, 0, ()),
            (2, 0, 1, (0,)), (2, 0, 2, (0, 2)), (2, 1, 1, (1,)),
            (2, 1, 3, (0, 0, 1))]
# exponents next to field widths: a field of w bits holds 2^w - 1, not 2^w
mul_exps = st.one_of(st.integers(1, 4),
                     st.sampled_from([7, 8, 15, 16, 31, 32, 63, 64]))
monomials = st.dictionaries(
    st.sampled_from(MUL_KEYS), mul_exps, max_size=4
).map(lambda d: tuple(sorted(d.items())))
mul_coeffs = st.one_of(st.integers(-9, 9), st.integers(-10 ** 20, 10 ** 20))
mul_polys = st.one_of(
    st.dictionaries(monomials, mul_coeffs, max_size=7).map(P),
    mul_coeffs.map(Polynomial.const),
)


def reference_mul(a, b):
    """Every pair of terms multiplied on its own, then summed."""
    d = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            exps = dict(m1)
            for k, e in m2:
                exps[k] = exps.get(k, 0) + e
            m = tuple(sorted(exps.items()))
            d[m] = d.get(m, 0) + c1 * c2
    return P(d)


def per_term_value(p, vals):
    """Every term valued as a Fraction and added in turn."""
    total = Fraction(0)
    for m, c in p.terms:
        v = Fraction(c)
        for k, e in m:
            v *= vals[k] ** e
        total += v
    return total


bits20 = st.integers(-(1 << 20), 1 << 20)


@given(mul_polys, st.lists(st.tuples(bits20, bits20.filter(bool)),
                           min_size=len(MUL_KEYS), max_size=len(MUL_KEYS)))
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_the_per_term_sum(p, point):
    vals = {k: Fraction(n, d) for k, (n, d) in zip(MUL_KEYS, point)}
    assert p.evaluate(vals) == per_term_value(p, vals)


def to_sympy(p, sp):
    gens = sp.symbols(f"v0:{len(MUL_KEYS)}")
    at = dict(zip(MUL_KEYS, gens))
    return sp.Add(*(c * sp.Mul(*(at[k] ** e for k, e in m))
                    for m, c in p.terms))


def to_sympy_poly(p, sp):
    """p as a SymPy Poly, which multiplies far faster than expand."""
    at = {k: i for i, k in enumerate(MUL_KEYS)}
    d = {}
    for m, c in p.terms:
        exps = [0] * len(MUL_KEYS)
        for k, e in m:
            exps[at[k]] = e
        d[tuple(exps)] = c
    return sp.Poly.from_dict(d, sp.symbols(f"v0:{len(MUL_KEYS)}"))


X64 = P({((X, 64),): 1})
Y15 = P({((Y, 15),): 1})
ONE = one()


@given(mul_polys, mul_polys)
@example(Polynomial.const(-3), P({((X, 1),): 2, ((Y, 2),): 1}))
@example(P({((Y, 3),): 5}), P({((X, 1),): 2, ((Y, 2),): 1}))
# degree 15 + 16 = 31 = 2^5 - 1 fills five-bit fields; 16 + 16 needs six
@example(Y15 + P({((X, 1),): 1}), P({((Y, 16),): 1}) + ONE)
@example(P({((X, 16),): 1}) + ONE, P({((Y, 16),): 1}) - ONE)
@example(X64 + Y15, X64 - Y15)
@settings(max_examples=300, deadline=None)
def test_mul_matches_term_by_term_reference(a, b):
    ab = a * b
    assert ab == reference_mul(a, b)
    assert ab == b * a
    # a conjugate pair cancels its cross terms
    assert (a + b) * (a - b) == reference_mul(a + b, a - b) == a * a - b * b
    assert a * (b - b) == zero()


@given(mul_polys, mul_polys)
@example(X64 + Y15, X64 - Y15)
@settings(max_examples=60, deadline=None)
def test_mul_matches_sympy(a, b):
    sp = pytest.importorskip("sympy")
    got = to_sympy(a * b, sp)
    assert sp.expand(got - to_sympy(a, sp) * to_sympy(b, sp)) == 0


# ----------------------------------------------------------------------
# dense products, which sum over their exponent box

nonzero_coeffs = mul_coeffs.map(lambda c: c or 1)


@st.composite
def small_polys(draw, pool):
    """A constant and one to three monomials in ``pool``."""
    d = {(): draw(nonzero_coeffs)}
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.dictionaries(st.sampled_from(pool), st.integers(1, 2),
                                 min_size=1))
        d[tuple(sorted(m.items()))] = draw(nonzero_coeffs)
    return P(d)


@st.composite
def dense_products(draw):
    """Operands in one to five of MUL_KEYS: powers and products of small
    polynomials in up to three of them, or binomial powers in one whose
    degrees sit next to field widths.  The second operand is at times the
    first itself, a square, and the first at times gains a key the
    second lacks."""
    keys = draw(st.lists(st.sampled_from(MUL_KEYS), min_size=1, max_size=5,
                         unique=True))
    core, rest = keys[:3], keys[3:]
    if draw(st.booleans()):
        def operand():
            p = draw(small_polys(core)) ** draw(st.integers(2, 3))
            if draw(st.booleans()):
                p = p * draw(small_polys(core))
            return p
    else:
        x = draw(st.sampled_from(core))

        def operand():
            binomial = P({((x, 1),): draw(nonzero_coeffs),
                          (): draw(nonzero_coeffs)})
            return binomial ** draw(st.sampled_from([15, 16, 31, 32, 63, 64]))
    a = operand()
    b = a if draw(st.booleans()) else operand()
    if rest and draw(st.booleans()):
        a = a * P({((draw(st.sampled_from(rest)), 1),): 1,
                   (): draw(nonzero_coeffs)})
    return a, b


class BoxCounter:
    """Wraps poly._box_mul: counts its calls and checks that no box has
    more cells than the product has term pairs."""

    def __init__(self):
        self.calls = 0
        self.raw = poly._box_mul

    def __call__(self, ta, tb, radix, cells):
        assert cells == math.prod(radix.values()) <= len(ta) * len(tb)
        self.calls += 1
        return self.raw(ta, tb, radix, cells)


def boxed_product(a, b):
    """a * b, and whether it summed over its exponent box."""
    counter = BoxCounter()
    with mock.patch.object(poly, "_box_mul", counter):
        ab = a * b
    return ab, counter.calls == 1


X1_64 = (P({((X, 1),): 1}) + ONE) ** 64


@given(dense_products())
@example((X1_64, X1_64))
@example((X1_64, X1_64 - P({((X, 64),): 1})))
@settings(max_examples=150, deadline=None)
def test_box_products_match_term_by_term_reference(ab):
    a, b = ab
    got, boxed = boxed_product(a, b)
    assume(boxed)
    assert_canonical(got)
    assert got == reference_mul(a, b)
    if a is not b:
        assert got == boxed_product(b, a)[0]


@given(dense_products())
@settings(max_examples=40, deadline=None)
def test_box_products_match_sympy(ab):
    sp = pytest.importorskip("sympy")
    a, b = ab
    got, boxed = boxed_product(a, b)
    assume(boxed)
    assert to_sympy_poly(got, sp) == to_sympy_poly(a, sp) * to_sympy_poly(b, sp)


def test_products_take_the_box_only_when_dense():
    x, y, p = (P({((k, 1),): 1}) for k in (X, Y, Z))
    # sparse: a box of 1001^2 cells for four term pairs
    assert not boxed_product(x ** 1000 + ONE, y ** 1000 + ONE)[1]
    # dense but below the floor of pairs: 100 pairs in 7^2 cells
    assert not boxed_product((x + y + ONE) ** 3, (x - y + ONE) ** 3)[1]
    # the size of a rational right-hand side's products, few pairs or a
    # box larger than the pairs
    rng = random.Random(107)
    a = _random_poly(rng, nterms=12, deg=4)
    b = _random_poly(rng, nterms=12, deg=4)
    assert not boxed_product(a, b)[1]
    a = _random_poly(rng, nterms=40, deg=6)
    assert len(a) * len(a) >= 256 and not boxed_product(a, a)[1]
    # f * f_pp of a dense power: 286 * 165 pairs in 19^3 cells
    f = (x + y + p + ONE) ** 10
    f_pp = f.derivative(Z).derivative(Z)
    got, boxed = boxed_product(f, f_pp)
    assert boxed and got == reference_mul(f, f_pp)


def test_other_operand_types_are_refused():
    p = P({((X, 1),): 1}) + ONE
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((p, 3), (3, p), (zero(), 3), (p, Fraction(1, 2))):
            with pytest.raises(TypeError):
                op(left, right)


# ----------------------------------------------------------------------
# term order of every result, against an order key written out on its own


def grlex_reference(m):
    """Graded lex written out directly: ascending keys are descending
    terms, the total degree first, then earlier variables first."""
    return (-sum(e for _, e in m), tuple((k, -e) for k, e in m))


def assert_canonical(p):
    for m, c in p.terms:
        assert c != 0
        assert [k for k, _ in m] == sorted({k for k, _ in m})
        assert all(e > 0 for _, e in m)
    keys = [grlex_reference(m) for m, _ in p.terms]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def dict_sum(a, b, sign):
    d = dict(a.terms)
    for m, c in b.terms:
        d[m] = d.get(m, 0) + sign * c
    return {m: c for m, c in d.items() if c}


def dict_derivative(p, key):
    d = {}
    for m, c in p.terms:
        exps = dict(m)
        e = exps.pop(key, 0)
        if e:
            if e > 1:
                exps[key] = e - 1
            d[tuple(sorted(exps.items()))] = c * e
    return d


SUBSET = P({((X, 8),): 1, ((X, 1), (Y, 7)): -4, (): 3})
WIDE = P({((X, 7), (Y, 8)): 2, ((Y, 15),): -1, ((X, 16),): 5,
          ((Y, 63), (Z, 1)): 1, ((Z, 64),): -7})


@given(mul_polys, mul_polys, st.sampled_from(MUL_KEYS), st.integers(0, 3))
# full cancellation, in + and in -
@example(WIDE, -WIDE, X, 2)
@example(SUBSET, SUBSET, Y, 1)
# disjoint supports
@example(X64 + Y15, P({((Z, 7),): 3, ((X, 8), (Z, 1)): -1}), Z, 2)
# the shorter operand's support inside the longer one's
@example(SUBSET, P({((X, 1), (Y, 7)): 4, (): -1}), X, 3)
@example(WIDE, P({((Y, 63), (Z, 1)): 3, ((X, 16),): -5}), Z, 2)
# one-term and constant operands
@example(P({((Y, 3),): 5}), Polynomial.const(-3), Y, 3)
@example(Polynomial.const(7), P({((X, 15), (Y, 16)): 1}), X, 1)
# a * b of degree 30 packs exact_div's remainder in five-bit fields, and
# four-bit fields would put y^22 z^8 above y^15 z^15
@example(P({((Y, 15),): 1, ((Z, 8),): 1}), P({((Y, 7),): 1, ((Z, 15),): 1}),
         Z, 2)
@settings(max_examples=200, deadline=None)
def test_every_result_is_in_grlex_order(a, b, key, n):
    results = {
        "+": (a + b, dict_sum(a, b, 1)),
        "-": (a - b, dict_sum(a, b, -1)),
        "derivative": (a.derivative(key), dict_derivative(a, key)),
        "*": (a * b, dict(reference_mul(a, b).terms)),
        "p * p": (a * a, dict(reference_mul(a, a).terms)),
    }
    power = one()
    for _ in range(n):
        power = reference_mul(power, a)
    results["p ** n"] = (a ** n, dict(power.terms))
    shuffled = dict(reversed(a.terms + b.terms))
    shuffled[((Z, 9),)] = 0
    results["from_dict"] = (P(shuffled),
                            {m: c for m, c in shuffled.items() if c})
    if not b.is_zero:
        results["exact_div"] = (exact_div(a * b, b), dict(a.terms))
    for name, (got, expect) in results.items():
        assert_canonical(got)
        assert dict(got.terms) == expect, name
    if not b.is_zero:
        q = exact_div(a, b)
        if q is not None:
            assert_canonical(q)
            assert q * b == a


def _counted_from_dict(monkeypatch):
    """Sizes of the dicts passed to Polynomial.from_dict from now on."""
    calls = []
    raw = Polynomial.from_dict

    def from_dict(d):
        calls.append(len(d))
        return raw(d)

    monkeypatch.setattr(Polynomial, "from_dict", staticmethod(from_dict))
    return calls


def test_derivatives_and_sums_within_a_support_do_not_sort(monkeypatch):
    inside = P({((X, 1), (Y, 7)): 4, (): -3})
    z = P({((Z, 1),): 1})
    calls = _counted_from_dict(monkeypatch)
    for v in (X, Y, Z):
        assert_canonical(SUBSET.derivative(v))
        assert_canonical(WIDE.derivative(v))
    for got in (SUBSET + inside, inside + SUBSET, SUBSET - inside,
                inside - SUBSET, WIDE - WIDE):
        assert_canonical(got)
    assert calls == []
    # a monomial new to the longer operand sorts the sum once
    assert_canonical(SUBSET + z)
    assert calls == [4]
