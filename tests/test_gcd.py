"""The staged gcd: heuristic, counted PRS fallback, operand-only paths.

The differential tests compare with SymPy's gcd, which the package does
not depend on; they are skipped where SymPy is not installed.
"""

import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cartaneq import poly
from cartaneq.poly import Polynomial, cofactors, exact_div, gcd
from conftest import run_fresh

NVARS = 3
KEYS = [(0, v) for v in range(NVARS)]
X, Y, Z = (Polynomial.var(k) for k in KEYS)
ONE = Polynomial.const(1)


def from_exponents(d):
    """Polynomial from {(e0, e1, e2): coefficient}."""
    return Polynomial.from_dict({
        tuple((k, e) for k, e in zip(KEYS, exps) if e): c
        for exps, c in d.items()
    })


def exponents(p):
    out = {}
    for m, c in p.terms:
        exps = [0] * NVARS
        for (_, v), e in m:
            exps[v] = e
        out[tuple(exps)] = c
    return out


# ----------------------------------------------------------------------
# the counted fallback


def test_prs_fallback_is_counted_and_agrees(monkeypatch):
    g = X * Y + Polynomial.const(3) * Z + ONE
    a = g * (X ** 2 + Y + Polynomial.const(2))
    b = g * (X * Z - Y ** 2 + Polynomial.const(5))
    before = poly.prs_fallbacks
    want = gcd(a, b)
    assert want == g
    assert poly.prs_fallbacks == before  # the heuristic found it

    monkeypatch.setattr(poly, "_heu_gcd", lambda a, b: None)
    got, qa, qb = cofactors(a, b)
    assert got == want
    assert poly.prs_fallbacks > before
    assert qa == X ** 2 + Y + Polynomial.const(2)
    assert qb == X * Z - Y ** 2 + Polynomial.const(5)


def test_prs_fallback_divides_a_nonzero_remainder(monkeypatch):
    # both products have degree 2 in x, the variable the fallback picks,
    # and the first pseudo-remainder is a nonzero multiple of the gcd
    g = X + Y + ONE
    qa, qb = X - Y, X + Y ** 2 + Polynomial.const(3)
    remainders = []
    prem = poly._prem

    def recorded(f, h, key):
        remainders.append(prem(f, h, key))
        return remainders[-1]

    monkeypatch.setattr(poly, "_prem", recorded)
    monkeypatch.setattr(poly, "_heu_gcd", lambda a, b: None)
    before = poly.prs_fallbacks
    assert cofactors(g * qa, g * qb) == (g, qa, qb)
    assert poly.prs_fallbacks > before
    assert any(not r.is_zero for r in remainders)


def test_a_unit_operand_takes_no_content(monkeypatch):
    calls = []
    icontent = Polynomial.icontent
    monkeypatch.setattr(Polynomial, "icontent",
                        lambda p: calls.append(p) or icontent(p))
    a = Polynomial.const(6) * X ** 2 + Polynomial.const(4) * Y
    assert cofactors(a, ONE) == (ONE, a, ONE)
    assert cofactors(-ONE, a) == (ONE, -ONE, a)
    assert calls == []
    # another constant meets only the other operand's content
    six = Polynomial.const(-6)
    assert cofactors(a, six) == (
        Polynomial.const(2),
        Polynomial.const(3) * X ** 2 + Polynomial.const(2) * Y,
        Polynomial.const(-3),
    )
    assert calls == [a]


def test_heuristic_rejects_an_unlucky_point():
    # b = x + 1 fixes the first xi at 31; there a(31) = 64 and b(31) = 32,
    # whose integer gcd 32 reads back as x + 1, which does not divide a
    a = X + Polynomial.const(33)
    b = X + ONE
    assert poly._heu_gcd(a, b) == (ONE, a, b)
    assert poly._heu_gcd(a * (Y + Z), b * (Y + Z)) == (Y + Z, a, b)


# ----------------------------------------------------------------------
# the path depends only on the operands


def test_certificate_verdict_ignores_earlier_calls():
    rng = random.Random(11)
    g = X + Y * Z
    pairs = [
        (g * (X ** 2 + Z + ONE), g * (Y ** 3 - X + Polynomial.const(2))),
        (X ** 3 + Y * Z + ONE, X * Y ** 2 + Z ** 2 - Polynomial.const(4)),
    ]

    def verdicts():
        return [poly._certify_var_absent(a, b, k) for a, b in pairs for k in KEYS]

    first = verdicts()
    # x, y and z all occur in the gcd of the first pair; none in the second
    assert first == [False, False, False, True, True, True]
    for _ in range(40):
        c = from_exponents({(rng.randint(0, 2), rng.randint(0, 2), 0): 1,
                            (0, 0, rng.randint(0, 2)): rng.randint(1, 5)})
        gcd(c * from_exponents({(1, 1, 0): 2, (0, 0, 1): -1}), c * (X + ONE))
    assert verdicts() == first


EIGHT = [
    "(x*y+p^2)/(y^3+x*p+1)", "(p^3-y)/(y^2+x)^2", "y^2/(x+p)",
    "(p^2+x)/(x*y+1)", "(x*p+y)/(y^2+1)", "1/(x+y)", "p^3/(x+y)",
    "(2*x^2*p+3*y^2*p+x^2)/(4*x*y^2*p+1)",
]
AFTER = "(x^2*y*p^2-3*x^2*p)/(x^2*y*p^2-x^2*p-1)"
HISTORY_CHILD = """
import sys, time
from cartaneq import check_flat_ode2, ode2_chart, parse_expression, \\
    run_equivalence_ode2
ch = ode2_chart()
*eight, after = sys.argv[1:]
for text in eight:
    check_flat_ode2(parse_expression(text, ch))
    run_equivalence_ode2(parse_expression(text, ch))
t0 = time.perf_counter()
check_flat_ode2(parse_expression(after, ch))
print(time.perf_counter() - t0)
"""
# the last call takes about 20 ms alone; with a call-history dependent
# certificate it ran past 12 s after the eight inputs
HISTORY_BOUND_S = 4.0


def test_gcd_path_ignores_call_history():
    out = run_fresh(HISTORY_CHILD, *EIGHT, AFTER, timeout=60)
    assert float(out) < HISTORY_BOUND_S


# ----------------------------------------------------------------------
# differential tests against SymPy: the gcd is the greatest divisor

coeffs = st.one_of(st.integers(-9, 9), st.integers(-10 ** 6, 10 ** 6))
polys = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(NVARS))), coeffs, max_size=5
).map(from_exponents)


def to_sympy(p):
    sp = pytest.importorskip("sympy")
    gens = sp.symbols(f"v0:{NVARS}")
    return sp.Poly.from_dict(exponents(p) or {(0,) * NVARS: 0}, *gens)


def from_sympy(p):
    return from_exponents({e: int(c) for e, c in p.as_dict().items()})


def sympy_gcd(a, b):
    sp = pytest.importorskip("sympy")
    return from_sympy(sp.gcd(to_sympy(a), to_sympy(b)))


@given(polys, polys, polys)
@settings(max_examples=150, deadline=None)
def test_gcd_of_multiples_is_the_greatest(a, b, g):
    assume(not g.is_zero and not (a.is_zero and b.is_zero))
    got = gcd(g * a, g * b)
    assert exact_div(got, g) is not None
    want = sympy_gcd(g * a, g * b)
    assert exact_div(got, want) in (ONE, -ONE)


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_gcd_matches_sympy_on_arbitrary_pairs(a, b):
    assume(not (a.is_zero and b.is_zero))
    assert exact_div(gcd(a, b), sympy_gcd(a, b)) in (ONE, -ONE)


# zero and constant operands next to the sparse ones
operands = st.one_of(polys, coeffs.map(Polynomial.const))


@given(operands, operands, polys)
@example(Polynomial.const(0), Polynomial.const(0), ONE)
@example(Polynomial.const(0), -X, ONE)
@example(Polynomial.const(-6), Polynomial.const(0), ONE)
@example(Polynomial.const(-4), Polynomial.const(6) * X, ONE)
# GCDHEU reads this common factor back as y - x^2, leading coefficient -1
@example(X + Y + ONE, X - Y + Polynomial.const(2), X ** 2 - Y)
@settings(max_examples=150, deadline=None)
def test_cofactors_multiply_back_to_the_operands(a, b, f):
    # a common factor takes the pair past trial division and the certificate
    if not f.is_zero:
        a, b = f * a, f * b
    g, qa, qb = cofactors(a, b)
    assert g * qa == a and g * qb == b
    assert g == gcd(a, b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    # the operands are taken in the order given, and the order moves nothing
    assert cofactors(b, a) == (g, qb, qa)
    assert g.lead_coeff > 0
    assert exact_div(g, sympy_gcd(a, b)) in (ONE, -ONE)


# ----------------------------------------------------------------------
# the fallback alone, the heuristic giving up on every call

# the remainder sequence grows its coefficients fast: on products of the
# operands above with six-digit coefficients it can run for minutes
small_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in range(NVARS))),
    st.integers(-9, 9), max_size=4,
).map(from_exponents)


@given(small_polys, small_polys, small_polys)
@example(X - Y, X + Y ** 2 + Polynomial.const(3), X + Y + ONE)
@settings(max_examples=150, deadline=None)
def test_prs_fallback_matches_sympy(a, b, g):
    assume(not g.is_zero and not (a.is_zero and b.is_zero))
    a, b = g * a, g * b
    before = poly.prs_fallbacks
    with mock.patch.object(poly, "_heu_gcd", return_value=None) as heu:
        got, qa, qb = cofactors(a, b)
    assert got * qa == a and got * qb == b
    assert exact_div(got, sympy_gcd(a, b)) in (ONE, -ONE)
    # the contents recurse into cofactors, so one gcd can give up often;
    # every time, the fallback finishes it
    assert poly.prs_fallbacks - before == heu.call_count


@given(polys, polys, st.integers(0, NVARS - 1))
@settings(max_examples=100, deadline=None)
def test_prem_matches_sympy(f, g, v):
    assume(not g.is_zero)
    sp = pytest.importorskip("sympy")
    key = KEYS[v]
    got = poly._prem(f, g, key)
    df, dg = f.degree_in(key), g.degree_in(key)
    assert f.is_zero or got.is_zero or got.degree_in(key) < dg
    want = from_sympy(sp.Poly(sp.prem(to_sympy(f).as_expr(),
                                      to_sympy(g).as_expr(),
                                      sp.Symbol(f"v{v}")),
                              *sp.symbols(f"v0:{NVARS}")))
    # SymPy multiplies f by lc(g)^(df - dg + 1) up front, _prem by lc(g)
    # once a step, and a step can drop the degree by more than one
    lg = poly._coeffs(g, key)[dg]
    assert any(lg ** j * got == want for j in range(max(df - dg, 0) + 2))
