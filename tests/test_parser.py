"""Grammar, canonical text rendering, and the round trip between them."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cartaneq import (
    Chart,
    DegreeOverflow,
    Expression,
    ParseError,
    UnknownName,
    parse_expression,
    render_latex,
    render_text,
)

from conftest import random_expression, seeded

CH = Chart(coords=("x", "y", "p"), functions=[("f", ("x", "y", "p"))])


def E(text):
    return parse_expression(text, CH)


def test_basic_forms():
    x, y, p = (Expression.var(CH, n) for n in ("x", "y", "p"))
    assert E("6*y^2 + x") == 6 * y * y + x
    assert E("-p^2/y") == -(p * p) / y
    assert E("1/2") == Expression.const(CH, Fraction(1, 2))
    assert E("  x +\ty ") == x + y
    assert E("f_p") == Expression.var(CH, "f_p")
    assert E("x - (-y)") == x + y
    # unary minus binds the whole leading term, nowhere else
    assert E("-2*x^2") == -2 * x * x
    with pytest.raises(ParseError):
        E("2 - - 3")


def test_parenthesized_expansion_agrees_with_direct_evaluation():
    rng = seeded(301)
    e = E("6*(y+x)^2 + x")
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        got = e.evaluate({"x": a, "y": b, "p": Fraction(0)})
        assert got == 6 * (b + a) ** 2 + a


def test_precedence_and_associativity():
    assert E("2 + 3 * 4") == 14
    assert E("2 * 3 ^ 2") == 18
    assert E("8 / 4 / 2") == 1
    assert E("2 - 3 - 4") == -5
    assert E("-x^2") == -E("x^2")


def test_parse_render_roundtrip_on_random_expressions():
    rng = seeded(302)
    for _ in range(300):
        e = random_expression(CH, rng)
        assert parse_expression(render_text(e), CH) == e


def test_roundtrip_with_derivative_symbols():
    e = E("(f_pp*x - 3*f_xy)/(f_p^2 + 1)")
    assert parse_expression(render_text(e), CH) == e


def test_render_examples():
    assert render_text(E("0")) == "0"
    assert render_text(E("-12*y")) == "-12*y"
    assert render_text(E("x/2 + 1/3")) == "(3*x + 2)/6"
    assert render_text(E("1/y")) == "1/y"
    assert render_text(E("-p^2/y")) == "-p^2/y"
    assert render_text(E("(x+y)/(x-y)")) == "(x + y)/(x - y)"


def test_an_empty_derivative_spelling_is_refused():
    # an empty suffix names no derivative, and must not read as f
    with pytest.raises(ParseError):
        E("f_")
    with pytest.raises(ParseError):
        E("x + f_")
    with pytest.raises(UnknownName):
        Expression.var(CH, "f_")
    assert E("f_x") == Expression.var(CH, "f_x")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        E("6*y^2 +")
    assert exc.value.position == 7
    with pytest.raises(ParseError):
        E("")
    with pytest.raises(ParseError) as exc:
        E("2x")
    assert exc.value.position == 1
    with pytest.raises(ParseError):
        E("x & y")
    with pytest.raises(ParseError):
        E("x^-2")
    with pytest.raises(ParseError):
        E("x^(2)")
    with pytest.raises(ParseError):
        E("q + 1")  # unknown name
    with pytest.raises(ParseError) as exc:
        E("x/(y - y)")
    assert exc.value.position == 1
    with pytest.raises(ParseError):
        E("1/0")


def test_exponent_bound():
    with pytest.raises(DegreeOverflow):
        E("x^600")
    assert E("x^512") == Expression.var(CH, "x") ** 512


def test_latex_rendering():
    big = Chart(coords=("x", "y", "p"), params=("a3",),
                functions=[("f", ("x", "y", "p"))])
    r = render_latex(parse_expression("f_ppp/(2*a3^2)", big))
    assert r == "\\frac{f_{ppp}}{2 a_{3}^{2}}"
    assert render_latex(parse_expression("-12*y", big)) == "-12 y"
    assert render_latex(parse_expression("x^2", big)) == "x^{2}"


# ----------------------------------------------------------------------
# differential test: every text of the grammar against sympy.cancel

ODE2 = Chart(coords=("x", "y", "p"))
NUMBERS = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}.{}".format, st.integers(0, 9),
              st.sampled_from(("5", "25", "0", "05"))),
)


def _sympy():
    sp = pytest.importorskip("sympy")
    return sp, sp.symbols(ODE2.basis_names())


@st.composite
def texts(draw, depth=2):
    """(text, divides_by_zero) for a text of the grammar.

    The value of every divisor is computed in SymPy's field of rational
    functions as the text is built, so a zero divisor is known without
    asking cartaneq.  Only what stands under a ``/`` gets a value
    (``need``): nothing reads the value of the whole text, and the field
    arithmetic on a large one can take SymPy minutes.
    """
    sp, _ = _sympy()
    field, *gens = sp.field(",".join(ODE2.basis_names()), sp.QQ)
    var = dict(zip(ODE2.basis_names(), gens))

    def atom(depth, need):
        kind = draw(st.integers(0, 2 if depth else 1))
        if kind == 0:
            text = draw(NUMBERS)
            return text, need and field(sp.Rational(text)), False
        if kind == 1:
            name = draw(st.sampled_from(ODE2.basis_names()))
            return name, var[name], False
        text, value, zero_div = expr(depth - 1, need)
        return f"({text})", value, zero_div

    def factor(depth, need):
        text, value, zero_div = atom(depth, need)
        n = draw(st.none() | st.integers(0, 4))
        if n is None:
            return text, value, zero_div
        # the field refuses 0**0, which the grammar reads as 1
        value = need and (value ** n if n else field(1))
        return f"{text}^{n}", value, zero_div

    def term(depth, need):
        text, value, zero_div = factor(depth, need)
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from("*/"))
            t, v, z = factor(depth, need or (op == "/" and not zero_div))
            text, zero_div = f"{text}{op}{t}", zero_div or z
            if zero_div:
                continue
            if op == "/" and v == 0:
                zero_div = True
            elif need:
                value = value * v if op == "*" else value / v
        return text, value, zero_div

    def expr(depth, need):
        negate = draw(st.booleans())
        text, value, zero_div = term(depth, need)
        if negate:
            text, value = "-" + text, need and -value
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from("+-"))
            t, v, z = term(depth, need)
            text, zero_div = f"{text} {op} {t}", zero_div or z
            if need and not zero_div:
                value = value + v if op == "+" else value - v
        return text, value, zero_div

    text, _, zero_div = expr(depth, False)
    return text, zero_div


def _to_sympy(p, sp, gens):
    exps = {}
    for m, c in p.terms:
        e = [0] * len(gens)
        for k, n in m:
            e[ODE2.basis_index(k)] = n
        exps[tuple(e)] = c
    return sp.Poly.from_dict(exps or {(0,) * len(gens): 0}, *gens)


# sp.cancel expanded the whole text before it cancelled, and a reduced
# result of a few thousand terms could take it seconds to tens of seconds;
# the checks below expand the same text, so they keep to results under
# this many terms (numerator plus denominator)
CANCEL_GUARD = 200


def _assert_coprime(f, g, gens, rng):
    """No factor of positive degree divides both integer Polys f and g.

    Such a factor has positive degree in some variable v.  At a point of
    the other variables where neither leading coefficient in v vanishes,
    it keeps that degree and divides both images, so a constant univariate
    gcd of the images there, for every v, rules it out.
    """
    sp, _ = _sympy()
    for v in gens:
        if not (f.degree(v) and g.degree(v)):
            continue
        for _ in range(20):
            point = {u: rng.randint(-10 ** 6, 10 ** 6) for u in gens if u != v}
            fv, gv = f.eval(point), g.eval(point)
            if fv.degree() == f.degree(v) and gv.degree() == g.degree(v):
                break
        else:
            raise AssertionError(f"no point keeps both degrees in {v}")
        assert sp.gcd(fv, gv).degree() == 0


@given(texts())
@example(("x/(y - y)", True))
@example(("(x^2 - 1)/(x - 1) + 1.5*y^2/3", False))
@example(("-(p - 0.25)^4/(x*y - y*x + 2)^3 - y/p^0", False))
# the field arithmetic on this whole draw took SymPy minutes and sp.cancel
# takes it tens of seconds; cartaneq parses it in milliseconds
@example(("(-x*(6^4 + p^1*9.25 - x^4/p*8.0^2)/p^4 + (x/x - y^0*p^4/x)^0*(x)"
          " + 3^2/(x/y^2/x - 11/6^3*x + y^1*8.5))*p^2 + ((-5.25^4/6.05^2)^4"
          "*1^4/(-y/x - x/4^0*0^4 + y/4.5^0*8)^0 - p/(-6/y*4.25 - x/9.25^3*x^4"
          " - 9.05^4/5.5^0*x^4)^4*(-y^4/10/x))^4*(-p/p^1)^4 + ((-p^3*12^3*x"
          " + x^0*5.05^4)^3*8.0^1)^1/(0.5 + y*x)", False))
# sp.cancel raises HeuristicGCDFailed on this draw: SymPy's sparse gcd
# has no fallback, and its dense one takes it about 25 s
@example(("x*x*x + x*x*(0.25^2*y + (0*0*x + 0 + 8/5.05^2*1)*(-0*0*0 + 5*7)"
          "*12) + (-x*12*(-x*x^4/p^4)^4 + 0)^4*x/(-(-y/0.05*1.5 + 1*p*x^3"
          " - 11) - x^4)", False))
@settings(max_examples=100, deadline=None)
def test_parse_matches_sympy_cancel(case):
    text, zero_div = case
    sp, gens = _sympy()
    if zero_div:
        with pytest.raises(ParseError):
            parse_expression(text, ODE2)
        return
    got = parse_expression(text, ODE2)
    assert got.den.lead_coeff > 0
    assert math.gcd(got.num.icontent(), got.den.icontent()) == 1
    tree = sp.sympify(text, locals=dict(zip(map(str, gens), gens)),
                      rational=True)

    # the value of the text at seeded rational points, skipping a point
    # where some divisor of the text vanishes
    rng = seeded(text)
    checked = 0
    for _ in range(20):
        point = {g: sp.Rational(rng.randint(-99, 99), rng.randint(1, 9))
                 for g in gens}
        want = tree.xreplace(point)
        if want.is_Rational:
            point = {str(g): Fraction(int(v.p), int(v.q))
                     for g, v in point.items()}
            assert got.evaluate(point) == Fraction(int(want.p), int(want.q))
            checked += 1
            if checked == 3:
                break
    assert checked == 3
    if got.size > CANCEL_GUARD:
        return

    # the text as one unreduced fraction; the cross products prove got
    # equal to it, and the coprime pair proves got reduced
    num, den = (sp.Poly(part, *gens) for part in sp.fraction(sp.together(tree)))
    got_num, got_den = _to_sympy(got.num, sp, gens), _to_sympy(got.den, sp, gens)
    assert (got_num * den - got_den * num).is_zero
    if got.is_zero:
        assert got_den == sp.Poly(1, *gens)
        return
    _assert_coprime(got_num, got_den, gens, rng)
