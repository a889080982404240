"""Expression field: canonical forms, derivations, substitution."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cartaneq import (
    ArgumentEscape,
    Chart,
    ChartMismatch,
    DivisionByZero,
    Expression,
    UnknownName,
    VectorField,
    parse_expression,
)
from cartaneq import poly
from cartaneq.expr import Partials, Substitution, VariableMap

from conftest import point_for, random_expression, seeded
from oracles import groupwise_image, quotient_rule_partial, termwise_image

CH = Chart(coords=("x", "y", "p"), functions=[("f", ("x", "y", "p"))])
NAMES = ("x", "y", "p", "f", "f_p", "f_xy")
POINT = {
    "x": Fraction(2, 3),
    "y": Fraction(-3, 5),
    "p": Fraction(5, 7),
    "f": Fraction(-1, 2),
    "f_p": Fraction(7, 4),
    "f_xy": Fraction(3),
}


def E(text):
    return parse_expression(text, CH)


consts = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)
atoms = st.one_of(
    consts.map(lambda q: Expression.const(CH, q)),
    st.sampled_from(NAMES).map(lambda n: Expression.var(CH, n)),
)
exprs = st.recursive(
    atoms,
    lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda t: t[0] + t[1]),
        st.tuples(ch, ch).map(lambda t: t[0] - t[1]),
        st.tuples(ch, ch).map(lambda t: t[0] * t[1]),
    ),
    max_leaves=10,
)


def polys_over(names, leaves):
    atoms = st.one_of(
        st.integers(-8, 8).map(lambda n: Expression.const(CH, n)),
        st.sampled_from(names).map(lambda n: Expression.var(CH, n)),
    )
    return st.recursive(
        atoms,
        lambda ch: st.one_of(
            st.tuples(ch, ch).map(lambda t: t[0] + t[1]),
            st.tuples(ch, ch).map(lambda t: t[0] * t[1]),
        ),
        max_leaves=leaves,
    )


def total_degree(m):
    return sum(e for _, e in m)


def quotients_over(names, max_degree=6):
    """N / (c * F1^k1 * ...): denominators are powers of random factors.

    N keeps its terms of total degree at most ``max_degree``, and a power
    of a factor that would lift the denominator past it is left out, so
    the size of a draw, and with it the time of a substitution into it,
    has a bound.
    """
    factors = polys_over(names, 4).filter(lambda e: not e.is_const)

    def build(num, powers, c):
        num = Expression.make(CH, poly.Polynomial.from_dict({
            m: k for m, k in num.num.terms if total_degree(m) <= max_degree
        }), num.den)
        den, used = Expression.const(CH, c), 0
        for f, k in powers:
            d = k * max(total_degree(m) for m, _ in f.num.terms)
            if used + d <= max_degree:
                den, used = den * f ** k, used + d
        return num / den

    return st.builds(
        build,
        polys_over(names, 8),
        st.lists(st.tuples(factors, st.integers(1, 3)), min_size=1, max_size=3),
        st.integers(1, 6),
    )


@given(exprs, exprs)
@settings(max_examples=150, deadline=None)
def test_evaluation_is_a_ring_homomorphism(a, b):
    assert (a + b).evaluate(POINT) == a.evaluate(POINT) + b.evaluate(POINT)
    assert (a - b).evaluate(POINT) == a.evaluate(POINT) - b.evaluate(POINT)
    assert (a * b).evaluate(POINT) == a.evaluate(POINT) * b.evaluate(POINT)


@given(exprs, exprs, exprs)
@settings(max_examples=100, deadline=None)
def test_field_identities(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert (a + b) - b == a


@given(exprs, exprs)
@settings(max_examples=100, deadline=None)
def test_division_cancels(a, b):
    if b.is_zero:
        with pytest.raises(DivisionByZero):
            a / b
        return
    assert (a / b) * b == a
    if not a.is_zero:
        assert a / a == 1


@given(exprs)
@settings(max_examples=100, deadline=None)
def test_canonical_idempotence(e):
    again = Expression.make(e.chart, e.num, e.den)
    assert again == e and hash(again) == hash(e)
    assert (-(-e)) == e


def test_decision_procedure_examples():
    x, y = E("x"), E("y")
    assert x * (y + 1) - x * y - x == 0
    assert E("f_p") * E("f_y") - E("f_y") * E("f_p") == 0
    assert ((x + y) ** 2 - x * x - 2 * x * y - y * y).is_zero
    assert (x * x - y * y) / (x - y) == x + y


def test_quotient_reduction_agrees_with_evaluation():
    rng = seeded(201)
    x, y = E("x"), E("y")
    q = (x * x - y * y) / (x - y)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if a == b:
            continue
        pt = {"x": a, "y": b, "p": Fraction(0)}
        assert q.evaluate(pt) == a + b


def test_pow_and_inverse():
    x = E("x")
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert x ** -2 == 1 / (x * x)
    assert (E("x/y")) ** -1 == E("y/x")
    with pytest.raises(DivisionByZero):
        (x - x) ** -1


def test_partial_derivatives():
    f = E("f")
    assert (f * f).partial("p") == 2 * f * E("f_p")
    assert E("y").partial("x") == 0
    assert E("x^3*y").partial("x") == E("3*x^2*y")
    # quotient rule
    q = E("x") / E("y")
    assert q.partial("y") == E("-x/y^2")
    # derivatives of the opaque symbol commute
    assert f.partial("x").partial("y") == f.partial("y").partial("x")
    assert f.partial("x").partial("y") == E("f_xy")
    # a coordinate outside the declared arguments gives zero
    g = Chart(coords=("x", "y"), functions=[("h", ("x",))])
    assert Expression.var(g, "h").partial("y") == 0


def test_partial_leibniz_on_random_expressions():
    rng = seeded(202)
    for _ in range(40):
        a = random_expression(CH, rng)
        b = random_expression(CH, rng)
        for v in ("x", "y", "p"):
            lhs = (a * b).partial(v)
            rhs = a.partial(v) * b + a * b.partial(v)
            assert lhs == rhs


def test_partials_commute_on_random_expressions():
    rng = seeded(203)
    for _ in range(40):
        a = random_expression(CH, rng)
        assert a.partial("x").partial("p") == a.partial("p").partial("x")


@given(quotients_over(NAMES))
@settings(max_examples=80, deadline=None)
def test_partial_matches_the_quotient_rule(e):
    for v in ("x", "y", "p"):
        assert e.partial(v) == quotient_rule_partial(e, v)


def test_partial_reduces_against_the_shared_factor(opaque_chart):
    # the numerator shares y with gcd(D, D_x); integer content; a power;
    # an opaque denominator, through f_x and f_xp
    cases = [
        ("(x+1+y)/(y*(x+1))", "x", "-1/(x+1)^2"),
        ("1/(2*x+4)", "x", "-1/(2*(x+2)^2)"),
        ("(x*p+1)/(x+y+1)^3", "x", "(p*(x+y+1) - 3*(x*p+1))/(x+y+1)^4"),
        ("(x*p+1)/(x+y+1)^3", "y", "-3*(x*p+1)/(x+y+1)^4"),
        ("(x*p+1)/(x+y+1)^3", "p", "x/(x+y+1)^3"),
        ("f/(f_p+x)", "x", "(f_x*(f_p+x) - f*(f_xp+1))/(f_p+x)^2"),
    ]
    for text, v, want in cases:
        e = parse_expression(text, opaque_chart)
        got = e.partial(v)
        assert got == parse_expression(want, opaque_chart)
        assert got == quotient_rule_partial(e, v)


ALONG = {0: "x", 1: "y", 2: "p"}
# every sorted index tuple of order 1 to 3 over the three directions
INDICES = [(i,) for i in range(3)] + [
    (i, j) for i in range(3) for j in range(i, 3)] + [
    (i, j, k) for i in range(3) for j in range(i, 3) for k in range(j, 3)]


def assert_table_matches_the_partial_chains(e):
    table = Partials(e, ALONG)
    chains = {(): e}
    for index in INDICES:
        chains[index] = chains[index[:-1]].partial(ALONG[index[-1]])
        assert table[index] == chains[index], index
    return table


def assert_base(den, c, parts):
    """Each b squarefree, the b pairwise coprime, den = c prod b^m."""
    product = poly.Polynomial.const(c)
    for i, (b, m) in enumerate(parts):
        assert not b.is_const and b.icontent() == 1 and b.lead_coeff > 0
        for v in b.variables():
            # a repeated factor holding v would divide b and db/dv
            assert v not in poly.gcd(b, b.derivative(v)).variables()
        for a, _ in parts[:i]:
            assert poly.gcd(a, b) == poly.one()
        product = product * b ** m
    assert product == den


@given(quotients_over(NAMES))
@settings(max_examples=40, deadline=None)
def test_partials_table_matches_the_partial_chains(e):
    table = assert_table_matches_the_partial_chains(e)
    assert_base(e.den, *poly.squarefree(e.den))
    _, c, exps = table.raw(())
    assert_base(e.den, c, list(zip(table.base.polys, exps)))


def test_partials_table_on_chosen_denominators(opaque_chart):
    ch = opaque_chart
    cases = [
        # one factor does not hold x
        ("(x*p + y)/((x + y)^3*(2*y + 1))", [("2*y + 1", 1), ("x + y", 3)]),
        # integer content
        ("(3*x + 1)/(6*(y^2 + 2)^2)", [("y^2 + 2", 2)]),
        # monomial content
        ("(y + p)/(x^2*(x + y))", [("x", 2), ("x + y", 1)]),
        # an inner opaque function
        ("(f + x)/(g + x)^2", [("g + x", 2)]),
        ("p/(x*g^2 + y)", [("x*g^2 + y", 1)]),
    ]
    for text, parts in cases:
        e = parse_expression(text, ch)
        assert_table_matches_the_partial_chains(e)
        c, got = poly.squarefree(e.den)
        want = [(parse_expression(b, ch).num, m) for b, m in parts]
        assert sorted(got, key=repr) == sorted(want, key=repr)
        assert_base(e.den, c, got)
    # ``squarefree`` takes the content y + 1 of (x + y)*(y + 1) in x
    # apart; along x only the exponent of x + y rises
    e = parse_expression("1/((x + y)*(y + 1))", ch)
    table = Partials(e, ALONG)
    want = [parse_expression(b, ch).num for b in ("x + y", "y + 1")]
    assert sorted(table.base.polys, key=repr) == sorted(want, key=repr)
    rise = [a - b for a, b in zip(table.raw((0,))[2], table.raw(())[2])]
    assert rise == [int(ch.key_of("x") in b.variables())
                    for b in table.base.polys]
    assert sorted(rise) == [0, 1]


def test_partials_base_does_not_depend_on_the_directions():
    e = E("1/((x + y)*(x + p))")
    _, parts = poly.squarefree(e.den)
    want = [b for b, _ in parts]
    assert len(want) == 1
    for along in ({}, {0: "x"}, {0: "p"}, {0: "y", 1: "p"}, ALONG):
        table = Partials(e, along)
        assert table.base.polys == want, along
        for index in [(i,) for i in along] + [(i, i) for i in along]:
            assert table[index] == quotient_rule_chain(e, index, along)


def test_partials_refuse_a_direction_off_the_basis():
    e = E("f^2*x + f_p")
    with pytest.raises(UnknownName):
        e.partial("f")
    for along in ({0: "f"}, {0: "x", 1: "f_p"}):
        with pytest.raises(UnknownName):
            Partials(e, along)
    with pytest.raises(UnknownName):
        Partials(e, {0: "zz"})


def test_partials_take_no_gcd_beyond_their_base(monkeypatch):
    f = E("(x*y*f_p + p^2)/(3*x^2*(x + y)^2*(2*p + y + 1))")
    calls = []
    raw = poly._gcd_core
    monkeypatch.setattr(poly, "_gcd_core",
                        lambda a, b: calls.append((a, b)) or raw(a, b))
    table = Partials(f, ALONG)
    built = len(calls)
    for index in INDICES:
        table.raw(index)
    # the quotient rule over the base is polynomial arithmetic alone
    assert len(calls) == built
    for index in INDICES:
        table[index]
    # reading an entry reduces it against the base's own polynomials
    assert len(calls) > built and all(any(poly.exact_div(b, a_or_b) is not None
                   for b in table.base.polys for a_or_b in call)
               for call in calls[built:])
    monkeypatch.undo()
    for index in INDICES:
        assert table[index] == quotient_rule_chain(f, index)


def quotient_rule_chain(e, index, along=ALONG):
    for i in index:
        e = quotient_rule_partial(e, along[i])
    return e


def test_variable_map_base_refines_the_image_denominators():
    x, y = E("x"), E("y")
    images = {CH.key_of("x"): (x + 1) / ((x - y) ** 2 * (x + y)),
              CH.key_of("y"): y / ((x + y) ** 3 * (2 * x + 3)),
              CH.key_of("p"): E("p") / ((x - y) * (2 * x + 3)) ** 2}
    vmap = VariableMap(CH, images)
    want = [E(text).num for text in ("x - y", "x + y", "2*x + 3")]
    assert sorted(vmap.base.polys, key=repr) == sorted(want, key=repr)
    e = E("(x^2*y + p*x - 3*y*p^2 + 1)/(x*p - 2)")
    assert vmap(e) == termwise_image(images, e)


def test_substitution_of_a_large_drawn_quotient():
    # a draw of test_substitution_matches_the_groupwise_sum whose image
    # has 7488/13784 terms; CI runs this test under a time limit of its own
    e = E("x*f_xy / (6*((f_p + f + 1)*f)^3*(f_xy - 1)*(f^2*f_p)^3)")
    value = E("-8*(3 + x) / (4*(y - 2)^3*((p - 2)*(y + p))^3)")
    subbed = e.substitute("f", value)
    assert (len(subbed.num), len(subbed.den)) == (7488, 13784)
    partials = {"f": value, "f_p": value.partial("p"),
                "f_xy": value.partial("x").partial("y")}
    rng = seeded(205)
    checked = 0
    while checked < 3:
        pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for v in ("x", "y", "p")}
        try:
            full = dict(pt, **{n: d.evaluate(pt) for n, d in partials.items()})
            want = e.evaluate(full)
        except DivisionByZero:
            continue
        assert subbed.evaluate(pt) == want
        checked += 1


def test_total_derivation():
    ch = Chart(
        coords=("x", "y", "p"),
        functions=[("eta", ("x", "y")), ("f", ("x", "y", "p"))],
    )
    D = VectorField(ch, {
        "x": 1,
        "y": Expression.var(ch, "p"),
        "p": Expression.var(ch, "f"),
    })
    assert D(Expression.var(ch, "y")) == Expression.var(ch, "p")
    assert D(Expression.var(ch, "p")) == Expression.var(ch, "f")
    eta = Expression.var(ch, "eta")
    want = parse_expression(
        "eta_xx + 2*p*eta_xy + p^2*eta_yy + f*eta_y", ch
    )
    assert D(D(eta)) == want
    # derivation property
    a = Expression.var(ch, "eta")
    b = Expression.var(ch, "p")
    assert D(a * b) == D(a) * b + a * D(b)


def test_substitute_opaque_function():
    ch = Chart(coords=("x", "y", "p"), functions=[("f", ("x", "y", "p"))])
    base = Chart(coords=("x", "y", "p"))
    i1 = parse_expression(
        "(2*p*f_yp + 2*f*f_pp - f_p^2 - 4*f_y + 2*f_xp)/4", ch
    )
    target = parse_expression("6*y^2 + x", base).rebase(ch)
    assert i1.substitute("f", target) == parse_expression("-12*y", ch)
    fppp = parse_expression("f_ppp", ch)
    assert fppp.substitute("f", parse_expression("p^3", ch)) == 6
    f = parse_expression("f", ch)
    assert f.substitute("f", Expression.const(ch, 0)) == 0


def test_substitute_respects_declared_arguments():
    ch = Chart(coords=("x", "y", "p"), functions=[("g", ("x", "y"))])
    g = Expression.var(ch, "g")
    ok = parse_expression("x^2 + y", ch)
    assert g.substitute("g", ok) == ok
    with pytest.raises(ArgumentEscape):
        g.substitute("g", parse_expression("p", ch))


def test_substitution_consistent_with_chain_rule_numerically():
    rng = seeded(204)
    ch = Chart(coords=("x", "y", "p"), functions=[("f", ("x", "y", "p"))])
    expr = parse_expression("f_p*f + x*f_y - f^2/(y^2 + 1)", ch)
    value = parse_expression("x*p^2 - 3*y + 1", ch)
    subbed = expr.substitute("f", value)
    for _ in range(10):
        pt = point_for([subbed, value], rng)
        pt.setdefault("x", Fraction(1))
        pt.setdefault("y", Fraction(2))
        pt.setdefault("p", Fraction(3))
        full = dict(pt)
        full["f"] = value.evaluate(pt)
        full["f_p"] = value.partial("p").evaluate(pt)
        full["f_y"] = value.partial("y").evaluate(pt)
        assert subbed.evaluate(pt) == expr.evaluate(full)


@given(quotients_over(NAMES, 4), quotients_over(("x", "y", "p"), 4))
@example(E("f^2 + x*f_p + f_xy/(f + 1)"), E("(x*p + 1)/(x + y + 1)^3"))
# one-term images: a coefficient sharing integer content with the image's
# denominator, a negative one, and a zero image
@example(E("6*f"), E("x/(2*y + 4)"))
@example(E("-6*f^2/(4*f_p)"), E("x*p/(2*y + 4)"))
@example(E("3*f_x/(f + 1)"), E("y*p"))
@settings(max_examples=60, deadline=None)
def test_substitution_matches_the_groupwise_sum(e, value):
    try:
        got = Substitution(CH, "f", value)(e)
    except DivisionByZero:
        # the image of the denominator vanishes
        with pytest.raises(DivisionByZero):
            groupwise_image("f", value, e)
        return
    assert got == groupwise_image("f", value, e)


def test_one_term_images_take_no_polynomial_gcd(monkeypatch):
    # a one-term numerator alone never reaches the core: cofactors takes
    # out monomial content first
    subst = Substitution(CH, "f", E("(x + 1)/(2*y + 4)"))
    want = [E("3*(x + 1)/(y + 2)"), E("-3*(x + 1)^2/(2*(y + 2)^2)"), E("0")]
    calls = []
    raw = poly._gcd_core
    monkeypatch.setattr(poly, "_gcd_core",
                        lambda a, b: calls.append((a, b)) or raw(a, b))
    got = [subst(E(text)) for text in ("6*f", "-6*f^2", "0*f")]
    assert got == want and calls == []


def test_unit_denominators_take_no_cofactors(monkeypatch):
    # a sum or product of polynomials over 1 is already canonical
    a, b = E("x^2*f + 3*y - 2"), E("2*p*f_xy - x")
    want = [E("x^2*f + 3*y + 2*p*f_xy - x - 2"),
            E("x^2*f + 3*y - 2*p*f_xy + x - 2"),
            E("(x^2*f + 3*y - 2)*(2*p*f_xy - x)"), E("2*x^2*f + 6*y - 4")]
    calls = []
    raw = poly.cofactors
    monkeypatch.setattr(poly, "cofactors",
                        lambda a, b: calls.append((a, b)) or raw(a, b))
    got = [a + b, a - b, a * b, 2 * a]
    zero = a - a
    assert calls == []
    monkeypatch.undo()
    assert got == want
    assert zero == Expression.const(CH, 0)
    assert hash(zero) == hash(Expression.const(CH, 0))
    assert zero.num.is_zero and zero.den == poly.one()


def test_subs_coords():
    base = Chart(coords=("x", "y", "p"))
    x, y, p = (Expression.var(base, n) for n in ("x", "y", "p"))
    e = x * y + p
    got = e.subs_coords({"y": x + 1})
    assert got == x * (x + 1) + p
    # a zero value is an image like any other; values live on e's chart
    assert e.subs_coords({"y": Expression.const(base, 0)}) == p
    with pytest.raises(ChartMismatch):
        e.subs_coords({"y": Expression.var(Chart(coords=("x", "y")), "x")})
    with pytest.raises(TypeError):
        e.subs_coords({"y": 2})
    # substituting under an opaque symbol is rejected
    ch = Chart(coords=("x", "y"), functions=[("g", ("x", "y"))])
    with pytest.raises(ArgumentEscape):
        Expression.var(ch, "g_x").subs_coords(
            {"x": Expression.var(ch, "y")}
        )


def test_chart_mismatch_and_unknown_names():
    other = Chart(coords=("x", "y", "p"), params=("c",))
    with pytest.raises(ChartMismatch):
        E("x") + Expression.var(other, "x")
    with pytest.raises(UnknownName):
        Expression.var(CH, "zz")


def test_rebase_and_project_roundtrip():
    base = Chart(coords=("x", "y", "p"))
    big = Chart(
        coords=("x", "y", "p"),
        params=("a3",),
        functions=[("f", ("x", "y", "p"))],
    )
    e = parse_expression("x^2 - y/3", base)
    up = e.rebase(big)
    assert up.chart == big and up.project(base) == e
    stuck = parse_expression("a3*x", big)
    with pytest.raises(ChartMismatch):
        stuck.project(base)


def test_evaluate_requires_all_variables_and_flags_poles():
    e = E("x/y")
    assert e.evaluate({"x": Fraction(1), "y": Fraction(2)}) == Fraction(1, 2)
    with pytest.raises(UnknownName):
        e.evaluate({"x": Fraction(1)})
    with pytest.raises(DivisionByZero):
        e.evaluate({"x": Fraction(1), "y": Fraction(0)})


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2"])
def test_constants_and_points_are_exact(bad):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError):
        Expression.const(CH, bad)
    with pytest.raises(TypeError):
        E("x").evaluate({"x": bad})
    assert Expression.const(CH, Fraction(1, 10)).evaluate({}) == Fraction(1, 10)
