"""Exterior algebra: wedge, d, coframe expression, dual frames."""

import pytest

from cartaneq import (
    Chart,
    ChartMismatch,
    Coframe,
    DifferentialForm,
    Expression,
    SingularCoframe,
    UnknownName,
    VectorField,
    ode2_chart,
    parse_expression,
    wedge,
)

from conftest import random_expression, seeded

CH = Chart(
    coords=("x", "y", "p"),
    functions=[("f", ("x", "y", "p")), ("g", ("x", "y"))],
)


def E(text):
    return parse_expression(text, CH)


def B(name):
    return DifferentialForm.basis(CH, name)


def _random_one_form(chart, rng):
    return DifferentialForm.one_form(
        chart,
        {n: random_expression(chart, rng, depth=2)
         for n in chart.basis_names()},
    )


def test_wedge_basics():
    dx, dy = B("x"), B("y")
    assert dx.wedge(dx).is_zero
    prod = dx.wedge(dy)
    assert prod.degree == 2
    assert prod.coefficient((0, 1)) == 1
    assert (E("p") * dx).wedge(E("f") * dy) == E("p*f") * prod


def test_wedge_antisymmetry_and_associativity():
    rng = seeded(401)
    for _ in range(25):
        a = _random_one_form(CH, rng)
        b = _random_one_form(CH, rng)
        c = _random_one_form(CH, rng)
        assert a.wedge(b) == -(b.wedge(a))
        assert a.wedge(a).is_zero
        assert wedge(a, b, c) == a.wedge(b.wedge(c))
        two_form = a.wedge(b)
        # even degree commutes past odd degree
        assert two_form.wedge(c) == c.wedge(two_form)


def test_wedge_bilinearity():
    rng = seeded(402)
    for _ in range(15):
        a = _random_one_form(CH, rng)
        b = _random_one_form(CH, rng)
        c = _random_one_form(CH, rng)
        s = random_expression(CH, rng, depth=2)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)
        assert (s * a).wedge(c) == s * a.wedge(c)


def test_d_examples():
    dx, dy, dp = B("x"), B("y"), B("p")
    assert (E("x") * dy).d() == dx.wedge(dy)
    assert (E("p") * dx).d() == dp.wedge(dx)
    assert (dy - E("p") * dx).d() == dx.wedge(dp)
    # dg ^ dx = -g_y dx^dy
    assert (E("g") * dx).d().coefficient_named("x", "y") == E("-g_y")


def test_d_is_an_antiderivation():
    rng = seeded(403)
    for _ in range(20):
        a = _random_one_form(CH, rng)
        s = random_expression(CH, rng, depth=2)
        # d(s a) = ds ^ a + s da
        ds = DifferentialForm.one_form(
            CH, {n: s.partial(n) for n in CH.basis_names()}
        )
        assert (s * a).d() == ds.wedge(a) + s * a.d()


def test_d_squared_vanishes():
    rng = seeded(404)
    for _ in range(60):
        a = _random_one_form(CH, rng)
        assert a.d().d().is_zero
        s = random_expression(CH, rng, depth=2)
        zero_form = DifferentialForm(CH, 0, {(): s}) if not s.is_zero \
            else DifferentialForm.zero(CH, 0)
        assert zero_form.d().d().is_zero


def test_coframe_express_identity_and_recovery():
    dx, dy = B("x"), B("y")
    ch2 = Chart(coords=("x", "y"))
    cf = Coframe(ch2, [DifferentialForm.basis(ch2, "x"),
                       DifferentialForm.basis(ch2, "y")])
    comps = cf.express(DifferentialForm.basis(ch2, "x").wedge(
        DifferentialForm.basis(ch2, "y")))
    assert comps == {(0, 1): Expression.const(ch2, 1)}


def test_coframe_recovery_roundtrip_random():
    rng = seeded(405)
    for _ in range(10):
        # random invertible coframe: identity plus a strict upper triangle
        forms = []
        names = CH.basis_names()
        for i, n in enumerate(names):
            comps = {n: Expression.const(CH, 1)}
            for m in names[i + 1:]:
                comps[m] = random_expression(CH, rng, depth=1)
            forms.append(DifferentialForm.one_form(CH, comps))
        cf = Coframe(CH, forms)
        one = Expression.const(CH, 1)
        for k in (1, 2, 3):
            idx = tuple(sorted(rng.sample(range(len(names)), k)))
            target = wedge(*(forms[i] for i in idx))
            assert cf.express(target) == {idx: one}


def test_dual_frame_of_coordinate_differentials():
    cf = Coframe(CH, [B("x"), B("y"), B("p")])
    Xs = cf.dual_frame()
    assert [X(E("x")) for X in Xs] == [1, 0, 0]
    assert [X(E("y")) for X in Xs] == [0, 1, 0]
    assert Xs[2](E("p^2")) == E("2*p")


def test_dual_frame_pairing_is_identity():
    rng = seeded(406)
    for _ in range(8):
        forms = []
        names = CH.basis_names()
        for i, n in enumerate(names):
            comps = {n: Expression.const(CH, rng.choice((1, 2, -1)))}
            for m in names[:i]:
                comps[m] = random_expression(CH, rng, depth=1)
            forms.append(DifferentialForm.one_form(CH, comps))
        cf = Coframe(CH, forms)
        Xs = cf.dual_frame()
        for i, X in enumerate(Xs):
            for j, w in enumerate(forms):
                assert X.pair(w) == (1 if i == j else 0)


def test_singular_coframe_rejected():
    dx, dy = B("x"), B("y")
    with pytest.raises(SingularCoframe):
        Coframe(CH, [dx, dx + dx, B("p")])


def test_vector_field_directional_derivative():
    X = VectorField(CH, {"x": Expression.const(CH, 1),
                         "y": E("p")})
    assert X(E("x*y")) == E("y + x*p")
    assert X(E("f")) == E("f_x + p*f_y")


def test_vector_field_rejects_a_negative_index():
    # -1 would otherwise differentiate along the last direction
    with pytest.raises(UnknownName):
        VectorField(ode2_chart(), {-1: 1})


def test_vector_field_rejects_an_index_past_the_basis_when_built():
    with pytest.raises(UnknownName):
        VectorField(ode2_chart(), {7: 1})
    with pytest.raises(UnknownName):
        VectorField(CH, {"f": 1})


def test_form_rejects_a_negative_index():
    # -1 would otherwise render as dp and express as the last direction
    one = Expression.const(ode2_chart(), 1)
    with pytest.raises(UnknownName):
        DifferentialForm(ode2_chart(), 1, {(-1,): one})
    with pytest.raises(UnknownName):
        DifferentialForm(ode2_chart(), 2, {(-1, 0): one})


def test_form_rejects_an_index_past_the_basis_when_built():
    # (7,) used to pass here and fail later in Coframe.express
    one = Expression.const(ode2_chart(), 1)
    with pytest.raises(UnknownName):
        DifferentialForm(ode2_chart(), 1, {(7,): one})
    with pytest.raises(UnknownName):
        DifferentialForm(ode2_chart(), 2, {(1, 3): one})
    # the last direction itself is a basis index
    assert not DifferentialForm(ode2_chart(), 2, {(1, 2): one}).is_zero


def test_vector_field_rejects_a_coefficient_from_another_chart():
    with pytest.raises(ChartMismatch):
        VectorField(ode2_chart(), {"x": Expression.var(CH, "p")})
