"""Exterior algebra: wedge, d, coframe expression, dual frames."""

from functools import cache
from itertools import combinations, permutations

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

from cartaneq.pfaffian import contact_system, prolong

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


@cache
def _theta(cf, idx):
    """theta^{i1} ^ ... ^ theta^{ik} in coordinates, by minors: its dz^K
    component is the Leibniz determinant of the coframe's rows idx and
    columns K (1 for k = 0), with no wedge involved."""
    ch = cf.chart
    comps = {}
    for K in combinations(range(ch.dim), len(idx)):
        det = Expression.const(ch, 0)
        for perm in permutations(range(len(idx))):
            term = Expression.const(ch, 1)
            for row, col in zip(idx, perm):
                term = term * cf.forms[row].coefficient((K[col],))
            flips = sum(a > b for a, b in combinations(perm, 2))
            det = det - term if flips % 2 else det + term
        comps[K] = det
    return DifferentialForm(ch, len(idx), comps)


def _dense_coframe(rng):
    """A coframe on (x, y, p; a) with every entry nonzero, a quarter of
    them not constant."""
    ch = Chart(coords=("x", "y", "p"), params=("a",))
    names = ch.basis_names()
    while True:
        forms = [
            DifferentialForm.one_form(ch, {
                n: Expression.const(ch, rng.choice((-3, -2, -1, 1, 2, 3)))
                + (rng.random() < 0.25) * Expression.var(ch, rng.choice(names))
                for n in names
            })
            for _ in names
        ]
        try:
            return Coframe(ch, forms)
        except SingularCoframe:
            continue


def _nonzero(chart, rng):
    while True:
        e = random_expression(chart, rng, depth=1)
        if not e.is_zero:
            return e


@pytest.mark.parametrize("which", ["dense", "prolonged-contact"])
def test_express_matches_a_reconstruction_from_the_coframe(which):
    # each draw: a sum of coframe wedges, whose coordinate components are
    # dense but whose expression holds only the drawn tuples (every other
    # one cancels), plus a few coordinate monomials dz^K
    rng = seeded(407 if which == "dense" else 408)
    if which == "dense":
        cf = _dense_coframe(rng)
    else:
        cf = prolong(contact_system(2, 1, 1)).coframe
    ch, dim = cf.chart, cf.chart.dim
    for _ in range(6):
        for k in range(min(dim, 4) + 1):
            tuples = list(combinations(range(dim), k))
            wanted = {J: _nonzero(ch, rng)
                      for J in rng.sample(tuples, min(len(tuples), 3))}
            form = DifferentialForm.zero(ch, k)
            for J, c in wanted.items():
                form = form + _theta(cf, J) * c
            assert cf.express(form) == wanted
            noise = DifferentialForm(ch, k, {
                K: _nonzero(ch, rng)
                for K in rng.sample(tuples, min(len(tuples), 2))
            })
            got = cf.express(form + noise)
            assert all(not c.is_zero for c in got.values())
            back = DifferentialForm.zero(ch, k)
            for J, c in got.items():
                back = back + _theta(cf, J) * c
            assert back == form + noise


def test_a_non_form_operand_is_refused():
    dx, dp = B("x"), B("p")
    cf = Coframe(CH, [dx, B("y"), dp])
    for bad in (3, None, E("x")):
        with pytest.raises(TypeError):
            dx.wedge(bad)
        with pytest.raises(TypeError):
            dx + bad
        with pytest.raises(TypeError):
            Coframe(CH, [dx, bad, dp])
        with pytest.raises(TypeError):
            cf.express(bad)
        with pytest.raises(TypeError):
            cf.dual_frame()[0].pair(bad)


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


def test_vector_field_refuses_a_direction_given_twice():
    # else the later entry would replace the earlier one unseen
    with pytest.raises(ValueError):
        VectorField(ode2_chart(), {0: 1, "x": 2})
    with pytest.raises(ValueError):
        VectorField(ode2_chart(), {"y": 0, 1: 3})


def test_a_one_component_field_adds_nothing(monkeypatch):
    # applied and paired, its one term is the answer, not 0 plus it
    adds = []
    real = Expression.__add__

    def spy(self, other):
        adds.append(other)
        return real(self, other)

    X = VectorField(CH, {"y": E("p")})
    form = E("x") * B("y") + B("x")
    monkeypatch.setattr(Expression, "__add__", spy)
    got = X(E("x*y")), X.pair(form), X(E("x"))
    monkeypatch.undo()
    assert adds == []
    assert got == (E("x*p"), E("x*p"), E("0"))


def test_vector_field_rejects_a_coefficient_from_another_chart():
    with pytest.raises(ChartMismatch):
        VectorField(ode2_chart(), {"x": Expression.var(CH, "p")})


def test_a_form_refuses_bad_components_degrees_and_scalars():
    # d would otherwise differentiate the component along this chart's keys
    xy = Chart(coords=("x", "y"))
    with pytest.raises(ChartMismatch):
        DifferentialForm(xy, 1, {(0,): Expression.var(Chart(coords=("y", "x")), "x")})
    with pytest.raises(TypeError):
        DifferentialForm(xy, 1, {(0,): 3})
    with pytest.raises(ValueError):
        DifferentialForm(xy, -1)
    for bad in (0.1, "1/2"):
        with pytest.raises(TypeError):
            B("x") * bad
        with pytest.raises(TypeError):
            DifferentialForm.one_form(CH, {"x": bad})
        with pytest.raises(TypeError):
            VectorField(CH, {"x": bad})


def test_d_adds_nothing_onto_a_fresh_component(monkeypatch):
    # d(y dx + p dy) = -dx^dy - dy^dp: each component lands on its own key
    adds = []
    real = Expression.__add__

    def spy(self, other):
        adds.append(other)
        return real(self, other)

    form = E("y") * B("x") + E("p") * B("y")
    monkeypatch.setattr(Expression, "__add__", spy)
    got = form.d()
    monkeypatch.undo()
    assert adds == []
    assert got.comps == {(0, 1): E("-1"), (1, 2): E("-1")}


def test_components_that_cancel_are_absent():
    w = E("y") * B("x") + E("p") * B("y")
    assert (w + (-w)).comps == {}
    assert (E("y") * B("x") + E("x") * B("y")).d().comps == {}
    assert w.wedge(w).comps == {}
    # dy = theta1 - theta2 and dp = theta2, so theta0^theta2 cancels
    cf = Coframe(CH, [B("x"), B("y") + B("p"), B("p")])
    form = B("x").wedge(B("y")) + B("x").wedge(B("p"))
    assert cf.express(form) == {(0, 1): E("1")}
