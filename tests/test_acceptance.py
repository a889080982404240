"""Shipping gate: one test per acceptance criterion.

Run with -v to get a single pass/fail line for each criterion.  Timed
criteria clear the relevant caches first so the bound covers a cold run.
"""

import time

from fractions import Fraction

import pytest

from cartaneq import (
    Chart,
    Coframe,
    DifferentialForm,
    DivisionByZero,
    Expression,
    NotEquivalent,
    VectorField,
    absorb_torsion,
    check_flat_ode2,
    check_flat_ode_system,
    check_flat_pde_system,
    contact_prolongation_ode3,
    ode2,
    ode2_chart,
    ode3,
    odesys_chart,
    painleve_map,
    pdesys_chart,
    pullback_ode2,
    realize_syzygy,
    run_equivalence_ode2,
    syzygies_ode2,
)
from cartaneq.parser import parse_expression, render_text

from conftest import point_for, random_expression, seeded
from oracles import (
    check_absorption_against_brute_force,
    flat_system_under_point_map,
    numeric_structure,
)

BASE = ode2_chart()


def E(text, chart=BASE):
    return parse_expression(text, chart)


def _random_eta(rng):
    # degree <= 3 in x, y with a guaranteed linear y term
    x, y = Expression.var(BASE, "x"), Expression.var(BASE, "y")
    eta = rng.choice([1, 2, -1, 3]) * y
    monos = [x, x * x, x * y, y * y, x * x * y, x * y * y, y * y * y,
             x * x * x]
    for m in rng.sample(monos, rng.randint(1, 3)):
        eta = eta + rng.randint(-2, 2) * m
    return eta + rng.randint(-3, 3)


def _random_shift(rng):
    return Expression.const(
        BASE, Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    )


def test_criterion_1_golden_invariant_coframe():
    ode2._symbolic_report.cache_clear()
    t0 = time.monotonic()
    rep = run_equivalence_ode2()
    elapsed = time.monotonic() - t0

    ch = rep.chart
    v = lambda n: Expression.var(ch, n)
    D = VectorField(ch, {"x": 1, "y": v("p"), "p": v("f")})
    half = Expression.const(ch, Fraction(1, 2))
    quarter = Expression.const(ch, Fraction(1, 4))

    assert rep.I1 == -quarter * v("f_p") ** 2 - v("f_y") + half * D(v("f_p"))
    assert rep.I2 == v("f_ppp") / (2 * v("a3") ** 2)
    assert rep.I3 == (v("f_yp") - D(v("f_pp"))) / (2 * v("a3"))

    B = lambda n: DifferentialForm.basis(ch, n)
    om1 = B("p") - v("f") * B("x")
    om2 = B("y") - v("p") * B("x")
    assert rep.theta[0] == v("a3") * om1 - half * v("f_p") * v("a3") * om2
    assert rep.theta[1] == v("a3") * om2
    assert rep.theta[2] == B("x")
    assert rep.theta[3] == (
        (half * (v("f_p") - v("p") * v("f_pp"))) * B("x")
        + (half * v("f_pp")) * B("y") + (1 / v("a3")) * B("a3")
    )

    idx = lambda n: ch.basis_index(ch.key_of(n))
    X1, X2, X3, X4 = rep.frame
    assert X1.comps == {idx("p"): 1 / v("a3")}
    assert X2.comps == {
        idx("y"): 1 / v("a3"),
        idx("p"): v("f_p") / (2 * v("a3")),
        idx("a3"): -half * v("f_pp"),
    }
    assert X3.comps == {
        idx("x"): Expression.const(ch, 1),
        idx("y"): v("p"),
        idx("p"): v("f"),
        idx("a3"): -half * v("a3") * v("f_p"),
    }
    assert X4.comps == {idx("a3"): v("a3")}

    assert rep.structure_lines(render_text) == [
        "d(theta1) = (-1)*theta1^theta4"
        " + ((2*p*f_yp + 2*f*f_pp - f_p^2 - 4*f_y + 2*f_xp)/4)*theta2^theta3",
        "d(theta2) = (-1)*theta1^theta3 + (-1)*theta2^theta4",
        "d(theta3) = 0",
        "d(theta4) = (f_ppp/(2*a3^2))*theta1^theta2"
        " + ((-p*f_ypp - f*f_ppp + f_yp - f_xpp)/(2*a3))*theta2^theta3",
    ]

    assert elapsed < 10.0


def test_criterion_2_syzygy_relations():
    rel = syzygies_ode2()
    got = {render_text(r) for r in rel.relations}
    # X1I1 = -I3; X4I1 = 0; X4I2 = -2I2; X1I3 = -X3I2; X4I3 = -I3
    assert {
        "I3 + X1I1",
        "X4I1",
        "2*I2 + X4I2",
        "X3I2 + X1I3",
        "I3 + X4I3",
    } <= got
    rep = run_equivalence_ode2()
    for r in rel.relations:
        assert realize_syzygy(r, rep).is_zero


def test_criterion_3_invariant_bracket_identities():
    rep = run_equivalence_ode2()
    ch = rep.chart
    v = lambda n: Expression.var(ch, n)
    half = Expression.const(ch, Fraction(1, 2))
    # expanding the total derivative in I1 yields the bracket with a
    # plus sign; the residual of the flat test is exactly 2*I1
    bracket = (
        v("f_xp") + v("f_pp") * v("f") - 2 * v("f_y")
        - half * v("f_p") ** 2 + v("p") * v("f_yp")
    )
    assert 2 * rep.I1 == bracket
    assert 2 * v("a3") ** 2 * rep.I2 == v("f_ppp")


def test_criterion_4_flat_closure_under_pullback():
    t0 = time.monotonic()
    rng = seeded(904)
    zero = Expression.const(BASE, 0)
    p3 = Expression.var(BASE, "p") ** 3
    yp3 = Expression.var(BASE, "y") * p3

    flats = []
    for _ in range(20):
        f = pullback_ode2(_random_eta(rng), _random_shift(rng), zero)
        assert check_flat_ode2(f).flat
        flats.append(f)

    for k in range(10):
        rep = check_flat_ode2(flats[k] + (p3 if k % 2 == 0 else yp3))
        assert not rep.flat
        assert rep.failing()
        for i in rep.failing():
            assert not (rep.residuals[i - 1] == 0)

    assert time.monotonic() - t0 < 60.0


def test_criterion_5_painleve_round_trip():
    rng = seeded(905)
    target = E("6*y^2 + x")
    for _ in range(10):
        eta0 = _random_eta(rng)
        C0 = _random_shift(rng)
        eta, C = painleve_map(pullback_ode2(eta0, C0, target))
        assert eta == eta0
        assert C == C0

    eta, C = painleve_map(target)
    assert eta == E("y") and C == 0

    with pytest.raises(NotEquivalent) as exc:
        painleve_map(E("0"))
    twelve = Expression.const(run_equivalence_ode2().chart, 12)
    assert exc.value.failures == {"X3": twelve}


def test_criterion_6_ode_system_flatness():
    ODE = odesys_chart()
    S = lambda text: parse_expression(text, ODE)
    assert check_flat_ode_system(S("0"), S("0")).flat

    rep = check_flat_ode_system(S("dx2^3"), S("0"))
    assert not rep.flat
    assert rep.failing() == [2]

    rng = seeded(906)
    t, x1, x2 = (Expression.var(ODE, n) for n in ("t", "x1", "x2"))
    mats = [(1, 0, 0, 1), (2, 1, 1, 1), (1, -1, 0, 1), (3, 1, 2, 1),
            (1, 2, 0, 1)]
    for a, b, c, d in mats:
        q = lambda: rng.randint(-2, 2)
        phi1 = a * x1 + b * x2 + q() * x1 * x1 + q() * t + q()
        phi2 = c * x1 + d * x2 + q() * x2 * x2 + q() * t * t
        F1, F2 = flat_system_under_point_map(t, phi1, phi2)
        assert check_flat_ode_system(F1, F2).flat


def test_criterion_7_pde_system_flatness():
    PDE = pdesys_chart()
    S = lambda text: parse_expression(text, PDE)
    assert check_flat_pde_system(S("0"), S("0"), S("0")).flat
    assert check_flat_pde_system(
        S("u1 + 2*u2 + u"), S("x1*u1 - x2"), S("u2 - u")
    ).flat

    rep = check_flat_pde_system(S("u2^2"), S("0"), S("0"))
    assert not rep.flat
    assert rep.residuals[0] == 2

    rng = seeded(907)
    base = [Expression.var(PDE, n) for n in ("x1", "x2", "u")]
    u1, u2 = Expression.var(PDE, "u1"), Expression.var(PDE, "u2")

    def coeff():
        # random polynomial in x1, x2, u only; degree <= 2
        e = Expression.const(PDE, rng.randint(-3, 3))
        for v in rng.sample(base, rng.randint(0, 2)):
            c = rng.randint(-2, 2)
            e = e + (c * v * v if rng.random() < 0.3 else c * v)
        return e

    for _ in range(5):
        fs = [coeff() + coeff() * u1 + coeff() * u2 for _ in range(3)]
        assert check_flat_pde_system(*fs).flat


def test_criterion_8_prolongation_swell_regression():
    ode3._symbolic_prolongation.cache_clear()
    res = contact_prolongation_ode3()
    assert res.monomials[2] >= 100
    # frozen on first run; any change to the arithmetic that moves this
    # count is a behavior change, not noise
    assert res.monomials == (3, 44, 510)


def test_criterion_9_core_property_suites():
    CH = Chart(
        coords=("x", "y", "p"),
        functions=[("f", ("x", "y", "p")), ("g", ("x", "y"))],
    )

    # d^2 = 0 on 1000 random forms
    rng = seeded(909)
    names = CH.basis_names()
    for k in range(1000):
        if k % 4 == 0:
            s = random_expression(CH, rng, depth=2)
            form = DifferentialForm(CH, 0, {(): s}) if not s.is_zero \
                else DifferentialForm.zero(CH, 0)
        else:
            form = DifferentialForm.one_form(
                CH,
                {n: random_expression(CH, rng, depth=2) for n in names},
            )
        assert form.d().d().is_zero

    # dual-frame pairing is the identity
    for _ in range(20):
        forms = []
        for i, n in enumerate(names):
            comps = {n: Expression.const(CH, rng.choice((1, 2, -1)))}
            for m in names[:i]:
                comps[m] = random_expression(CH, rng, depth=1)
            forms.append(DifferentialForm.one_form(CH, comps))
        Xs = Coframe(CH, forms).dual_frame()
        for i, X in enumerate(Xs):
            for j, w in enumerate(forms):
                assert X.pair(w) == (1 if i == j else 0)

    # absorption against a brute-force linear solve, 100 numeric instances
    arng = seeded(910)
    for k in range(100):
        eqs = numeric_structure(
            arng,
            a=arng.randint(1, 3),
            n=arng.randint(1, 3),
            r=arng.randint(1, 3),
        )
        check_absorption_against_brute_force(eqs, absorb_torsion(eqs))

    # canonical idempotence and evaluation soundness
    erng = seeded(911)
    for _ in range(200):
        a = random_expression(CH, erng, depth=3)
        b = random_expression(CH, erng, depth=3)
        assert Expression.make(CH, a.num, a.den) == a
        pt = point_for([a, b], erng)
        try:
            lhs = (a * b + a - b).evaluate(pt)
        except DivisionByZero:
            continue
        assert lhs == a.evaluate(pt) * b.evaluate(pt) + a.evaluate(pt) \
            - b.evaluate(pt)
