"""The second order ODE problem: golden coframe, syzygies, flatness,
and the transformation to y'' = 6y^2 + x."""

from fractions import Fraction

import pytest

from cartaneq import (
    Chart,
    ChartMismatch,
    DifferentialForm,
    DomainError,
    Expression,
    NotEquivalent,
    NotInClass,
    VanishingJacobian,
    VectorField,
    check_flat_ode2,
    check_flat_ode_system,
    check_flat_pde_system,
    ode2_chart,
    odesys_chart,
    painleve_map,
    pdesys_chart,
    pullback_ode2,
    realize_syzygy,
    run_equivalence_ode2,
    syzygies_ode2,
)
from cartaneq.expr import Substitution
from cartaneq.parser import parse_expression, render_text
from cartaneq.pfaffian import absorb_torsion, distinct_up_to_sign

from conftest import seeded
from oracles import painleve_map_via_report

BASE = ode2_chart()


def E(text, chart=BASE):
    return parse_expression(text, chart)


def _Dx(ch):
    return VectorField(ch, {
        "x": 1,
        "y": Expression.var(ch, "p"),
        "p": Expression.var(ch, "f"),
    })


def test_symbolic_invariants_match_the_closed_formulas():
    rep = run_equivalence_ode2()
    ch = rep.chart
    D = _Dx(ch)
    fp = Expression.var(ch, "f_p")
    fy = Expression.var(ch, "f_y")
    fpp = Expression.var(ch, "f_pp")
    fyp = Expression.var(ch, "f_yp")
    a3 = Expression.var(ch, "a3")
    quarter = Expression.const(ch, Fraction(1, 4))
    half = Expression.const(ch, Fraction(1, 2))
    assert rep.I1 == -quarter * fp ** 2 - fy + half * D(fp)
    assert rep.I2 == Expression.var(ch, "f_ppp") / (2 * a3 ** 2)
    assert rep.I3 == (fyp - D(fpp)) / (2 * a3)


def test_symbolic_theta_forms():
    rep = run_equivalence_ode2()
    ch = rep.chart
    v = lambda n: Expression.var(ch, n)
    B = lambda n: DifferentialForm.basis(ch, n)
    half = Expression.const(ch, Fraction(1, 2))
    om1 = B("p") - v("f") * B("x")
    om2 = B("y") - v("p") * B("x")
    assert rep.theta[0] == v("a3") * om1 - half * v("f_p") * v("a3") * om2
    assert rep.theta[1] == v("a3") * om2
    assert rep.theta[2] == B("x")
    th4 = (half * (v("f_p") - v("p") * v("f_pp"))) * B("x") \
        + (half * v("f_pp")) * B("y") + (1 / v("a3")) * B("a3")
    assert rep.theta[3] == th4


def test_symbolic_frame():
    rep = run_equivalence_ode2()
    ch = rep.chart
    v = lambda n: Expression.var(ch, n)
    half = Expression.const(ch, Fraction(1, 2))
    X1, X2, X3, X4 = rep.frame
    idx = lambda n: ch.basis_index(ch.key_of(n))
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


def test_symbolic_structure_equations_text():
    rep = run_equivalence_ode2()
    assert rep.structure_lines(render_text) == [
        "d(theta1) = (-1)*theta1^theta4"
        " + ((2*p*f_yp + 2*f*f_pp - f_p^2 - 4*f_y + 2*f_xp)/4)*theta2^theta3",
        "d(theta2) = (-1)*theta1^theta3 + (-1)*theta2^theta4",
        "d(theta3) = 0",
        "d(theta4) = (f_ppp/(2*a3^2))*theta1^theta2"
        " + ((-p*f_ypp - f*f_ppp + f_yp - f_xpp)/(2*a3))*theta2^theta3",
    ]


def test_frame_is_dual_to_theta():
    rep = run_equivalence_ode2()
    for i, X in enumerate(rep.frame):
        for j, th in enumerate(rep.theta):
            assert X.pair(th) == (1 if i == j else 0)


def test_essential_torsion_of_the_final_coframe():
    rep = run_equivalence_ode2()
    got = {render_text(e) for e in rep.essential}
    assert got == {
        "1",
        "(2*p*f_yp + 2*f*f_pp - f_p^2 - 4*f_y + 2*f_xp)/4",
        "f_ppp/(2*a3^2)",
        "(p*f_ypp + f*f_ppp - f_yp + f_xpp)/(2*a3)",
    }
    assert rep.involution.involutive


def test_concrete_invariants():
    rep0 = run_equivalence_ode2(E("0"))
    assert rep0.invariants == (0, 0, 0)
    rep = run_equivalence_ode2(E("6*y^2 + x"))
    assert rep.I1 == E("-12*y", rep.chart)
    assert rep.I2 == 0 and rep.I3 == 0
    # essential torsion components come out sign-normalized
    assert rep.essential == [Expression.const(rep.chart, 1),
                             E("12*y", rep.chart)]


def test_concrete_rhs_must_live_downstairs():
    other = Chart(coords=("x", "y", "z"))
    for call in (check_flat_ode2, run_equivalence_ode2, painleve_map):
        with pytest.raises(DomainError):
            call(parse_expression("z", other))
        with pytest.raises(TypeError):
            call("x")
    # a bundle-chart value without a3 or f projects down for check_flat
    bundle = run_equivalence_ode2().chart
    assert check_flat_ode2(E("6*y^2 + x", bundle)).residuals[1] == E("-24*y")


# the right-hand sides of the golden hash corpus, then a rational one
ORACLE_RHS = [
    "6*y^2 + x",
    "p^3/(x + y) + y*p^2",
    "p^3 + x*y",
    "0",
    "6*y^2 + x + 5",
    "p^3",
    "(6*y^4 + 12*y^2 - 2*p^2 + x + 8)/(2*y)",
    "(x*y + p^2)/(y + 1) + p^4",
]


def test_concrete_report_equals_the_substituted_symbolic_one():
    sym = run_equivalence_ode2()
    ch = sym.chart
    # the absorption of the final coframe, an independent route to the
    # essential torsion
    sym_essential = absorb_torsion(sym.structure).essential
    for text in ORACLE_RHS:
        se = Substitution(ch, "f", E(text).rebase(ch))
        rep = run_equivalence_ode2(E(text))
        assert rep.invariants == tuple(se(i) for i in sym.invariants), text
        assert rep.structure.T == {
            k: se(c) for k, c in sym.structure.T.items()
        }, text
        assert rep.essential == distinct_up_to_sign(
            se(e) for e in sym_essential
        ), text
        assert rep.involution.characters == sym.involution.characters


def test_syzygies_symbolic():
    rep = syzygies_ode2()
    assert [render_text(r) for r in rep.relations] == [
        "I3 + X1I1",
        "X4I1",
        "X3I2 + X1I3",
        "2*I2 + X4I2",
        "I3 + X4I3",
    ]


def test_syzygies_realize_to_zero():
    rel = syzygies_ode2()
    for f in (None, E("6*y^2 + x"), E("p^3 + x*y")):
        rep = run_equivalence_ode2(f)
        for r in rel.relations:
            assert realize_syzygy(r, rep).is_zero


def test_realize_syzygy_rejects_coframe_directions():
    rel = syzygies_ode2().relations[0]
    q1 = Expression.var(rel.chart, "q1")
    rep = run_equivalence_ode2(E("6*y^2 + x"))
    with pytest.raises(DomainError):
        realize_syzygy(rel + q1, rep)


def test_syzygies_of_the_flat_equation_are_trivial():
    assert syzygies_ode2(E("0")).relations == []


def test_flatness_examples():
    assert check_flat_ode2(E("0")).flat
    assert check_flat_ode2(E("-p^2/y")).flat
    rep = check_flat_ode2(E("6*y^2 + x"))
    assert not rep.flat
    assert [render_text(r) for r in rep.residuals] == ["0", "-24*y"]
    assert rep.failing() == [2]
    rep = check_flat_ode2(E("p^3"))
    assert rep.residuals[0] == 6
    assert 1 in rep.failing()


def test_flat_residual_is_twice_the_first_invariant():
    rng = seeded(701)
    for f_text in ("6*y^2 + x", "p^3 + y", "x*y*p - 2"):
        f = E(f_text)
        rep = run_equivalence_ode2(f)
        flat = check_flat_ode2(f)
        i1 = rep.I1.project(BASE)
        assert flat.residuals[1] == 2 * i1


def _recorded_partials(monkeypatch):
    """Every (expression, key) differentiated from now on, in call order."""
    calls = []
    raw = Expression.partial

    def partial(self, key):
        calls.append((self, key))
        return raw(self, key)

    monkeypatch.setattr(Expression, "partial", partial)
    return calls


def test_each_partial_of_the_rhs_is_taken_once(monkeypatch):
    run_equivalence_ode2()  # the symbolic report is built once and cached
    f = E("(x*y + p^2)/(y + 1) + p^4")
    calls = _recorded_partials(monkeypatch)
    rep = run_equivalence_ode2(f)
    rep.theta, rep.frame
    assert len(calls) >= 3 and len(set(calls)) == len(calls)
    calls.clear()
    check_flat_ode2(f)
    assert len(set(calls)) == len(calls)


def test_each_partial_of_a_system_rhs_is_taken_once(monkeypatch):
    ode, pde = odesys_chart(), pdesys_chart()
    F1 = parse_expression("(x1*dx2^2 + t*dx1^2)/(x2 + dx1 + dx2 + 1)", ode)
    F2 = parse_expression("(x2*dx1^2 + dx2^2)/(t + x1 + dx1*dx2)", ode)
    f = [parse_expression(text, pde) for text in (
        "(u1*u2 + x1)/(u + u2 + 1)", "(u1^2 + x2)/(u1 + u2 + 2)",
        "u2^3/(x1 + u1 + 3)",
    )]
    calls = _recorded_partials(monkeypatch)
    check_flat_ode_system(F1, F2)
    # 9 velocity and 2 position partials of each F_i, and the t, x1 and x2
    # partials of the four first velocity partials
    assert len(calls) == 34 and len(set(calls)) == len(calls)
    calls.clear()
    check_flat_pde_system(*f)
    assert len(calls) == 15 and len(set(calls)) == len(calls)


def test_each_power_of_an_image_is_computed_once(monkeypatch):
    run_equivalence_ode2()
    f = E("(x + y + p + 3)^6")
    calls = []
    raw = Expression.__pow__

    def power(self, n):
        calls.append((self, n))
        return raw(self, n)

    # one Substitution maps the torsion table, then theta and the frame
    monkeypatch.setattr(Expression, "__pow__", power)
    rep = run_equivalence_ode2(f)
    rep.theta, rep.frame
    # by identity: f_x, f_y and f_p are equal here but are different images;
    # ``calls`` keeps every base alive, so no id is reused
    assert calls and len({(id(b), n) for b, n in calls}) == len(calls)


def test_a_concrete_report_maps_each_component_when_first_read(monkeypatch):
    run_equivalence_ode2()
    f = E("6*y^2 + x")
    mapped = []
    raw = Substitution.__call__

    def spy(self, e):
        mapped.append(e)
        return raw(self, e)

    monkeypatch.setattr(Substitution, "__call__", spy)
    rep = run_equivalence_ode2(f)
    # the six torsion entries, three of them constant
    assert len(mapped) == 3
    rep.frame
    assert len(mapped) == 12
    rep.theta
    assert len(mapped) == 21
    rep.frame, rep.theta
    assert len(mapped) == 21
    mapped.clear()
    painleve_map(f)
    # the three invariants and the four frame fields
    assert len(mapped) == 12
    monkeypatch.undo()
    for i, X in enumerate(rep.frame):
        for j, th in enumerate(rep.theta):
            assert X.pair(th) == (1 if i == j else 0)


def test_reading_a_present_entry_builds_no_zero(monkeypatch):
    rep = run_equivalence_ode2()
    made = []
    raw = Expression.const

    def const(chart, value):
        made.append(value)
        return raw(chart, value)

    monkeypatch.setattr(Expression, "const", staticmethod(const))
    I1 = rep.I1
    rep.invariants, rep.structure.torsion_entry(0, 2, 1)
    rep.theta[2].coefficient((0,))
    assert made == []
    rep.structure.torsion_entry(0, 1, 1)
    rep.theta[2].coefficient((1,))
    assert made == [0, 0]
    monkeypatch.undo()
    assert rep.structure.torsion_entry(0, 2, 1) == -I1


def test_painleve_examples():
    eta, C = painleve_map(E("6*y^2 + x"))
    assert eta == E("y") and C == 0
    eta, C = painleve_map(E("6*y^2 + x + 5"))
    assert eta == E("y") and C == 5
    eta, C = painleve_map(E("6*(y+x)^2 + x"))
    assert eta == E("y + x") and C == 0


def test_painleve_rejects_bad_class_and_flat():
    with pytest.raises(NotInClass) as exc:
        painleve_map(E("p^3"))
    assert exc.value.invariant == "I2"
    with pytest.raises(NotEquivalent) as exc:
        painleve_map(E("0"))
    assert exc.value.failures == {"X3": "12"}


def _painleve_outcome(route, f):
    """(eta, C), or the type and payload of the exception raised."""
    try:
        return route(f)
    except (NotInClass, NotEquivalent, VanishingJacobian) as exc:
        return (type(exc), str(exc), getattr(exc, "invariant", None),
                getattr(exc, "value", None), getattr(exc, "failures", None))


def test_painleve_map_matches_the_report_route():
    rng = seeded(703)
    target = E("6*y^2 + x")
    # the golden corpus's Painleve inputs, then inputs in the class that
    # fail the closure or leave the class
    fs = [E(text) for text in (
        "6*y^2 + x", "6*y^2 + x + 5", "p^3",
        "(6*y^4 + 12*y^2 - 2*p^2 + x + 8)/(2*y)",
        "0", "y^2", "x*y", "6*y^2 + 2*x", "2*y^3 + x*y",
    )]
    # Painleve I pulled back along eight seeded rational maps
    x, y = E("x"), E("y")
    q = lambda: rng.choice((-3, -2, -1, 1, 2, 3))
    while len(fs) < 17:
        if len(fs) % 2:
            eta = (q() * y + q() * x + q()) / (q() * y + q() * x + q())
        else:
            eta = (y + q() * x * x) / (q() * x * y + q())
        if eta.partial("y").is_zero:
            continue
        C = Expression.const(BASE, Fraction(q(), rng.randint(1, 3)))
        fs.append(pullback_ode2(eta, C, target))
    kinds = set()
    for f in fs:
        got = _painleve_outcome(painleve_map, f)
        assert got == _painleve_outcome(painleve_map_via_report, f), f
        kinds.add(got[0] if isinstance(got[0], type) else tuple)
    assert kinds == {tuple, NotInClass, NotEquivalent}


def test_pullback_examples():
    z = E("0")
    assert pullback_ode2(E("y"), z, z) == 0
    assert pullback_ode2(E("y^2"), z, z) == E("-p^2/y")
    got = pullback_ode2(E("y"), E("5"), E("6*y^2 + x"))
    assert got == E("6*y^2 + x + 5")


def test_pullback_validates_inputs():
    z = E("0")
    with pytest.raises(DomainError):
        pullback_ode2(E("p"), z, z)
    with pytest.raises(DomainError):
        pullback_ode2(E("y"), E("x"), z)
    with pytest.raises(VanishingJacobian):
        pullback_ode2(E("x"), z, z)
    other = Chart(coords=("x", "y", "q"))
    with pytest.raises(ChartMismatch):
        pullback_ode2(parse_expression("y", other), z, z)


def test_painleve_round_trip():
    rng = seeded(702)
    target = E("6*y^2 + x")
    eta0 = E("y^2 + x*y + 1")
    C0 = Expression.const(BASE, Fraction(7, 3))
    f = pullback_ode2(eta0, C0, target)
    eta, C = painleve_map(f)
    assert eta == eta0 and C == C0
