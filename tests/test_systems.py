"""Flatness of pairs of second order ODEs and of elliptic PDE pairs."""

from itertools import product

import pytest

from cartaneq import (
    Chart,
    ChartMismatch,
    Expression,
    check_flat_ode_system,
    check_flat_pde_system,
    odesys_chart,
    pdesys_chart,
)
from cartaneq.parser import parse_expression, render_text

from conftest import seeded
from oracles import flat_system_under_point_map

ODE = odesys_chart()
PDE = pdesys_chart()


def E(text):
    return parse_expression(text, ODE)


def P(text):
    return parse_expression(text, PDE)


def d(e, *names):
    """Iterated partial derivative of e along ``names``, in order."""
    for n in names:
        e = e.partial(n)
    return e


def test_flat_system_passes_all_eight_conditions():
    rep = check_flat_ode_system(E("0"), E("0"))
    assert rep.problem == "odesys"
    assert rep.flat and len(rep.residuals) == 8


def test_cubic_velocity_perturbation_fails():
    rep = check_flat_ode_system(E("dx2^3"), E("0"))
    assert not rep.flat
    assert rep.failing() == [2]
    assert rep.residuals[1] == 6


def test_point_transformed_flat_systems_stay_flat():
    F1, F2 = flat_system_under_point_map(E("t"), E("x1 + x2^2"), E("x2"))
    assert render_text(F1) == "-2*dx2^2"
    assert F2 == 0
    assert check_flat_ode_system(F1, F2).flat

    F1, F2 = flat_system_under_point_map(
        E("t"), E("2*x1 + x2 + t^2"), E("x1*x2 + t")
    )
    assert check_flat_ode_system(F1, F2).flat


def test_random_point_transforms_stay_flat():
    rng = seeded(801)
    t, x1, x2 = (Expression.var(ODE, n) for n in ("t", "x1", "x2"))
    mats = [(1, 0, 0, 1), (2, 1, 1, 1), (1, -1, 0, 1), (3, 1, 2, 1)]
    for _ in range(5):
        a, b, c, d = mats[rng.randrange(len(mats))]
        q = lambda: rng.randint(-2, 2)
        phi1 = a * x1 + b * x2 + q() * x1 * x1 + q() * t + q()
        phi2 = c * x1 + d * x2 + q() * x2 * x2 + q() * t * t
        F1, F2 = flat_system_under_point_map(t, phi1, phi2)
        assert check_flat_ode_system(F1, F2).flat


def test_general_point_map_images_are_flat():
    # T depends on x, so most images are cubic in the velocities and r1-r5
    # meet coefficients that must cancel; an image is x'' = 0 in disguise,
    # and a term quadratic in the position keeps it from being one (adding
    # x1 would not do: every linear system is flat)
    rng = seeded(802)
    t, x1, x2 = (Expression.var(ODE, n) for n in ("t", "x1", "x2"))
    cubic = 0
    for _ in range(15):
        q = lambda: rng.randint(-2, 2)
        T = (t + rng.choice((1, -1, 2)) * x1 + q() * x2 + q() * t * x2
             + q() * x1 * x1 + q() * x1 * x2)
        X1 = x1 + q() * t * x1 + q() * x2 * x2 + q() * t
        X2 = x2 + q() * x1 * x1 + q() * t * x2 + q()
        F1, F2 = flat_system_under_point_map(T, X1, X2)
        cubic += any(d(F, *vs) for F in (F1, F2)
                     for vs in product(("dx1", "dx2"), repeat=3))
        assert check_flat_ode_system(F1, F2).flat
        assert not check_flat_ode_system(F1 + x1 ** 2, F2).flat
    assert cubic >= 10


def test_system_inputs_must_live_on_the_system_chart():
    other = Chart(coords=("t", "x1", "x2"))
    with pytest.raises(ChartMismatch):
        check_flat_ode_system(parse_expression("x1", other), E("0"))


def test_pde_zero_and_affine_pass():
    assert check_flat_pde_system(P("0"), P("0"), P("0")).flat
    rep = check_flat_pde_system(
        P("u1 + 2*u2 + u"), P("x1*u1 - x2"), P("u2 - u")
    )
    assert rep.problem == "pdesys"
    assert rep.flat and len(rep.residuals) == 5


def test_pde_quadratic_gradient_term_fails():
    rep = check_flat_pde_system(P("u2^2"), P("0"), P("0"))
    assert not rep.flat
    assert rep.residuals[0] == 2
    assert rep.failing() == [1]


def test_pde_mixed_condition():
    # the third condition couples f12 and f11
    rep = check_flat_pde_system(P("0"), P("u2^2"), P("0"))
    assert not rep.flat
    assert rep.failing() == [3]
    assert rep.residuals[2] == 2


# u_ij = 0 under x1 -> x1 + u^2, whose solutions are
# u = a (x1 + u^2) + b x2 + c, and its 1 <-> 2 mirror
PDE_POINT_IMAGES = [
    ("2*u1^3", "2*u1^2*u2", "2*u1*u2^2"),
    ("2*u1^2*u2", "2*u1*u2^2", "2*u2^3"),
]


@pytest.mark.parametrize("f11, f12, f22", PDE_POINT_IMAGES)
def test_pde_point_map_image_is_flat(f11, f12, f22):
    rep = check_flat_pde_system(P(f11), P(f12), P(f22))
    assert rep.flat, rep.residuals


def test_pde_perturbed_point_map_image_is_not_flat():
    # the fourth condition is the mirror of the third: f12 against f22
    rep = check_flat_pde_system(P("2*u1^3"), P("2*u1^2*u2 + u1^2"),
                                P("2*u1*u2^2"))
    assert not rep.flat
    assert rep.failing() == [4]
    assert rep.residuals[3] == 2
