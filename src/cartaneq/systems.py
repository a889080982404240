"""Flatness tests for ODE systems and a class of PDE systems.

Both tests evaluate closed-form obstruction lists; an input is equivalent
to the flat model exactly when every residual vanishes identically.
"""

from __future__ import annotations

from .chart import Chart
from .expr import Expression, require_chart
from .forms import VectorField
from .ode2 import FlatnessReport


def odesys_chart() -> Chart:
    """Chart for x_i'' = F_i(t, x, x'): velocities are named dx1, dx2."""
    return Chart(coords=("t", "x1", "x2", "dx1", "dx2"))


def pdesys_chart() -> Chart:
    """Chart for the second order PDE system in one unknown u(x1, x2)."""
    return Chart(coords=("x1", "x2", "u", "u1", "u2"))


def d(e: Expression, *names: str) -> Expression:
    """Iterated partial derivative of e along ``names``, in order."""
    for n in names:
        e = e.partial(n)
    return e


def check_flat_ode_system(F1: Expression, F2: Expression) -> FlatnessReport:
    """The eight obstructions for x'' = F(t, x, x') to linearize to x'' = 0.

    The first five require the right-hand sides to be at most cubic in the
    velocities with matched cubic coefficients; the last three are the
    closure conditions coupling velocity and position derivatives.
    """
    ch = odesys_chart()
    F1 = require_chart(F1, ch, "F1")
    F2 = require_chart(F2, ch, "F2")
    Dt = VectorField(ch, {
        "t": 1,
        "x1": Expression.var(ch, "dx1"),
        "x2": Expression.var(ch, "dx2"),
        "dx1": F1,
        "dx2": F2,
    })

    r1 = d(F2, "dx1", "dx1", "dx1")
    r2 = d(F1, "dx2", "dx2", "dx2")
    r3 = d(F2, "dx2", "dx2", "dx2") - 3 * d(F1, "dx1", "dx2", "dx2")
    r4 = d(F1, "dx1", "dx1", "dx1") - 3 * d(F2, "dx1", "dx1", "dx2")
    r5 = d(F1, "dx1", "dx1", "dx2") - d(F2, "dx1", "dx2", "dx2")
    r6 = (
        2 * Dt(d(F1, "dx2"))
        - d(F1, "dx2") * d(F1, "dx1")
        - d(F2, "dx2") * d(F1, "dx2")
        - 4 * d(F1, "x2")
    )
    r7 = (
        -(d(F2, "dx2") ** 2)
        - 2 * Dt(d(F1, "dx1"))
        - 4 * d(F2, "x2")
        + 4 * d(F1, "x1")
        + 2 * Dt(d(F2, "dx2"))
        + d(F1, "dx1") ** 2
    )
    r8 = (
        -2 * Dt(d(F2, "dx1"))
        + d(F2, "dx2") * d(F2, "dx1")
        + 4 * d(F2, "x1")
        + d(F1, "dx1") * d(F2, "dx1")
    )
    return FlatnessReport("odesys", [r1, r2, r3, r4, r5, r6, r7, r8])


def check_flat_pde_system(f11: Expression, f12: Expression,
                          f22: Expression) -> FlatnessReport:
    """Obstructions for u_ij = f_ij(x, u, u') to flatten to u_ij = 0."""
    ch = pdesys_chart()
    f11 = require_chart(f11, ch, "f11")
    f12 = require_chart(f12, ch, "f12")
    f22 = require_chart(f22, ch, "f22")

    r1 = d(f11, "u2", "u2")
    r2 = d(f22, "u1", "u1")
    r3 = d(f12, "u2", "u2") - d(f11, "u1", "u2")
    r4 = d(f12, "u1", "u1") - d(f22, "u1", "u2")
    r5 = d(f11, "u1", "u1") - 4 * d(f12, "u1", "u2") + d(f22, "u2", "u2")
    return FlatnessReport("pdesys", [r1, r2, r3, r4, r5])
