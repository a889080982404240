"""Flatness tests for ODE systems and a class of PDE systems.

Both tests evaluate closed-form obstruction lists; an input is equivalent
to the flat model exactly when every residual vanishes identically.  Each
right-hand side has one ``Partials`` table, and every partial a residual
needs, total derivatives included, is read off it.
"""

from __future__ import annotations

from .chart import Chart
from .expr import Expression, Partials, require_chart
from .ode2 import FlatnessReport


def odesys_chart() -> Chart:
    """Chart for x_i'' = F_i(t, x, x'): velocities are named dx1, dx2."""
    return Chart(coords=("t", "x1", "x2", "dx1", "dx2"))


def pdesys_chart() -> Chart:
    """Chart for the second order PDE system in one unknown u(x1, x2)."""
    return Chart(coords=("x1", "x2", "u", "u1", "u2"))


def check_flat_ode_system(F1: Expression, F2: Expression) -> FlatnessReport:
    """The eight obstructions for x'' = F(t, x, x') to linearize to x'' = 0.

    The first five require the right-hand sides to be at most cubic in the
    velocities with matched cubic coefficients; the last three are the
    closure conditions coupling velocity and position derivatives.
    """
    ch = odesys_chart()
    F1 = require_chart(F1, ch, "F1")
    F2 = require_chart(F2, ch, "F2")
    # one table of the partials along t, x1, x2, dx1, dx2 (0 to 4) per F_i
    along = dict(enumerate(ch.coords))
    P, Q = Partials(F1, along), Partials(F2, along)
    P1, P2, Q1, Q2 = P[3,], P[4,], Q[3,], Q[4,]
    dx1, dx2 = Expression.var(ch, "dx1"), Expression.var(ch, "dx2")

    def Dt(R, i):
        """The total derivative of R[i]: d/dt + dx_j d/dx_j + F_j d/ddx_j."""
        return (R[0, i] + dx1 * R[1, i] + dx2 * R[2, i]
                + F1 * R[3, i] + F2 * R[i, 4])

    r1 = Q[3, 3, 3]
    r2 = P[4, 4, 4]
    r3 = Q[4, 4, 4] - 3 * P[3, 4, 4]
    r4 = P[3, 3, 3] - 3 * Q[3, 3, 4]
    r5 = P[3, 3, 4] - Q[3, 4, 4]
    r6 = 2 * Dt(P, 4) - P2 * P1 - Q2 * P2 - 4 * P[2,]
    r7 = (
        -(Q2 ** 2)
        - 2 * Dt(P, 3)
        - 4 * Q[2,]
        + 4 * P[1,]
        + 2 * Dt(Q, 4)
        + P1 ** 2
    )
    r8 = -2 * Dt(Q, 3) + Q2 * Q1 + 4 * Q[1,] + P1 * Q1
    return FlatnessReport("odesys", [r1, r2, r3, r4, r5, r6, r7, r8])


def check_flat_pde_system(f11: Expression, f12: Expression,
                          f22: Expression) -> FlatnessReport:
    """Obstructions for u_ij = f_ij(x, u, u') to flatten to u_ij = 0."""
    ch = pdesys_chart()
    along = {1: "u1", 2: "u2"}
    f11 = Partials(require_chart(f11, ch, "f11"), along)
    f12 = Partials(require_chart(f12, ch, "f12"), along)
    f22 = Partials(require_chart(f22, ch, "f22"), along)

    r1 = f11[2, 2]
    r2 = f22[1, 1]
    r3 = f12[2, 2] - f11[1, 2]
    r4 = f12[1, 1] - f22[1, 2]
    r5 = f11[1, 1] - 4 * f12[1, 2] + f22[2, 2]
    return FlatnessReport("pdesys", [r1, r2, r3, r4, r5])
