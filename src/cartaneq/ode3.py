"""Prolongation of a contact transformation to third order jets.

For x -> xi(x, y, p), y -> eta(x, y, p) the images of p = y', q = y'' and
r = y''' follow from repeated total differentiation:

    pbar = D eta / D xi,  qbar = D pbar / D xi,  rbar = D qbar / D xi,

with D the total derivative along solutions of y''' = f(x, y, p, q).  With
fully opaque xi and eta the numerator of rbar expands to hundreds of
monomials, which is the expression-swell regression this module pins.
"""

from __future__ import annotations

from functools import lru_cache

from .chart import Chart
from .errors import ArgumentEscape, DomainError, VanishingJacobian
from .expr import Expression, require_chart
from .forms import VectorField


def ode3_chart() -> Chart:
    return Chart(
        coords=("x", "y", "p", "q"),
        functions=[
            ("xi", ("x", "y", "p")),
            ("eta", ("x", "y", "p")),
            ("f", ("x", "y", "p", "q")),
        ],
    )


class ProlongationResult:
    """The prolonged jet coordinates and their canonical sizes."""

    def __init__(self, pbar, qbar, rbar):
        self.pbar = pbar
        self.qbar = qbar
        self.rbar = rbar

    @property
    def monomials(self):
        """Numerator term counts of (pbar, qbar, rbar)."""
        return (len(self.pbar.num), len(self.qbar.num), len(self.rbar.num))


def _total_derivation(ch: Chart) -> VectorField:
    """D = d/dx + p d/dy + q d/dp + f d/dq along solutions of y''' = f."""
    return VectorField(ch, {
        "x": 1,
        "y": Expression.var(ch, "p"),
        "p": Expression.var(ch, "q"),
        "q": Expression.var(ch, "f"),
    })


def _prolong(ch: Chart, xi: Expression, eta: Expression) -> ProlongationResult:
    """pbar, qbar, rbar of x -> xi, y -> eta on the ode3 chart ``ch``."""
    D = _total_derivation(ch)
    # Work with polynomial numerators over explicit powers of B = D(xi):
    # pbar = A1/B, qbar = A2/B^3, rbar = A3/B^5 with
    #   A2 = D(A1) B - A1 D(B),  A3 = D(A2) B - 3 A2 D(B).
    # Quotient-rule reductions on the swollen intermediates are far more
    # expensive than the three final divisions.
    B = D(xi)
    if B.is_zero:
        raise VanishingJacobian("D(xi) vanishes identically")
    dB = D(B)
    A1 = D(eta)
    A2 = D(A1) * B - A1 * dB
    A3 = D(A2) * B - 3 * A2 * dB
    return ProlongationResult(A1 / B, A2 / B ** 3, A3 / B ** 5)


@lru_cache(maxsize=1)
def _symbolic_prolongation() -> ProlongationResult:
    ch = ode3_chart()
    return _prolong(ch, Expression.var(ch, "xi"), Expression.var(ch, "eta"))


def contact_prolongation_ode3(xi: Expression | None = None,
                              eta: Expression | None = None) -> ProlongationResult:
    """Prolong x -> xi, y -> eta to third order jets.

    With no input, xi and eta are the opaque functions of the chart: that
    result is computed once, cached, and kept as the expression-swell
    regression.  Concrete xi and eta must live on the (x, y, p, q) chart
    and depend on x, y, p only (else ArgumentEscape); they are prolonged
    directly, never substituted into the opaque result.  The third order
    right-hand side f stays opaque either way.

    The contact condition eta_p = pbar xi_p is not checked: for
    xi = x + 2 x^3, eta = y - 3 x y + p^2 it fails, and pbar depends on q.
    """
    if xi is None and eta is None:
        return _symbolic_prolongation()
    if xi is None or eta is None:
        raise DomainError("give both xi and eta, or neither")
    ch = ode3_chart()
    allowed = {ch.key_of(v) for v in ("x", "y", "p")}
    for name, e in (("xi", xi), ("eta", eta)):
        require_chart(e, ch, name)
        if not e.variables() <= allowed:
            raise ArgumentEscape(f"{name} may depend only on x, y and p")
    return _prolong(ch, xi, eta)
