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
from .errors import DomainError, VanishingJacobian
from .expr import Expression, Substitution, require_chart
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


@lru_cache(maxsize=1)
def _symbolic_prolongation() -> ProlongationResult:
    ch = ode3_chart()
    D = _total_derivation(ch)
    xi = Expression.var(ch, "xi")
    eta = Expression.var(ch, "eta")
    # Work with polynomial numerators over explicit powers of B = D(xi):
    # pbar = A1/B, qbar = A2/B^3, rbar = A3/B^5 with
    #   A2 = D(A1) B - A1 D(B),  A3 = D(A2) B - 3 A2 D(B).
    # Quotient-rule reductions on the swollen intermediates are far more
    # expensive than the three final divisions.
    B = D(xi)
    dB = D(B)
    A1 = D(eta)
    A2 = D(A1) * B - A1 * dB
    A3 = D(A2) * B - 3 * A2 * dB
    return ProlongationResult(A1 / B, A2 / B ** 3, A3 / B ** 5)


def contact_prolongation_ode3(xi: Expression | None = None,
                              eta: Expression | None = None) -> ProlongationResult:
    """Prolong a contact transformation; fully opaque when no input given.

    Concrete xi and eta must live on the (x, y, p, q) chart and depend on
    x, y, p only; the third order right-hand side f stays opaque either
    way.
    """
    sym = _symbolic_prolongation()
    if xi is None and eta is None:
        return sym
    if xi is None or eta is None:
        raise DomainError("give both xi and eta, or neither")
    ch = ode3_chart()
    xi = require_chart(xi, ch, "xi")
    eta = require_chart(eta, ch, "eta")

    sub_xi = Substitution(ch, "xi", xi)
    sub_eta = Substitution(ch, "eta", eta)

    def subst(e: Expression) -> Expression:
        return sub_eta(sub_xi(e))

    # the denominators are powers of D(xi); reject singular transformations
    D = _total_derivation(ch)
    if D(subst(Expression.var(ch, "xi"))).is_zero:
        raise VanishingJacobian("D(xi) vanishes identically")
    return ProlongationResult(
        subst(sym.pbar), subst(sym.qbar), subst(sym.rbar)
    )
