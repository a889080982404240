"""Third order contact prolongation and its expression swell."""

import pytest

from cartaneq import (
    ArgumentEscape,
    Chart,
    ChartMismatch,
    DomainError,
    Expression,
    VanishingJacobian,
    contact_prolongation_ode3,
    ode3,
    ode3_chart,
)
from cartaneq.expr import Substitution
from cartaneq.parser import parse_expression, render_text

from conftest import seeded

CH = ode3_chart()

# canonical numerator size of the fully opaque prolongation; regression
# value frozen from the first run
RBAR_MONOMIALS = 510


def E(text):
    return parse_expression(text, CH)


def test_identity_transformation():
    res = contact_prolongation_ode3(E("x"), E("y"))
    assert res.pbar == E("p")
    assert res.qbar == E("q")
    assert res.rbar == E("f")
    assert res.monomials == (1, 1, 1)


def test_shear_transformation():
    res = contact_prolongation_ode3(E("x"), E("y + x^2"))
    assert res.pbar == E("p + 2*x")
    assert res.qbar == E("q + 2")
    assert res.rbar == E("f")


def test_legendre_transformation():
    res = contact_prolongation_ode3(E("p"), E("x*p - y"))
    assert res.pbar == E("x")
    assert res.qbar == E("1/q")
    assert render_text(res.rbar) == "-f/q^3"


def test_opaque_swell_regression():
    res = contact_prolongation_ode3()
    assert res.monomials[0] == 3
    assert res.monomials[1] == 44
    assert res.monomials[2] >= 100
    assert res.monomials[2] == RBAR_MONOMIALS


def test_opaque_result_is_cached_and_deterministic():
    a = contact_prolongation_ode3()
    b = contact_prolongation_ode3()
    assert a is b
    assert render_text(a.pbar) == render_text(b.pbar)


def test_input_validation():
    with pytest.raises(DomainError):
        contact_prolongation_ode3(E("x"), None)
    with pytest.raises(VanishingJacobian):
        contact_prolongation_ode3(E("1"), E("y"))
    with pytest.raises(ArgumentEscape):
        contact_prolongation_ode3(E("q"), E("y"))
    with pytest.raises(ArgumentEscape):
        contact_prolongation_ode3(E("x"), E("y + f"))
    with pytest.raises(ArgumentEscape):
        contact_prolongation_ode3(E("x + xi"), E("y"))
    other = Chart(coords=("x", "y", "p", "q"))
    with pytest.raises(ChartMismatch):
        contact_prolongation_ode3(
            parse_expression("x", other), parse_expression("y", other)
        )


def _random_map_part(rng):
    """A polynomial in x, y, p of degree <= 2 with small coefficients."""
    e = Expression.const(CH, rng.randint(-3, 3))
    names = ("x", "y", "p")
    for _ in range(rng.randint(1, 4)):
        term = Expression.const(CH, rng.choice((-2, -1, 1, 2, 3)))
        for _ in range(rng.randint(1, 2)):
            term = term * E(rng.choice(names))
        e = e + term
    return e


def _random_maps(seed, count):
    """Seeded (xi, eta) pairs, polynomial and rational in turn."""
    rng = seeded(seed)
    out = []
    for i in range(count):
        xi = E("x") + _random_map_part(rng)
        eta = _random_map_part(rng)
        if i % 2:
            eta = eta / (E("1") + E(rng.choice(("x", "y", "p"))) ** 2)
        out.append((xi, eta))
    return out


ORACLE_PAIRS = [
    ("p", "x*p - y"),  # Legendre
    ("x + 2*x^3", "y - 3*x*y + p^2"),  # the pair of the golden hash
]


def test_direct_prolongation_equals_substituted_opaque_one():
    # the opaque route: xi, then eta, substituted into pbar, qbar, rbar
    sym = contact_prolongation_ode3()
    pairs = [(E(a), E(b)) for a, b in ORACLE_PAIRS] + _random_maps(1203, 8)
    for xi, eta in pairs:
        sub_xi = Substitution(CH, "xi", xi)
        sub_eta = Substitution(CH, "eta", eta)
        res = contact_prolongation_ode3(xi, eta)
        for name in ("pbar", "qbar", "rbar"):
            want = sub_eta(sub_xi(getattr(sym, name)))
            assert getattr(res, name) == want, (name, xi, eta)


def test_golden_pair_breaks_the_contact_condition():
    # eta_p = pbar xi_p is not checked, so pbar may depend on q
    res = contact_prolongation_ode3(*(E(t) for t in ORACLE_PAIRS[1]))
    assert CH.key_of("q") in res.pbar.variables()


def test_concrete_maps_never_build_the_opaque_prolongation():
    ode3._symbolic_prolongation.cache_clear()
    contact_prolongation_ode3(E("x + y"), E("y*p + x^2"))
    contact_prolongation_ode3(E("p"), E("x*p - y"))
    assert ode3._symbolic_prolongation.cache_info().currsize == 0
