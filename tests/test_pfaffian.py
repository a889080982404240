"""Linear Pfaffian systems: structure split, absorption, involutivity."""

from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from cartaneq import (
    Chart,
    DifferentialForm,
    DomainError,
    Expression,
    NonEmptyEssentialTorsion,
    NotLinear,
)
from cartaneq import linsolve, pfaffian
from cartaneq.pfaffian import (
    PfaffianSystem,
    StructureEquations,
    absorb_torsion,
    cartan_characters,
    coframe_structure_equations,
    contact_system,
    is_linear,
    prolong,
    structure_equations,
)

from conftest import run_fresh, seeded
from oracles import (
    brute_force_sigma,
    check_absorption_against_brute_force,
    contact_generators,
    frac_stacked_ranks,
    numeric_structure,
    stacked_ranks,
)


# the (n, m, q) of the contact-pfaffian benchmark workload
CONTACT = [
    (3, 1, 1), (1, 4, 1), (2, 1, 2), (2, 2, 1), (1, 3, 2), (1, 1, 6),
    (2, 3, 1), (4, 1, 1), (1, 2, 3), (1, 5, 1), (3, 2, 1), (2, 1, 3),
    (1, 2, 4), (1, 6, 1), (1, 3, 3), (2, 4, 1), (1, 4, 2), (2, 2, 2),
    (3, 1, 2), (3, 3, 1), (1, 2, 5), (2, 5, 1), (4, 2, 1),
    (3, 4, 1), (1, 2, 6), (2, 1, 4), (1, 3, 4), (1, 4, 3), (4, 3, 1),
    (1, 6, 2), (2, 6, 1),
    (3, 5, 1),
]


def _nmq_id(nmq):
    return "-".join(str(v) for v in nmq)


def _basis(ch, name):
    return DifferentialForm.basis(ch, name)


def test_structure_split_on_the_contact_example():
    ch = Chart(coords=("x", "y", "p"))
    p = Expression.var(ch, "p")
    sys1 = PfaffianSystem(
        ch,
        [_basis(ch, "y") - p * _basis(ch, "x")],
        [_basis(ch, "x")],
        [_basis(ch, "p")],
    )
    eqs = structure_equations(sys1)
    # d omega = dx ^ dp: one tableau entry, A stores the negated
    # theta ^ pi coefficient so the sign convention here reads -1
    assert eqs.a == 1 and eqs.n == 1 and eqs.r == 1
    assert eqs.tableau_entry(0, 0, 0) == -1
    assert not eqs.T
    assert is_linear(sys1)


def test_closed_omega_has_no_structure():
    ch = Chart(coords=("x", "y", "z"))
    sys1 = PfaffianSystem(
        ch,
        [_basis(ch, "x") + _basis(ch, "y")],
        [_basis(ch, "y")],
        [_basis(ch, "z")],
    )
    eqs = structure_equations(sys1)
    assert not eqs.A and not eqs.T


def test_nonlinear_system_detected():
    ch = Chart(coords=("x1", "x2", "x3", "x4"))
    x3 = Expression.var(ch, "x3")
    sys1 = PfaffianSystem(
        ch,
        [_basis(ch, "x1") - x3 * _basis(ch, "x4")],
        [_basis(ch, "x2")],
        [_basis(ch, "x3"), _basis(ch, "x4")],
    )
    assert not is_linear(sys1)
    with pytest.raises(NotLinear):
        structure_equations(sys1)


def test_no_pi_block_is_trivially_linear():
    ch = Chart(coords=("x", "y", "p"))
    p = Expression.var(ch, "p")
    sys1 = PfaffianSystem(
        ch,
        [_basis(ch, "y") - p * _basis(ch, "x")],
        [_basis(ch, "x"), _basis(ch, "p")],
        [],
    )
    assert is_linear(sys1)


def test_block_count_must_match_chart():
    ch = Chart(coords=("x", "y", "p"))
    with pytest.raises(DomainError):
        PfaffianSystem(ch, [_basis(ch, "y")], [_basis(ch, "x")], [])


def test_exact_producer_rejects_unexpected_terms():
    ch = Chart(coords=("x", "y", "z"))
    x = Expression.var(ch, "x")
    theta = [_basis(ch, "z") - x * _basis(ch, "y")]
    pi = [_basis(ch, "x"), _basis(ch, "y")]
    with pytest.raises(NotLinear):
        coframe_structure_equations(ch, theta, pi)


def test_contact_systems_are_involutive():
    # (n, m, q) -> characters, free lambda, dim of the prolongation
    table = {
        (1, 1, 1): ((1,), 1, 1),
        (1, 1, 2): ((1,), 1, 1),
        (2, 1, 1): ((1, 1), 3, 3),
        (2, 1, 2): ((2, 1), 4, 4),
        (1, 2, 1): ((2,), 2, 2),
        (2, 2, 1): ((2, 2), 6, 6),
        (3, 1, 1): ((1, 1, 1), 6, 6),
    }
    for nmq, (chars, free, dim1) in table.items():
        eqs = structure_equations(contact_system(*nmq))
        inv = cartan_characters(eqs)
        assert inv.characters == chars
        assert inv.free_lambda == free
        assert inv.dim_prolongation == dim1
        assert inv.involutive
        assert absorb_torsion(eqs).essential == []


@pytest.mark.parametrize("nmq", [(11, 1, 2), (11, 2, 2)], ids=_nmq_id)
def test_contact_system_names_jets_apart_past_nine(nmq):
    # digits alone would name the jets (11,) and (1, 1) both u11
    n, m, q = nmq
    coords = contact_system(n, m, q).chart.coords
    assert len(coords) == n + m * comb(n + q, q)
    assert len(set(coords)) == len(coords)


def test_contact_system_names_below_ten():
    assert contact_system(2, 2, 2).chart.coords == (
        "x1", "x2", "u1", "u2", "u1_1", "u1_2", "u2_1", "u2_2",
        "u1_11", "u1_12", "u1_22", "u2_11", "u2_12", "u2_22",
    )
    coords = contact_system(9, 1, 2).chart.coords
    assert coords[9:12] == ("u", "u1", "u2") and coords[-1] == "u99"


@pytest.mark.parametrize(
    "nmq", CONTACT + [(11, 1, 2), (10, 2, 1)], ids=_nmq_id)
def test_contact_generators_match_form_arithmetic(nmq):
    system = contact_system(*nmq)
    assert system.omega == contact_generators(system.chart, *nmq)


def test_contact_system_validates_arguments():
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(DomainError):
            contact_system(*bad)


def test_absorption_with_zero_tableau_keeps_all_torsion():
    rng = seeded(601)
    ch = Chart(coords=("z",))
    eqs = numeric_structure(rng, a=2, n=3, r=0)
    sol = absorb_torsion(eqs)
    want = set()
    for v in eqs.T.values():
        e = -v if v.num.lead_coeff < 0 else v
        want.add(e)
    assert set(sol.essential) == want
    assert sol.particular == {} and sol.free == []


def test_absorption_with_zero_torsion_is_trivial():
    rng = seeded(602)
    eqs = numeric_structure(rng, a=2, n=2, r=2)
    eqs.T.clear()
    sol = absorb_torsion(eqs)
    assert sol.essential == [] and sol.absorbed
    assert all(v.is_zero for v in sol.particular.values())


def test_absorption_matches_brute_force():
    rng = seeded(603)
    for _ in range(30):
        a = rng.randint(1, 3)
        n = rng.randint(1, 3)
        r = rng.randint(0, 3)
        eqs = numeric_structure(rng, a, n, r)
        check_absorption_against_brute_force(eqs, absorb_torsion(eqs))


def test_characters_match_random_flag_maximization():
    rng = seeded(604)
    for _ in range(10):
        eqs = numeric_structure(rng, a=2, n=2, r=2)
        inv = cartan_characters(eqs)
        assert inv.sigma == brute_force_sigma(eqs, rng, tries=100)


def test_zero_tableau_is_frobenius():
    rng = seeded(605)
    eqs = numeric_structure(rng, a=2, n=3, r=0)
    inv = cartan_characters(eqs)
    assert inv.characters == (0, 0, 0)
    assert inv.involutive and inv.dim_prolongation == 0


def _labelled_tableau(system):
    """The tableau keyed by the jet labels (a, J) of omega and pi forms.

    Each omega form of a contact system, and of its prolongations, reads
    dc - sum_i v_i dx^i, where v_i is the coordinate of the jet one order
    above c along x^i.  Reading them in order labels every jet
    coordinate; a c not yet labelled is some u^a of order zero.  Equal
    labels thus name the same jet on a prolonged system, whose fiber
    coordinates are lam1, lam2, ..., and on the jet space itself.
    """
    chart = system.chart
    theta_at = {
        idx: i for i, t in enumerate(system.theta) for (idx,) in t.comps
    }
    labels = {}
    omega_labels = []
    for w in system.omega:
        (c,), = [idx for idx in w.comps if idx[0] not in theta_at]
        assert w.comps[(c,)] == 1
        if c not in labels:
            labels[c] = (sum(not J for _, J in labels.values()) + 1, ())
        a, J = labels[c]
        omega_labels.append(labels[c])
        for (k,), coeff in w.comps.items():
            if k in theta_at:
                (key,) = coeff.variables()
                assert -coeff == Expression.from_key(chart, key)
                label = (a, tuple(sorted(J + (theta_at[k],))))
                assert labels.setdefault(chart.basis_index(key), label) == label
    pi_labels = [labels[idx] for p in system.pi for (idx,) in p.comps]
    assert len(pi_labels) == len(system.pi)
    return {
        (omega_labels[alpha], pi_labels[rho], i): e.const_value()
        for (alpha, rho, i), e in structure_equations(system).A.items()
    }


TOWERS = [(nmq, k) for nmq in [(1, 1, 1)] + CONTACT for k in (1, 2)]


@pytest.mark.parametrize(
    "nmq, k", TOWERS, ids=[f"{_nmq_id(nmq)}+{k}" for nmq, k in TOWERS])
def test_prolonged_contact_system_is_the_next_jet(nmq, k):
    n, m, q = nmq
    after = contact_system(n, m, q)
    for _ in range(k):
        after = prolong(after)
    target = contact_system(n, m, q + k)
    assert after.chart.dim == target.chart.dim == n + m * comb(n + q + k, n)
    ea, et = structure_equations(after), structure_equations(target)
    assert (ea.a, ea.n, ea.r) == (et.a, et.n, et.r)
    # charts differ (lam1 vs u11), so the tableaux are compared by jet
    assert _labelled_tableau(after) == _labelled_tableau(target)
    assert not ea.T and not et.T
    ia, it = cartan_characters(ea), cartan_characters(et)
    assert ia.characters == it.characters and ia.involutive


def _gauss_jordan_inverse(system):
    coframe = system.coframe
    rows = [{k: c for (k,), c in f.comps.items()} for f in coframe.forms]
    return linsolve.invert(rows, system.chart)


@pytest.mark.parametrize("nmq", CONTACT, ids=_nmq_id)
def test_prolonged_inverse_is_the_gauss_jordan_inverse(nmq):
    system = contact_system(*nmq)
    for _ in range(2):
        system = prolong(system)
        assert system.coframe.inverse == _gauss_jordan_inverse(system)


def test_prolonged_inverse_puts_lam_rows_before_parameter_rows():
    ch = Chart(coords=("x", "u", "p"), params=("a",))
    p, a = Expression.var(ch, "p"), Expression.var(ch, "a")
    dx, du, dp, da = (_basis(ch, nm) for nm in ("x", "u", "p", "a"))
    out = prolong(PfaffianSystem(ch, [du - p * dx], [dx], [dp - a * dx, da]))
    big = out.chart
    assert big.coords == ("x", "u", "p", "lam1", "lam2")
    assert big.params == ("a",)
    inverse = out.coframe.inverse
    assert inverse == _gauss_jordan_inverse(out)
    # the coframe is omega, dp - (a + lam1) dx, da - lam2 dx, dx, dlam1,
    # dlam2, and the basis x, u, p, lam1, lam2, a
    one = Expression.const(big, 1)
    assert inverse[3:] == [
        {4: one}, {5: one}, {2: one, 3: Expression.var(big, "lam2")},
    ]


def test_contact_op_solves_its_structure_and_absorption_once(monkeypatch):
    counts = {"structure": 0, "absorption": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pfaffian, "_structure_equations",
                        counted("structure", pfaffian._structure_equations))
    monkeypatch.setattr(pfaffian, "_solve_absorption",
                        counted("absorption", pfaffian._solve_absorption))
    system = contact_system(2, 1, 2)
    eqs = structure_equations(system)
    sol = absorb_torsion(eqs)
    chars = cartan_characters(eqs)
    prolong(system)
    assert counts == {"structure": 1, "absorption": 1}
    assert structure_equations(system) is eqs and absorb_torsion(eqs) is sol
    assert chars.involutive and sol.absorbed


def test_prolong_without_free_lambda_keeps_the_chart():
    ch = Chart(coords=("x", "u"))
    sys1 = PfaffianSystem(ch, [_basis(ch, "u")], [_basis(ch, "x")], [])
    out = prolong(sys1)
    assert out.chart.dim == 2
    assert len(out.omega) == 1 and len(out.pi) == 0


def test_prolong_refuses_essential_torsion():
    ch = Chart(coords=("x", "y", "z"))
    z = Expression.var(ch, "z")
    sys1 = PfaffianSystem(
        ch,
        [_basis(ch, "y") - z * _basis(ch, "x")],
        [_basis(ch, "x"), _basis(ch, "z")],
        [],
    )
    with pytest.raises(NonEmptyEssentialTorsion):
        prolong(sys1)


def test_noninvolutive_pair_system():
    # two copies of the contact equation sharing one fiber direction:
    # dy_i = z dx_i has no second order freedom left
    ch = Chart(coords=("x1", "x2", "y1", "y2", "z"))
    z = Expression.var(ch, "z")
    omega = [
        _basis(ch, "y1") - z * _basis(ch, "x1"),
        _basis(ch, "y2") - z * _basis(ch, "x2"),
    ]
    theta = [_basis(ch, "x1"), _basis(ch, "x2")]
    pi = [_basis(ch, "z")]
    eqs = structure_equations(PfaffianSystem(ch, omega, theta, pi))
    sol = absorb_torsion(eqs)
    assert sol.essential == []
    # no integer flag can certify a system that is not involutive, so
    # the symbolic flag decides, once
    before = pfaffian.flag_fallbacks
    inv = cartan_characters(eqs)
    assert pfaffian.flag_fallbacks == before + 1
    assert inv.characters == (1, 0) and inv.sigma == (1, 1)
    assert inv.free_lambda == 0 and inv.kernel_dim == 0
    assert inv.dim_prolongation == 0 and inv.bound == 1
    assert not inv.involutive


def _report(inv):
    return (inv.characters, inv.sigma, inv.free_lambda, inv.kernel_dim,
            inv.dim_prolongation, inv.bound, inv.involutive)


class _AllOnes:
    """Stands in for random.Random: every flag it draws is all ones."""

    def __init__(self, seed):
        pass

    def randint(self, lo, hi):
        return 1


def test_singular_flag_is_refused(monkeypatch):
    # A(1, 1, 1) vanishes, so the flag of equal vectors gives sigma = 0,
    # 0, 0 and a bound of 0 equal to dim_prolongation; only the test of
    # sigma_n against the rank of A refuses it
    ch = Chart(coords=("z",))
    one = Expression.const(ch, 1)
    A = {(0, 0, 0): one, (0, 0, 1): -2 * one, (0, 0, 2): one,
         (1, 0, 0): one, (1, 0, 2): -one}
    eqs = StructureEquations(ch, 2, 3, 1, A, {})
    want = _report(cartan_characters(eqs))
    assert want == ((1, 0, 0), (1, 1, 1), 0, 0, 0, 1, False)
    monkeypatch.setattr(pfaffian, "random", SimpleNamespace(Random=_AllOnes))
    before = pfaffian.flag_fallbacks
    assert _report(cartan_characters(eqs)) == want
    assert pfaffian.flag_fallbacks == before + 1


def test_certified_characters_match_the_symbolic_flag(monkeypatch):
    systems = {nmq: structure_equations(contact_system(*nmq))
               for nmq in CONTACT}
    before = pfaffian.flag_fallbacks
    certified = {nmq: _report(cartan_characters(eqs))
                 for nmq, eqs in systems.items()}
    assert pfaffian.flag_fallbacks == before
    # with no integer draws, every call takes the counted fallback
    monkeypatch.setattr(pfaffian, "_FLAG_TRIES", 0)
    for nmq, eqs in systems.items():
        assert _report(cartan_characters(eqs)) == certified[nmq], nmq
    assert pfaffian.flag_fallbacks == before + len(CONTACT)
    assert all(rep[-1] for rep in certified.values())


_LARGE_CONTACT = """
import sys
from cartaneq import pfaffian
n = int(sys.argv[1])
inv = pfaffian.cartan_characters(
    pfaffian.structure_equations(pfaffian.contact_system(n, 1, 2)))
print(inv.characters, inv.involutive, pfaffian.flag_fallbacks)
"""


@pytest.mark.parametrize("n", [5, 6, 11])
def test_large_contact_characters_are_certified(n):
    # J^2(R^n, R): dimensions 26, 34 and 89; the symbolic flag took 23 s
    # on the first, and the integer flag takes about 1 s on the last
    out = run_fresh(_LARGE_CONTACT, str(n), timeout=20 if n == 11 else 4)
    want = tuple(range(n, 0, -1))
    assert out.split("\n")[0] == f"{want} True 0"


def _poly_structure(rng, a, n, r):
    """Random structure equations whose entries are polynomials in x, y."""
    ch = Chart(coords=("x", "y"))
    x, y = Expression.var(ch, "x"), Expression.var(ch, "y")

    def entry():
        e = Expression.const(ch, 0)
        for _ in range(rng.randint(1, 2)):
            e = e + rng.randint(-3, 3) * x ** rng.randint(0, 2) \
                * y ** rng.randint(0, 1)
        return e

    A, T = {}, {}
    for alpha in range(a):
        for rho in range(r):
            for i in range(n):
                e = entry()
                if rng.random() < 0.6 and not e.is_zero:
                    A[(alpha, rho, i)] = e
        for j, k in combinations(range(n), 2):
            e = entry()
            if not e.is_zero:
                T[(alpha, j, k)] = e
    return StructureEquations(ch, a, n, r, A, T)


def _torsion_left(eqs, lam, with_torsion=True):
    """T - (A[a,r,j] lam[r,k] - A[a,r,k] lam[r,j]) per (alpha, j < k)."""
    zero = Expression.const(eqs.chart, 0)
    out = []
    for alpha in range(eqs.a):
        for j, k in combinations(range(eqs.n), 2):
            v = eqs.T.get((alpha, j, k), zero) if with_torsion else zero
            for rho in range(eqs.r):
                v = v - eqs.tableau_entry(alpha, rho, j) * lam.get((rho, k), zero)
                v = v + eqs.tableau_entry(alpha, rho, k) * lam.get((rho, j), zero)
            out.append(v)
    return out


def test_absorption_on_polynomial_entries():
    rng = seeded(606)
    kinds = set()
    for _ in range(40):
        eqs = _poly_structure(
            rng, rng.randint(1, 3), rng.randint(2, 3), rng.randint(1, 3))
        n, ncols = eqs.n, eqs.n * eqs.r
        rows, aug = [], []
        for alpha in range(eqs.a):
            for j, k in combinations(range(n), 2):
                row = {}
                for rho in range(eqs.r):
                    row[rho * n + k] = eqs.tableau_entry(alpha, rho, j)
                    row[rho * n + j] = -eqs.tableau_entry(alpha, rho, k)
                rows.append(row)
                aug.append({**row, ncols: eqs.torsion_entry(alpha, j, k)})
        rank_m = linsolve.rank(rows)
        solvable = rank_m == linsolve.rank(aug)
        kinds.add(solvable)

        sol = absorb_torsion(eqs)
        assert (sol.essential == []) == solvable
        assert len(sol.free) == ncols - rank_m
        left = _torsion_left(eqs, sol.particular)
        assert all(v.is_zero for v in left) == solvable
        for h in sol.homogeneous.values():
            assert all(v.is_zero for v in _torsion_left(eqs, h, False))
    assert kinds == {True, False}


def test_stacked_ranks_match_the_gauss_jordan_oracle(monkeypatch):
    sigmas = []
    over_fractions = []
    library_ranks = pfaffian._stacked_ranks

    def checked(a, A, flag):
        sigma = library_ranks(a, A, flag)
        assert sigma == stacked_ranks(a, A, flag)
        # a constant tableau at an integer flag: rank over Fractions too
        if (all(e.is_const for e in A.values())
                and all(isinstance(t, int) for v in flag for t in v)):
            assert sigma == frac_stacked_ranks(a, A, flag)
            over_fractions.append(sigma)
        sigmas.append(sigma)
        return sigma

    monkeypatch.setattr(pfaffian, "_stacked_ranks", checked)
    rng = seeded(607)
    systems = [structure_equations(contact_system(*nmq)) for nmq in CONTACT]
    systems += [
        _poly_structure(
            rng, rng.randint(1, 3), rng.randint(2, 3), rng.randint(1, 3))
        for _ in range(20)
    ]
    for eqs in systems:
        cartan_characters(eqs)
    drawn = len(sigmas)
    assert drawn >= len(systems)
    assert len(over_fractions) >= len(CONTACT)
    # the symbolic flag, once per system
    monkeypatch.setattr(pfaffian, "_FLAG_TRIES", 0)
    for eqs in systems:
        cartan_characters(eqs)
    assert len(sigmas) == drawn + len(systems)
