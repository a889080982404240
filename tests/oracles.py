"""Brute-force reference computations for the structure-level tests.

The structure-level oracles work over plain Fractions with their own
Gaussian elimination, independent of the library's expression
arithmetic.  The point-map image of the flat ODE system uses that
arithmetic, but none of the flatness formulas it is checked against.
The quotient-rule oracle reduces against whole denominators, where the
library reduces against the factors that can be shared; the substitution
oracle takes its partials by ``Expression.partial`` chains and reduces
at every product and sum, where the library keeps them over a coprime
base and reduces each image once.  The Painleve
oracle spells out the closure formula on the concrete report, and a
general map recovery must agree with it.  The stacked-rank oracle
row-reduces each stack of flag blocks from scratch, where the library
grows one echelon.  The contact generators are sums of form
operations, where the library builds each in one piece.
"""

from fractions import Fraction

from cartaneq import (
    Chart,
    DifferentialForm,
    Expression,
    NotEquivalent,
    NotInClass,
    VanishingJacobian,
    ode2_chart,
    odesys_chart,
    run_equivalence_ode2,
)
from cartaneq.chart import KIND_DERIV
from cartaneq.expr import poly_partial
from cartaneq.linsolve import rref
from cartaneq.parser import render_text
from cartaneq.pfaffian import StructureEquations, _jet_names


def quotient_rule_partial(e, name):
    """d(N/D) as (N' D - N D') / D^2, reduced by one gcd against D^2."""
    key = e.chart.key_of(name)
    dn = poly_partial(e.chart, e.num, key)
    dd = poly_partial(e.chart, e.den, key)
    if dd.is_zero:
        return Expression.make(e.chart, dn, e.den)
    return Expression.make(e.chart, dn * e.den - e.num * dd, e.den * e.den)


def groupwise_image(fname, value, e):
    """The image of ``e`` with the opaque ``fname`` replaced by ``value``.

    Public arithmetic alone: the image of each derivative symbol of
    ``fname`` is a chain of ``Expression.partial`` calls on ``value``,
    and the term images are multiplied and added with ``Expression``
    ``*`` and ``+``, each operation reducing on its own.
    """
    ch = e.chart
    fkey = ch.key_of(fname)
    args = ch.functions[fkey[1]].args

    def image_of(k):
        if k[0] != KIND_DERIV or k[1] != fkey[1]:
            return Expression.from_key(ch, k)
        out = value
        for i in k[3]:
            out = out.partial(args[i])
        return out

    return termwise_image({k: image_of(k) for k in e.variables()}, e)


def termwise_image(images, e):
    """The image of ``e`` under ``images``, {key: Expression}, with each
    term's image multiplied out and added by ``Expression`` ``*`` and
    ``+``."""
    def image(p):
        total = Expression.const(e.chart, 0)
        for m, c in p.terms:
            term = Expression.const(e.chart, c)
            for k, n in m:
                term = term * images[k] ** n
            total = total + term
        return total

    return image(e.num) / image(e.den)


def numeric_structure(rng, a, n, r, span=3):
    """Random constant-coefficient structure equations on a dummy chart."""
    ch = Chart(coords=("z",))
    A = {}
    T = {}
    for alpha in range(a):
        for rho in range(r):
            for i in range(n):
                v = rng.randint(-span, span)
                if v:
                    A[(alpha, rho, i)] = Expression.const(ch, v)
        for j in range(n):
            for k in range(j + 1, n):
                v = rng.randint(-span, span)
                if v:
                    T[(alpha, j, k)] = Expression.const(ch, v)
    return StructureEquations(ch, a, n, r, A, T)


def _aval(eqs, alpha, rho, i):
    e = eqs.A.get((alpha, rho, i))
    return Fraction(0) if e is None else Fraction(e.const_value())


def _tval(eqs, alpha, j, k):
    e = eqs.T.get((alpha, j, k))
    return Fraction(0) if e is None else Fraction(e.const_value())


def frac_rank(m):
    m = [row[:] for row in m]
    nr = len(m)
    nc = len(m[0]) if m else 0
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col]
        m[r] = [v / inv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def absorption_system(eqs):
    """The torsion equations as (matrix, rhs) over Fractions.

    Unknowns are lambda[rho][i] in column order rho * n + i; one row per
    (alpha, j < k).  Shifting pi -> pi - lambda theta moves torsion by
    -(A[a,r,j] lam[r,k] - A[a,r,k] lam[r,j]), so full absorption solves
    M lam = T with the rows below.
    """
    a, n, r = eqs.a, eqs.n, eqs.r
    rows = []
    rhs = []
    for alpha in range(a):
        for j in range(n):
            for k in range(j + 1, n):
                row = [Fraction(0)] * (n * r)
                for rho in range(r):
                    row[rho * n + k] += _aval(eqs, alpha, rho, j)
                    row[rho * n + j] -= _aval(eqs, alpha, rho, k)
                rows.append(row)
                rhs.append(_tval(eqs, alpha, j, k))
    return rows, rhs


def residual_torsion(eqs, lam):
    """T after absorbing with lam[(rho, i)] -> Fraction, entry by entry."""
    a, n, r = eqs.a, eqs.n, eqs.r
    out = {}
    for alpha in range(a):
        for j in range(n):
            for k in range(j + 1, n):
                v = _tval(eqs, alpha, j, k)
                for rho in range(r):
                    v -= _aval(eqs, alpha, rho, j) * lam[(rho, k)]
                    v += _aval(eqs, alpha, rho, k) * lam[(rho, j)]
                out[(alpha, j, k)] = v
    return out


def check_absorption_against_brute_force(eqs, sol):
    """Cross-check one AbsorptionSolution; raises AssertionError on drift."""
    a, n, r = eqs.a, eqs.n, eqs.r
    rows, rhs = absorption_system(eqs)
    if rows:
        rank_m = frac_rank(rows)
        rank_aug = frac_rank([row + [b] for row, b in zip(rows, rhs)])
    else:
        rank_m = rank_aug = 0
    assert len(sol.free) == n * r - rank_m
    solvable = rank_m == rank_aug
    assert (len(sol.essential) == 0) == solvable

    lam = {
        (rho, i): Fraction(sol.lam(rho, i).const_value())
        for rho in range(r)
        for i in range(n)
    }
    res = residual_torsion(eqs, lam)
    if solvable:
        assert all(v == 0 for v in res.values())
    else:
        assert any(v != 0 for v in res.values())
    # the homogeneous basis really solves the T = 0 system
    zeroed = StructureEquations(eqs.chart, a, n, r, eqs.A, {})
    zero = Fraction(0)
    assert sorted(sol.homogeneous) == sorted(sol.free)
    for h in sol.homogeneous.values():
        hv = {
            (rho, i): Fraction(h[(rho, i)].const_value())
            if (rho, i) in h else zero
            for rho in range(r)
            for i in range(n)
        }
        assert all(v == 0 for v in residual_torsion(zeroed, hv).values())


def brute_force_sigma(eqs, rng, tries=100, span=4):
    """Cartan characters by maximizing ranks over random integer flags."""
    a, n, r = eqs.a, eqs.n, eqs.r

    def stacked(flag):
        rows = []
        for v in flag:
            for alpha in range(a):
                rows.append([
                    sum(_aval(eqs, alpha, rho, i) * v[i] for i in range(n))
                    for rho in range(r)
                ])
        return rows

    best = [0] * n
    for _ in range(tries):
        flag = [
            [Fraction(rng.randint(-span, span)) for _ in range(n)]
            for _ in range(n)
        ]
        for k in range(1, n + 1):
            if r == 0:
                continue
            got = frac_rank(stacked(flag[:k]))
            if got > best[k - 1]:
                best[k - 1] = got
    return tuple(best)


def stacked_ranks(a, A, flag):
    """sigma_k by Gauss-Jordan on the whole stack, once per k.

    The library's ``pfaffian._stacked_ranks`` grows one echelon block by
    block; this stacks A(v_1), ..., A(v_k) and row-reduces the stack from
    scratch for each k, as the library did before.
    """
    sigma = []
    stacked = []
    for v in flag:
        # rows of A(v): one per alpha, columns rho
        rows = [{} for _ in range(a)]
        for (alpha, rho, i), entry in A.items():
            term = entry * v[i]
            prev = rows[alpha].get(rho)
            rows[alpha][rho] = term if prev is None else prev + term
        stacked.extend(rows)
        sigma.append(len(rref(stacked)[1]))
    return sigma


def contact_generators(chart, n, m, q):
    """du^a_I - sum_i u^a_{I+i} dx^i for every jet u^a_I below order q,
    by form arithmetic, in the order of ``contact_system``'s omega."""
    name = {
        (a, I): nm for l in range(q + 1) for nm, a, I in _jet_names(n, m, l)
    }
    out = []
    for l in range(q):
        for nm, a, I in _jet_names(n, m, l):
            w = DifferentialForm.basis(chart, nm)
            for i in range(1, n + 1):
                upper = name[(a, tuple(sorted(I + (i,))))]
                w = w - Expression.var(chart, upper) * DifferentialForm.basis(
                    chart, f"x{i}"
                )
            out.append(w)
    return out


def flat_system_under_point_map(T, X1, X2):
    """(F1, F2) whose solutions are the images of straight lines x'' = 0
    under the point map (t, x) -> (T(t, x), X(t, x)).

    Along a solution of x'' = F the total derivative is D = D0 + F_j d/ddx_j
    with D0 = d/dt + dx_j d/dx_j, and the image is a straight line when
    D^2 X_i DT - DX_i D^2 T = 0.  As D^2 X_i = D0^2 X_i + X_i,x_j F_j and
    D^2 T = D0^2 T + T,x_j F_j, that is a 2x2 linear system in F.
    """
    ch = odesys_chart()
    dx1, dx2 = Expression.var(ch, "dx1"), Expression.var(ch, "dx2")

    def D0(e):
        return e.partial("t") + dx1 * e.partial("x1") + dx2 * e.partial("x2")

    DT, DDT = D0(T), D0(D0(T))
    M, r = [], []
    for X in (X1, X2):
        DX = D0(X)
        M.append([X.partial(x) * DT - DX * T.partial(x) for x in ("x1", "x2")])
        r.append(DX * DDT - D0(DX) * DT)
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert not det.is_zero, "the point map is singular"
    return ((r[0] * M[1][1] - r[1] * M[0][1]) / det,
            (M[0][0] * r[1] - M[1][0] * r[0]) / det)


def painleve_map_via_report(f):
    """(eta, C) for y'' = f, read off the ``run_equivalence_ode2``
    report: the invariants from its torsion table and the closure
    residuals -12 X_i(C) from its frame.  Raises as ``painleve_map``."""
    rep = run_equivalence_ode2(f)
    ch = rep.chart
    if not rep.I2.is_zero:
        raise NotInClass("I2", render_text(rep.I2))
    if not rep.I3.is_zero:
        raise NotInClass("I3", render_text(rep.I3))

    X1, X2, X3, X4 = rep.frame
    I1 = rep.I1
    c24 = Expression.const(ch, Fraction(-1, 24))
    c12 = Expression.const(ch, Fraction(-1, 12))
    x = Expression.var(ch, "x")
    eta = c12 * I1
    C = c24 * I1 * I1 + c12 * X3(X3(I1)) - x

    failures = {}
    for name, X in zip(("X1", "X2", "X3", "X4"), rep.frame):
        res = Expression.const(ch, -12) * X(C)
        if not res.is_zero:
            failures[name] = render_text(res)
    if failures:
        raise NotEquivalent(failures)

    base = ode2_chart()
    eta = eta.project(base)
    C = C.project(base)
    if eta.partial("y").is_zero:
        raise VanishingJacobian("the recovered eta does not depend on y")
    return eta, C
