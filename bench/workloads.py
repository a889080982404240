"""Seeded inputs of the four workloads, with the expected outputs.

Every input is built with SymPy's sparse rational functions, and every
expectation comes either from them or from a closed form of the method,
never from cartaneq.  An op is a dict ``{"kind", "args", "deadline"}``
that the worker can run; its expectation (see ``checks.problems``) stays
in this process.

Expected values of the ode2 invariants use the classical closed forms for
y'' = f under x -> x + C, y -> eta(x, y), with a3 the one remaining group
parameter:

    2 I1 = f_xp + f f_pp - 2 f_y - f_p^2 / 2 + p f_yp
    I2   = f_ppp / (2 a3^2)
    I3   = (f_yp - f_xpp - p f_ypp - f f_ppp) / (2 a3)

and check-flat ode2 reports the residuals (f_ppp, 2 I1).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import sympy as sp

from checks import at, evaluate, random_points

K2, X, Y, P = sp.field("x,y,p", sp.QQ)
_, T, X1, X2, DX1, DX2 = sp.field("t,x1,x2,dx1,dx2", sp.QQ)
_, PX1, PX2, U, U1, U2 = sp.field("x1,x2,u,u1,u2", sp.QQ)
K3, X3, Y3, P3, Q3, F3, F3X, F3Y, F3P, F3Q = sp.field(
    "x,y,p,q,f,f_x,f_y,f_p,f_q", sp.QQ)

# Deadlines in seconds.  Every op that passes today finishes in well under
# a second; the gcd prototype of the roadmap finished the two failing
# rational inputs in 0.34 s and 0.76 s.
DEADLINE = {"cli": 4.0, "check_flat_ode2": 4.0, "run_equivalence_ode2": 10.0,
            "painleve_map": 10.0, "ode3_prolong": 10.0, "contact": 10.0}

# ROADMAP item 1: check_flat_ode2 stalls on these in the primitive-PRS gcd
# core (poly._univ_prs_gcd / poly._int_list_gcd_degree).  They do not
# depend on the seed, so every run fails exactly these two ops.
GCD_STALLS = (
    ("(x*y+p^2)^2/(y^3+x*p+1)^2 + p^3/(x+y)",
     lambda: (X * Y + P ** 2) ** 2 / (Y ** 3 + X * P + 1) ** 2 + P ** 3 / (X + Y)),
    ("(x^2*y+p^3-y)/(y^2*p+x*p+1)^3 + (x-p)/(y+1)^2",
     lambda: (X ** 2 * Y + P ** 3 - Y) / (Y ** 2 * P + X * P + 1) ** 3
     + (X - P) / (Y + 1) ** 2),
)

CHECK_POINTS = 2
OK = ("equal", 0)


# ----------------------------------------------------------------------
# rational functions to text and to values


def _poly_text(poly) -> str:
    names = poly.ring.symbols
    pieces = []
    for exps, c in sorted(poly.terms(), reverse=True):
        c = int(c)
        mono = [
            str(g) if e == 1 else f"{g}^{e}" for g, e in zip(names, exps) if e
        ]
        if abs(c) != 1 or not mono:
            mono.insert(0, str(abs(c)))
        pieces.append(("-" if c < 0 else "+", "*".join(mono)))
    text = "".join(f" {s} {body}" for s, body in pieces)[3:]
    # the grammar takes a unary minus only at the start of an expression
    return ("-" + text) if pieces[0][0] == "-" else text


def to_text(e) -> str:
    """A rational function as cartaneq input text."""
    if e == 0:
        return "0"
    cn, num = e.numer.clear_denoms()
    cd, den = e.denom.clear_denoms()
    num, den = num * cd, den * cn
    if den == 1:
        return _poly_text(num)
    return f"({_poly_text(num)})/({_poly_text(den)})"


def value_at(e):
    """Point -> Fraction evaluator of a rational function."""
    text = to_text(e)
    return lambda pt: evaluate(text, pt)


def usable_points(rng, names, fns, count=CHECK_POINTS):
    """Points where every expected function is finite."""
    out = []
    while len(out) < count:
        (pt,) = random_points(rng, names, 1)
        try:
            for fn in fns:
                fn(pt)
        except ZeroDivisionError:
            continue
        out.append(pt)
    return out


def _op(kind, **args):
    return {"kind": kind, "args": args, "deadline": DEADLINE[kind]}


def _ri(rng, lo, hi, nonzero=True):
    while True:
        v = rng.randint(lo, hi)
        if v or not nonzero:
            return v


def _shift(rng):
    return Fraction(_ri(rng, -9, 9, False), rng.choice((1, 1, 2, 3)))


def _monomial(rng, maxdeg, gens):
    while True:
        e = [rng.randint(0, maxdeg) for _ in gens]
        if 0 < sum(e) <= maxdeg:
            out = 1
            for g, k in zip(gens, e):
                out = out * g ** k
            return out


# ----------------------------------------------------------------------
# ode2 oracles


def pullback(eta, C, fbar):
    """y'' = f whose solutions map to solutions of ybar'' = fbar."""
    ex, ey = eta.diff(X), eta.diff(Y)
    fb = fbar(X + sp.QQ(C.numerator, C.denominator), eta, ex + P * ey)
    return (fb - ex.diff(X) - 2 * P * ex.diff(Y) - P ** 2 * ey.diff(Y)) / ey


def flat_target(xb, yb, pb):
    return K2(0)


def painleve_target(xb, yb, pb):
    return 6 * yb ** 2 + xb


def _jet_values(f):
    """Point -> values of f and the partials the ode2 formulas use.

    Each partial is evaluated on its own and combined in Fractions, which
    keeps SymPy from expanding products of large rational functions.
    """
    fp = f.diff(P)
    fpp, fy = fp.diff(P), f.diff(Y)
    parts = {"f": f, "fp": fp, "fpp": fpp, "fppp": fpp.diff(P),
             "fxp": fp.diff(X), "fxpp": fpp.diff(X), "fy": fy,
             "fyp": fp.diff(Y), "fypp": fpp.diff(Y)}
    fns = {k: value_at(v) for k, v in parts.items()}
    return lambda pt: {k: fn(pt) for k, fn in fns.items()}


def _r2(v, p):
    return v["fxp"] + v["f"] * v["fpp"] - 2 * v["fy"] - v["fp"] ** 2 / 2 + p * v["fyp"]


def expect_residuals(rng, f):
    jet = _jet_values(f)
    pts = usable_points(rng, "xyp", [jet])
    return {"residuals.0": at(pts, lambda pt: jet(pt)["fppp"]),
            "residuals.1": at(pts, lambda pt: _r2(jet(pt), pt["p"]))}


def expect_invariants(rng, f):
    jet = _jet_values(f)

    def I3(pt):
        v = jet(pt)
        return (v["fyp"] - v["fxpp"] - pt["p"] * v["fypp"]
                - v["f"] * v["fppp"]) / (2 * pt["a3"])

    pts = usable_points(rng, ("x", "y", "p", "a3"), [jet])
    return {"I1": at(pts, lambda pt: _r2(jet(pt), pt["p"]) / 2),
            "I2": at(pts, lambda pt: jet(pt)["fppp"] / (2 * pt["a3"] ** 2)),
            "I3": at(pts, I3)}


def expect_pulled_back_painleve(rng, eta, prefix=""):
    """I2 = I3 = 0 and I1 = -12 eta: I1 of 6y^2 + x is -12y, pulled back."""
    fn = value_at(-12 * eta)
    pts = usable_points(rng, "xy", [fn])
    return {prefix + "I1": at(pts, fn), prefix + "I2": ("equal", "0"),
            prefix + "I3": ("equal", "0")}


def expect_painleve_map(rng, eta, C):
    fn = value_at(eta)
    pts = usable_points(rng, "xy", [fn])
    return {"equivalent": ("equal", True), "eta": at(pts, fn),
            "C": ("equal", str(C))}


# ----------------------------------------------------------------------
# paper-corpus: the paper's problems through the CLI


def _cli(*argv):
    return _op("cli", argv=list(argv) + ["--format", "json"])


def _odesys_transform(rng):
    """x'' = F for solutions of Y'' = 0 with Y = phi(t, x)."""
    a, b, c = (_ri(rng, -4, 4) for _ in range(3))
    phi1 = X1 + a * X2 ** 2 + b * T * X2
    phi2 = X2 + c * T * X1

    def D0(e):
        return e.diff(T) + DX1 * e.diff(X1) + DX2 * e.diff(X2)

    J = [[phi1.diff(X1), phi1.diff(X2)], [phi2.diff(X1), phi2.diff(X2)]]
    det = J[0][0] * J[1][1] - J[0][1] * J[1][0]
    A1, A2 = D0(D0(phi1)), D0(D0(phi2))
    return (-(J[1][1] * A1 - J[0][1] * A2) / det,
            -(J[0][0] * A2 - J[1][0] * A1) / det)


def _pdesys_transform(rng):
    """u_ij for solutions of U_ij = 0 with U = phi(x1, x2, u)."""
    a, b, c = (_ri(rng, -4, 4) for _ in range(3))
    phi = U + a * U ** 2 + b * PX1 * U + c * PX2 ** 2
    xs, grads = (PX1, PX2), (U1, U2)

    def f(i, j):
        num = (phi.diff(xs[i]).diff(xs[j]) + phi.diff(xs[i]).diff(U) * grads[j]
               + phi.diff(xs[j]).diff(U) * grads[i]
               + phi.diff(U).diff(U) * grads[i] * grads[j])
        return -num / phi.diff(U)

    return f(0, 0), f(0, 1), f(1, 1)


def paper_corpus(seed):
    rng = random.Random(seed)
    ops, expect = [], []
    # Per map three cheap ops and one of the two costly ones; with 4 odesys
    # (costly) and 12 pdesys (cheap) ops, 72 of the 96 ops are cheap.  The
    # median then falls inside the cheap ops' cluster and the 90th
    # percentile inside the costly ones', not in the gap between the two,
    # where it would jump from one side to the other between runs.
    for i in range(20):
        deg = 2 + i % 5
        g = sum(_ri(rng, -9, 9, k == deg) * X ** k for k in range(deg + 1))
        eta = _ri(rng, -4, 4) * Y + g
        C = _shift(rng)
        f0 = to_text(pullback(eta, C, flat_target))
        f1 = pullback(eta, C, painleve_target)
        ops.append(_cli("pullback", f"--eta={to_text(eta)}", f"--C={C}",
                        "--target=6*y^2 + x"))
        fn = value_at(f1)
        expect.append({"rc": OK, "f": at(usable_points(rng, "xyp", [fn]), fn)})
        ops.append(_cli("check-flat", "ode2", f"--f={f0}"))
        expect.append({"rc": OK, "flat": ("equal", True),
                       "residuals": ("equal", ["0", "0"])})
        ops.append(_cli("check-flat", "ode2", f"--f={to_text(f1)}"))
        expect.append({"rc": OK, "flat": ("equal", False),
                       **expect_residuals(rng, f1)})
        f1 = to_text(f1)
        if i % 2 == 0:
            ops.append(_cli("invariants", f"--f={f1}"))
            expect.append({"rc": OK, **expect_pulled_back_painleve(
                rng, eta, "invariants.")})
        else:
            ops.append(_cli("painleve", f"--f={f1}"))
            expect.append({"rc": OK, **expect_painleve_map(rng, eta, C)})
    for i in range(4):
        F1, F2 = _odesys_transform(rng)
        flat = i % 2 == 0
        if not flat:
            # flat systems are at most cubic in the velocities
            F1 = F1 + _ri(rng, 1, 5) * DX1 ** 4
            assert F1.numer.degree(3) > 3
        ops.append(_cli("check-flat", "odesys", f"--F1={to_text(F1)}",
                        f"--F2={to_text(F2)}"))
        expect.append({"rc": OK, "flat": ("equal", flat)})
    for i in range(12):
        f11, f12, f22 = _pdesys_transform(rng)
        flat = i % 2 == 0
        if not flat:
            # flat systems are at most cubic in the gradient
            f11 = f11 + _ri(rng, 1, 5) * U1 ** 4
            assert f11.numer.degree(3) > 3
        ops.append(_cli("check-flat", "pdesys", f"--f11={to_text(f11)}",
                        f"--f12={to_text(f12)}", f"--f22={to_text(f22)}"))
        expect.append({"rc": OK, "flat": ("equal", flat)})
    return ops, expect


# ----------------------------------------------------------------------
# rational-rhs: gcd and exact division


def _mobius_eta(rng):
    """(a y + b x + c) / (d y + e x + g)."""
    while True:
        eta = ((_ri(rng, -5, 5) * Y + _ri(rng, -5, 5) * X + _ri(rng, -5, 5, False))
               / (_ri(rng, -5, 5) * Y + _ri(rng, -5, 5) * X + _ri(rng, -5, 5, False)))
        if eta.diff(Y) != 0:
            return eta


def _quadratic_eta(rng, v):
    """(a y + b x^2 + c x) / (d v + e), v = x or y."""
    while True:
        num = (_ri(rng, -5, 5) * Y + _ri(rng, -5, 5) * X ** 2
               + _ri(rng, -5, 5, False) * X)
        eta = num / (_ri(rng, -5, 5) * v + _ri(rng, -5, 5))
        if eta.diff(Y) != 0:
            return eta


def _positive_poly(rng, nterms, maxdeg, gens, const):
    monos = []
    while len(monos) < nterms:
        m = _monomial(rng, maxdeg, gens)
        if m not in monos:
            monos.append(m)
    out = sum(rng.randint(1, 5) * m for m in monos)
    return out + rng.randint(1, 5) if const else out


def _quotient(rng, i):
    """N/D with D = a m + b (2 terms) or D = a x + b y + c (3 terms).

    3-term denominators of degree 2 stall now and then (see README.md), so
    the 3-term ones are linear.
    """
    num = _positive_poly(rng, 2 + i // 2 % 2, 3, (X, Y, P), False)
    if i % 2:
        den = _positive_poly(rng, 1, 2, (X, Y, P), True)
    else:
        den = rng.randint(1, 5) * X + rng.randint(1, 5) * Y + rng.randint(1, 5)
    return num / den


def rational_rhs(seed):
    rng = random.Random(seed)
    ops, expect = [], []
    # The kinds of map and of quotient take turns, so every seed has the
    # same make-up and only the coefficients change.
    etas = (_mobius_eta, lambda r: _quadratic_eta(r, Y),
            lambda r: _quadratic_eta(r, X))
    for i in range(90):
        eta = etas[i % 3](rng)
        C = _shift(rng)
        f0 = to_text(pullback(eta, C, flat_target))
        f1 = to_text(pullback(eta, C, painleve_target))
        ops.append(_op("check_flat_ode2", f=f0))
        expect.append({"residuals": ("equal", ["0", "0"])})
        ops.append(_op("run_equivalence_ode2", f=f1))
        expect.append(expect_pulled_back_painleve(rng, eta))
        ops.append(_op("painleve_map", f=f1))
        expect.append(expect_painleve_map(rng, eta, C))
    for i in range(36):
        f = _quotient(rng, i)
        ops.append(_op("check_flat_ode2", f=to_text(f)))
        expect.append(expect_residuals(rng, f))
        ops.append(_op("run_equivalence_ode2", f=to_text(f)))
        expect.append(expect_invariants(rng, f))
    for text, build in GCD_STALLS:
        ops.append(_op("check_flat_ode2", f=text))
        expect.append(expect_residuals(rng, build()))
    return ops, expect


# ----------------------------------------------------------------------
# dense-swell: big operands in poly


def _dense_expect(rng, k, c, with_invariants):
    """Residuals or invariants of f = s^k, s = x + y + p + c, in closed form."""
    k = Fraction(k)

    def parts(pt):
        s = pt["x"] + pt["y"] + pt["p"] + c
        d1, d2 = k * s ** (k - 1), k * (k - 1) * s ** (k - 2)
        d3 = k * (k - 1) * (k - 2) * s ** (k - 3)
        f = s ** k
        r2 = d2 + f * d2 - 2 * d1 - d1 * d1 / 2 + pt["p"] * d2
        return f, d2, d3, r2

    names = ("x", "y", "p", "a3") if with_invariants else ("x", "y", "p")
    pts = usable_points(rng, names, [lambda pt: 1 / (pt["x"] + pt["y"] + pt["p"] + c)])
    if not with_invariants:
        return {"residuals.0": at(pts, lambda pt: parts(pt)[2]),
                "residuals.1": at(pts, lambda pt: parts(pt)[3])}

    def I3(pt):
        f, d2, d3, _ = parts(pt)
        return (d2 - d3 - pt["p"] * d3 - f * d3) / (2 * pt["a3"])

    return {"I1": at(pts, lambda pt: parts(pt)[3] / 2),
            "I2": at(pts, lambda pt: parts(pt)[2] / (2 * pt["a3"] ** 2)),
            "I3": at(pts, I3)}


def _ode3_map(rng):
    """xi = x + a x^k, eta = y + two monomials in x, y, p."""
    xi = X3 + _ri(rng, -3, 3) * X3 ** rng.randint(2, 3)
    eta = Y3 + sum(_ri(rng, -3, 3) * _monomial(rng, 2, (X3, Y3, P3))
                   for _ in range(2))
    return xi, eta


def ode3_expect(rng, xi, eta):
    """pbar, qbar, rbar with f(x, y, p, q) opaque.

    D is the total derivative along y''' = f; on expressions free of the
    derivatives of f it reads D = d/dx + p d/dy + q d/dp + f d/dq + D(f) d/df
    with D(f) = f_x + p f_y + q f_p + f f_q.
    """
    Df = F3X + P3 * F3Y + Q3 * F3P + F3 * F3Q

    def D(e):
        return (e.diff(X3) + P3 * e.diff(Y3) + Q3 * e.diff(P3)
                + F3 * e.diff(Q3) + Df * e.diff(F3))

    B = D(xi)
    pbar = D(eta) / B
    qbar = D(pbar) / B
    rbar = D(qbar) / B
    fns = [value_at(e) for e in (pbar, qbar, rbar)]
    pts = usable_points(rng, [str(s) for s in K3.symbols], fns)
    return {name: at(pts, fn) for name, fn in zip(("pbar", "qbar", "rbar"), fns)}


def dense_swell(seed):
    rng = random.Random(seed)
    ops, expect = [], []
    for _ in range(2):
        for k in range(5, 11):
            c = rng.randint(1, 9)
            ops.append(_op("check_flat_ode2", f=f"(x+y+p+{c})^{k}"))
            expect.append(_dense_expect(rng, k, c, False))
        for k in range(4, 9):
            c = rng.randint(1, 9)
            ops.append(_op("run_equivalence_ode2", f=f"(x+y+p+{c})^{k}"))
            expect.append(_dense_expect(rng, k, c, True))
    for _ in range(4):
        while True:
            xi, eta = _ode3_map(rng)
            if xi.diff(X3) != 0:
                break
        ops.append(_op("ode3_prolong", xi=to_text(xi), eta=to_text(eta)))
        expect.append(ode3_expect(rng, xi, eta))
    return ops, expect


# ----------------------------------------------------------------------
# contact-pfaffian: Cartan's machinery on jet spaces


# Chart dimensions 7 to 23.  23 systems of 30-250 ms hold the median;
# above them eight of 280-380 ms, dimensions 15 to 20, and one of 23,
# J^1(R^3, R^5), about 520 ms.  The 90th percentile falls among the eight,
# so it does not sit in a gap between two single ops, where which op's
# repeats fall on which side moved it by up to 19 % between runs.
CONTACT = [
    (3, 1, 1), (1, 4, 1), (2, 1, 2), (2, 2, 1), (1, 3, 2), (1, 1, 6),
    (2, 3, 1), (4, 1, 1), (1, 2, 3), (1, 5, 1), (3, 2, 1), (2, 1, 3),
    (1, 2, 4), (1, 6, 1), (1, 3, 3), (2, 4, 1), (1, 4, 2), (2, 2, 2),
    (3, 1, 2), (3, 3, 1), (1, 2, 5), (2, 5, 1), (4, 2, 1),
    (3, 4, 1), (1, 2, 6), (2, 1, 4), (1, 3, 4), (1, 4, 3), (4, 3, 1),
    (1, 6, 2), (2, 6, 1),
    (3, 5, 1),
]


def jet_dim(n, m, q):
    return n + m * comb(n + q, q)


def contact_pfaffian(seed):
    rng = random.Random(seed)
    triples = list(CONTACT)
    rng.shuffle(triples)
    ops, expect = [], []
    for n, m, q in triples:
        ops.append(_op("contact", n=n, m=m, q=q))
        expect.append({
            "dim": ("equal", jet_dim(n, m, q)),
            "characters": ("equal", [m * comb(q + n - k - 1, q - 1)
                                     for k in range(1, n + 1)]),
            "involutive": ("equal", True),
            "essential": ("equal", 0),
            "prolonged_dim": ("equal", jet_dim(n, m, q + 1)),
        })
    return ops, expect


WORKLOADS = {
    "paper-corpus": paper_corpus,
    "rational-rhs": rational_rhs,
    "dense-swell": dense_swell,
    "contact-pfaffian": contact_pfaffian,
}
