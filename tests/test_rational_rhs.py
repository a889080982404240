"""Rational right-hand sides finish in bounded time, with checked output.

These inputs used to stall in the gcd that keeps every expression in
canonical form.  Each case runs in a fresh interpreter, so no cache or
earlier call can help it, and its work must finish within ``BOUND_S``
seconds.  The rendered results are checked at exact rational points
against closed forms of the method evaluated by SymPy, and their sha256
is pinned so that a later change of the gcd core keeps the bytes.
"""

import functools
import hashlib
import re
from fractions import Fraction

import pytest

from conftest import run_fresh

# wall-clock bound on one case's work in its own process: on one core of an
# Intel Xeon server each case takes 0.1-0.4 s; with the pseudo-remainder
# sequence as the only gcd they took from 1 s to more than 30 s
BOUND_S = 4.0
# extra allowance for starting the interpreter and importing cartaneq
STARTUP_S = 30.0

PAINLEVE_I = "6*y^2 + x"

# case -> (what to run, its inputs)
CASES = {
    "flat-a": ("check_flat", ("(x*y+p^2)^2/(y^3+x*p+1)^2 + p^3/(x+y)",)),
    "flat-b": ("check_flat", ("(x^2*y+p^3-y)/(y^2*p+x*p+1)^3 + (x-p)/(y+1)^2",)),
    "equiv-a": ("equivalence", ("(x*y+p^2)/(y^3+x*p+1)",)),
    "equiv-b": ("equivalence", ("(3*x*y*p+5*x)/(5*x+p+3)",)),
    "painleve-a": ("painleve", ("(y+2*x^2)/(3*x*y+1)", "0")),
    "painleve-b": ("painleve", ("(2*y^2+3*x+1)/(y+2*x+4)", "3/2")),
    "ode3": ("ode3", ("x-6*x*p", "y+3*y*p+p^2")),
    # a dense power: products of big operands and one substitution of f
    "flat-dense": ("check_flat", ("(x+y+p+1)^18",)),
    "equiv-dense": ("equivalence", ("(x+y+p+1)^18",)),
}

# sha256 of each case's rendered output lines (the timing line excluded)
RATIONAL_SHA256 = {
    "flat-a":
        "7f2cc04186371bb258a0ded16da934cd3512532293093fccb81e903ed795dbbd",
    "flat-b":
        "2118055318c9d2b4e40f0c6a6cb3449877204c2cf63c4cdacf3c492ea2dff858",
    "equiv-a":
        "027a7284319f3ff69518399a74602ad20ed37d41d4c4c36c93d14e6b398139ce",
    "equiv-b":
        "8ee829737893d6ac279de117a91c24ac07ce11786d2b9383d257c8e90b44537f",
    "painleve-a":
        "c15237a4d2e5fd277988ff72bee01eec1f224dd03023434e178f243be3089573",
    "painleve-b":
        "194eaacd3ab7e6fb9f39a3d792566d8f1019418a016b8075a14b77abcf7f470d",
    "ode3":
        "2ac0bd39919295275eeddd9dbb7a91934c25a515d381c861340c44e07f616044",
    "flat-dense":
        "f7dc6bc625a2d6738654b714f89589303c5e4a8a45268ca425e25ccb5f9b4f82",
    "equiv-dense":
        "2b6c9604fee9969ba77f55248769e34b897f0fae51b92d453617322b5b559609",
}

CHILD = """
import sys, time
from cartaneq import (check_flat_ode2, contact_prolongation_ode3,
    ode2_chart, ode3_chart, painleve_map, parse_expression, pullback_ode2,
    render_text, run_equivalence_ode2)

kind, args = sys.argv[1], sys.argv[2:]
ch = ode3_chart() if kind == "ode3" else ode2_chart()
E = lambda s: parse_expression(s, ch)
t0 = time.perf_counter()
if kind == "check_flat":
    out = check_flat_ode2(E(args[0])).residuals
elif kind == "equivalence":
    out = run_equivalence_ode2(E(args[0])).invariants
elif kind == "painleve":
    f = pullback_ode2(E(args[0]), E(args[1]), E(%r))
    out = [f, *run_equivalence_ode2(f).invariants, *painleve_map(f)]
else:
    res = contact_prolongation_ode3(E(args[0]), E(args[1]))
    out = [res.pbar, res.qbar, res.rbar]
elapsed = time.perf_counter() - t0
print(elapsed)
for e in out:
    print(render_text(e))
""" % PAINLEVE_I


@functools.lru_cache(maxsize=None)
def run_case(kind, args):
    """Run one case in a fresh interpreter: (seconds of work, output lines)."""
    first, *lines = run_fresh(
        CHILD, kind, *args, timeout=BOUND_S + STARTUP_S).splitlines()
    return float(first), tuple(lines)


# ----------------------------------------------------------------------
# closed forms in SymPy, compared at exact rational points

NAMES = ("x", "y", "p", "q", "a3", "f", "f_x", "f_y", "f_p", "f_q")
POINTS = [
    dict(zip(NAMES, map(Fraction, (
        "3/7", "-5/4", "2/9", "7/5", "4/11", "-1/3", "5/6", "-2/5", "9/4", "1/8")))),
    dict(zip(NAMES, map(Fraction, (
        "-8/3", "1/6", "-9/5", "2/13", "-3/8", "5/2", "-7/9", "4/3", "-1/7", "6/5")))),
]


TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\S)")


def value_at(text, point):
    """Exact value of rendered output at a point, in Fraction arithmetic.

    Sums and products are read in loops, so a sum of thousands of terms
    needs no deep recursion.
    """
    tokens = TOKEN.findall(text) + [None]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def atom():
        tok = take()
        if tok == "-":
            return -atom()
        if tok == "(":
            v = expr()
            assert take() == ")"
        elif tok.isdigit():
            v = Fraction(int(tok))
        else:
            v = point[tok]
        if tokens[pos] == "^":
            take()
            v = v ** int(take())
        return v

    def term():
        v = atom()
        while tokens[pos] in ("*", "/"):
            v = v * atom() if take() == "*" else v / atom()
        return v

    def expr():
        v = term()
        while tokens[pos] in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    v = expr()
    assert tokens[pos] is None, text
    return v


def closed_forms(kind, args):
    """The expected outputs of a case as SymPy expressions."""
    sp = pytest.importorskip("sympy")
    syms = sp.symbols(NAMES)
    x, y, p, q, a3, f, f_x, f_y, f_p, f_q = syms
    local = dict(zip(NAMES, syms))

    def S(text):
        return sp.parse_expr(text.replace("^", "**"), local_dict=local)

    def invariants(F):
        Fp = sp.diff(F, p)
        two_i1 = (sp.diff(Fp, x) + F * sp.diff(Fp, p) - 2 * sp.diff(F, y)
                  - Fp ** 2 / 2 + p * sp.diff(Fp, y))
        Fppp = sp.diff(F, p, 3)
        return [
            two_i1 / 2,
            Fppp / (2 * a3 ** 2),
            (sp.diff(Fp, y) - sp.diff(Fp, x, p) - p * sp.diff(Fp, y, p)
             - F * Fppp) / (2 * a3),
        ]

    if kind == "check_flat":
        F = S(args[0])
        return syms, [sp.diff(F, p, 3), 2 * invariants(F)[0]]
    if kind == "equivalence":
        return syms, invariants(S(args[0]))
    if kind == "painleve":
        eta, C = S(args[0]), S(args[1])
        ex, ey = sp.diff(eta, x), sp.diff(eta, y)
        fbar = S(PAINLEVE_I).subs({x: x + C, y: eta}, simultaneous=True)
        F = (fbar - sp.diff(ex, x) - 2 * p * sp.diff(ex, y)
             - p ** 2 * sp.diff(ey, y)) / ey
        # Painleve I has no point symmetries left, so the map comes back
        return syms, [F, *invariants(F), eta, C]
    xi, eta = S(args[0]), S(args[1])

    # the total derivative on solutions of y''' = f(x, y, p, q)
    def D(e):
        return (sp.diff(e, x) + p * sp.diff(e, y) + q * sp.diff(e, p)
                + f * sp.diff(e, q)
                + (f_x + p * f_y + q * f_p + f * f_q) * sp.diff(e, f))

    B = D(xi)
    pbar = D(eta) / B
    qbar = D(pbar) / B
    return syms, [pbar, qbar, D(qbar) / B]


@pytest.mark.parametrize("case", sorted(CASES))
def test_rational_case_is_bounded_and_pinned(case):
    elapsed, lines = run_case(*CASES[case])
    assert elapsed < BOUND_S, f"{case} took {elapsed:.2f} s"
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RATIONAL_SHA256[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_rational_case_matches_sympy(case):
    kind, args = CASES[case]
    syms, want = closed_forms(kind, args)
    got = run_case(kind, args)[1]
    assert len(got) == len(want)
    for point in POINTS:
        sub = {s: Fraction(point[s.name]) for s in syms}
        for text, w in zip(got, want):
            expected = w.xreplace(sub)
            assert value_at(text, point) == Fraction(int(expected.p), int(expected.q)), text
