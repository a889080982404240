"""Equivalence of second order scalar ODEs y'' = f(x, y, y').

The pseudogroup under study is x -> x + C, y -> eta(x, y).  Lifting the
natural coframe of the equation by the structural group, absorbing torsion
and normalizing produces an invariant coframe on the a3-bundle whose
structure coefficients I1, I2, I3 are the fundamental invariants; their
coframe derivatives satisfy syzygies coming from d^2 = 0, and the whole
class contains y'' = 6y^2 + x (Painleve I) as normal form target.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .chart import Chart
from .errors import (
    ChartMismatch,
    DomainError,
    NotEquivalent,
    NotInClass,
    VanishingJacobian,
)
from .expr import Expression, Partials, Substitution, require_chart
from .forms import Coframe, DifferentialForm, VectorField
from .pfaffian import (
    StructureEquations,
    absorb_torsion,
    cartan_characters,
    coframe_structure_equations,
    distinct_up_to_sign,
)
from .poly import Polynomial


def ode2_chart() -> Chart:
    """The base chart (x, y, p) with p = y'."""
    return Chart(coords=("x", "y", "p"))


def ode2_bundle_chart() -> Chart:
    """Base chart plus the surviving group parameter and the opaque f."""
    return Chart(
        coords=("x", "y", "p"),
        params=("a3",),
        functions=[("f", ("x", "y", "p"))],
    )


class EquivalenceReport:
    """Invariant coframe data for one equation (or the symbolic class).

    The method computes three things: ``theta`` the four invariant
    1-forms, ``frame`` their dual derivations and ``structure`` the
    structure equations of ``theta``.  The final coframe has no group
    forms, so its structure is torsion alone, and everything else is read
    off that torsion table: the fundamental invariants ``I1``, ``I2``,
    ``I3`` are the entries T[0,1,2], T[3,0,1] and T[3,1,2], ``essential``
    is every nonzero entry up to sign, and ``involution`` is Cartan's
    test on the structure.  A concrete report (``run_equivalence_ode2``
    of an f) holds the torsion table alone, and maps theta and the frame
    from the symbolic report when they are first read.
    """

    def __init__(self, chart, theta, frame, structure):
        self.chart = chart
        self.theta = theta
        self.frame = frame
        self.structure = structure

    I1 = property(lambda self: self.structure.torsion_entry(0, 1, 2))
    I2 = property(lambda self: self.structure.torsion_entry(3, 0, 1))
    I3 = property(lambda self: self.structure.torsion_entry(3, 1, 2))

    @property
    def invariants(self):
        return (self.I1, self.I2, self.I3)

    @property
    def essential(self):
        """The essential torsion, sign-normalized, in first-seen order."""
        return distinct_up_to_sign(self.structure.T.values())

    @property
    def involution(self):
        return cartan_characters(self.structure)

    @cached_property
    def syzygy_values(self):
        """The value of each ``SYZYGY_PARAMS`` symbol, by its key.

        I_m is the invariant; X_i(I_m) pairs the frame field X_i with the
        one differential of I_m, so each partial of I_m is taken once per
        report, however many relations ``realize_syzygy`` reads.
        """
        ach = syzygy_chart()
        values = {}
        for m, inv in zip((1, 2, 3), self.invariants):
            values[ach.key_of(f"I{m}")] = inv
            dinv = DifferentialForm(self.chart, 0, {(): inv}).d()
            for i, X in enumerate(self.frame, 1):
                values[ach.key_of(f"X{i}I{m}")] = X.pair(dinv)
        return values

    def structure_lines(self, render, lhs="d(theta{})",
                        term="({})*theta{}^theta{}"):
        """The four structure equations, one line each.

        ``render`` prints a coefficient; ``lhs`` spells d theta^a from a,
        and ``term`` a coefficient times theta^j ^ theta^k from the
        printed coefficient, j and k, all numbered from 1.
        """
        torsion = sorted(self.structure.T.items())
        out = []
        for alpha in range(4):
            body = " + ".join(
                term.format(render(c), j + 1, k + 1)
                for (a, j, k), c in torsion if a == alpha and not c.is_zero
            )
            out.append(f"{lhs.format(alpha + 1)} = {body or 0}")
        return out


@lru_cache(maxsize=1)
def _symbolic_report() -> EquivalenceReport:
    ch = ode2_bundle_chart()
    half = Expression.const(ch, Fraction(1, 2))
    one = Expression.const(ch, 1)
    p = Expression.var(ch, "p")
    a3 = Expression.var(ch, "a3")
    f = Expression.var(ch, "f")
    fp = Expression.var(ch, "f_p")

    dx = DifferentialForm.basis(ch, "x")
    dy = DifferentialForm.basis(ch, "y")
    dp = DifferentialForm.basis(ch, "p")
    da3 = DifferentialForm.basis(ch, "a3")

    # natural coframe of the equation and its lift by the reduced group
    om1 = dp - f * dx
    om2 = dy - p * dx
    th1 = a3 * om1 - half * fp * a3 * om2
    th2 = a3 * om2
    th3 = dx
    pi = (one / a3) * da3

    theta = [th1, th2, th3]
    lifted = coframe_structure_equations(ch, theta, [pi])
    theta += absorb_torsion(lifted).absorbed_pi_forms(theta, [pi])
    frame = Coframe(ch, theta).dual_frame()
    return EquivalenceReport(
        ch, theta, frame, coframe_structure_equations(ch, theta, [])
    )


def _on_chart(f, chart: Chart) -> Expression:
    """A right-hand side in x, y, p moved onto ``chart``.

    The value is rebased onto a chart that extends its own and projected
    onto one that its own extends; one it cannot reach raises DomainError.
    """
    if not isinstance(f, Expression):
        raise TypeError("expected an Expression for the right-hand side")
    try:
        if chart.is_extension_of(f.chart):
            return f.rebase(chart)
        return f.project(chart)
    except ChartMismatch:
        raise DomainError(
            "the right-hand side must live on the (x, y, p) chart"
        ) from None


class _ConcreteReport(EquivalenceReport):
    """The symbolic report ``sym`` under the ``Substitution`` ``se``.

    The torsion table is mapped at once, its constant entries as they
    are; theta and the frame are mapped when first read, and kept.
    """

    def __init__(self, sym, se):
        s = sym.structure
        T = {k: c if c.is_const else se(c) for k, c in s.T.items()}
        self.chart = se.chart
        self.structure = StructureEquations(se.chart, s.a, s.n, s.r, {}, T)
        self._sym, self._se = sym, se

    def _mapped(self, field_or_form):
        return {i: self._se(c) for i, c in field_or_form.comps.items()}

    @cached_property
    def theta(self):
        return [DifferentialForm(self.chart, 1, self._mapped(t))
                for t in self._sym.theta]

    @cached_property
    def frame(self):
        return [VectorField(self.chart, self._mapped(X)) for X in self._sym.frame]


def run_equivalence_ode2(f: Expression | None = None) -> EquivalenceReport:
    """Invariant coframe of y'' = f; symbolic f when none is given.

    The symbolic run is computed once and cached.  A concrete right-hand
    side gives that report under one ``Substitution`` of f, which maps
    the torsion table, and so the invariants, at once, and theta and the
    frame when they are first read.  This class needs no prolongation.
    """
    rep = _symbolic_report()
    if f is None:
        return rep
    ch = rep.chart
    return _ConcreteReport(rep, Substitution(ch, "f", _on_chart(f, ch)))


# ----------------------------------------------------------------------
# syzygies from the Poincare lemma


SYZYGY_PARAMS = ("I1", "I2", "I3") + tuple(
    f"X{i}I{m}" for m in (1, 2, 3) for i in (1, 2, 3, 4)
)


def syzygy_chart() -> Chart:
    """Abstract ring for relations among invariants and their derivatives.

    The coordinates stand in for the invariant coframe directions; the
    parameters are the invariants and their coframe derivatives, all
    treated as independent quantities until the relations cut them down.
    """
    return Chart(coords=("q1", "q2", "q3", "q4"), params=SYZYGY_PARAMS)


class SyzygyReport:
    def __init__(self, chart, relations):
        self.chart = chart
        self.relations = relations


def syzygies_ode2(f: Expression | None = None) -> SyzygyReport:
    """All relations d(d theta) = 0 forces on the structure coefficients.

    The structure coefficients are lifted to an abstract ring where the
    invariants and their coframe derivatives are independent symbols; the
    coefficients of the resulting 3-forms are the syzygies.
    """
    rep = run_equivalence_ode2(f)
    ach = syzygy_chart()
    avar = {name: Expression.var(ach, name) for name in SYZYGY_PARAMS}

    def lift(c: Expression) -> Expression:
        if c.is_const:
            return Expression.const(ach, c.const_value())
        for m, val in zip((1, 2, 3), rep.invariants):
            if c == val:
                return avar[f"I{m}"]
            if c == -val:
                return -avar[f"I{m}"]
        raise DomainError("structure coefficient is not spanned by the invariants")

    # lifted structure 2-forms S^a = sum c[a,j,k] dq_j ^ dq_k
    torsion = [(a, j, k, lift(c))
               for (a, j, k), c in sorted(rep.structure.T.items())]
    dq = [DifferentialForm.basis(ach, f"q{i}") for i in (1, 2, 3, 4)]
    S = [DifferentialForm.zero(ach, 2) for _ in range(4)]
    for a, j, k, lc in torsion:
        S[a] = S[a] + lc * dq[j].wedge(dq[k])

    def dscalar(e: Expression) -> DifferentialForm:
        # invariants vary only through their coframe derivatives
        out = DifferentialForm.zero(ach, 1)
        for m in (1, 2, 3):
            de = e.partial(f"I{m}")
            if de.is_zero:
                continue
            for i in (1, 2, 3, 4):
                out = out + de * avar[f"X{i}I{m}"] * dq[i - 1]
        return out

    # d(d theta^a), whose components are the relations
    dd = [DifferentialForm.zero(ach, 3) for _ in range(4)]
    for a, j, k, lc in torsion:
        dd[a] = (dd[a] + dscalar(lc).wedge(dq[j].wedge(dq[k]))
                 + lc * (S[j].wedge(dq[k]) - dq[j].wedge(S[k])))
    return SyzygyReport(ach, distinct_up_to_sign(
        form.comps[idx] for form in dd for idx in sorted(form.comps)
    ))


def realize_syzygy(rel: Expression, rep: EquivalenceReport) -> Expression:
    """Evaluate an abstract relation in coordinates for a given report.

    ``rel`` passes ``require_chart`` on ``syzygy_chart()``: anything but
    an Expression raises TypeError, and one on another chart
    ChartMismatch.  The values come from ``rep.syzygy_values``.
    """
    require_chart(rel, syzygy_chart(), "a relation")
    if not isinstance(rep, EquivalenceReport):
        raise TypeError("rep must be an EquivalenceReport")
    values = rep.syzygy_values
    if not rel.variables() <= values.keys():
        raise DomainError("relation mentions a coframe direction")
    return rel.map_vars(values, rep.chart)


# ----------------------------------------------------------------------
# flatness


class FlatnessReport:
    def __init__(self, problem: str, residuals):
        self.problem = problem
        self.residuals = list(residuals)

    @property
    def flat(self) -> bool:
        return all(r.is_zero for r in self.residuals)

    def failing(self):
        """1-based indices of the nonzero residuals."""
        return [i + 1 for i, r in enumerate(self.residuals) if not r.is_zero]


def check_flat_ode2(f: Expression) -> FlatnessReport:
    """Is y'' = f equivalent to y'' = 0 under the pseudogroup?

    The two residuals are f_ppp and the combination
    f_xp + f f_pp - 2 f_y - (1/2) f_p^2 + p f_yp, which equals 2 I1.  Both
    are read off one ``Partials`` table of f: r1 is its entry, and twice
    r2 is one sum of products of its unreduced entries, reduced once.
    """
    f = _on_chart(f, ode2_chart())
    X, Y, P = (0,), (1,), (2,)
    t = Partials(f, {0: "x", 1: "y", 2: "p"})
    base = t.base
    fp = t.raw(P)
    p = Polynomial.var(f.chart.key_of("p")), 1, base.zeros
    # 2 f_xp + 2 f f_pp - 4 f_y - f_p^2 + 2 p f_yp, over 2
    r2 = base.sum([
        (2, t.raw(X + P)),
        (2, base.product(t.raw(()), t.raw(P + P))),
        (-4, t.raw(Y)),
        (-1, base.product(fp, fp)),
        (2, base.product(p, t.raw(Y + P))),
    ], 2)
    return FlatnessReport("ode2", [t[P + P + P], base.reduce(*r2)])


# ----------------------------------------------------------------------
# the Painleve I normal form


def painleve_map(f: Expression):
    """Recover (eta, C) with x -> x + C, y -> eta mapping y''=f to Painleve I.

    Requires I2 = I3 = 0 (otherwise NotInClass); the candidate is then
    eta = -I1/12 and C = -(1/24) I1^2 - (1/12) X3(X3(I1)) - x, and C must
    be a constant (otherwise NotEquivalent listing the nonzero closure
    residuals -12 X_i(C); a flat equation fails the X3 relation with
    residual 12); both refusals carry their residuals as Expressions.

    In the class f = a p^2 + b p + c, and I3 = 0 says b_y = 2 a_x, which
    cancels the p and p^2 terms of I1: I1 = (4ac - b^2 - 4c_y + 2b_x)/4.
    On functions free of p and a3, X3 is the total derivative, so
    X3(X3(I1)) = I1_xx + 2p I1_xy + p^2 I1_yy + f I1_y, each partial read
    off one ``Partials`` table of I1.  The frame is a basis, so the four
    X_i(C) vanish exactly when C is a constant; only a refusal maps the
    frame, to name the failing relations.
    """
    rep = run_equivalence_ode2(f)
    I1, I2, I3 = rep.invariants
    if not I2.is_zero:
        raise NotInClass("I2", I2)
    if not I3.is_zero:
        raise NotInClass("I3", I3)

    ch = ode2_chart()
    I1 = I1.project(ch)
    t = Partials(I1, {0: "x", 1: "y"})
    base = t.base
    X, Y = (0,), (1,)
    p = Polynomial.var(ch.key_of("p"))
    x = Polynomial.var(ch.key_of("x")), 1, base.zeros
    p1, p2 = (p, 1, base.zeros), (p * p, 1, base.zeros)
    # -I1^2 - 2 I1_xx - 4p I1_xy - 2p^2 I1_yy - 24x, over 24
    head = base.sum([
        (-1, base.product(t.raw(()), t.raw(()))),
        (-2, t.raw(X + X)),
        (-4, base.product(p1, t.raw(X + Y))),
        (-2, base.product(p2, t.raw(Y + Y))),
        (-24, x),
    ], 24)
    c12 = Expression.const(ch, Fraction(-1, 12))
    C = base.reduce(*head) + c12 * _on_chart(f, ch) * t[Y]
    if not C.is_const:
        # one differential of C, so that each partial of it is taken once
        C = C.rebase(rep.chart)
        dC = DifferentialForm(rep.chart, 0, {(): C}).d()
        m12 = Expression.const(rep.chart, -12)
        failures = {}
        for name, Xi in zip(("X1", "X2", "X3", "X4"), rep.frame):
            res = m12 * Xi.pair(dC)
            if not res.is_zero:
                failures[name] = res
        raise NotEquivalent(failures)

    if t[Y].is_zero:
        raise VanishingJacobian("the recovered eta does not depend on y")
    return c12 * I1, C


def pullback_ode2(eta: Expression, C: Expression,
                  fbar: Expression) -> Expression:
    """Right-hand side of the equation pulled back along x+C, eta(x, y).

    All inputs live on the base chart: eta in (x, y) with eta_y not
    identically zero, C a constant, fbar in (x, y, p).  The five partials
    of eta it needs are read off one ``Partials`` table of eta.
    """
    ch = ode2_chart()
    for name, e in (("eta", eta), ("C", C), ("fbar", fbar)):
        require_chart(e, ch, name)
    pkey = ch.key_of("p")
    if pkey in eta.variables():
        raise DomainError("eta may only depend on x and y")
    if not C.is_const:
        raise DomainError("C must be a constant")
    t = Partials(eta, {0: "x", 1: "y"})
    eta_y = t[1,]
    if eta_y.is_zero:
        raise VanishingJacobian("eta must depend on y")

    x = Expression.var(ch, "x")
    p = Expression.var(ch, "p")
    fb = fbar.subs_coords({"x": x + C, "y": eta, "p": t[0,] + p * eta_y})
    return (fb - t[0, 0] - 2 * p * t[0, 1] - p * p * t[1, 1]) / eta_y
