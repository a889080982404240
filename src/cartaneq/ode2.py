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
from .expr import Expression, Substitution, require_chart
from .forms import Coframe, DifferentialForm, VectorField
from .pfaffian import (
    StructureEquations,
    absorb_torsion,
    cartan_characters,
    coframe_structure_equations,
    distinct_up_to_sign,
)


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
    """Evaluate an abstract relation in coordinates for a given report."""
    ach = rel.chart
    values = {}
    for m, inv in zip((1, 2, 3), rep.invariants):
        values[ach.key_of(f"I{m}")] = inv
        for i in (1, 2, 3, 4):
            values[ach.key_of(f"X{i}I{m}")] = rep.frame[i - 1](inv)
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
    f_xp + f f_pp - 2 f_y - (1/2) f_p^2 + p f_yp, which equals 2 I1.
    """
    f = _on_chart(f, ode2_chart())
    half = Expression.const(f.chart, Fraction(1, 2))
    p = Expression.var(f.chart, "p")
    fp = f.partial("p")
    fpp = fp.partial("p")
    r1 = fpp.partial("p")
    r2 = (
        fp.partial("x") + f * fpp - 2 * f.partial("y")
        - half * fp ** 2 + p * fp.partial("y")
    )
    return FlatnessReport("ode2", [r1, r2])


# ----------------------------------------------------------------------
# the Painleve I normal form


def painleve_map(f: Expression):
    """Recover (eta, C) with x -> x + C, y -> eta mapping y''=f to Painleve I.

    Requires I2 = I3 = 0 (otherwise NotInClass); the candidate is then
    eta = -I1/12 and C = -(1/24) I1^2 - (1/12) X3(X3(I1)) - x, and the
    four closure residuals -12 X_i(C) must vanish (otherwise NotEquivalent
    listing the failures; a flat equation fails the X3 relation with
    residual 12).  It reads the concrete report: the invariants and the
    four frame fields, 12 of the 24 components of the symbolic report.
    """
    from .parser import render_text

    rep = run_equivalence_ode2(f)
    ch = rep.chart
    I1, I2, I3 = rep.invariants
    if not I2.is_zero:
        raise NotInClass("I2", render_text(I2))
    if not I3.is_zero:
        raise NotInClass("I3", render_text(I3))

    X3 = rep.frame[2]
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


def pullback_ode2(eta: Expression, C: Expression,
                  fbar: Expression) -> Expression:
    """Right-hand side of the equation pulled back along x+C, eta(x, y).

    All inputs live on the base chart: eta in (x, y) with eta_y not
    identically zero, C a constant, fbar in (x, y, p).
    """
    ch = ode2_chart()
    for name, e in (("eta", eta), ("C", C), ("fbar", fbar)):
        require_chart(e, ch, name)
    pkey = ch.key_of("p")
    if pkey in eta.variables():
        raise DomainError("eta may only depend on x and y")
    if not C.is_const:
        raise DomainError("C must be a constant")
    eta_y = eta.partial("y")
    if eta_y.is_zero:
        raise VanishingJacobian("eta must depend on y")

    x = Expression.var(ch, "x")
    p = Expression.var(ch, "p")
    eta_x = eta.partial("x")
    fb = fbar.subs_coords({"x": x + C, "y": eta, "p": eta_x + p * eta_y})
    eta_xx = eta_x.partial("x")
    eta_xy = eta_x.partial("y")
    eta_yy = eta_y.partial("y")
    return (fb - eta_xx - 2 * p * eta_xy - p * p * eta_yy) / eta_y
