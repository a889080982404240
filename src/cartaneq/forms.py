"""Differential forms, exterior algebra, coframes and their dual frames.

A k-form stores components against strictly increasing tuples of basis
indices; the basis is the chart's coordinates followed by its parameters,
so parameter directions (da3 and friends) are first-class.  The exterior
derivative feeds every component through Expression.partial, which is what
lets d see through opaque function symbols.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from .chart import KIND_DERIV, Chart
from .errors import ChartMismatch, SingularCoframe, UnknownName
from .expr import Expression, require_chart
from . import linsolve


def _merge_sign(i_tuple, j_tuple):
    """Sorted union and permutation sign, or (None, 0) on a repeat."""
    merged = []
    i = j = 0
    sign = 1
    ni, nj = len(i_tuple), len(j_tuple)
    while i < ni and j < nj:
        a, b = i_tuple[i], j_tuple[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining entries of i_tuple
            merged.append(b)
            if (ni - i) % 2:
                sign = -sign
            j += 1
    merged.extend(i_tuple[i:])
    merged.extend(j_tuple[j:])
    return tuple(merged), sign


def _wedge(a, b):
    """The wedge of two forms given as {index tuple: Expression} dicts.

    Both operands hold only nonzero components, so every product is
    nonzero, and ``linsolve.add_entry`` keeps the result free of zeros.
    """
    out = {}
    for i_idx, x in a.items():
        for j_idx, y in b.items():
            merged, sign = _merge_sign(i_idx, j_idx)
            if merged is not None:
                linsolve.add_entry(out, merged, x * y if sign > 0 else -(x * y))
    return out


def _check(chart, form):
    """Refuse anything but a differential form on ``chart``."""
    if not isinstance(form, DifferentialForm):
        raise TypeError("expected a differential form")
    if form.chart != chart:
        raise ChartMismatch("forms live on different charts")


class DifferentialForm:
    """An exterior form of fixed degree with expression components."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps=None):
        if degree < 0:
            raise ValueError(f"a form has degree 0 or more, not {degree}")
        self.chart = chart
        self.degree = degree
        clean = {}
        if comps:
            dim = chart.dim
            for idx, c in comps.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError(f"bad index tuple {idx!r} for degree {degree}")
                if idx and not (0 <= idx[0] and idx[-1] < dim):
                    raise UnknownName(f"{idx!r} holds an index outside the basis")
                if not require_chart(c, chart, "a form component").is_zero:
                    clean[idx] = c
        self.comps = clean

    # ------------------------------------------------------------------

    @staticmethod
    def zero(chart: Chart, degree: int) -> "DifferentialForm":
        return DifferentialForm(chart, degree)

    @staticmethod
    def basis(chart: Chart, name: str) -> "DifferentialForm":
        """The coordinate differential dz for a coordinate or parameter."""
        idx = chart.basis_index(chart.key_of(name))
        return DifferentialForm(
            chart, 1, {(idx,): Expression.const(chart, 1)}
        )

    @staticmethod
    def one_form(chart: Chart, coeffs) -> "DifferentialForm":
        comps = {}
        for name, c in coeffs.items():
            idx = chart.basis_index(chart.key_of(name))
            if not isinstance(c, Expression):
                c = Expression.const(chart, c)
            if not c.is_zero:
                linsolve.add_entry(comps, (idx,), c)
        return DifferentialForm(chart, 1, comps)

    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def coefficient(self, idx) -> Expression:
        got = self.comps.get(tuple(idx))
        return got if got is not None else Expression.const(self.chart, 0)

    def coefficient_named(self, *names) -> Expression:
        idx = tuple(
            self.chart.basis_index(self.chart.key_of(n)) for n in names
        )
        return self.coefficient(idx)

    def __eq__(self, other):
        return (
            isinstance(other, DifferentialForm)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.comps.items()))))

    def __repr__(self):
        basis = self.chart.basis_names()
        if not self.comps:
            return f"<{self.degree}-form 0>"
        from .parser import render_text

        bits = []
        for idx in sorted(self.comps):
            wedge = "^".join("d" + basis[i] for i in idx) or "1"
            bits.append(f"({render_text(self.comps[idx])}) {wedge}")
        return "<" + " + ".join(bits) + ">"

    # ------------------------------------------------------------------
    # linear structure

    def __add__(self, other):
        _check(self.chart, other)
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        comps = dict(self.comps)
        for idx, c in other.comps.items():
            linsolve.add_entry(comps, idx, c)
        return DifferentialForm(self.chart, self.degree, comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DifferentialForm(
            self.chart, self.degree, {i: -c for i, c in self.comps.items()}
        )

    def __mul__(self, scalar):
        if not isinstance(scalar, Expression):
            scalar = Expression.const(self.chart, scalar)
        if scalar.is_zero:
            return DifferentialForm(self.chart, self.degree)
        return DifferentialForm(
            self.chart,
            self.degree,
            {i: c * scalar for i, c in self.comps.items()},
        )

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # exterior algebra

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        _check(self.chart, other)
        degree = self.degree + other.degree
        return DifferentialForm(
            self.chart, degree, _wedge(self.comps, other.comps)
        )

    def d(self) -> "DifferentialForm":
        """Exterior derivative.

        A component without opaque derivative symbols is differentiated
        only along its own variables; one with such a symbol depends,
        through the chain rule, on directions it does not name, so it is
        differentiated along every basis direction.
        """
        chart = self.chart
        keys = chart.basis_keys()
        every = range(len(keys))
        out = {}
        for idx, c in self.comps.items():
            live = c.variables()
            if any(k[0] == KIND_DERIV for k in live):
                positions = every
            else:
                positions = sorted(chart.basis_index(k) for k in live)
            for pos in positions:
                if pos in idx:
                    continue
                dc = c.partial(keys[pos])
                if dc.is_zero:
                    continue
                new_idx, sign = _merge_sign((pos,), idx)
                linsolve.add_entry(out, new_idx, dc if sign > 0 else -dc)
        return DifferentialForm(self.chart, self.degree + 1, out)

    # ------------------------------------------------------------------

    def rebase(self, chart: Chart) -> "DifferentialForm":
        """Carry the form onto an extended chart, remapping basis indices."""
        if chart == self.chart:
            return self
        if not chart.is_extension_of(self.chart):
            raise ChartMismatch("target chart does not extend the source")
        nc_old = len(self.chart.coords)
        nc_new = len(chart.coords)

        def remap(i):
            return i if i < nc_old else i - nc_old + nc_new

        comps = {
            tuple(remap(i) for i in idx): c.rebase(chart)
            for idx, c in self.comps.items()
        }
        return DifferentialForm(chart, self.degree, comps)


def wedge(*forms):
    return reduce(DifferentialForm.wedge, forms)


class VectorField:
    """A derivation D = sum(c_v d/dv) over the basis directions.

    ``comps`` maps a basis direction, by name or by basis index, to its
    coefficient, each direction once; the frame fields of a coframe and
    the total derivatives along an equation are both of this kind.
    """

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        self.chart = chart
        given = {}
        for idx, c in comps.items():
            if isinstance(idx, str):
                idx = chart.basis_index(chart.key_of(idx))
            elif idx not in range(chart.dim):
                raise UnknownName(f"{idx!r} is not a basis index")
            if idx in given:
                raise ValueError(f"basis direction {idx} is given twice")
            if not isinstance(c, Expression):
                c = Expression.const(chart, c)
            given[idx] = require_chart(c, chart, "a coefficient")
        self.comps = {idx: c for idx, c in given.items() if not c.is_zero}

    def _sum(self, terms):
        """The sum of the nonzero ``terms``; a zero is built only for none."""
        terms = list(terms)
        return reduce(add, terms) if terms else Expression.const(self.chart, 0)

    def __call__(self, h: Expression) -> Expression:
        """Directional derivative of a scalar, sum of c_v dh/dv.

        ``h`` passes ``require_chart``: anything but an Expression raises
        TypeError, and one on another chart ChartMismatch.
        """
        require_chart(h, self.chart, "a scalar")
        keys = self.chart.basis_keys()
        partials = ((c, h.partial(keys[idx])) for idx, c in self.comps.items())
        return self._sum(c * dh for c, dh in partials if not dh.is_zero)

    def pair(self, form: DifferentialForm) -> Expression:
        """Interior pairing with a 1-form."""
        _check(self.chart, form)
        if form.degree != 1:
            raise ValueError("pairing is defined against 1-forms")
        return self._sum(self.comps[i] * c for (i,), c in form.comps.items()
                         if i in self.comps)

    def __repr__(self):
        from .parser import render_text

        basis = self.chart.basis_names()
        bits = [
            f"({render_text(c)}) d/d{basis[i]}"
            for i, c in sorted(self.comps.items())
        ]
        return "<" + (" + ".join(bits) if bits else "0") + ">"


class Coframe:
    """A full rank system of 1-forms spanning the cotangent space.

    ``inverse`` holds one sparse row per basis direction: row j expands
    dz^j on the coframe, ``{position in the coframe list: coefficient}``,
    and it is the coframe's only other representation: ``express`` wedges
    these rows as they are.  The constructor finds it by Gauss-Jordan
    elimination, which is also the full rank check: a singular list raises
    SingularCoframe.  A caller that already knows the inverse
    (``pfaffian.prolong`` derives it from the parent system's) builds
    through ``_from_inverse``, which checks nothing.
    """

    def __init__(self, chart: Chart, forms):
        forms = list(forms)
        n = chart.dim
        if len(forms) != n:
            raise SingularCoframe(
                f"need {n} one-forms for a coframe, got {len(forms)}"
            )
        for f in forms:
            _check(chart, f)
            if f.degree != 1:
                raise ValueError("coframe entries must be 1-forms")
        self.chart = chart
        self.forms = forms
        self.inverse = linsolve.invert(
            [{k: c for (k,), c in f.comps.items()} for f in forms], chart
        )

    @classmethod
    def _from_inverse(cls, chart: Chart, forms, inverse) -> "Coframe":
        """The coframe of ``forms`` with a known ``inverse``, unchecked."""
        self = cls.__new__(cls)
        self.chart, self.forms, self.inverse = chart, list(forms), inverse
        return self

    def express(self, form: DifferentialForm):
        """Components of a form in the coframe basis.

        Returns {increasing index tuple -> Expression}, nonzero entries
        only; for a k-form the coefficient of theta^{i1} ^ ... ^ theta^{ik}
        sits at (i1, ..., ik), positions in the coframe list.  Each
        component c dz^J adds c times the wedge of the inverse rows of J
        through ``linsolve.add_entry``, which drops a sum that cancels.
        """
        _check(self.chart, form)
        if form.degree == 0:
            return dict(form.comps)
        out = {}
        for idx, c in form.comps.items():
            rows = ({(k,): e for k, e in self.inverse[j].items()} for j in idx)
            for k, e in reduce(_wedge, rows).items():
                linsolve.add_entry(out, k, e * c)
        return dict(sorted(out.items()))

    def dual_frame(self):
        """Vector fields X_i with <X_i, theta^j> = delta_ij."""
        return [
            VectorField(self.chart, {
                k: row[i] for k, row in enumerate(self.inverse) if i in row
            })
            for i in range(self.chart.dim)
        ]
