"""Exact linear algebra over the expression field.

A matrix is a list of sparse rows, each a ``{column: Expression}`` dict
that stores only nonzero entries, as do form components and a
prolongation's ``lam`` table; ``add_entry`` adds into any such dict.
One kernel eliminates: Gauss-Jordan ``rref``.  Absorption and ``invert``
read the reduced rows; a rank is the number of pivots.  The pivot rule
puts a constant first, because dividing by a constant makes no
denominator, and that keeps the polynomial matrices of Cartan's method
from swelling.  A chart is needed only where a constant is made, so only
``invert``, which builds an identity, takes one.  Because expression
equality is decidable, ranks and pivots are exact; no numeric tolerance
appears anywhere.
"""

from __future__ import annotations

from .chart import Chart
from .errors import SingularCoframe
from .expr import Expression


def add_entry(acc, key, term):
    """acc[key] += term in place, deleting the entry if the sum cancels.

    ``acc`` holds only nonzero entries and ``term`` is nonzero.
    """
    old = acc.get(key)
    if old is not None:
        term = old + term
        if term.is_zero:
            del acc[key]
            return
    acc[key] = term


def rref(rows, max_col=None):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    ``rows`` is not modified, and zero entries are dropped from the copy.
    Only columns below ``max_col`` are eligible as pivots, so trailing
    right-hand-side columns ride along passively.  A column's pivot is a
    constant if it has one, since dividing by a constant makes no
    denominator; otherwise its entry of smallest canonical size; ties go
    to the earliest row.  Without ``max_col``, the rows past the pivots
    come back empty.
    """
    rows = [{c: e for c, e in r.items() if not e.is_zero} for r in rows]
    cols = sorted({c for r in rows for c in r})
    if max_col is not None:
        cols = [c for c in cols if c < max_col]
    pivots = []
    r0 = 0
    for col in cols:
        if r0 >= len(rows):
            break
        pr = best = None
        for r in range(r0, len(rows)):
            e = rows[r].get(col)
            if e is not None:
                cost = (not e.is_const, e.size, r)
                if best is None or cost < best:
                    pr, best = r, cost
        if pr is None:
            continue
        rows[r0], rows[pr] = rows[pr], rows[r0]
        prow = rows[r0]
        if prow[col] != 1:
            inv = 1 / prow[col]
            prow = rows[r0] = {c: e * inv for c, e in prow.items()}
        for r in range(len(rows)):
            row = rows[r]
            factor = row.get(col)
            if r != r0 and factor is not None:
                for c, b in prow.items():
                    add_entry(row, c, -(factor * b))
        pivots.append(col)
        r0 += 1
    return rows, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def invert(rows, chart: Chart):
    """Inverse of a square matrix of expressions, as sparse rows.

    Raises SingularCoframe when the matrix is not square (a row has an
    entry in a column at or beyond the number of rows) or when its
    determinant vanishes identically.
    """
    n = len(rows)
    if any(c >= n for row in rows for c in row):
        raise SingularCoframe(f"a {n}-row matrix has an entry beyond column {n - 1}")
    one = Expression.const(chart, 1)
    aug = [{**row, n + i: one} for i, row in enumerate(rows)]
    red, pivots = rref(aug, max_col=n)
    if pivots != list(range(n)):
        raise SingularCoframe("matrix is singular")
    return [{c - n: e for c, e in row.items() if c >= n} for row in red]
