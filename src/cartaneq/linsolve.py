"""Exact linear algebra over the expression field.

A matrix is a list of sparse rows, each a ``{column: Expression}`` dict
that stores only nonzero entries, as do form components and a
prolongation's ``lam`` table; ``add_entry`` adds into any such dict.  A
rank is the size of a forward echelon (``Echelon``) that takes the rows
one at a time, so ranks of a growing stack of rows cost one reduction in
all; absorption and ``invert`` need the reduced form and take plain
Gauss-Jordan (``rref``).  Both pick pivots by one rule, ``_cost``, and
scale them to 1 by ``_unit``.  A pivot carries its chart, so only
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


def _cost(e, tie):
    """Pivot cost: a constant first (dividing by it makes no denominator),
    then the smaller canonical size, then the smaller ``tie``."""
    return (not e.is_const, e.size, tie)


def _unit(row, col):
    """``row`` scaled to a 1 in column ``col``."""
    if row[col] == 1:
        return row
    inv = 1 / row[col]
    return {c: e * inv for c, e in row.items()}


def _subtract(row, factor, prow):
    """row -= factor * prow in place, deleting the entries that cancel."""
    for c, b in prow.items():
        add_entry(row, c, -(factor * b))


def rref(rows, max_col=None):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    ``rows`` is not modified, and zero entries are dropped from the copy.
    Only columns below ``max_col`` are eligible as pivots, so trailing
    right-hand-side columns ride along passively.  A column's pivot is its
    cheapest entry, ties to the earliest row.
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
                cost = _cost(e, r)
                if best is None or cost < best:
                    pr, best = r, cost
        if pr is None:
            continue
        rows[r0], rows[pr] = rows[pr], rows[r0]
        prow = rows[r0] = _unit(rows[r0], col)
        for r in range(len(rows)):
            row = rows[r]
            factor = row.get(col)
            if r != r0 and factor is not None:
                _subtract(row, factor, prow)
        pivots.append(col)
        r0 += 1
    return rows, pivots


class Echelon:
    """A forward echelon that grows by one row at a time; ``len`` is its rank.

    Each kept row has a 1 in its pivot column and a 0 in the pivot
    columns of the rows kept before it, so a new row, reduced against the
    kept rows in order, meets each pivot column once.  Its pivot is its
    ``_cost``-cheapest entry, ties to the lowest column, the rule ``rref``
    applies down a column.  The rows are never reduced upwards, which a
    rank does not need.
    """

    def __init__(self):
        self._rows = []

    def __len__(self):
        return len(self._rows)

    def add(self, row):
        """Reduce ``row`` (not modified) and keep it if it adds rank."""
        row = {c: e for c, e in row.items() if not e.is_zero}
        for col, prow in self._rows:
            factor = row.get(col)
            if factor is not None:
                _subtract(row, factor, prow)
        if not row:
            return
        col = min(row, key=lambda c: _cost(row[c], c))
        self._rows.append((col, _unit(row, col)))


def rank(rows) -> int:
    echelon = Echelon()
    for row in rows:
        echelon.add(row)
    return len(echelon)


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
