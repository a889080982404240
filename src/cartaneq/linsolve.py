"""Exact linear algebra over the expression field.

A matrix is a list of sparse rows, each a ``{column: Expression}`` dict
that stores only nonzero entries.  A rank is the size of a forward
echelon (``Echelon``) that takes the rows one at a time, so ranks of a
growing stack of rows cost one reduction in all; absorption and
``invert`` need the reduced form and take plain Gauss-Jordan (``rref``).
Because expression equality is decidable, ranks and pivots are exact; no
numeric tolerance appears anywhere.
"""

from __future__ import annotations

from .chart import Chart
from .errors import SingularCoframe
from .expr import Expression


def _pick_pivot(rows, col, start):
    """Row index of the cheapest nonzero entry in a column, or None.

    A constant entry is always cheapest, since dividing by it creates no
    denominator; among constants, and among non-constants, the smaller
    canonical size (term count of numerator plus denominator) wins, and
    ties go to the earliest row, which keeps the reduction deterministic.
    """
    best = None
    best_cost = None
    for r in range(start, len(rows)):
        e = rows[r].get(col)
        if e is None:
            continue
        cost = (not e.is_const, e.size, r)
        if best_cost is None or cost < best_cost:
            best, best_cost = r, cost
    return best


def _subtract(row, factor, prow):
    """row -= factor * prow in place, deleting the entries that cancel."""
    for c, b in prow.items():
        a = row.get(c)
        v = -(factor * b) if a is None else a - factor * b
        if v.is_zero:
            del row[c]
        else:
            row[c] = v


def rref(rows, chart: Chart, max_col=None):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    ``rows`` is not modified, and zero entries are dropped from the copy.
    Only columns below ``max_col`` are eligible as pivots, so trailing
    right-hand-side columns ride along passively.
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
        pr = _pick_pivot(rows, col, r0)
        if pr is None:
            continue
        rows[r0], rows[pr] = rows[pr], rows[r0]
        prow = rows[r0]
        piv = prow[col]
        if not (piv == 1):
            inv = Expression.const(chart, 1) / piv
            prow = rows[r0] = {c: e * inv for c, e in prow.items()}
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
    cheapest entry by the rule of ``_pick_pivot``, ties to the lowest
    column.  The rows are never reduced upwards, which a rank does not
    need.
    """

    def __init__(self, chart: Chart):
        self.chart = chart
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
        col = min(row, key=lambda c: (not row[c].is_const, row[c].size, c))
        piv = row[col]
        if not (piv == 1):
            inv = Expression.const(self.chart, 1) / piv
            row = {c: e * inv for c, e in row.items()}
        self._rows.append((col, row))


def rank(rows, chart: Chart) -> int:
    echelon = Echelon(chart)
    for row in rows:
        echelon.add(row)
    return len(echelon)


def invert(rows, chart: Chart):
    """Inverse of a square matrix of expressions, as sparse rows.

    Raises SingularCoframe when the determinant vanishes identically.
    """
    n = len(rows)
    one = Expression.const(chart, 1)
    aug = [{**row, n + i: one} for i, row in enumerate(rows)]
    red, pivots = rref(aug, chart, max_col=n)
    if pivots != list(range(n)):
        raise SingularCoframe("matrix is singular")
    return [{c - n: e for c, e in row.items() if c >= n} for row in red]
