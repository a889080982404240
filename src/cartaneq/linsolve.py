"""Exact linear algebra over the expression field.

A matrix is a list of sparse rows, each a ``{column: Expression}`` dict
that stores only nonzero entries; elimination is plain Gauss-Jordan on
those rows.  Because expression equality is decidable, ranks and pivots
are exact; no numeric tolerance appears anywhere.
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
            if r == r0 or factor is None:
                continue
            for c, b in prow.items():
                a = row.get(c)
                v = -(factor * b) if a is None else a - factor * b
                if v.is_zero:
                    del row[c]
                else:
                    row[c] = v
        pivots.append(col)
        r0 += 1
    return rows, pivots


def rank(rows, chart: Chart) -> int:
    _, pivots = rref(rows, chart)
    return len(pivots)


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
