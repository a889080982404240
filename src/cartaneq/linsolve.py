"""Exact linear algebra over the expression field.

Everything here is plain Gauss-Jordan on lists of lists of Expressions.
Because expression equality is decidable, ranks and pivots are exact; no
numeric tolerance appears anywhere.
"""

from __future__ import annotations

from .chart import Chart
from .errors import SingularCoframe
from .expr import Expression


def _pick_pivot(rows, col, start):
    """Row index of the cheapest nonzero entry in a column, or None.

    Cheapest means smallest canonical size (term count of numerator plus
    denominator); ties go to the earliest row, which keeps the reduction
    deterministic.
    """
    best = None
    best_cost = None
    for r in range(start, len(rows)):
        e = rows[r][col]
        if e.is_zero:
            continue
        cost = (e.size, r)
        if best_cost is None or cost < best_cost:
            best, best_cost = r, cost
    return best


def rref(rows, chart: Chart, max_col=None):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    ``rows`` is not modified.  Only columns below ``max_col`` are eligible
    as pivots, so trailing right-hand-side columns ride along passively.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0]) if max_col is None else max_col
    pivots = []
    r0 = 0
    for col in range(ncols):
        if r0 >= len(rows):
            break
        pr = _pick_pivot(rows, col, r0)
        if pr is None:
            continue
        rows[r0], rows[pr] = rows[pr], rows[r0]
        piv = rows[r0][col]
        if not (piv == 1):
            inv = Expression.const(chart, 1) / piv
            rows[r0] = [e * inv for e in rows[r0]]
        for r in range(len(rows)):
            if r == r0:
                continue
            factor = rows[r][col]
            if factor.is_zero:
                continue
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[r0])]
        pivots.append(col)
        r0 += 1
    return rows, pivots


def rank(rows, chart: Chart) -> int:
    _, pivots = rref(rows, chart)
    return len(pivots)


def invert(matrix, chart: Chart):
    """Inverse of a square matrix of expressions.

    Raises SingularCoframe when the determinant vanishes identically.
    """
    n = len(matrix)
    one = Expression.const(chart, 1)
    zero = Expression.const(chart, 0)
    aug = [
        list(matrix[i]) + [one if i == j else zero for j in range(n)]
        for i in range(n)
    ]
    red, pivots = rref(aug, chart)
    if pivots[:n] != list(range(n)):
        raise SingularCoframe("matrix is singular")
    return [row[n:] for row in red]


def det(matrix, chart: Chart) -> Expression:
    """Determinant by cofactor expansion; meant for small blocks."""
    n = len(matrix)
    if n == 0:
        return Expression.const(chart, 1)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = Expression.const(chart, 0)
    for j in range(n):
        a = matrix[0][j]
        if a.is_zero:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = a * det(minor, chart)
        total = total + term if j % 2 == 0 else total - term
    return total
