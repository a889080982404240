"""Exact elimination over the expression field, checked against Fractions."""

from fractions import Fraction

import pytest

from cartaneq import Chart, Expression, SingularCoframe
from cartaneq.linsolve import det, invert, rank, rref

from conftest import seeded

CH = Chart(coords=("z",))


def C(q):
    return Expression.const(CH, q)


def _random_matrix(rng, rows, cols, span=5):
    return [
        [C(Fraction(rng.randint(-span, span), rng.randint(1, 3)))
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _frac_rank(rows):
    m = [[Fraction(e.const_value()) for e in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][col] for v in m[r]]
        for i in range(nr):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_matches_fraction_elimination():
    rng = seeded(501)
    for _ in range(60):
        rows = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(rows, CH) == _frac_rank(rows)


def test_rref_is_reduced_and_consistent():
    rng = seeded(502)
    for _ in range(40):
        rows = _random_matrix(rng, 3, 4)
        red, pivots = rref(rows, CH)
        for r, c in enumerate(pivots):
            assert red[r][c] == 1
            for other in range(len(red)):
                if other != r:
                    assert red[other][c].is_zero
        assert _frac_rank(red) == _frac_rank(rows)


def test_invert_against_multiplication():
    rng = seeded(503)
    done = 0
    while done < 25:
        rows = _random_matrix(rng, 3, 3)
        try:
            inv = invert(rows, CH)
        except SingularCoframe:
            continue
        done += 1
        for i in range(3):
            for j in range(3):
                s = sum(
                    (rows[i][k] * inv[k][j] for k in range(3)),
                    C(0),
                )
                assert s == (1 if i == j else 0)


def test_invert_singular_raises():
    rows = [[C(1), C(2)], [C(2), C(4)]]
    with pytest.raises(SingularCoframe):
        invert(rows, CH)


def _perm_det(rows):
    import itertools

    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]].const_value())
        total += sign * prod
    return total


def test_det_matches_permanent_expansion():
    rng = seeded(504)
    for n in (1, 2, 3):
        for _ in range(20):
            rows = _random_matrix(rng, n, n)
            assert det(rows, CH).const_value() == _perm_det(rows)


def test_det_multiplicative_on_symbolic_entries():
    ch = Chart(coords=("z",), params=("a", "b", "c", "d"))
    v = lambda n: Expression.var(ch, n)
    A = [[v("a"), v("b")], [v("c"), v("d")]]
    B = [[v("d"), C(0).rebase(ch)], [v("b"), v("a")]]
    AB = [
        [sum((A[i][k] * B[k][j] for k in range(2)), Expression.const(ch, 0))
         for j in range(2)]
        for i in range(2)
    ]
    assert det(AB, ch) == det(A, ch) * det(B, ch)
