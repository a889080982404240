"""Exact elimination over the expression field, checked against Fractions."""

from fractions import Fraction

import pytest

from cartaneq import Chart, Expression, SingularCoframe
from cartaneq.linsolve import add_entry, invert, rank, rref
from cartaneq.pfaffian import contact_system

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


def _sparse(rows):
    """The library's row format: {column: entry}, nonzero entries only."""
    return [{c: e for c, e in enumerate(r) if not e.is_zero} for r in rows]


def _dense(rows, ncols):
    return [[r.get(c, C(0)) for c in range(ncols)] for r in rows]


def _snapshot(rows):
    return [dict(r) for r in rows]


def _stores_no_zero(rows):
    return all(not e.is_zero for r in rows for e in r.values())


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
        sparse = _sparse(rows)
        before = _snapshot(sparse)
        assert rank(sparse) == _frac_rank(rows)
        assert sparse == before


def test_rank_matches_sympy_over_the_rational_functions():
    # sparse rows of constant, polynomial and rational entries, with
    # zero and repeated rows, each entry built alongside as a SymPy
    # expression and ranked by DomainMatrix over Q(x, y)
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ch = Chart(coords=("x", "y"))
    x, y = Expression.var(ch, "x"), Expression.var(ch, "y")
    sx, sy = sp.symbols("x y")
    field = sp.QQ.frac_field(sx, sy)
    rng = seeded(504)

    def entry(kind):
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        e, s = Expression.const(ch, q), sp.Rational(q.numerator, q.denominator)
        if kind == "const":
            return e, s
        k, i, j = rng.randint(-2, 2), rng.randint(0, 2), rng.randint(0, 1)
        e, s = e + k * x ** i * y ** j, s + k * sx ** i * sy ** j
        if kind == "rational" and rng.random() < 0.5:
            b, d = rng.randint(1, 3), rng.randint(-2, 2)
            e, s = e / (x + b * y + d), s / (sx + b * sy + d)
        return e, s

    for kind in ("const", "poly", "rational"):
        for _ in range(25):
            ncols = rng.randint(1, 5)
            pairs = []
            for _ in range(rng.randint(1, 6)):
                pick = rng.random()
                if pick < 0.15:
                    pairs.append({})
                elif pick < 0.3 and pairs:
                    pairs.append(dict(rng.choice(pairs)))
                else:
                    row = {}
                    for c in range(ncols):
                        e, s = entry(kind)
                        if rng.random() < 0.6 and not e.is_zero:
                            row[c] = e, s
                    pairs.append(row)
            rows = [{c: e for c, (e, _) in row.items()} for row in pairs]
            want = DomainMatrix(
                [[field.convert(row[c][1]) if c in row else field.zero
                  for c in range(ncols)] for row in pairs],
                (len(pairs), ncols), field).rank()
            before = _snapshot(rows)
            assert rank(rows) == want, (kind, rows)
            assert rows == before


def test_rref_is_reduced_and_consistent():
    rng = seeded(502)
    for _ in range(40):
        rows = _random_matrix(rng, 3, 4)
        sparse = _sparse(rows)
        before = _snapshot(sparse)
        red, pivots = rref(sparse)
        assert sparse == before
        assert _stores_no_zero(red)
        for r, c in enumerate(pivots):
            assert red[r][c] == 1
            for other in range(len(red)):
                if other != r:
                    assert c not in red[other]
        assert _frac_rank(_dense(red, 4)) == _frac_rank(rows)


def test_invert_against_multiplication():
    rng = seeded(503)
    done = 0
    while done < 25:
        rows = _random_matrix(rng, 3, 3)
        sparse = _sparse(rows)
        before = _snapshot(sparse)
        try:
            inv = invert(sparse, CH)
        except SingularCoframe:
            continue
        done += 1
        assert sparse == before
        assert _stores_no_zero(inv)
        inv = _dense(inv, 3)
        for i in range(3):
            for j in range(3):
                s = sum(
                    (rows[i][k] * inv[k][j] for k in range(3)),
                    C(0),
                )
                assert s == (1 if i == j else 0)


def test_invert_singular_raises():
    rows = [{0: C(1), 1: C(2)}, {0: C(2), 1: C(4)}]
    with pytest.raises(SingularCoframe):
        invert(rows, CH)


def test_contact_coframe_inverts_by_constant_pivots(monkeypatch):
    # each omega row holds a constant 1 and the monomials -u_i in its
    # column; taking the constant as pivot keeps every row a polynomial
    divisors = []
    real = Expression.__truediv__

    def spy(self, other):
        divisors.append(other)
        return real(self, other)

    monkeypatch.setattr(Expression, "__truediv__", spy)
    coframe = contact_system(3, 5, 1).coframe
    monkeypatch.undo()
    assert all(d.is_const for d in divisors), divisors

    chart = coframe.chart
    rows = [{k: c for (k,), c in f.comps.items()} for f in coframe.forms]
    zero = Expression.const(chart, 0)
    for i, row in enumerate(rows):
        for j in range(chart.dim):
            s = sum(
                (c * coframe.inverse[k].get(j, zero) for k, c in row.items()),
                zero,
            )
            assert s == (1 if i == j else 0)


def test_invert_refuses_a_matrix_that_is_not_square():
    # column 1 of a one-row matrix would land on the identity column n + 0
    with pytest.raises(SingularCoframe):
        invert([{0: C(2), 1: C(3)}], CH)
    with pytest.raises(SingularCoframe):
        invert([{0: C(1)}, {1: C(1), 2: C(1)}], CH)


def test_add_entry_keeps_only_nonzero_entries():
    acc = {}
    add_entry(acc, 0, C(1))
    add_entry(acc, 0, C(2))
    assert acc == {0: C(3)}
    add_entry(acc, 0, C(-3))
    assert acc == {}
