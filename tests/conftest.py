import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cartaneq
from cartaneq import Chart, Expression


@pytest.fixture
def xyp_chart():
    return Chart(coords=("x", "y", "p"))


@pytest.fixture
def opaque_chart():
    return Chart(
        coords=("x", "y", "p"),
        params=("a3",),
        functions=[("f", ("x", "y", "p")), ("g", ("x", "y"))],
    )


def random_expression(chart, rng, depth=3):
    """A random expression tree over the chart's variables.

    Division is kept rare and guarded so most samples stay polynomial;
    the point is to exercise canonicalization, not to time gcd.
    """
    if depth == 0 or rng.random() < 0.35:
        kind = rng.random()
        if kind < 0.4:
            return Expression.const(
                chart, Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            )
        names = chart.basis_names()
        return Expression.var(chart, rng.choice(names))
    a = random_expression(chart, rng, depth - 1)
    b = random_expression(chart, rng, depth - 1)
    op = rng.random()
    if op < 0.4:
        return a + b
    if op < 0.7:
        return a - b
    if op < 0.92:
        return a * b
    if not b.is_zero:
        return a / b
    return a + b


def random_point(chart, rng, names=None):
    """Random rational evaluation point keyed by name."""
    if names is None:
        names = chart.basis_names()
    return {
        n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in names
    }


def point_for(exprs, rng):
    """A point covering every variable (derivative symbols included)."""
    chart = exprs[0].chart
    names = set()
    for e in exprs:
        for k in e.variables():
            names.add(chart.var_name(k))
    return {
        n: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for n in sorted(names)
    }


def seeded(seed):
    return random.Random(seed)


def run_fresh(code, *args, timeout):
    """Run ``code`` in a fresh interpreter that imports this cartaneq.

    Returns its stdout; fails the test if it exits nonzero or does not
    finish within ``timeout`` seconds.
    """
    env = dict(os.environ)
    src = str(Path(cartaneq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"{args} did not finish in {timeout} s")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
