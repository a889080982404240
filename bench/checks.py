"""Exact evaluation of rendered expressions, for checking op outputs.

cartaneq renders an expression as text in a small grammar: integers,
names, ``+ - * / ^`` and parentheses.  The checks here read that text back
with Python's own arithmetic over ``Fraction``, never with cartaneq, so an
output is compared with values computed apart from the program.

An expectation maps an output field to one of

- ``("equal", v)``: the field must equal ``v`` exactly;
- ``("at", [(point, value), ...])``: the rendered field, evaluated at each
  point, must give that value (``None`` marks a pole of the expected
  function, where the field must have a pole too).
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

_ALLOWED = re.compile(r"^[0-9A-Za-z_+\-*/^() ]*$")
_POWER = re.compile(r"\^(\d+)")
_INT = re.compile(r"(?<![\w*])(\d+)")


def evaluate(text: str, point) -> Fraction:
    """Value of a rendered expression at ``point`` ({name: Fraction})."""
    if not _ALLOWED.match(text):
        raise ValueError(f"unexpected character in {text[:80]!r}")
    src = _INT.sub(r"F(\1)", _POWER.sub(r"**\1", text))
    env = {"__builtins__": {}, "F": Fraction}
    env.update(point)
    return Fraction(eval(compile(src, "<rendered>", "eval"), env))


def value_or_pole(fn, point):
    try:
        return fn(point)
    except ZeroDivisionError:
        return None


def random_points(rng: random.Random, names, count: int):
    """``count`` points with small nonzero rational coordinates."""
    return [
        {
            n: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            for n in names
        }
        for _ in range(count)
    ]


def at(points, fn):
    """Expectation that a rendered field agrees with ``fn`` at ``points``."""
    return ("at", [(pt, value_or_pole(fn, pt)) for pt in points])


def _field(out, path):
    """``out["a"]["b"]`` or ``out["a"][0]`` for the paths ``a.b`` and ``a.0``."""
    for part in path.split("."):
        out = out[int(part)] if isinstance(out, list) else out[part]
    return out


def problems(expect, out):
    """List of mismatches between an op's output and its expectation."""
    bad = []
    for field, (how, want) in expect.items():
        try:
            got = _field(out, field)
        except (KeyError, IndexError, TypeError):
            bad.append(f"{field}: missing from output")
            continue
        if how == "equal":
            if got != want:
                bad.append(f"{field}: got {str(got)[:120]!r}, want {want!r}")
            continue
        for pt, value in want:
            have = value_or_pole(lambda p: evaluate(got, p), pt)
            if have != value:
                bad.append(
                    f"{field}: {have} != {value} at {pt} for {str(got)[:120]!r}"
                )
                break
    return bad
