"""The operations a workload is made of, as the worker runs them.

``prepare(op)`` parses an op's inputs (off the clock) and returns a
thunk; calling the thunk is the timed operation, and ``serialize`` turns
its result into plain data for the checks.  Library functions are looked
up on their modules at call time, so tracing wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json

from cartaneq import cli, ode2, ode3, pfaffian, systems
from cartaneq.errors import NotEquivalent, NotInClass
from cartaneq.parser import parse_expression, render_text

_CHARTS = {"ode2": ode2.ode2_chart, "ode3": ode3.ode3_chart,
           "odesys": systems.odesys_chart, "pdesys": systems.pdesys_chart}
_FLAG_CHART = {"--f": "ode2", "--eta": "ode2", "--C": "ode2", "--target": "ode2",
               "--F1": "odesys", "--F2": "odesys",
               "--f11": "pdesys", "--f12": "pdesys", "--f22": "pdesys"}


def input_texts(op):
    """(chart, text) pairs of every expression an op reads."""
    args = op["args"]
    if op["kind"] == "cli":
        flags = (a.split("=", 1) for a in args["argv"] if "=" in a)
        return [(_FLAG_CHART[flag], text) for flag, text in flags]
    if op["kind"] == "ode3_prolong":
        return [("ode3", args["xi"]), ("ode3", args["eta"])]
    if "f" in args:
        return [("ode2", args["f"])]
    return []


# One call of each subcommand the paper-corpus uses, on fixed inputs that
# are not among the workload's.  The first cli.main call in a process
# compiles argparse's patterns and loads what the handlers import lazily;
# without this every forked op would pay that again, about half the cost
# of a cheap op, and the figures would measure the fork rather than the
# program.
_CLI_WARMUP = (
    ["check-flat", "ode2", "--f=x*p^2"],
    ["invariants", "--f=y^2"],
    ["painleve", "--f=6*y^2 + x"],
    ["pullback", "--eta=2*y + x^2", "--C=1", "--target=6*y^2 + x"],
    ["check-flat", "odesys", "--F1=x1*dx1^2", "--F2=0"],
    ["check-flat", "pdesys", "--f11=u*u1^2", "--f12=0", "--f22=0"],
)


def setup(texts, builds):
    """Parse every input and make the cold symbolic builds the ops use.

    Returns the swell count of the symbolic ode3 prolongation when that
    build is asked for.
    """
    for chart, text in texts:
        parse_expression(text, _CHARTS[chart]())
    if "ode2" in builds:
        ode2.run_equivalence_ode2()
    if "cli" in builds:
        for argv in _CLI_WARMUP:
            rc, _ = _cli(argv + ["--format", "json"])
            if rc != 0:
                raise RuntimeError(f"cli warm-up {argv} exited {rc}")
    if "ode3" in builds:
        return list(ode3.contact_prolongation_ode3().monomials)
    return None


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _painleve(f):
    try:
        return ode2.painleve_map(f)
    except (NotInClass, NotEquivalent) as e:
        return e


def _contact(n, m, q):
    system = pfaffian.contact_system(n, m, q)
    eqs = pfaffian.structure_equations(system)
    absorbed = pfaffian.absorb_torsion(eqs)
    chars = pfaffian.cartan_characters(eqs)
    return system, absorbed, chars, pfaffian.prolong(system)


def prepare(op):
    kind, args = op["kind"], op["args"]
    if kind == "cli":
        argv = list(args["argv"])
        return lambda: _cli(argv)
    if kind == "contact":
        return lambda: _contact(args["n"], args["m"], args["q"])
    if kind == "ode3_prolong":
        ch = ode3.ode3_chart()
        xi = parse_expression(args["xi"], ch)
        eta = parse_expression(args["eta"], ch)
        return lambda: ode3.contact_prolongation_ode3(xi, eta)
    f = parse_expression(args["f"], ode2.ode2_chart())
    if kind == "check_flat_ode2":
        return lambda: ode2.check_flat_ode2(f)
    if kind == "run_equivalence_ode2":
        return lambda: ode2.run_equivalence_ode2(f)
    if kind == "painleve_map":
        return lambda: _painleve(f)
    raise ValueError(f"unknown op kind {kind!r}")


def serialize(op, result):
    kind = op["kind"]
    if kind == "cli":
        rc, stdout = result
        out = json.loads(stdout) if rc == 0 else {}
        out["rc"] = rc
        return out
    if kind == "contact":
        system, absorbed, chars, prolonged = result
        return {
            "dim": system.chart.dim,
            "characters": list(chars.characters),
            "involutive": chars.involutive,
            "essential": len(absorbed.essential),
            "prolonged_dim": prolonged.chart.dim,
        }
    if kind == "ode3_prolong":
        return {name: render_text(getattr(result, name))
                for name in ("pbar", "qbar", "rbar")}
    if kind == "check_flat_ode2":
        return {"flat": result.flat,
                "residuals": [render_text(r) for r in result.residuals]}
    if kind == "run_equivalence_ode2":
        return {f"I{m}": render_text(v)
                for m, v in zip((1, 2, 3), result.invariants)}
    if isinstance(result, Exception):
        return {"equivalent": False, "error": str(result)}
    eta, C = result
    return {"equivalent": True, "eta": render_text(eta), "C": render_text(C)}
