"""Command line front end.

Each subcommand runs one concrete problem: flatness checks for scalar
equations, pairs of second order equations and elliptic systems, the
invariant coframe of y'' = f with its structure equations and syzygies,
the transformation to y'' = 6y^2 + x and its inverse pullback, and the
third order prolongation swell demo.

Each subcommand, and each check-flat problem, declares its chart and its
input flags once, where the parser is built.  ``main`` parses every given
flag on that chart and calls the handler with the expressions, an omitted
optional flag as None.  Output formats: text (default), json (stable key
order, byte identical for identical inputs), latex.  Exit codes: 0 when
the computation ran (verdicts live in the payload), 1 when stdout closed
before the output was written, 2 on parse errors, 3 on domain errors.

``main`` may be called many times in one process.  The argparse parser is
built on the first call and kept, so a later call pays only for parsing
its arguments and for the mathematics; every call starts from a fresh
namespace, and the handlers look up the library functions at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import CartanError, NotEquivalent, NotInClass, ParseError
from .ode2 import (
    check_flat_ode2,
    ode2_chart,
    painleve_map,
    pullback_ode2,
    run_equivalence_ode2,
    syzygies_ode2,
)
from .ode3 import contact_prolongation_ode3
from .parser import _name_latex, parse_expression, render_latex, render_text
from .systems import (
    check_flat_ode_system,
    check_flat_pde_system,
    odesys_chart,
    pdesys_chart,
)


def _renderer(fmt):
    """Printers of expressions and of bare symbol names for output lines."""
    return (render_latex, _name_latex) if fmt == "latex" else (render_text, str)


def _flatness(fmt, rep):
    render, _ = _renderer(fmt)
    payload = {
        "problem": rep.problem,
        "flat": rep.flat,
        "residuals": [render_text(r) for r in rep.residuals],
    }
    lines = ["flat: " + ("yes" if rep.flat else "no")]
    lines += [f"r{i} = {render(r)}" for i, r in enumerate(rep.residuals, 1)]
    return payload, lines


def _cmd_invariants(fmt, f):
    rep = run_equivalence_ode2(f)
    render, spell = _renderer(fmt)
    names = ("I1", "I2", "I3")
    payload = {
        "problem": "ode2",
        "invariants": {
            name: render_text(v) for name, v in zip(names, rep.invariants)
        },
    }
    lines = [
        f"{spell(name)} = {render(v)}" for name, v in zip(names, rep.invariants)
    ]
    return payload, lines


def _cmd_structure(fmt, f):
    rep = run_equivalence_ode2(f)
    payload = {
        "problem": "ode2",
        "structure": rep.structure_lines(render_text),
    }
    if fmt == "latex":
        lines = rep.structure_lines(
            render_latex, "d\\theta^{{{}}}",
            "\\left({}\\right)\\theta^{{{}}}\\wedge\\theta^{{{}}}",
        )
    else:
        lines = payload["structure"]
    return payload, lines


def _cmd_syzygies(fmt, f):
    rep = syzygies_ode2(f)
    render, _ = _renderer(fmt)
    payload = {
        "problem": "ode2",
        "syzygies": [render_text(r) for r in rep.relations],
    }
    lines = [f"{render(r)} = 0" for r in rep.relations]
    return payload, lines


def _cmd_painleve(fmt, f):
    render, _ = _renderer(fmt)
    try:
        eta, C = painleve_map(f)
    except NotInClass as e:
        payload = {
            "problem": "ode2",
            "equivalent": False,
            "residuals": [e.value],
        }
        lines = ["equivalent: no", f"not in class: {e.invariant} = {e.value}"]
        return payload, lines
    except NotEquivalent as e:
        names = sorted(e.failures)
        payload = {
            "problem": "ode2",
            "equivalent": False,
            "residuals": [e.failures[n] for n in names],
        }
        lines = ["equivalent: no"]
        lines += [f"{n}: {e.failures[n]}" for n in names]
        return payload, lines
    payload = {
        "problem": "ode2",
        "equivalent": True,
        "eta": render_text(eta),
        "C": render_text(C),
    }
    lines = ["equivalent: yes", f"eta = {render(eta)}", f"C = {render(C)}"]
    return payload, lines


def _cmd_pullback(fmt, eta, C, fbar):
    f = pullback_ode2(eta, C, fbar)
    render, _ = _renderer(fmt)
    payload = {"problem": "ode2", "f": render_text(f)}
    return payload, [f"f = {render(f)}"]


def _cmd_swell_demo(fmt):
    res = contact_prolongation_ode3()
    m = res.monomials
    payload = {"problem": "ode3", "swell": {"monomials_rbar": m[2]}}
    lines = [
        f"pbar monomials: {m[0]}",
        f"qbar monomials: {m[1]}",
        f"rbar monomials: {m[2]}",
    ]
    return payload, lines


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it found it, so one serves every call
    parser = argparse.ArgumentParser(
        prog="cartaneq",
        description="equivalence-method calculations for ODE and PDE classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, chart=None, *flags, required=True):
        for flag, text in flags:
            p.add_argument("--" + flag, required=required, help=text)
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )
        # an unrecognized flag is reported with the usage of its subcommand
        p.set_defaults(handler=handler, parser=p, chart=chart,
                       inputs=[flag for flag, _ in flags])

    # a lambda looks the check up when it runs, like every handler
    p = sub.add_parser("check-flat", help="test equivalence to the flat model")
    p.set_defaults(parent=p)
    problems = p.add_subparsers(dest="problem", required=True)
    p = problems.add_parser("ode2", help="y'' = f(x, y, p)")
    common(p, lambda fmt, *e: _flatness(fmt, check_flat_ode2(*e)),
           ode2_chart, ("f", "right-hand side of y'' = f"))
    p = problems.add_parser("odesys", help="x1'' = F1, x2'' = F2")
    common(p, lambda fmt, *e: _flatness(fmt, check_flat_ode_system(*e)),
           odesys_chart, ("F1", "right-hand side of x1''"),
           ("F2", "right-hand side of x2''"))
    p = problems.add_parser("pdesys", help="u_ij = f_ij(x1, x2, u, u1, u2)")
    common(p, lambda fmt, *e: _flatness(fmt, check_flat_pde_system(*e)),
           pdesys_chart, ("f11", "u_11 = f11(...)"),
           ("f12", "u_12 = f12(...)"), ("f22", "u_22 = f22(...)"))

    symbolic = ("f", "right-hand side; omit for the symbolic class")
    p = sub.add_parser(
        "invariants", help="fundamental invariants I1, I2, I3 of y'' = f"
    )
    common(p, _cmd_invariants, ode2_chart, symbolic, required=False)

    p = sub.add_parser(
        "structure", help="structure equations of the invariant coframe"
    )
    common(p, _cmd_structure, ode2_chart, symbolic, required=False)

    p = sub.add_parser(
        "syzygies", help="relations among the invariant derivatives"
    )
    common(p, _cmd_syzygies, ode2_chart, symbolic, required=False)

    p = sub.add_parser(
        "painleve", help="map y'' = f to y'' = 6y^2 + x when possible"
    )
    common(p, _cmd_painleve, ode2_chart, ("f", "right-hand side of y'' = f"))

    p = sub.add_parser(
        "pullback", help="pull a target equation back along x + C, eta(x, y)"
    )
    common(p, _cmd_pullback, ode2_chart,
           ("eta", "new y as a function of x, y"),
           ("C", "constant shift in x"), ("target", "target right-hand side"))

    p = sub.add_parser(
        "swell-demo",
        help="third order prolongation with opaque coefficients: term counts",
    )
    common(p, _cmd_swell_demo)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the command and a check-flat problem are the first arguments, so
        # a leftover before either was left over by the parser above it
        if argv[0] != args.command:
            owner = parser
        elif "parent" in args and argv[1] != args.problem:
            owner = args.parent
        else:
            owner = args.parser
        owner.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        chart = args.chart and args.chart()
        texts = [getattr(args, flag) for flag in args.inputs]
        inputs = [None if t is None else parse_expression(t, chart)
                  for t in texts]
        payload, lines = args.handler(args.format, *inputs)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except CartanError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    text = json.dumps(payload) if args.format == "json" else "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; park stdout on devnull so that the
        # interpreter's final flush does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
