"""Byte parity of rendered output over a fixed corpus.

Every subcommand runs in every format, symbolic and concrete, and one
concrete third order prolongation is rendered on top; the sha256 of the
concatenated stdout is pinned.  A change to ``poly`` or ``expr`` that keeps
the canonical form keeps this hash; one that moves a single byte of any
output breaks it.
"""

import hashlib

from cartaneq import cli, contact_prolongation_ode3, ode3_chart
from cartaneq.parser import parse_expression, render_text

FORMATS = ("text", "json", "latex")

CORPUS = [
    ["check-flat", "ode2", "--f", "6*y^2 + x"],
    ["check-flat", "ode2", "--f", "p^3/(x + y) + y*p^2"],
    ["check-flat", "odesys", "--F1", "dx2^3", "--F2", "0"],
    ["check-flat", "odesys", "--F1", "x1*dx1^2", "--F2", "t*dx2"],
    ["check-flat", "pdesys", "--f11", "u2^2", "--f12", "0", "--f22", "0"],
    ["check-flat", "pdesys", "--f11", "u1*u2", "--f12", "x1", "--f22", "u^2"],
    ["invariants"],
    ["invariants", "--f", "6*y^2 + x"],
    ["invariants", "--f", "p^3 + x*y"],
    ["structure"],
    ["structure", "--f", "0"],
    ["structure", "--f", "p^3 + x*y"],
    ["syzygies"],
    ["syzygies", "--f", "6*y^2 + x"],
    ["painleve", "--f", "6*y^2 + x + 5"],
    ["painleve", "--f", "0"],
    ["painleve", "--f", "p^3"],
    ["painleve", "--f", "(6*y^4 + 12*y^2 - 2*p^2 + x + 8)/(2*y)"],
    ["pullback", "--eta", "y^2", "--C", "0", "--target", "0"],
    ["pullback", "--eta", "y^2 + 1", "--C", "2", "--target", "6*y^2 + x"],
    ["swell-demo"],
]

GOLDEN_SHA256 = "d56627561c58f990d91ab12f233e91367f0a0042f96a76d61a575e159f6e65f3"


def _corpus_stdout(capsys) -> str:
    out = []
    for argv in CORPUS:
        for fmt in FORMATS:
            assert cli.main(argv + ["--format", fmt]) == 0, argv
            out.append(capsys.readouterr().out)
    ch = ode3_chart()
    res = contact_prolongation_ode3(
        parse_expression("x + 2*x^3", ch), parse_expression("y - 3*x*y + p^2", ch)
    )
    out += [render_text(e) + "\n" for e in (res.pbar, res.qbar, res.rbar)]
    return "".join(out)


def test_rendered_corpus_hash(capsys):
    digest = hashlib.sha256(_corpus_stdout(capsys).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
