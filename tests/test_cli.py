"""End-to-end checks of the command line interface.

Everything goes through cli.main(argv) so the tests see exactly the bytes a
shell user would, including exit codes.
"""

import argparse
import importlib
import json
import os
import re
import shlex
import subprocess
import pkgutil
import sys
from pathlib import Path

import pytest

import cartaneq
from cartaneq import cli
from cartaneq.parser import MAX_NESTING


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# -- check-flat ---------------------------------------------------------

def test_check_flat_ode2_json(capsys):
    code, out, _ = run(capsys, "check-flat", "ode2", "--f", "0", "--format", "json")
    assert code == 0
    assert out == '{"problem": "ode2", "flat": true, "residuals": ["0", "0"]}\n'


def test_check_flat_ode2_text(capsys):
    code, out, _ = run(capsys, "check-flat", "ode2", "--f", "6*y^2 + x")
    assert code == 0
    assert out == "flat: no\nr1 = 0\nr2 = -24*y\n"


def test_check_flat_odesys(capsys):
    code, payload = run_json(
        capsys, "check-flat", "odesys", "--F1", "dx2^3", "--F2", "0"
    )
    assert code == 0
    assert payload == {
        "problem": "odesys",
        "flat": False,
        "residuals": ["0", "6", "0", "0", "0", "0", "0", "0"],
    }


def test_check_flat_pdesys(capsys):
    code, payload = run_json(
        capsys, "check-flat", "pdesys",
        "--f11", "u2^2", "--f12", "0", "--f22", "0",
    )
    assert code == 0
    assert payload["problem"] == "pdesys"
    assert not payload["flat"]
    assert payload["residuals"][0] == "2"


def test_check_flat_requires_the_right_flags(capsys):
    # argparse handles these, so they exit rather than returning; a missing
    # and a foreign flag both name the subcommand in the usage line
    for argv in (["check-flat", "ode2"],
                 ["check-flat", "ode2", "--f=x", "--F1=y"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cartaneq check-flat ode2")
        assert "--f" in err.splitlines()[0]


def test_leftover_before_the_command_is_the_top_level_parsers(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--bogus", "check-flat", "ode2", "--f=x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cartaneq [-h]")
    assert err.splitlines()[-1] == (
        "cartaneq: error: unrecognized arguments: --bogus")


def test_leftover_before_the_problem_is_the_check_flat_parsers(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check-flat", "--bogus", "ode2", "--f=x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "usage: cartaneq check-flat [-h] {ode2,odesys,pdesys}")
    assert err.splitlines()[-1] == (
        "cartaneq check-flat: error: unrecognized arguments: --bogus")


# -- invariants / structure / syzygies ----------------------------------

def test_invariants_concrete(capsys):
    code, payload = run_json(capsys, "invariants", "--f", "6*y^2 + x")
    assert code == 0
    assert payload == {
        "problem": "ode2",
        "invariants": {"I1": "-12*y", "I2": "0", "I3": "0"},
    }


def test_invariants_symbolic_latex(capsys):
    code, out, _ = run(capsys, "invariants", "--format", "latex")
    assert code == 0
    assert out.splitlines() == [
        r"I_{1} = \frac{2 p f_{yp} + 2 f f_{pp} - f_{p}^{2} - 4 f_{y} + 2 f_{xp}}{4}",
        r"I_{2} = \frac{f_{ppp}}{2 a_{3}^{2}}",
        r"I_{3} = \frac{-p f_{ypp} - f f_{ppp} + f_{yp} - f_{xpp}}{2 a_{3}}",
    ]


def test_structure_symbolic_text(capsys):
    code, out, _ = run(capsys, "structure")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "d(theta1) = (-1)*theta1^theta4"
        " + ((2*p*f_yp + 2*f*f_pp - f_p^2 - 4*f_y + 2*f_xp)/4)*theta2^theta3"
    )
    assert lines[1] == "d(theta2) = (-1)*theta1^theta3 + (-1)*theta2^theta4"
    assert lines[2] == "d(theta3) = 0"
    assert lines[3] == (
        "d(theta4) = (f_ppp/(2*a3^2))*theta1^theta2"
        " + ((-p*f_ypp - f*f_ppp + f_yp - f_xpp)/(2*a3))*theta2^theta3"
    )


def test_structure_latex_wedges(capsys):
    code, out, _ = run(capsys, "structure", "--format", "latex")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith(r"d\theta^{1} = \left(-1\right)\theta^{1}\wedge\theta^{4}")


def test_structure_flat_equation(capsys):
    code, payload = run_json(capsys, "structure", "--f", "0")
    assert code == 0
    assert payload["structure"][2:] == ["d(theta3) = 0", "d(theta4) = 0"]


def test_syzygies_json(capsys):
    code, payload = run_json(capsys, "syzygies")
    assert code == 0
    assert payload == {
        "problem": "ode2",
        "syzygies": [
            "I3 + X1I1",
            "X4I1",
            "X3I2 + X1I3",
            "2*I2 + X4I2",
            "I3 + X4I3",
        ],
    }


# -- painleve / pullback -------------------------------------------------

def test_painleve_recovers_shift(capsys):
    code, payload = run_json(capsys, "painleve", "--f", "6*y^2 + x + 5")
    assert code == 0
    assert payload == {
        "problem": "ode2", "equivalent": True, "eta": "y", "C": "5",
    }


def test_painleve_flat_is_not_equivalent(capsys):
    # a definite verdict, so exit 0 even though the answer is no
    code, payload = run_json(capsys, "painleve", "--f", "0")
    assert code == 0
    assert payload == {
        "problem": "ode2", "equivalent": False, "residuals": ["12"],
    }


def test_painleve_text_verdicts(capsys):
    code, out, _ = run(capsys, "painleve", "--f", "6*y^2 + x + 5")
    assert code == 0
    assert out == "equivalent: yes\neta = y\nC = 5\n"
    code, out, _ = run(capsys, "painleve", "--f", "0")
    assert code == 0
    assert out == "equivalent: no\nX3: 12\n"


def test_painleve_refuses_an_equation_outside_the_class(capsys):
    # I2 or I3 does not vanish: a definite no, naming the first invariant
    code, out, _ = run(capsys, "painleve", "--f", "p^3")
    assert code == 0
    assert out == "equivalent: no\nnot in class: I2 = 3/a3^2\n"
    code, payload = run_json(capsys, "painleve", "--f", "p^3")
    assert code == 0
    assert payload == {
        "problem": "ode2", "equivalent": False, "residuals": ["3/a3^2"],
    }
    code, out, _ = run(capsys, "painleve", "--f", "x*p^2+y*p")
    assert code == 0
    assert out == "equivalent: no\nnot in class: I3 = -1/(2*a3)\n"


def test_painleve_latex_refusals_are_latex(capsys):
    # names spelled as ``invariants --format latex`` spells I1, residuals
    # by the LaTeX renderer: no text-syntax product anywhere
    code, out, _ = run(capsys, "invariants", "--format", "latex")
    assert code == 0 and out.startswith("I_{1} = ")
    for f, line in (
        ("p^3/(y+1) + x",
         "not in class: I_{2} = \\frac{3}{y a_{3}^{2} + a_{3}^{2}}"),
        ("0", "X_{3}: 12"),
    ):
        code, out, _ = run(capsys, "painleve", "--f", f, "--format", "latex")
        assert code == 0
        assert out == f"equivalent: no\n{line}\n"
        assert "*" not in out


def test_pullback(capsys):
    code, payload = run_json(
        capsys, "pullback", "--eta", "y^2", "--C", "0", "--target", "0"
    )
    assert code == 0
    assert payload == {"problem": "ode2", "f": "-p^2/y"}
    code, out, _ = run(
        capsys, "pullback",
        "--eta", "y", "--C", "5", "--target", "6*y^2 + x",
    )
    assert code == 0
    assert out == "f = 6*y^2 + x + 5\n"


def test_pullback_then_painleve_round_trip(capsys):
    code, payload = run_json(
        capsys, "pullback",
        "--eta", "y^2 + 1", "--C", "2", "--target", "6*y^2 + x",
    )
    assert code == 0
    code, payload = run_json(capsys, "painleve", "--f", payload["f"])
    assert code == 0
    assert payload["equivalent"] is True
    assert payload["eta"] == "y^2 + 1"
    assert payload["C"] == "2"


# -- swell demo ----------------------------------------------------------

def test_swell_demo(capsys):
    code, payload = run_json(capsys, "swell-demo")
    assert code == 0
    assert payload == {"problem": "ode3", "swell": {"monomials_rbar": 510}}
    code, out, _ = run(capsys, "swell-demo")
    assert out.splitlines() == [
        "pbar monomials: 3",
        "qbar monomials: 44",
        "rbar monomials: 510",
    ]


# -- error paths ---------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "invariants", "--f", "6*y^2 +")
    assert code == 2
    assert out == ""
    assert err == "parse error: unexpected end of input (at position 7)\n"


def test_domain_error_exits_3(capsys):
    code, _, err = run(capsys, "pullback", "--eta", "x", "--C", "0", "--target", "0")
    assert code == 3
    assert err.startswith("error: ")


def test_huge_exponent_exits_3(capsys):
    # grammatical but outside the supported degree range
    code, _, err = run(capsys, "invariants", "--f", "x^999999")
    assert code == 3
    assert err == "error: exponent 999999 exceeds 512\n"


def test_max_prolong_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariants", "--max-prolong", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-prolong" in capsys.readouterr().err


def fresh_python(argv, **kwargs):
    """``python *argv`` in a new interpreter on this cartaneq."""
    env = dict(os.environ)
    src = str(Path(cartaneq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, timeout=60, **kwargs,
    )


def fresh_cli(argv, **kwargs):
    """``python -m cartaneq.cli`` in a new interpreter on this cartaneq."""
    return fresh_python(["-m", "cartaneq.cli", *argv], **kwargs)


def test_closed_stdout_exits_quietly():
    # the reader of the pipe is gone before anything is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = fresh_cli(["structure", "--format", "latex"],
                         stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("depth", [400, 10_000])
def test_deep_parentheses_are_a_parse_error(depth):
    # in a fresh interpreter, at the default recursion limit: each level
    # takes four frames of the recursive descent
    text = "(" * depth + "x" + ")" * depth
    proc = fresh_cli(["check-flat", "ode2", "--f", text],
                     capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("parse error: parentheses nested deeper than"
                           f" {MAX_NESTING} (at position {MAX_NESTING})\n")


def test_unknown_name_is_a_parse_error(capsys):
    code, _, err = run(capsys, "invariants", "--f", "q + 1")
    assert code == 2
    assert "'q' is not declared" in err


def readme_cli_examples():
    """The argv of each ``cartaneq ...`` line in README's CLI block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines() if line.startswith("cartaneq ")
    ]


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 10
    for argv in examples:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()


def command_parsers():
    """(command words, parser) of every subcommand and check-flat problem."""
    def walk(words, parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    yield words + [name], child
                    yield from walk(words + [name], child)
    return list(walk([], cli._build_parser()))


def test_every_command_declares_its_inputs(capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    commands = command_parsers()
    assert len(commands) == 10
    examples = readme_cli_examples()
    for words, parser in commands:
        with pytest.raises(SystemExit) as exc:
            cli.main(words + ["-h"])
        assert exc.value.code == 0, words
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert usage.startswith(f"usage: cartaneq {' '.join(words)} [-h]")
        assert any(argv[:len(words)] == words for argv in examples), words
        inputs = parser.get_default("inputs")
        if inputs is None:
            # check-flat itself only chooses a problem
            assert "--" not in usage
            continue
        flags = {"--" + flag for flag in inputs} | {"--format"}
        assert set(re.findall(r"--[\w-]+", usage)) == flags, words


def test_readme_names_resolve():
    # every backticked dotted name whose head is cartaneq, one of its
    # modules or one of its exports must name something that exists, so
    # a rename cannot leave README stale; a call's arguments are ignored
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {m.name for m in pkgutil.iter_modules(cartaneq.__path__)}
    resolved = set()
    for ref in re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`]*\))?`",
                          readme):
        head, *rest = ref.split(".")
        if head == "cartaneq":
            head, *rest = rest
        if head in modules:
            obj = importlib.import_module(f"cartaneq.{head}")
        elif head in cartaneq.__all__:
            obj = getattr(cartaneq, head)
        else:
            continue
        for name in rest:
            assert hasattr(obj, name), ref
            obj = getattr(obj, name)
        resolved.add(ref)
    assert len(resolved) >= 20
    assert {"cartaneq.poly.prs_fallbacks", "expr.Partials"} <= resolved


def readme_library_blocks():
    """The Python blocks of README's Library section."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [part.split("```", 1)[0] for part in section.split("```python\n")[1:]]


def test_readme_library_blocks_run_alone():
    # each block in a fresh interpreter prints what its comments say
    blocks = readme_library_blocks()
    assert len(blocks) == 2
    for block in blocks:
        prints = [line for line in block.splitlines()
                  if line.startswith("print(")]
        assert prints and all("  # " in line for line in prints)
        want = [line.split("  # ", 1)[1] for line in prints]
        proc = fresh_python(["-c", block], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == want


# -- determinism ---------------------------------------------------------

def test_output_is_bit_stable(capsys):
    argv = ["invariants", "--f", "p^3 + x*y", "--format", "json"]
    first = cli.main(argv)
    out1 = capsys.readouterr().out
    second = cli.main(argv)
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


# -- one process, many calls ---------------------------------------------

# mixed subcommands, a format flag and then none, and every exit path
ONE_PROCESS_CALLS = [
    (0, ["check-flat", "ode2", "--f", "6*y^2 + x"]),
    (0, ["invariants", "--f", "p^3 + x*y", "--format", "latex"]),
    (0, ["invariants", "--f", "p^3 + x*y"]),
    (0, ["check-flat", "pdesys", "--f11", "2*u1^3", "--f12", "2*u1^2*u2",
         "--f22", "2*u1*u2^2", "--format", "json"]),
    (2, ["check-flat", "ode3"]),
    (0, ["pullback", "--eta", "y + x^2", "--C", "1/2",
         "--target", "6*y^2 + x", "--format", "latex"]),
    (2, ["check-flat", "ode2"]),
    (2, ["check-flat", "ode2", "--f=1/(x-x)"]),
    (2, ["check-flat", "ode2", "--f=x", "--F1=y"]),
    (2, ["--bogus", "check-flat", "ode2", "--f=x"]),
    (2, ["check-flat", "--bogus", "ode2", "--f=x"]),
    (3, ["check-flat", "ode2", "--f=x^513"]),
    (0, ["painleve", "--f", "6*y^2 + x"]),
    (0, ["check-flat", "odesys", "--F1", "dx2^3", "--F2", "0"]),
]


def test_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    got = []
    for _, argv in ONE_PROCESS_CALLS:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        got.append((code, captured.out, captured.err))
    want = []
    for _, argv in ONE_PROCESS_CALLS:
        proc = fresh_cli(argv, capture_output=True, text=True)
        want.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in got] == [c for c, _ in ONE_PROCESS_CALLS]
    assert got == want
