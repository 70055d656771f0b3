"""CLI robustness: mutated input files exit 0, 1 or 2, never with a traceback.

Valid corpus files (circuits, a polynomial, a branching program and
serialized reductions) are mutated by dropping or duplicating lines and by
swapping tokens for hostile literals, then fed to every subcommand that
reads them.  Exit 0 is success; exit 2 prints exactly one ``error:`` line;
``verify`` may exit 1, but only with ``verdict fail`` on stdout.
"""

import contextlib
import io
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncpoly.cli import main

BUDGET = ("--term-budget", "2000", "--state-budget", "400")

CIRCUIT = "g0 input x\ng1 const 2\ng2 add g0 g1\ng3 input y\ng4 mul g2 g3\ng5 mul g4 g2\noutput g5\n"
SKEW = "g0 input x\ng1 const 3\ng2 mul g1 g0\ng3 input y\ng4 mul g2 g3\ng5 add g4 g2\noutput g5\n"
POLY = "2 x y\n-1 y x\n3/2 x x\n"
ABP = (
    "layers 0:1 1:2 2:1\n"
    "edge 0 0 0 1 x\n"
    "edge 0 0 1 2 y\n"
    "edge 1 0 0 1 y\n"
    "edge 1 1 0 -1 x\n"
)
HOSTILE = ("-1", "0", "1/0", "1e5000", "g99", "nan", "zz9")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*BUDGET, *argv])
    return code, out.getvalue(), err.getvalue()


def _write(directory, files):
    for name, text in files.items():
        Path(directory, name).write_text(text)


@lru_cache(maxsize=None)
def _reductions():
    """Valid reduction files, built once through the CLI."""
    with tempfile.TemporaryDirectory() as d:
        _write(d, {"c.txt": CIRCUIT, "s.txt": SKEW})
        made = {}
        for name, argv in (
            ("dc.red", ["reduce", "dyck-complete", f"circuit={d}/c.txt"]),
            ("vsk.red", ["reduce", "pal-vsk", f"circuit={d}/s.txt"]),
            ("d12.red", ["reduce", "depth", "k1=1", "k2=2", "n=2"]),
            ("d22.red", ["reduce", "depth", "k1=2", "k2=2", "n=2"]),
        ):
            assert _run([*argv, "--out", f"{d}/{name}"])[0] == 0, name
            made[name] = Path(d, name).read_text()
    return made


def _commands(kind, d):
    """Argument lists that read the mutated file m.txt of the given kind."""
    m = f"{d}/m.txt"
    if kind in ("circuit", "skew"):
        return [
            ["expand", m, "--out", f"{d}/o"],
            ["hadamard", "--circuit", m, "--abp", f"{d}/a.txt", "--out", f"{d}/o"],
            ["reduce", "dyck-complete" if kind == "circuit" else "pal-vsk", f"circuit={m}",
             "--out", f"{d}/o"],
        ]
    if kind == "poly":
        return [
            ["hadamard", "--poly", m, "--abp", f"{d}/a.txt", "--out", f"{d}/o"],
            ["verify", f"{d}/dc.red", "--source", f"poly:{m}"],
        ]
    if kind == "abp":
        return [
            ["hadamard", "--poly", f"{d}/p.txt", "--abp", m, "--out", f"{d}/o"],
            ["hadamard", "--circuit", f"{d}/c.txt", "--abp", m, "--out", f"{d}/o"],
            ["reduce", "vbp-trivial", f"abp={m}", "target=pal:n=1", "witness=x0,x0",
             "--out", f"{d}/o"],
        ]
    commands = [["verify", m]]
    if kind in ("d12.red", "d22.red"):
        commands.append(["compose", m, f"{d}/d22.red", "--out", f"{d}/o"])
        commands.append(["compose", f"{d}/d12.red", m, "--out", f"{d}/o"])
    return commands


KINDS = ("circuit", "skew", "poly", "abp", "dc.red", "vsk.red", "d12.red", "d22.red")


def mutate(kind, ops):
    """Apply (operation, line, token, literal) steps to a valid file; line
    and token numbers wrap around, so any integers are valid steps."""
    base = {"circuit": CIRCUIT, "skew": SKEW, "poly": POLY, "abp": ABP}
    lines = (base[kind] if kind in base else _reductions()[kind]).splitlines()
    for op, i, j, literal in ops:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            tokens[j % len(tokens)] = literal
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def check_mutated(kind, text):
    with tempfile.TemporaryDirectory() as d:
        _write(d, {"m.txt": text, "a.txt": ABP, "c.txt": CIRCUIT, "p.txt": POLY})
        _write(d, _reductions())
        for argv in _commands(kind, d):
            code, out, err = _run(argv)
            context = (argv[0], kind, text, out, err)
            assert code in (0, 1, 2), context
            assert "Traceback" not in err, context
            if code == 1:
                assert argv[0] == "verify" and "verdict fail" in out, context
            elif code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, context
                assert out == "", context


STEPS = st.tuples(
    st.sampled_from(("drop", "duplicate", "swap")),
    st.integers(0, 40),
    st.integers(0, 8),
    st.sampled_from(HOSTILE),
)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(KINDS), st.lists(STEPS, min_size=1, max_size=3))
@example("d12.red", [("swap", 4, 1, "0")])  # dim 0
@example("dc.red", [("swap", 4, 1, "-1")])  # negative dim
@example("abp", [("swap", 4, 4, "1/0")])  # division by zero in an edge label
@example("circuit", [("swap", 5, 2, "g99")])  # dangling gate reference
@example("d22.red", [("drop", 3, 0, "0")])  # no substitution header
@example("d12.red", [("duplicate", 8, 0, "0")])  # one entry line twice
def test_mutated_inputs_exit_0_1_or_2_with_one_error_line(kind, ops):
    check_mutated(kind, mutate(kind, ops))
