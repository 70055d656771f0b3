"""Command-line front end.

Subcommands: family, expand, reduce, verify, rank, hadamard, compose.
All outputs are deterministic (identical inputs give byte-identical
files and standard output) except the `elapsed` line of verify, its
wall time, and files are written atomically.  Exit codes: 0 success, 1
a verification found a mismatch, 2 usage, parse or budget errors, a bad
command line included, each as one `error:` line on stderr; `--help`
prints help and exits 0.  Each command runs inside
using_budget(Budget(--term-budget, --state-budget)), so every
construction it reaches checks the same budget while it builds.

`main` is reentrant and builds the argument parser once per process, at
its first call.  Later calls parse with the same parser, which parse_args
does not change, so a call that fails leaves it as it was.
"""

import argparse
import os
import shutil
import sys
import tempfile
from functools import cache, partial
from pathlib import Path
from typing import Callable, TextIO

from .abp import abp_eval, abp_hankel_rank, hankel_rank, parse_abp
from .algebra import (
    Budget,
    StateBudgetError,
    TermBudgetError,
    VarTable,
    budget,
    format_poly,
    parse_poly,
    using_budget,
)
from .circuits import CircuitFormatError, expand, parse_circuit
from .families import ChiTable, FAMILY_SPEC_HELP, FamilyInstance, Params, make_family
from .fields import Field, FieldError, field_from_spec
from .reductions import (
    check_vbp_trivial,
    compose_abp,
    dk_to_d2_reduction,
    dyck_completeness_reduction,
    dyck_depth_reduction,
    format_reduction,
    hierarchy_iproj,
    iproj_to_abp,
    pal_to_d2_reduction,
    pal_vsk_reduction,
    palsq_to_d2_reduction,
    parse_reduction,
    per_to_idstar_reduction,
    per_to_perstar_chi_reduction,
    vbp_trivial_reduction,
    verify_reduction,
)
from .automata import hadamard_via_matrices


class UsageError(ValueError):
    pass


@cache
def _help_width() -> int:
    """The width argparse wraps help to, as its HelpFormatter computes it
    when given none: the terminal's columns less two, read once per process."""
    return shutil.get_terminal_size().columns - 2


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as a UsageError instead of printing usage
    and exiting, and hands every help formatter the width read once, where
    argparse reads the terminal again for each one (add_argument makes
    one per argument); add_subparsers gives every subcommand the same
    class."""

    def error(self, message):
        raise UsageError(message)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=_help_width())


def _write_text(text: str, handle: TextIO) -> None:
    step = 1 << 16
    handle.writelines(text[i : i + step] for i in range(0, len(text), step))


def _write_atomic(path: str, output: str | Callable[[TextIO], object]) -> None:
    """Write a command's output to a file through a rename, or to stdout
    for "-".

    ``output`` is the text, or a function that writes it to the handle
    this opens (``lambda out: format_poly(poly, out)``), so a polynomial
    goes out one block of lines at a time and its whole text is never
    held.  Text given as a str goes out in blocks of 2**16 characters,
    so its encoded copy is one block.  This is the only code that writes
    stdout.  A reader that closed its end early (``| head -1``) is no
    error: stdout is pointed at the null device, so the flush at exit is
    silent and the command keeps its own exit status."""
    write = partial(_write_text, output) if isinstance(output, str) else output
    if path == "-":
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ncpoly-")
    try:
        with os.fdopen(fd, "w") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_family(args, field: Field) -> int:
    poly = make_family(args.spec, field).poly
    _write_atomic(args.out, lambda out: format_poly(poly, out))
    return 0


def cmd_expand(args, field: Field) -> int:
    circuit = parse_circuit(Path(args.circuit).read_text(), VarTable(field=field))
    poly = expand(circuit, degree_cap=args.cap)
    _write_atomic(args.out, lambda out: format_poly(poly, out))
    return 0


def _build_reduction(kind: str, params: Params, field: Field):
    """Returns (reduction, source polynomial to embed or None).

    Every parameter is read, and any other refused, before the build."""
    if kind in ("dyck-complete", "pal-vsk"):
        circuit = parse_circuit(Path(params.text("circuit")).read_text(), VarTable(field=field))
        params.finish()
        if kind == "dyck-complete":
            return dyck_completeness_reduction(circuit), expand(circuit)
        return pal_vsk_reduction(circuit), expand(circuit)
    sized = {
        "pal-d2": (pal_to_d2_reduction, ("n",)),
        "palsq-d2": (palsq_to_d2_reduction, ("n",)),
        "dk-d2": (dk_to_d2_reduction, ("k", "d")),
        "depth": (dyck_depth_reduction, ("k1", "k2", "n")),
        "per-idstar": (per_to_idstar_reduction, ("n",)),
    }
    if kind in sized:
        build, keys = sized[kind]
        sizes = [params.num(key) for key in keys]
        params.finish()
        return build(*sizes, field), None
    if kind == "per-chi":
        n = params.num("n")
        chi_path = params.text("chi")
        chi = ChiTable.parse(Path(chi_path).read_text(), n, field)
        params.finish()
        r = per_to_perstar_chi_reduction(n, chi, field)
        # verify must be able to rebuild the weighted target from the file
        r.target = f"perstarchi:n={n},chi={chi_path}"
        return r, None
    if kind == "hier-iproj":
        i, n = params.num("i"), params.num("n")
        params.finish()
        target = make_family(f"hier:i={i + 1},n={n}", field)
        degree = target.meta["degree"]
        budget().check_states(degree + 1)  # the chain's states, before the map is built
        m = hierarchy_iproj(i, n, field)
        r = iproj_to_abp(m, degree, source=f"hier:i={i},n={n}", target=target.spec_string)
        r.kind = "hier-iproj"
        return r, None
    if kind == "vbp-trivial":
        abp = parse_abp(Path(params.text("abp")).read_text(), VarTable(field=field))
        target = make_family(params.text("target"), field)
        witness = target.table.word(*params.text("witness").split(","))
        params.finish()
        # refuse a bad program or witness, then expand, so that a source
        # over the term budget stops before the build
        check_vbp_trivial(abp, target, witness)
        source = abp_eval(abp)
        return vbp_trivial_reduction(abp, target, witness), source
    raise UsageError(f"unknown reduction kind {kind!r}")


def cmd_reduce(args, field: Field) -> int:
    params = Params(f"reduction {args.kind!r}", args.params)
    r, source_poly = _build_reduction(args.kind, params, field)
    _write_atomic(args.out, format_reduction(r, source_poly=source_poly))
    return 0


def _resolve_source(spec: str | None, embedded, r, field: Field) -> FamilyInstance:
    if spec:
        # file-based sources are read against the reduction's output alphabet
        # so that comparison happens termwise, not by table identity
        table = VarTable(r.substitution.output_table.names, field=field)
        if spec.startswith("circuit:"):
            circuit = parse_circuit(Path(spec[8:]).read_text(), table)
            return FamilyInstance.from_poly("circuit", expand(circuit))
        if spec.startswith("poly:"):
            return FamilyInstance.from_poly("poly", parse_poly(Path(spec[5:]).read_text(), table))
        return make_family(spec, field)
    if embedded is not None:
        return FamilyInstance.from_poly("embedded", embedded)
    return make_family(r.source, field)


def cmd_verify(args, field: Field) -> int:
    r, embedded = parse_reduction(Path(args.reduction).read_text(), field)
    source = _resolve_source(args.source, embedded, r, field)
    target = make_family(args.target or r.target, field)
    verdict = verify_reduction(r, source, target)
    _write_atomic("-", f"{verdict}\n")
    return 0 if verdict.passed else 1


def cmd_rank(args, field: Field) -> int:
    """A family with an ABP builder (meta["abp"]) is ranked from span
    bases of its ABP; every other family is expanded, and each distinct
    cut is ranked once."""
    inst = make_family(args.spec, field)
    build_abp = inst.meta.get("abp")
    cuts = list(dict.fromkeys(args.cut))
    if build_abp is not None:
        ranks = abp_hankel_rank(build_abp(), cuts)
    else:
        poly = inst.poly
        ranks = [hankel_rank(poly, cut) for cut in cuts]
    rank_at = dict(zip(cuts, ranks))
    line = "cut={} rank={}" if args.fmt == "structured" else "{} {}"
    lines = [line.format(cut, rank_at[cut]) for cut in args.cut]
    _write_atomic(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_hadamard(args, field: Field) -> int:
    table = VarTable(field=field)
    if args.circuit:
        f = parse_circuit(Path(args.circuit).read_text(), table)
    else:
        f = parse_poly(Path(args.poly).read_text(), table)
    g = parse_abp(Path(args.abp).read_text(), table)
    result = hadamard_via_matrices(f, g)
    _write_atomic(args.out, lambda out: format_poly(result, out))
    return 0


def cmd_compose(args, field: Field) -> int:
    r1, poly1 = parse_reduction(Path(args.first).read_text(), field)
    r2, _poly2 = parse_reduction(Path(args.second).read_text(), field)
    composed = compose_abp(r1, r2)
    _write_atomic(args.out, format_reduction(composed, source_poly=poly1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ncpoly",
        description="Exact workbench for noncommutative polynomial families and reductions.",
    )
    parser.add_argument("--field", default="q", help="coefficient field: q or p=<prime>")
    defaults = Budget()
    parser.add_argument("--term-budget", type=int, default=defaults.terms)
    parser.add_argument("--state-budget", type=int, default=defaults.states)
    parser.add_argument("--format", dest="fmt", choices=["text", "structured"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="write a family instance as polynomial text")
    p.add_argument("spec", help=FAMILY_SPEC_HELP)
    p.add_argument("--out", default="-")

    p = sub.add_parser("expand", help="expand a circuit file into polynomial text")
    p.add_argument("circuit")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("reduce", help="build a named reduction and serialize it")
    p.add_argument(
        "kind",
        choices=[
            "dyck-complete",
            "pal-vsk",
            "pal-d2",
            "palsq-d2",
            "dk-d2",
            "depth",
            "per-idstar",
            "per-chi",
            "hier-iproj",
            "vbp-trivial",
        ],
    )
    p.add_argument("params", nargs="*", help="key=value parameters for the construction")
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="check a serialized reduction against its families")
    p.add_argument("reduction")
    p.add_argument("--source", default=None, help="family spec, circuit:PATH or poly:PATH")
    p.add_argument("--target", default=None, help="family spec (default: the file header)")

    p = sub.add_parser("rank", help="Hankel ranks of a family at the given cuts")
    p.add_argument("spec")
    p.add_argument("--cut", type=int, action="append", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("hadamard", help="coefficientwise product of a circuit/poly with an ABP")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circuit")
    group.add_argument("--poly")
    p.add_argument("--abp", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("compose", help="compose two serialized reductions")
    p.add_argument("first", help="reduction for source <= mid")
    p.add_argument("second", help="reduction for mid <= target")
    p.add_argument("--out", default="-")
    return parser


COMMANDS = {
    "family": cmd_family,
    "expand": cmd_expand,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
    "rank": cmd_rank,
    "hadamard": cmd_hadamard,
    "compose": cmd_compose,
}


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        field = field_from_spec(args.field)
        with using_budget(Budget(args.term_budget, args.state_budget)):
            return COMMANDS[args.command](args, field)
    except (
        UsageError,
        FieldError,
        CircuitFormatError,
        TermBudgetError,
        StateBudgetError,
        ValueError,
        KeyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
