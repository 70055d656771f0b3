"""Every family and every reduction kind honours the budgets and refuses
unknown or repeated parameters, and the budgets reach the library only
through algebra.using_budget."""

import argparse
import importlib
import inspect
import pkgutil
import re

import pytest

import ncpoly
from ncpoly.abp import Abp, abp_eval, parse_abp
from ncpoly.algebra import (
    Budget,
    NCPoly,
    StateBudgetError,
    TermBudgetError,
    VarTable,
    budget,
    using_budget,
)
from ncpoly.automata import MatrixSubstitution
from ncpoly.cli import build_parser, main
from ncpoly.families import FAMILY_SPEC_HELP, make_family
from ncpoly.reductions import base, compose_abp, dyck, dyck_depth_reduction, vbp_trivial_reduction

SKEW_CIRCUIT = "g0 const 3\ng1 input x1\ng2 mul g0 g1\noutput g2\n"
# one-pair balanced words of length 4 as a branching program
DYCK_ABP = (
    "layers 0:1 1:1 2:2 3:1 4:1\n"
    "edge 0 0 0 1 (1\n"
    "edge 1 0 0 1 (1\n"
    "edge 1 0 1 1 )1\n"
    "edge 2 0 0 1 )1\n"
    "edge 2 1 0 1 (1\n"
    "edge 3 0 0 1 )1\n"
)
# small parameters for every reduction kind; {dir} is the test's temp dir
REDUCE_PARAMS = {
    "dyck-complete": ["circuit={dir}/c.txt"],
    "pal-vsk": ["circuit={dir}/c.txt"],
    "pal-d2": ["n=2"],
    "palsq-d2": ["n=2"],
    "dk-d2": ["k=2", "d=2"],
    "depth": ["k1=1", "k2=2", "n=2"],
    "per-idstar": ["n=2"],
    "per-chi": ["n=2", "chi={dir}/chi.txt"],
    "hier-iproj": ["i=1", "n=1"],
    "vbp-trivial": ["abp={dir}/p.txt", "target=pal:n=2", "witness=x0,x0,x0,x0"],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _inputs(tmp_path):
    (tmp_path / "c.txt").write_text(SKEW_CIRCUIT)
    (tmp_path / "chi.txt").write_text("1 2 -> 2\n2 1 -> 3\n")
    (tmp_path / "p.txt").write_text(DYCK_ABP)


def _family_specs(chi):
    """Every sample spec of the help text, optional parts dropped."""
    specs = [re.sub(r"\[.*?\]", "", s.strip()) for s in FAMILY_SPEC_HELP.split("|")]
    return [s.replace("chi=FILE", f"chi={chi}") for s in specs]


def _reduce_kinds():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    reduce = commands.choices["reduce"]
    return next(a for a in reduce._actions if a.dest == "kind").choices


def test_using_budget_restores_the_outer_budget():
    assert budget() == Budget()
    with using_budget(Budget(terms=5)):
        with pytest.raises(TermBudgetError, match="6 terms, over the budget of 5 terms"):
            with using_budget(Budget(terms=5, states=7)):
                assert budget().states == 7
                budget().check_terms(6, "x")
        assert budget() == Budget(terms=5)
    assert budget() == Budget()


def test_every_family_honours_the_term_budget(tmp_path, capsys):
    _inputs(tmp_path)
    out = tmp_path / "f.txt"
    specs = _family_specs(tmp_path / "chi.txt")
    assert len(specs) == 15
    for spec in specs:
        assert run(capsys, "family", spec, "--out", str(out))[0] == 0, spec
        assert len(out.read_text().splitlines()) > 1, spec
        out.unlink()
        code, stdout, err = run(capsys, "--term-budget", "1", "family", spec, "--out", str(out))
        assert code == 2 and stdout == "", spec
        assert _one_error_line(err) and "terms" in err, (spec, err)
        assert not out.exists(), spec


def test_every_reduction_kind_honours_the_state_budget(tmp_path, capsys):
    _inputs(tmp_path)
    kinds = _reduce_kinds()
    assert set(REDUCE_PARAMS) == set(kinds)
    red = tmp_path / "r.txt"
    for kind in kinds:
        params = [p.format(dir=tmp_path) for p in REDUCE_PARAMS[kind]]
        assert run(capsys, "reduce", kind, *params, "--out", str(red))[0] == 0, kind
        red.unlink()
        argv = ("--state-budget", "1", "reduce", kind, *params, "--out", str(red))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", kind
        assert _one_error_line(err) and "state budget 1 exceeded" in err, (kind, err)
        assert not red.exists(), kind


def test_no_public_function_takes_a_budget_parameter():
    checked, found = 0, []
    for info in pkgutil.walk_packages(ncpoly.__path__, "ncpoly."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = []
            if inspect.isfunction(obj):
                functions.append((name, obj))
            elif inspect.isclass(obj):
                functions += [
                    (f"{name}.{attr}", fn)
                    for attr, fn in vars(obj).items()
                    if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("_"))
                ]
            for qualname, fn in functions:
                checked += 1
                params = inspect.signature(fn).parameters
                if {"term_budget", "state_budget"} & set(params):
                    found.append(f"{module.__name__}.{qualname}")
    assert checked > 100 and found == []


def test_reduce_and_family_refuse_unknown_and_repeated_parameters(tmp_path, capsys):
    _inputs(tmp_path)
    red = tmp_path / "r.txt"
    for kind, params in REDUCE_PARAMS.items():
        params = [p.format(dir=tmp_path) for p in params]
        for extra, message in (("bogus=1", "no parameter 'bogus'"), (params[0], "repeats")):
            code, out, err = run(capsys, "reduce", kind, *params, extra, "--out", str(red))
            assert code == 2 and out == "", (kind, extra)
            assert _one_error_line(err) and message in err, (kind, err)
            assert not red.exists(), kind
    code, out, err = run(capsys, "family", "pal:n=2,n=3", "--out", str(red))
    assert code == 2 and _one_error_line(err) and "repeats parameter 'n'" in err
    assert not red.exists()


def test_state_budget_is_checked_before_any_product(monkeypatch):
    # the composition is charged for the states its backward walk finds,
    # which are the trimmed composite's, before any entry word is multiplied
    inner, outer = dyck_depth_reduction(1, 2, 3), dyck_depth_reduction(2, 3, 3)
    dim = compose_abp(inner, outer).dim
    calls = []
    monkeypatch.setattr(dyck, "product_cells", lambda *args: calls.append(args))
    monkeypatch.setattr(base, "product_cells", lambda *args: calls.append(args))
    program = parse_abp(DYCK_ABP, VarTable())
    target = make_family("pal:n=2")
    witness = target.table.word(*["x0"] * 4)
    with using_budget(Budget(states=program.size - 1)), pytest.raises(StateBudgetError):
        vbp_trivial_reduction(program, target, witness)
    with using_budget(Budget(states=dim - 1)), pytest.raises(StateBudgetError):
        compose_abp(inner, outer)
    assert calls == []


def test_abp_eval_checks_the_term_budget_edge_by_edge():
    t = VarTable(["x0"])
    x0 = t.word("x0")
    fan = Abp(t, [1, 10, 1], [[(0, v, 1, x0) for v in range(10)], [(v, 0, 1, x0) for v in range(10)]])
    with using_budget(Budget(terms=3)), pytest.raises(TermBudgetError, match="layer 1 holds 4 terms"):
        abp_eval(fan)


def test_termwise_apply_checks_the_term_budget():
    t, out = VarTable(["x0", "x1"]), VarTable(["a", "b"])
    a, b = out.word("a"), out.word("b")
    # two cells in every row: each letter doubles the terms of the row vector
    doubling = {(0, 0): (1, a), (0, 1): (1, b), (1, 0): (1, b), (1, 1): (1, a)}
    sub = MatrixSubstitution(t, out, 2, {0: doubling, 1: doubling})
    x0_cubed = NCPoly(t, {t.word("x0", "x0", "x0"): 1})
    with using_budget(Budget(terms=5)):
        with pytest.raises(TermBudgetError, match="termwise apply holds 8 terms"):
            sub.evaluate(x0_cubed)
    with using_budget(Budget(terms=8)):
        assert len(sub.evaluate(x0_cubed).terms) == 4
    # one cell per row: the row vectors keep one term, and the result grows
    renaming = MatrixSubstitution(t, out, 1, {0: {(0, 0): (1, a)}, 1: {(0, 0): (1, b)}})
    squares = NCPoly(t, {w: 1 for w in ("\0\0", "\0\1", "\1\0", "\1\1")})
    with using_budget(Budget(terms=3)):
        with pytest.raises(TermBudgetError, match="termwise apply holds 4 terms"):
            renaming.evaluate(squares)


def test_verify_on_the_termwise_route_exits_2_over_the_term_budget(tmp_path, capsys):
    # id has no grammar record, so verify applies the substitution termwise;
    # its result holds 8192 terms
    cells = "".join(f"entry {i} {j} 1 {'a' if i == j else 'b'}\n" for i in (1, 2) for j in (1, 2))
    red, empty = tmp_path / "r.red", tmp_path / "empty.poly"
    red.write_text(
        "reduction abp\nsource s\ntarget id:n=7\nsubstitution\ndim 2\n"
        f"input-vars x0 x1\noutput-vars a b\nvar x0\n{cells}var x1\n{cells}"
    )
    empty.write_text("")
    code, out, err = run(capsys, "--term-budget", "1000", "verify", str(red), "--source", f"poly:{empty}")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "termwise apply" in err


def test_verify_checks_a_streamed_target_count_before_the_walk(tmp_path, capsys):
    # idstar streams its words into the walk, but its 3125 words are still
    # counted against the budget before the first one is built
    red = tmp_path / "per5.red"
    assert run(capsys, "reduce", "per-idstar", "n=5", "--out", str(red))[0] == 0
    code, out, err = run(capsys, "--term-budget", "1000", "verify", str(red))
    assert code == 2 and out == ""
    assert _one_error_line(err) and "family idstar holds 3125 terms" in err
    code, out, _ = run(capsys, "verify", str(red))
    assert code == 0 and out.startswith("verdict pass\nsource-terms 120\nresult-terms 120\n")
