import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncpoly import cli
from ncpoly.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_pal_bytes(tmp_path, capsys):
    out = tmp_path / "pal.txt"
    code, _, _ = run(capsys, "family", "pal:n=1", "--out", str(out))
    assert code == 0
    assert out.read_text() == "1 x0 x0\n1 x1 x1\n"


def test_family_dyck_and_per_counts(tmp_path, capsys):
    out = tmp_path / "d.txt"
    assert run(capsys, "family", "dyck:k=2,d=4", "--out", str(out))[0] == 0
    assert len(out.read_text().splitlines()) == 8
    assert run(capsys, "family", "per:n=2", "--out", str(out))[0] == 0
    assert len(out.read_text().splitlines()) == 2


def test_family_unknown_exits_2(capsys):
    code, _, err = run(capsys, "family", "bogus:n=1")
    assert code == 2
    assert "unknown family" in err


def test_expand(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x1\ng1 input x2\ng2 mul g0 g1\noutput g2\n")
    out = tmp_path / "e.txt"
    code, _, _ = run(capsys, "expand", str(circ), "--out", str(out))
    assert code == 0
    assert out.read_text() == "1 x1 x2\n"


def test_reduce_and_verify_pal_d2(tmp_path, capsys):
    red = tmp_path / "r.txt"
    code, _, _ = run(capsys, "reduce", "pal-d2", "n=2", "--out", str(red))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(red))
    assert code == 0
    assert "verdict pass" in out


def test_verify_corrupted_exits_1(tmp_path, capsys):
    red = tmp_path / "r.txt"
    run(capsys, "reduce", "pal-d2", "n=1", "--out", str(red))
    text = red.read_text()
    # double one live entry coefficient
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("entry "):
            parts = line.split()
            parts[3] = "2"
            lines[i] = " ".join(parts)
            break
    red.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(red))
    assert code == 1
    assert "witness" in out


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/file.txt")
    assert code == 2
    assert err


def test_reduce_dyck_complete_roundtrip(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x1\ng1 input x2\ng2 mul g0 g1\ng3 mul g1 g0\ng4 add g2 g3\noutput g4\n")
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "dyck-complete", f"circuit={circ}", "--out", str(red))[0] == 0
    code, out, _ = run(capsys, "verify", str(red))
    assert code == 0 and "verdict pass" in out


def test_reduce_pal_vsk_roundtrip(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 const 3\ng1 input x1\ng2 mul g0 g1\noutput g2\n")
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-vsk", f"circuit={circ}", "--out", str(red))[0] == 0
    assert run(capsys, "verify", str(red))[0] == 0


def test_reduce_per_family_kinds(tmp_path, capsys):
    red = tmp_path / "r.txt"
    for kind, params in [
        ("per-idstar", ["n=2"]),
        ("palsq-d2", ["n=1"]),
        ("dk-d2", ["k=3", "d=2"]),
        ("depth", ["k1=1", "k2=2", "n=2"]),
        ("hier-iproj", ["i=1", "n=1"]),
    ]:
        assert run(capsys, "reduce", kind, *params, "--out", str(red))[0] == 0
        code, out, _ = run(capsys, "verify", str(red))
        assert code == 0, (kind, out)


def test_reduce_per_chi(tmp_path, capsys):
    chi = tmp_path / "chi.txt"
    chi.write_text("1 2 -> 2\n2 1 -> 3\n")
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "per-chi", "n=2", f"chi={chi}", "--out", str(red))[0] == 0
    assert run(capsys, "verify", str(red))[0] == 0


def test_reduce_vbp_trivial(tmp_path, capsys):
    abp = tmp_path / "p.txt"
    # one-pair balanced words of length 4 as a branching program
    abp.write_text(
        "layers 0:1 1:1 2:2 3:1 4:1\n"
        "edge 0 0 0 1 (1\n"
        "edge 1 0 0 1 (1\n"
        "edge 1 0 1 1 )1\n"
        "edge 2 0 0 1 )1\n"
        "edge 2 1 0 1 (1\n"
        "edge 3 0 0 1 )1\n"
    )
    red = tmp_path / "r.txt"
    code, _, err = run(
        capsys,
        "reduce",
        "vbp-trivial",
        f"abp={abp}",
        "target=pal:n=2",
        "witness=x0,x0,x0,x0",
        "--out",
        str(red),
    )
    assert code == 0, err
    assert run(capsys, "verify", str(red))[0] == 0


def test_reduce_vbp_trivial_refuses_constant_and_two_letter_edges(tmp_path, capsys):
    abp = tmp_path / "p.txt"
    argv = ("reduce", "vbp-trivial", f"abp={abp}", "target=pal:n=1", "witness=x0,x0")
    for edge, message in (
        ("edge 1 0 0 1 x0 + 1", "single-variable monomials"),
        ("edge 1 0 0 1 x0 1 x1", "distinct monomials"),
    ):
        abp.write_text(f"layers 0:1 1:1 2:1\nedge 0 0 0 1 x0\n{edge}\n")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _one_error_line(err) and message in err, (edge, err)


def test_rank_table(capsys):
    code, out, _ = run(capsys, "rank", "pal:n=3", "--cut", "3")
    assert code == 0 and out == "3 8\n"
    code, out, _ = run(capsys, "rank", "id:n=3", "--cut", "3")
    assert code == 0 and out == "3 8\n"
    code, out, _ = run(capsys, "rank", "dyckdepth:k=1,n=3", "--cut", "3")
    assert code == 0
    assert int(out.split()[1]) == 2
    code, out, _ = run(capsys, "--format", "structured", "rank", "pal:n=2", "--cut", "2")
    assert out == "cut=2 rank=4\n"


def test_rank_from_abps_past_the_reach_of_expansion(capsys):
    # under the default budgets; expanding dyck:k=2,d=24 would build
    # 2,489,344 terms, per:n=9 362,880 and prodsums:n=21 2,097,152
    for spec, cut, rank in (
        ("dyck:k=2,d=24", 12, 5461),
        ("per:n=9", 4, 126),
        ("dyckdepth:k=3,n=20", 20, 5),
        ("dyck:k=2,d=0", 0, 1),
        ("prodsums:n=21", 10, 1),
        ("powsum:n=21", 10, 1),
        ("twochains:n=21", 10, 2),
    ):
        assert run(capsys, "rank", spec, "--cut", str(cut)) == (0, f"{cut} {rank}\n", ""), spec
    # the width-1 ABP of prodsums holds no term: one term is budget enough
    argv = ("--term-budget", "1", "rank", "prodsums:n=19", "--cut", "10", "--cut", "0")
    assert run(capsys, *argv) == (0, "10 1\n0 1\n", "")


def test_rank_cut_outside_the_degree_exits_2(capsys):
    for spec, cut, degree in (
        ("dyck:k=2,d=6", "7", 6),
        ("dyckdepth:k=1,n=2", "-1", 4),
        ("per:n=3", "4", 3),
        ("dyck:k=1,d=0", "1", 0),
        ("pal:n=2", "5", 4),
    ):
        code, out, err = run(capsys, "rank", spec, "--cut", "1", "--cut", cut)
        assert code == 2 and out == "", spec
        assert _one_error_line(err) and f"outside 0..{degree}" in err, (spec, err)


def test_rank_checks_every_cut_before_ranking_any(capsys):
    # the ABP route takes every cut in one call, which names the bad one
    code, out, err = run(capsys, "rank", "dyck:k=2,d=8", "--cut", "3", "--cut", "99")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "cut 99 outside 0..8" in err, err


def test_hadamard_command(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x0\ng1 input x1\ng2 add g0 g1\ng3 mul g2 g2\noutput g3\n")
    abp = tmp_path / "g.txt"
    abp.write_text(
        "layers 0:1 1:2 2:1\n"
        "edge 0 0 0 1 x0\n"
        "edge 0 0 1 1 x1\n"
        "edge 1 0 0 1 x0\n"
        "edge 1 1 0 1 x1\n"
    )
    out = tmp_path / "h.txt"
    code, _, err = run(capsys, "hadamard", "--circuit", str(circ), "--abp", str(abp), "--out", str(out))
    assert code == 0, err
    assert out.read_text() == "1 x0 x0\n1 x1 x1\n"


def test_compose_command(tmp_path, capsys):
    r1 = tmp_path / "r1.txt"
    run(capsys, "reduce", "pal-d2", "n=2", "--out", str(r1))
    # identity lift of the target family, built through the depth reduction
    r2 = tmp_path / "r2.txt"
    run(capsys, "reduce", "depth", "k1=2", "k2=2", "n=2", "--out", str(r2))
    out = tmp_path / "c.txt"
    code, _, err = run(capsys, "compose", str(r1), str(r2), "--out", str(out))
    assert code == 0, err
    code, msg, _ = run(capsys, "verify", str(out), "--source", "pal:n=2", "--target", "dyckdepth:k=2,n=2")
    assert code == 0, msg


def test_composed_chain_to_d2_fails_on_any_planted_start_row_cell(tmp_path, capsys):
    # circuit -> D_k by dyck-complete, then D_k -> D_2 by dk-d2, composed
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x\ng1 const 1\ng2 add g1 g0\ng3 mul g2 g2\ng4 mul g3 g2\noutput g4\n")
    first, second, comp = tmp_path / "dc.red", tmp_path / "dk.red", tmp_path / "comp.red"
    assert run(capsys, "reduce", "dyck-complete", f"circuit={circ}", "--out", str(first))[0] == 0
    k, d = first.read_text().splitlines()[2].split(":")[1].split(",")
    assert run(capsys, "reduce", "dk-d2", k, d, "--out", str(second))[0] == 0
    assert run(capsys, "compose", str(first), str(second), "--out", str(comp))[0] == 0
    code, out, _ = run(capsys, "verify", str(comp))
    assert code == 0 and "verdict pass" in out
    # every cell on the start row of the trimmed composite lies on a path
    # to the accept state, and all coefficients are positive, so raising
    # any of them changes the result
    lines = comp.read_text().splitlines()
    start_row = [i for i, line in enumerate(lines) if line.startswith("entry 1 ")]
    assert start_row
    bad = tmp_path / "bad.red"
    for i in start_row:
        tokens = lines[i].split()
        tokens[3] = str(int(tokens[3]) + 1)
        bad.write_text("\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1 :]) + "\n")
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1 and "witness" in out, lines[i]


def test_dyck_complete_over_gf2_keeps_no_dead_states(tmp_path, capsys):
    # 2x vanishes over GF(2), so the walk's transitions through g3 drop
    # and the whole circuit is zero: only the start and accept states stay
    circ = tmp_path / "c.txt"
    circ.write_text("g0 const 0\ng1 input x\ng2 add g0 g1\ng3 add g2 g2\ng4 mul g3 g2\noutput g4\n")
    red = tmp_path / "r.red"
    argv = ("--field", "p=2", "reduce", "dyck-complete", f"circuit={circ}", "--out", str(red))
    assert run(capsys, *argv)[0] == 0
    assert "\ndim 2\n" in red.read_text()
    code, out, _ = run(capsys, "--field", "p=2", "verify", str(red))
    assert code == 0 and "verdict pass" in out


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "reduce", "per-idstar", "n=2", "--out", str(a))
    run(capsys, "reduce", "per-idstar", "n=2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    run(capsys, "family", "dyck:k=2,d=6", "--out", str(a))
    run(capsys, "family", "dyck:k=2,d=6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_prime_field_flag(tmp_path, capsys):
    out = tmp_path / "p.txt"
    code, _, _ = run(capsys, "--field", "p=7", "family", "pal:n=1", "--out", str(out))
    assert code == 0
    assert out.read_text() == "1 x0 x0\n1 x1 x1\n"
    red = tmp_path / "r.txt"
    assert run(capsys, "--field", "p=7", "reduce", "pal-d2", "n=2", "--out", str(red))[0] == 0
    assert run(capsys, "--field", "p=7", "verify", str(red))[0] == 0


def test_term_budget_flag(capsys):
    code, _, err = run(capsys, "--term-budget", "10", "family", "dyck:k=2,d=8")
    assert code == 2
    assert "terms" in err


def test_verify_source_overrides(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x1\ng1 input x2\ng2 mul g0 g1\noutput g2\n")
    red = tmp_path / "r.txt"
    run(capsys, "reduce", "dyck-complete", f"circuit={circ}", "--out", str(red))
    # explicit circuit source
    assert run(capsys, "verify", str(red), "--source", f"circuit:{circ}")[0] == 0
    # explicit polynomial source
    poly = tmp_path / "p.txt"
    run(capsys, "expand", str(circ), "--out", str(poly))
    assert run(capsys, "verify", str(red), "--source", f"poly:{poly}")[0] == 0
    # a wrong polynomial source must fail with exit 1
    poly.write_text("1 x2 x1\n")
    code, out, _ = run(capsys, "verify", str(red), "--source", f"poly:{poly}")
    assert code == 1 and "witness" in out


def test_per_chi_over_prime_field(tmp_path, capsys):
    chi = tmp_path / "chi.txt"
    chi.write_text("1 2 -> 2\n2 1 -> 3\n")
    red = tmp_path / "r.txt"
    assert run(capsys, "--field", "p=11", "reduce", "per-chi", "n=2", f"chi={chi}", "--out", str(red))[0] == 0
    assert run(capsys, "--field", "p=11", "verify", str(red))[0] == 0
    # a chi value that is zero mod p is rejected up front
    chi.write_text("1 2 -> 11\n2 1 -> 3\n")
    code, _, err = run(capsys, "--field", "p=11", "reduce", "per-chi", "n=2", f"chi={chi}", "--out", str(red))
    assert code == 2 and "zero" in err


def test_verify_over_budget_exits_2(tmp_path, capsys):
    # pal:n=600 has 2^600 terms; the structured apply stops at the budget
    # instead of recursing 1200 levels deep or filling memory
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=600", "--out", str(red))[0] == 0
    code, out, err = run(capsys, "--term-budget", "4096", "verify", str(red))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4096" in err


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_rank_honours_term_budget(capsys):
    # dyck and per are ranked from their ABPs, which hold states, not terms;
    # pal is still expanded
    for argv in (
        ("--state-budget", "10", "rank", "dyck:k=2,d=8", "--cut", "4"),
        ("--state-budget", "10", "rank", "per:n=6", "--cut", "3"),
        ("--term-budget", "10", "rank", "pal:n=6", "--cut", "6"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert _one_error_line(err), (argv, err)
    for argv, line in (
        (("--term-budget", "10", "rank", "dyck:k=2,d=8", "--cut", "4"), "4 21\n"),
        (("--term-budget", "10", "rank", "per:n=6", "--cut", "3"), "3 20\n"),
    ):
        assert run(capsys, *argv) == (0, line, ""), argv


def test_weighted_permanent_families_honour_term_budget(tmp_path, capsys):
    from itertools import permutations

    chi = tmp_path / "chi.txt"
    chi.write_text("".join(" ".join(map(str, s)) + " -> 2\n" for s in permutations((1, 2, 3, 4))))
    out = tmp_path / "f.txt"
    for family in ("perchi", "perstarchi"):
        argv = ("family", f"{family}:n=4,chi={chi}", "--out", str(out))
        code, stdout, err = run(capsys, "--term-budget", "5", *argv)
        assert code == 2 and stdout == ""
        assert _one_error_line(err) and "24 terms" in err
        assert not out.exists()
        assert run(capsys, "--term-budget", "24", *argv)[0] == 0
        assert len(out.read_text().splitlines()) == 24
        out.unlink()


def test_short_chi_table_for_a_large_n_is_refused_without_enumerating(tmp_path, capsys):
    # 12! = 479001600 permutations: the count is checked key by key
    chi = tmp_path / "chi.txt"
    chi.write_text("1 2 3 4 5 6 7 8 9 10 11 12 -> 1\n")
    code, out, err = run(capsys, "family", f"perchi:n=12,chi={chi}")
    assert code == 2 and out == ""
    assert _one_error_line(err) and "misses 479001599 permutations" in err


def test_a_repeated_chi_permutation_exits_2(tmp_path, capsys):
    # a repeat must not replace the earlier value: this table printed
    # 7 x1_1 x2_2
    chi = tmp_path / "chi.txt"
    for second in ("1 2 -> 7", "1 2 -> 3"):
        chi.write_text(f"1 2 -> 3\n2 1 -> 1\n{second}\n")
        code, out, err = run(capsys, "family", f"perchi:n=2,chi={chi}")
        assert code == 2 and out == ""
        assert _one_error_line(err) and "repeats the permutation 1 2" in err


def test_bad_coefficient_literal_exits_2(tmp_path, capsys):
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=1", "--out", str(red))[0] == 0
    poly = tmp_path / "p.txt"
    abp = tmp_path / "g.txt"
    abp.write_text("layers 0:1 1:1 2:1\nedge 0 0 0 1 x0\nedge 1 0 0 1 x0\n")
    for field, literal in (("q", "1/0"), ("q", "two"), ("p=5", "1/5"), ("p=5", "x")):
        poly.write_text(f"1 x0 x0\n{literal} x1 x1\n")
        for argv in (
            ("verify", str(red), "--source", f"poly:{poly}"),
            ("hadamard", "--poly", str(poly), "--abp", str(abp)),
        ):
            code, out, err = run(capsys, "--field", field, *argv)
            assert code == 2 and out == "", (field, literal, argv)
            assert _one_error_line(err) and literal in err, (field, literal, err)


def test_a_huge_decimal_exponent_exits_2_at_once(tmp_path, capsys):
    # Fraction("1e10000000") alone computes 10**10000000 for about 15 s
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=1", "--out", str(red))[0] == 0
    poly = tmp_path / "p.txt"
    for literal in ("1e10000000", "-3.5E-10000000", "1e4301"):
        poly.write_text(f"{literal} x0 x0\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", str(red), "--source", f"poly:{poly}")
        assert time.perf_counter() - start < 1.5, literal
        assert code == 2 and out == ""
        assert _one_error_line(err) and literal in err


def test_long_balanced_words_exit_2_without_recursion(capsys):
    # words of 2400 letters, whose enumeration once recursed per letter, and
    # of 200,000 letters, where counting the words of every half-length
    # would take about half^2 steps and stopping at the first count over the
    # budget takes a handful
    for argv in (
        ("--term-budget", "10", "family", "dyck:k=1,d=2400"),
        ("--term-budget", "10", "family", "dyck:k=1,d=200000"),
        ("--term-budget", "10", "family", "dyckdepth:k=2,n=100000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == ""
        assert _one_error_line(err), (argv, err)
    # the rank of the same words comes from their 2,401-layer ABP, unexpanded
    start = time.perf_counter()
    argv = ("--term-budget", "10", "rank", "dyckdepth:k=2,n=1200", "--cut", "1200")
    assert run(capsys, *argv) == (0, "1200 5\n", "")
    assert time.perf_counter() - start < 1.0


def test_reduce_state_budget_is_checked_during_the_build(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 const 3\ng1 input x1\ng2 mul g0 g1\noutput g2\n")
    red = tmp_path / "r.txt"
    for kind in ("dyck-complete", "pal-vsk"):
        argv = ("--state-budget", "3", "reduce", kind, f"circuit={circ}", "--out", str(red))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert _one_error_line(err) and "state budget 3 exceeded" in err
    assert not red.exists()
    # every automaton stops at the budget: these once built 419,811
    # states in 15 s, and ran 4.2 s and 0.5 s, before the check
    for params in (
        ("depth", "k1=20", "k2=20", "n=20000"),
        ("dk-d2", "k=8", "d=4000"),
        ("per-idstar", "n=12"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "--state-budget", "10", "reduce", *params, "--out", str(red))
        assert time.perf_counter() - start < 1.5, params
        assert code == 2 and out == ""
        assert _one_error_line(err) and "state budget 10 exceeded" in err, (params, err)
        assert not red.exists()
    # so does the dimension of a composition: cycles of 3 and 5 states,
    # each within the budget, compose to 15 states on start -> accept paths
    first, second = tmp_path / "cycle3.txt", tmp_path / "cycle5.txt"
    for path, q, letter, image in ((first, 3, "a", "x"), (second, 5, "z", "a")):
        cells = "".join(f"entry {i + 1} {(i + 1) % q + 1} 1 {image}\n" for i in range(q))
        path.write_text(
            f"reduction abp\nsource s\ntarget t\nsubstitution\ndim {q}\n"
            f"input-vars {letter}\noutput-vars {image}\nvar {letter}\n{cells}"
        )
    argv = ("--state-budget", "10", "compose", str(first), str(second), "--out", str(red))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert _one_error_line(err) and "state budget 10 exceeded" in err
    assert not red.exists()
    assert run(capsys, "compose", str(first), str(second), "--out", str(red))[0] == 0
    assert "dim 15\n" in red.read_text()


def test_reduce_builds_no_state_that_the_trim_drops(tmp_path, capsys):
    # dyck-complete pads with one looping pair and one handover pair, and
    # pal-vsk adds only gate states whose parse words reach the center at
    # the middle: each build fits a state budget of the dim it writes, and
    # one state fewer refuses
    plain = ["g0 input x", "g1 const 1", "g2 add g1 g0"]  # (1+x)^28, left chain
    plain += [f"g{i} mul g{i - 1} g2" for i in range(3, 30)]
    skew, cur = ["g0 const 3", "g1 input u"], 0  # p <- p + u*p twelve times
    for _ in range(12):
        gid = len(skew)
        skew += [f"g{gid} mul g1 g{cur}", f"g{gid + 1} add g{cur} g{gid}"]
        cur = gid + 1
    circ, red = tmp_path / "c.txt", tmp_path / "r.red"
    for kind, lines, dim in (("dyck-complete", plain, 36), ("pal-vsk", skew, 93)):
        circ.write_text("\n".join(lines) + f"\noutput {lines[-1].split()[0]}\n")
        argv = ("reduce", kind, f"circuit={circ}", "--out", str(red))
        assert run(capsys, "--state-budget", str(dim), *argv)[0] == 0
        assert f"dim {dim}\n" in red.read_text()
        assert run(capsys, "--state-budget", str(dim), "verify", str(red))[0] == 0
        assert run(capsys, "--state-budget", str(dim - 1), *argv)[0] == 2


def test_raising_a_start_row_or_accept_column_cell_fails_verify(tmp_path, capsys):
    # the dyck-complete accept state also has cells out of it; every cell
    # on the start row or into the accept column still carries part of the
    # result, so raising its coefficient is reported with a witness
    circ = tmp_path / "c.txt"
    circ.write_text(
        "g0 input u\ng1 const 3\ng2 add g1 g0\n"
        "g3 mul g2 g2\ng4 mul g3 g3\ng5 mul g4 g4\noutput g5\n"
    )
    red, bad = tmp_path / "r.red", tmp_path / "bad.red"
    assert run(capsys, "reduce", "dyck-complete", f"circuit={circ}", "--out", str(red))[0] == 0
    lines = red.read_text().splitlines()
    dim = next(line.split()[1] for line in lines if line.startswith("dim "))
    planted = 0
    for i, line in enumerate(lines):
        tokens = line.split()
        if line.startswith("entry ") and (tokens[1] == "1" or tokens[2] == dim):
            tokens[3] = str(Fraction(tokens[3]) + 1)
            bad.write_text("\n".join(lines[:i] + [" ".join(tokens)] + lines[i + 1 :]) + "\n")
            code, out, _ = run(capsys, "verify", str(bad))
            assert code == 1 and "\nwitness " in out, line
            planted += 1
    assert planted > 2


def test_hadamard_circuit_honours_term_budget(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x0\ng1 input x1\ng2 add g0 g1\ng3 mul g2 g2\noutput g3\n")
    abp = tmp_path / "g.txt"
    abp.write_text(
        "layers 0:1 1:2 2:1\n"
        "edge 0 0 0 1 x0\n"
        "edge 0 0 1 1 x1\n"
        "edge 1 0 0 1 x0\n"
        "edge 1 1 0 1 x1\n"
    )
    out = tmp_path / "h.txt"
    argv = ("hadamard", "--circuit", str(circ), "--abp", str(abp), "--out", str(out))
    code, _, err = run(capsys, "--term-budget", "3", *argv)
    assert code == 2 and _one_error_line(err) and "3 terms" in err
    assert not out.exists()
    assert run(capsys, "--term-budget", "4", *argv)[0] == 0
    assert out.read_text() == "1 x0 x0\n1 x1 x1\n"


def test_hadamard_abp_edge_gap_out_of_range_exits_2(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input x0\ng1 input x1\ng2 add g0 g1\ng3 mul g2 g2\noutput g3\n")
    abp = tmp_path / "g.txt"
    abp.write_text("layers 0:1 1:2 2:1\nedge 5 0 0 1 x0\n")
    code, out, err = run(capsys, "hadamard", "--circuit", str(circ), "--abp", str(abp))
    assert code == 2 and out == ""
    assert _one_error_line(err)


def test_a_second_layers_line_exits_2(tmp_path, capsys):
    # a second layers line must not replace the first: hadamard read the
    # last one and exited 0
    circ, abp = tmp_path / "c.txt", tmp_path / "g.txt"
    circ.write_text("g0 input x0\ng1 input x1\ng2 add g0 g1\ng3 mul g2 g2\noutput g3\n")
    program = "layers 0:1 1:2 2:1\nedge 0 0 0 1 x0\nedge 0 0 1 1 x1\nedge 1 0 0 1 x0\nedge 1 1 0 1 x1\n"
    argv = ("hadamard", "--circuit", str(circ), "--abp", str(abp))
    abp.write_text(program)
    assert run(capsys, *argv) == (0, "1 x0 x0\n1 x1 x1\n", "")
    for extra in ("layers 0:1 1:2 2:1", "layers 0:1 1:3 2:1"):
        abp.write_text(program + extra + "\n")
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert _one_error_line(err) and "second layers line" in err


def test_verify_short_entry_line_exits_2(tmp_path, capsys):
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=1", "--out", str(red))[0] == 0
    text = red.read_text()
    assert "entry 1 2 1 x0\n" in text
    red.write_text(text.replace("entry 1 2 1 x0\n", "entry 1\n", 1))
    code, out, err = run(capsys, "verify", str(red))
    assert code == 2 and out == ""
    assert _one_error_line(err)


SQUARE = "g0 const 1\ng1 input x\ng2 add g0 g1\ng3 mul g2 g2\noutput g3\n"  # (1+x)^2


def _refused(capsys, red, text, *commands):
    """Each command on a reduction file holding text exits 2 with one error line."""
    red.write_text(text)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", (argv, out)
        assert _one_error_line(err), err


def test_a_source_poly_cut_short_exits_2(tmp_path, capsys):
    # the terms before the cut must not be read as the whole source
    circ, red = tmp_path / "c.txt", tmp_path / "r.txt"
    circ.write_text(SQUARE)
    assert run(capsys, "reduce", "dyck-complete", f"circuit={circ}", "--out", str(red))[0] == 0
    lines = red.read_text().splitlines()
    assert lines[-1] == "end-poly"
    _refused(capsys, red, "\n".join(lines[:-2]) + "\n", ["verify", str(red)])
    _refused(capsys, red, "\n".join(lines[:-1]) + "\n", ["verify", str(red)])


def test_a_line_after_end_poly_exits_2(tmp_path, capsys):
    # a file run together with another must not pass on its first part
    circ, red = tmp_path / "c.txt", tmp_path / "r.txt"
    circ.write_text(SQUARE)
    assert run(capsys, "reduce", "dyck-complete", f"circuit={circ}", "--out", str(red))[0] == 0
    text = red.read_text()
    red.write_text(text + "\n\n")
    assert run(capsys, "verify", str(red))[0] == 0  # blank lines are no content
    _refused(capsys, red, text + "junk here\n", ["verify", str(red)])
    _refused(capsys, red, text + "end-poly\n", ["verify", str(red)])


def test_a_repeated_entry_cell_exits_2(tmp_path, capsys):
    # a second line for one cell must not replace the first, which would
    # make verify report a false witness
    red, other = tmp_path / "r.txt", tmp_path / "o.txt"
    assert run(capsys, "reduce", "depth", "k1=1", "k2=2", "n=2", "--out", str(red))[0] == 0
    assert run(capsys, "reduce", "depth", "k1=2", "k2=2", "n=2", "--out", str(other))[0] == 0
    text = red.read_text()
    assert "entry 1 2 1 (1\n" in text
    bad = text.replace("entry 1 2 1 (1\n", "entry 1 2 1 (1\nentry 1 2 5 (1\n", 1)
    _refused(capsys, red, bad, ["verify", str(red)], ["compose", str(red), str(other)])
    # the same cell under a second `var (1` section is the same cell
    again = text.replace("var )1\n", "var (1\nentry 01 2 5 (1\nvar )1\n", 1)
    _refused(capsys, red, again, ["verify", str(red)])


def test_a_second_dim_line_exits_2(tmp_path, capsys):
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "depth", "k1=1", "k2=2", "n=2", "--out", str(red))[0] == 0
    text = red.read_text()
    assert "\ndim 3\n" in text
    for extra in ("dim 3", "dim 4"):
        bad = text.replace("\ndim 3\n", f"\ndim 3\n{extra}\n", 1)
        _refused(capsys, red, bad, ["verify", str(red)])


@pytest.mark.parametrize("dim", [0, -5])
def test_a_dim_below_one_exits_2_on_both_routes(tmp_path, capsys, dim):
    # id has no grammar record, so verify applies the substitution termwise
    # and reported a mismatch (exit 1); the Dyck target took the grammar
    # route and failed on a negative shift count
    red = tmp_path / "r.txt"
    for target, inputs in (("id:n=1", "x0 x1"), ("dyck:k=2,d=2", "(1 )1 (2 )2")):
        text = (
            f"reduction abp\nsource pal:n=1\ntarget {target}\nsubstitution\n"
            f"dim {dim}\ninput-vars {inputs}\noutput-vars x0 x1\n"
        )
        _refused(capsys, red, text, ["verify", str(red)])
        assert f"dim {dim} " in run(capsys, "verify", str(red))[2]


@pytest.mark.parametrize(
    "first, second",
    [
        ("source dyckdepth:k=1,n=2", "source dyckdepth:k=2,n=2"),
        ("target dyckdepth:k=2,n=2", "target dyckdepth:k=3,n=2"),
        ("reduction dyck-depth", "reduction abp"),
    ],
    ids=["source", "target", "reduction"],
)
def test_a_repeated_header_line_exits_2(tmp_path, capsys, first, second):
    # a second header line must not replace the first: a second source line
    # made verify exit 1 with the false witness (1 (1 )1 )1
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "depth", "k1=1", "k2=2", "n=2", "--out", str(red))[0] == 0
    text = red.read_text()
    assert f"{first}\n" in text
    for bad in (f"{first}\n{second}\n", f"{first}\n{first}\n"):
        _refused(capsys, red, text.replace(f"{first}\n", bad, 1), ["verify", str(red)])


def test_reimport_releases_the_previous_generation():
    # a harness that imports the package afresh must not keep old copies
    # alive through module-level caches
    import gc
    import importlib
    import sys
    import weakref

    saved = {k: v for k, v in sys.modules.items() if k == "ncpoly" or k.startswith("ncpoly.")}

    def fresh():
        for name in [k for k in sys.modules if k == "ncpoly" or k.startswith("ncpoly.")]:
            del sys.modules[name]
        importlib.import_module("ncpoly.cli")
        return sys.modules["ncpoly.algebra"]

    try:
        first = weakref.ref(fresh().NCPoly)
        fresh()
        gc.collect()
        assert first() is None
    finally:
        for name in [k for k in sys.modules if k == "ncpoly" or k.startswith("ncpoly.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_a_variable_named_like_a_scalar_exits_2(tmp_path, capsys):
    circ = tmp_path / "c.txt"
    circ.write_text("g0 input 1\ng1 input x\ng2 mul g0 g1\noutput g2\n")
    poly = tmp_path / "p.txt"
    poly.write_text("2 x 3/4\n")
    abp = tmp_path / "g.txt"
    abp.write_text("layers 0:1 1:1 2:1\nedge 0 0 0 1 x\nedge 1 0 0 1 x\n")
    for argv in (
        ("expand", str(circ)),
        ("reduce", "dyck-complete", f"circuit={circ}"),
        ("hadamard", "--poly", str(poly), "--abp", str(abp)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert _one_error_line(err) and "bad variable name" in err, (argv, err)


def test_hierarchy_honours_term_budget_before_any_work(tmp_path, capsys):
    # hier:i=2,n=7 once enumerated and multiplied 2.5 GB before the check
    for spec in ("hier:i=1,n=12", "hier:i=2,n=7"):
        start = time.perf_counter()
        code, out, err = run(capsys, "--term-budget", "10", "family", spec)
        assert time.perf_counter() - start < 1.5, spec
        assert code == 2 and out == ""
        assert _one_error_line(err), err
    # the target's degree is known without realizing hier:i=3,n=4
    red = tmp_path / "r.txt"
    argv = ("--term-budget", "1000", "reduce", "hier-iproj", "i=2", "n=4", "--out", str(red))
    start = time.perf_counter()
    assert run(capsys, *argv)[0] == 0
    assert time.perf_counter() - start < 1.5
    assert "target hier:i=3,n=4\n" in red.read_text()
    assert "dim 33\n" in red.read_text()


def test_unknown_family_parameters_exit_2(tmp_path, capsys):
    # a misspelt key once computed a different family and exited 0
    poly = tmp_path / "p.txt"
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=1", "--out", str(red))[0] == 0
    for argv, keys in (
        (("family", "pal:n=3,kk=4", "--out", str(poly)), ["'kk'"]),
        (("family", "dyck:k=2,d=4,x=9,y=1", "--out", str(poly)), ["'x'", "'y'"]),
        (("family", "per:n=3,chi=x", "--out", str(poly)), ["'chi'"]),
        (("rank", "dyck:k=2,d=4,x=9", "--cut", "2"), ["'x'"]),
        (("verify", str(red), "--source", "pal:n=1,n2=1"), ["'n2'"]),
        (("verify", str(red), "--target", "dyck:k=2,d=2,q=0"), ["'q'"]),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert _one_error_line(err) and all(k in err for k in keys), (argv, err)
    assert not poly.exists()
    chi = tmp_path / "chi.txt"
    chi.write_text("1 2 -> 2\n2 1 -> 3\n")
    for family in ("perchi", "perstarchi"):
        assert run(capsys, "family", f"{family}:n=2,chi={chi}", "--out", str(poly))[0] == 0


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashing changes with PYTHONHASHSEED; a set or dict ordered by
    # it would reorder states, cells or terms in the written files
    import os
    import subprocess
    import sys

    import ncpoly

    (tmp_path / "c.txt").write_text(
        "g0 input alpha\ng1 input b\ng2 const 3\ng3 add g0 g1\ng4 mul g3 g2\n"
        "g5 input c\ng6 mul g4 g5\ng7 mul g6 g3\ng8 add g7 g6\noutput g8\n"
    )
    (tmp_path / "s.txt").write_text(
        "g0 input alpha\ng1 input b\ng2 mul g0 g1\ng3 const 2\ng4 mul g3 g2\n"
        "g5 input c\ng6 mul g5 g4\ng7 add g6 g4\noutput g7\n"
    )
    (tmp_path / "g.abp").write_text(
        "layers 0:1 1:2 2:2 3:1\n"
        "edge 0 0 0 1 alpha 2 b\nedge 0 0 1 -1 c\n"
        "edge 1 0 0 1 c\nedge 1 0 1 3 b\nedge 1 1 1 1 alpha -1 c\n"
        "edge 2 0 0 1 alpha 1 b\nedge 2 1 0 2 c\n"
    )
    commands = [
        ["reduce", "dyck-complete", "circuit=c.txt", "--out", "dc.red"],
        ["reduce", "pal-vsk", "circuit=s.txt", "--out", "vsk.red"],
        ["reduce", "depth", "k1=2", "k2=3", "n=4", "--out", "d23.red"],
        ["reduce", "depth", "k1=3", "k2=4", "n=4", "--out", "d34.red"],
        ["compose", "d23.red", "d34.red", "--out", "d24.red"],
        ["hadamard", "--circuit", "c.txt", "--abp", "g.abp", "--out", "h.poly"],
        ["family", "dyckdepth:k=2,n=5", "--out", "dd.poly"],
    ]
    script = (
        "import sys\nfrom ncpoly.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    src = str(Path(ncpoly.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        for name in ("c.txt", "s.txt", "g.abp"):
            (work / name).write_bytes((tmp_path / name).read_bytes())
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], cwd=work, env=env, check=True, timeout=120)
        outputs.append({argv[-1]: (work / argv[-1]).read_bytes() for argv in commands})
    assert all(outputs[0].values())
    assert outputs[0] == outputs[1]


def test_prime_moduli_are_checked_exactly_and_below_two_to_the_64(tmp_path, capsys):
    out = tmp_path / "d.txt"
    start = time.perf_counter()
    argv = ("--field", f"p={2**61 - 1}", "family", "dyck:k=1,d=2", "--out", str(out))
    assert run(capsys, *argv)[0] == 0
    assert time.perf_counter() - start < 1.0
    assert out.read_text() == "1 (1 )1\n"
    for p in (3215031751, 2**64 + 13):
        code, stdout, err = run(capsys, "--field", f"p={p}", "family", "dyck:k=1,d=2")
        assert code == 2 and stdout == "" and _one_error_line(err), (p, err)


def test_families_of_order_zero_exit_2(tmp_path, capsys):
    # most of these once wrote the constant 1
    chi = tmp_path / "chi.txt"
    chi.write_text(" -> 1\n")
    for spec in ("perstar:n=0", f"perchi:n=0,chi={chi}", f"perstarchi:n=0,chi={chi}",
                 "powsum:n=0", "prodsums:n=0", "idstar:n=0", "per:n=0", "id:n=0",
                 "twochains:n=0", "twochains:n=-2"):
        code, out, err = run(capsys, "family", spec)
        assert code == 2 and out == "" and _one_error_line(err), (spec, err)
        assert "n >= 1" in err, (spec, err)


def test_palindromes_over_fewer_than_one_letter_exit_2(capsys):
    # family pal:n=2,k=-3 wrote the empty polynomial and rank pal:n=2,k=-1
    # printed "2 0", both with exit 0
    for argv in (("family", "pal:n=2,k=-3"), ("family", "pal:n=2,k=0"),
                 ("rank", "pal:n=2,k=-1", "--cut", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _one_error_line(err), (argv, err)
        assert "k >= 1" in err, (argv, err)


def test_reduce_vbp_trivial_reads_one_target_coefficient(tmp_path, capsys):
    # the target was realized in full (366,080 terms, 1.5 s) to read one
    # coefficient, and without the term budget
    from ncpoly.abp import bounded_depth_dyck_abp, format_abp

    abp = tmp_path / "p.txt"
    abp.write_text(format_abp(bounded_depth_dyck_abp(1, 8)))  # 256 terms
    red = tmp_path / "r.txt"
    argv = ("--term-budget", "500", "reduce", "vbp-trivial", f"abp={abp}")
    witness = "witness=" + ",".join(["(1", ")1"] * 8)
    start = time.perf_counter()
    code, _, err = run(capsys, *argv, "target=dyck:k=2,d=16", witness, "--out", str(red))
    assert code == 0, err
    assert time.perf_counter() - start < 1.0
    assert "target dyck:k=2,d=16\n" in red.read_text()
    # a target without a grammar is realized under the budget: 6! > 500
    witness = "witness=" + ",".join(f"x{i}_{i}" for i in range(1, 7))
    code, out, err = run(capsys, *argv, "target=per:n=6", witness)
    assert code == 2 and _one_error_line(err) and "720 terms" in err, err
    # a bad witness is refused before the program (2^10 > 500 terms) is expanded
    abp.write_text(format_abp(bounded_depth_dyck_abp(1, 10)))
    witness = "witness=" + ",".join(["(1"] * 20)
    code, out, err = run(capsys, *argv, "target=dyck:k=2,d=20", witness)
    assert code == 2 and _one_error_line(err) and "coefficient exactly 1" in err, err


def test_verify_exits_2_on_an_alphabet_mismatch(tmp_path, capsys):
    # a source over another alphabet is a usage error, not a mismatch
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=3", "--out", str(red))[0] == 0
    code, out, err = run(capsys, "verify", str(red), "--source", "dyck:k=1,d=2")
    assert code == 2 and out == "" and _one_error_line(err), err
    code, out, err = run(capsys, "verify", str(red), "--target", "dyck:k=3,d=6")
    assert code == 2 and out == "" and _one_error_line(err), err


def test_a_substitution_marked_accepts_empty_exits_2(tmp_path, capsys):
    red = tmp_path / "r.txt"
    assert run(capsys, "reduce", "pal-d2", "n=1", "--out", str(red))[0] == 0
    text = red.read_text()
    red.write_text(text.replace("output-vars x0 x1\n", "output-vars x0 x1\naccepts-empty\n", 1))
    code, out, err = run(capsys, "verify", str(red))
    assert code == 2 and out == "" and _one_error_line(err), err
    assert "accepts-empty" in err


def test_a_closed_output_pipe_keeps_the_exit_status(tmp_path, capsys):
    # `ncpoly verify r.txt | head -1`: the reader may close its end before
    # the output is written, which must not turn a pass or a fail into an
    # error, whether or not stdout is buffered
    import os
    import subprocess
    import sys

    import ncpoly

    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    assert run(capsys, "reduce", "pal-d2", "n=1", "--out", str(good))[0] == 0
    text = good.read_text()
    bad.write_text(text.replace("entry 1 2 1 x0\n", "entry 1 2 2 x0\n", 1))
    src = str(Path(ncpoly.__file__).resolve().parents[1])
    cases = [
        (["verify", str(good)], 0),
        (["verify", str(bad)], 1),
        (["rank", "dyck:k=2,d=4", "--cut", "2"], 0),
        (["family", "dyck:k=2,d=10"], 0),
    ]
    for unbuffered in (False, True):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        for argv, status in cases:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "ncpoly.cli", *argv],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    env=env,
                    timeout=120,
                )
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (status, b""), (argv, unbuffered)


def test_a_bad_command_line_prints_one_error_line_and_exits_2(capsys):
    for argv, message in (
        (("rank", "dyck:k=2,d=4"), "required: --cut"),
        (("bogus",), "invalid choice: 'bogus'"),
        (("--term-budget", "abc", "family", "pal:n=1"), "invalid int value: 'abc'"),
        ((), "required: command"),
        (("reduce", "nope"), "invalid choice: 'nope'"),
        (("family", "pal:n=1", "--extra"), "unrecognized arguments: --extra"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and _one_error_line(err), (argv, err)
        assert message in err, (argv, err)


def test_help_still_prints_help_and_exits_0(capsys):
    for argv in (["--help"], ["rank", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ncpoly")
    assert run(capsys, "rank", "pal:n=2", "--cut", "2") == (0, "2 4\n", "")


def test_the_parser_reads_the_terminal_width_once(monkeypatch, capsys):
    # argparse reads it again for every formatter, one per add_argument
    import shutil

    calls = []
    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or real(*a))
    cli._help_width.cache_clear()
    try:
        build_parser()
        for argv in (["--help"], ["rank", "--help"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        assert capsys.readouterr().out.count("usage: ncpoly") == 2
        assert len(calls) <= 1
    finally:
        cli._help_width.cache_clear()


@pytest.mark.parametrize("columns", ["60", "120"])
def test_help_wraps_exactly_as_argparse_does(columns, monkeypatch, capsys):
    # the stock formatter reads the terminal itself; ours reads it once
    import argparse

    monkeypatch.setenv("COLUMNS", columns)
    cli._help_width.cache_clear()
    try:
        for argv in (["--help"], ["rank", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            ours = capsys.readouterr().out
            with monkeypatch.context() as stock:
                stock_formatter = argparse.ArgumentParser._get_formatter
                stock.setattr(cli._ArgumentParser, "_get_formatter", stock_formatter)
                with pytest.raises(SystemExit):
                    build_parser().parse_args(argv)
            assert ours == capsys.readouterr().out and ours.startswith("usage: ncpoly")
    finally:
        cli._help_width.cache_clear()


def test_rank_ranks_each_distinct_cut_once(monkeypatch, capsys):
    import ncpoly.abp

    cuts = []
    real = ncpoly.abp.hankel_block
    monkeypatch.setattr(ncpoly.abp, "hankel_block", lambda f, cut: cuts.append(cut) or real(f, cut))
    argv = ("rank", "pal:n=3", "--cut", "3", "--cut", "3", "--cut", "2")
    assert run(capsys, *argv) == (0, "3 8\n3 8\n2 4\n", "")
    assert run(capsys, "--format", "structured", *argv)[1] == "cut=3 rank=8\ncut=3 rank=8\ncut=2 rank=4\n"
    assert cuts == [3, 2, 3, 2]


def _outcome(capsys, argv):
    """Exit code, stdout without verify's wall time, stderr and the bytes
    of the --out file of one main call."""
    code = main(argv)
    captured = capsys.readouterr()
    lines = captured.out.splitlines(keepends=True)
    out = "".join(line for line in lines if not line.startswith("elapsed "))
    written = Path(argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else None
    return code, out, captured.err, written


def test_main_is_reentrant_on_its_shared_parser(tmp_path, capsys):
    # a value that one call sets (an appended --cut, --source, a group
    # member, --format) must not reach the next call through the parser
    circ, poly, abp = tmp_path / "c.txt", tmp_path / "p.txt", tmp_path / "g.txt"
    circ.write_text("g0 input x1\ng1 input x2\ng2 mul g0 g1\noutput g2\n")
    poly.write_text("3 x1 x2\n-1 x2 x1\n")
    abp.write_text("layers 0:1 1:1 2:1\nedge 0 0 0 1 x1\nedge 1 0 0 2 x2\n")
    red = str(tmp_path / "r.red")
    calls = [
        ["--format", "structured", "rank", "dyck:k=2,d=4", "--cut", "2", "--cut", "3"],
        ["rank", "dyck:k=2,d=4", "--cut", "2"],
        ["reduce", "dyck-complete", f"circuit={circ}", "--out", red],
        ["verify", red, "--source", f"circuit:{circ}"],
        ["rank", "dyck:k=2,d=4"],
        ["verify", red],
        ["hadamard", "--circuit", str(circ), "--abp", str(abp), "--out", str(tmp_path / "h1")],
        ["--term-budget", "abc", "family", "pal:n=1"],
        ["hadamard", "--poly", str(poly), "--abp", str(abp), "--out", str(tmp_path / "h2")],
        ["--format", "structured", "bogus"],
        ["rank", "pal:n=2", "--cut", "2", "--out", str(tmp_path / "rank.txt")],
    ]
    cli._parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._parser.cache_clear()
    assert shared == fresh
    assert [code for code, *_ in shared] == [0, 0, 0, 0, 2, 0, 0, 2, 0, 2, 0]
    assert shared[0][1] == "cut=2 rank=5\ncut=3 rank=2\n" and shared[1][1] == "2 5\n"
    assert shared[6][3] == b"2 x1 x2\n" and shared[8][3] == b"6 x1 x2\n"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for cut in range(5):
            assert run(capsys, "rank", "dyck:k=2,d=4", "--cut", str(cut))[0] == 0
        assert run(capsys, "rank", "dyck:k=2,d=4")[0] == 2
        assert run(capsys, "family", "pal:n=1")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
