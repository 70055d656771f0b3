"""sha256 digests of `ncpoly reduce` output over fixed corpora.

A change that alters `reduce` bytes on purpose updates the digests here
and names each changed corpus in CHANGES.md; any other byte change is a
regression.  Each digest covers the output files of one corpus, in order.
The digests were taken with every construction trimmed to the states on
a start -> accept path, with no position in the states of the
constructions whose target is a Dyck family (dyck-complete, dk-d2), with
the dyck-complete padding as one looping pair and one handover pair,
with the pal-vsk second half read by one accept state, with pal-vsk
walking the skew circuit as given (not homogenized), and with both
completeness targets sized from the live parse words of the output.
"""

import hashlib

import pytest

import corpus
from ncpoly.circuits import format_circuit
from ncpoly.cli import main

# The chain circuits repeat the benchmark's generators on purpose: pinned
# here, a change to the benchmark's workloads cannot move these digests.


def affine_chain(var: str, a: int, b: int, d: int, right: bool) -> str:
    """(a + b*var)^d as a left chain p <- p*L, or a right chain p <- L*p."""
    lines = [f"g0 input {var}", f"g1 const {a}", f"g2 const {b}", "g3 mul g2 g0", "g4 add g1 g3"]
    return _chain(lines, 4, d, right)


def plain_chain(var: str, c: int, d: int) -> str:
    """(c + var)^d as a left chain."""
    return _chain([f"g0 input {var}", f"g1 const {c}", "g2 add g1 g0"], 2, d, False)


def _chain(lines: list, base: int, d: int, right: bool) -> str:
    cur = base
    for _ in range(d - 1):
        gid = len(lines)
        lines.append(f"g{gid} mul g{base} g{cur}" if right else f"g{gid} mul g{cur} g{base}")
        cur = gid
    return "\n".join(lines + [f"output g{cur}"]) + "\n"


def squaring(var: str, c: int, squarings: int) -> str:
    """(c + var)^(2^squarings) by repeated squaring."""
    lines = [f"g0 input {var}", f"g1 const {c}", "g2 add g1 g0"]
    for _ in range(squarings):
        gid = len(lines)
        lines.append(f"g{gid} mul g{gid - 1} g{gid - 1}")
    return "\n".join(lines + [f"output g{len(lines) - 1}"]) + "\n"


def skew_chain(var: str, c: int, d: int) -> str:
    """p0 = c, p <- p + var*p, d times: c*(1 + var)^d."""
    lines = [f"g0 const {c}", f"g1 input {var}"]
    cur = 0
    for _ in range(d):
        gid = len(lines)
        lines += [f"g{gid} mul g1 g{cur}", f"g{gid + 1} add g{cur} g{gid}"]
        cur = gid + 1
    return "\n".join(lines + [f"output g{cur}"]) + "\n"


def corpora() -> dict:
    """corpus name -> list of (reduce kind, circuit text or None, parameters)."""

    def circuits(kind, texts):
        return [(kind, text, ()) for text in texts]

    # the parse-trees benchmark circuits at seed 13: u, a = 2, b = 4, c = 3
    parse_trees = circuits(
        "dyck-complete",
        [affine_chain("u", 2, 4, 8, False), affine_chain("u", 2, 4, 8, True),
         plain_chain("u", 3, 9), squaring("u", 3, 3)],
    ) + circuits("pal-vsk", [skew_chain("u", 3, 11), skew_chain("u", 3, 12)])
    general = corpus.hand_circuits()
    general += corpus.random_circuits(seed=7, count=25) + corpus.random_circuits(seed=11, count=25)
    skew = corpus.hand_skew_circuits()
    skew += corpus.random_skew_circuits(seed=4096, count=25)
    skew += corpus.random_skew_circuits(seed=7, count=25)
    return {
        "parse-trees seed 13": parse_trees,
        "plain (1+x)^28": circuits("dyck-complete", [plain_chain("x", 1, 28)]),
        "hand and random circuits": circuits("dyck-complete", map(format_circuit, general)),
        "hand and random skew circuits": circuits("pal-vsk", map(format_circuit, skew)),
        "skew chains d = 11, 12, 20": circuits(
            "pal-vsk", [skew_chain("x", 3, d) for d in (11, 12, 20)]
        ),
        "dk-d2 grid": [
            ("dk-d2", None, (f"k={k}", f"d={d}")) for k in (2, 3, 5, 8) for d in (2, 4, 10)
        ],
    }


DIGESTS = {
    "parse-trees seed 13": "62a20a35b80bfad3b09c5a381a831e085086d616efba127a8d93504fbafaaba0",
    "plain (1+x)^28": "1a5c99b55fdb0223af6f3379b7db353a36e26b34d5ff75d0f05cc234737a93f4",
    "hand and random circuits": "5f046e05bc47860fbb138483c7e772b9b58a0f8d44a176b5ba3c44403a1a5911",
    "hand and random skew circuits": "12192822d1de2881fc0228b6065242fa4c7dabfeff7ad5e9deab9830740fe8bf",
    "skew chains d = 11, 12, 20": "c278cb230e8303895990e0088d9a3fa041bcb84ab2ffa399fc956712bf85d034",
    "dk-d2 grid": "6e99fb7fc2373fc7d93a68100512b553eb34bf112ce924b7f4c68beeacfd3695",
}


def reduce_digest(tmp_path, cases) -> str:
    digest = hashlib.sha256()
    circ, red = tmp_path / "c.txt", tmp_path / "r.red"
    for kind, text, params in cases:
        if text is not None:
            circ.write_text(text)
            params = (f"circuit={circ}",)
        assert main(["reduce", kind, *params, "--out", str(red)]) == 0
        digest.update(red.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(DIGESTS))
def test_reduce_output_digest(name, tmp_path):
    assert reduce_digest(tmp_path, corpora()[name]) == DIGESTS[name]
