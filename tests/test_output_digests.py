"""sha256 digests of the bytes that `family`, `expand`, `hadamard`, `verify`
and `rank` write, over fixed inputs.

The digests were taken while words were still tuples of variable ids, and
they hold for words stored as strings of code points: text is the oracle
of the word representation, independent of the engine that builds the
words.  A change that alters these bytes on purpose updates the digest and
says so in CHANGES.md; any other byte change is a regression.  `verify`
output is hashed without its `elapsed` line, the only line that is not
deterministic.
"""

import hashlib
import itertools
import random

import pytest

from ncpoly.cli import main


def power_of_sum(coeffs: dict, d: int) -> str:
    """(sum_i a_i x_i)^d: one sum gate, then a left chain of products."""
    lines = []
    addends = []
    for name, a in coeffs.items():
        gid = len(lines)
        lines += [f"g{gid} input {name}", f"g{gid + 1} const {a}", f"g{gid + 2} mul g{gid + 1} g{gid}"]
        addends.append(gid + 2)
    total = addends[0]
    for a in addends[1:]:
        lines.append(f"g{len(lines)} add g{total} g{a}")
        total = len(lines) - 1
    cur = total
    for _ in range(d - 1):
        lines.append(f"g{len(lines)} mul g{cur} g{total}")
        cur = len(lines) - 1
    return "\n".join(lines + [f"output g{cur}"]) + "\n"


def power_poly(coeffs: dict, d: int) -> str:
    """The expansion of power_of_sum as polynomial text, in product order."""
    lines = []
    for word in itertools.product(coeffs, repeat=d):
        c = 1
        for name in word:
            c *= coeffs[name]
        lines.append(f"{c} {' '.join(word)}\n")
    return "".join(lines)


def width4_abp(names, depth: int, seed: int) -> str:
    """A complete layered ABP of width 4: every edge carries every variable
    with a nonzero seeded coefficient."""
    rng = random.Random(seed)
    layers = [1] + [4] * (depth - 1) + [1]
    lines = ["layers " + " ".join(f"{i}:{n}" for i, n in enumerate(layers))]
    for gap in range(depth):
        for u in range(layers[gap]):
            for v in range(layers[gap + 1]):
                form = " ".join(f"{rng.choice((-1, 1)) * rng.randint(1, 5)} {x}" for x in names)
                lines.append(f"edge {gap} {u} {v} {form}")
    return "\n".join(lines) + "\n"


def cuts(values) -> list:
    return [arg for c in values for arg in ("--cut", str(c))]


CHI3 = "".join(
    " ".join(map(str, sigma)) + f" -> {i + 2}/{i % 3 + 1}\n"
    for i, sigma in enumerate(itertools.permutations((1, 2, 3)))
)

HAD = {"x": 2, "y": 3, "z": 5}

FILES = {
    "pow8.circuit": power_of_sum({"x": 1, "y": 1, "z": 1}, 8),
    "had.circuit": power_of_sum(HAD, 5),
    "had.poly": power_poly(HAD, 5),
    "width4.abp": width4_abp(list(HAD), 5, seed=23),
    "chi3.txt": CHI3,
}

# name -> command lines run in order; each `--out` file and each stdout
# is hashed, in order
CASES = {
    "family dyckdepth:k=3,n=7": [["family", "dyckdepth:k=3,n=7", "--out", "f.poly"]],
    "family pal:n=1,k=70000": [["family", "pal:n=1,k=70000", "--out", "f.poly"]],
    "expand (x+y+z)^8": [["expand", "pow8.circuit", "--out", "e.poly"]],
    "hadamard --circuit": [["hadamard", "--circuit", "had.circuit", "--abp", "width4.abp",
                            "--out", "h.poly"]],
    "hadamard --poly": [["hadamard", "--poly", "had.poly", "--abp", "width4.abp",
                         "--out", "h.poly"]],
    "verify depth": [["reduce", "depth", "k1=2", "k2=3", "n=6", "--out", "r.red"],
                     ["verify", "r.red"]],
    "verify dk-d2": [["reduce", "dk-d2", "k=3", "d=6", "--out", "r.red"], ["verify", "r.red"]],
    "verify per-idstar": [["reduce", "per-idstar", "n=3", "--out", "r.red"], ["verify", "r.red"]],
    "verify per-chi": [["reduce", "per-chi", "n=3", "chi=chi3.txt", "--out", "r.red"],
                       ["verify", "r.red"]],
    "verify depth, one entry doubled": [
        ["reduce", "depth", "k1=2", "k2=3", "n=6", "--out", "r.red"],
        lambda: double_first_entry("r.red"),
        ["verify", "r.red"],
    ],
    "rank dyck:k=2,d=12 --cut 6": [["rank", "dyck:k=2,d=12", "--cut", "6", "--out", "k.txt"]],
    "rank dyck:k=2,d=16 at every cut": [["rank", "dyck:k=2,d=16", *cuts(range(17)), "--out", "k.txt"]],
    "rank dyck:k=2,d=12 mod 1000003 --cut 5 --cut 4 --cut 5": [
        ["--field", "p=1000003", "rank", "dyck:k=2,d=12", *cuts((5, 4, 5)), "--out", "k.txt"]
    ],
    "rank per:n=8 at every cut, structured": [
        ["--format", "structured", "rank", "per:n=8", *cuts(range(9)), "--out", "k.txt"]
    ],
    "rank pal:n=7,k=3 --cut 7": [["rank", "pal:n=7,k=3", "--cut", "7", "--out", "k.txt"]],
}

DIGESTS = {
    "family dyckdepth:k=3,n=7": "cfd8bc944098d984790cdbb75f514cc121b569d6dba223309987a230027af535",
    "family pal:n=1,k=70000": "beae167e054a2b4f84d71a87be96f6702280bd5d3a418c6091cfd668243432e9",
    "expand (x+y+z)^8": "14a6eda08611542dd721aa5a0f10493606e38547919340515b097e975cc8fd4a",
    "hadamard --circuit": "5ffba08668579e500ff9c3baa502c92fe158698356f8ed3a00361bed14902e78",
    "hadamard --poly": "5ffba08668579e500ff9c3baa502c92fe158698356f8ed3a00361bed14902e78",
    "verify depth": "fe20f273b6cedbd415a16930dc258b74c1ce21a5db907b36efa8dd7fb44b0a90",
    "verify dk-d2": "eb2c8c8815c0bc1e6b2b6325093ba923861b28f7ea046ee3f19810254c92f6d2",
    "verify per-idstar": "b1fb6f478048a6b426a87118cf1a539867d76348eed56ba30565500298f52a68",
    "verify per-chi": "6e64c5cfad1e012f30c9175880187ad12b3754bde9d852cbe47debd4fa18cefe",
    "verify depth, one entry doubled": (
        "af5fc47948738174fda21916c419df552201426166ff692d37d63ba8b86417ae"
    ),
    "rank dyck:k=2,d=12 --cut 6": "c7611a23a74e491b4f88720ee82ae3df9c7154c9e01b0083187aa6ad064cbaa2",
    # taken while abp_hankel_rank ran its span passes afresh for each cut
    "rank dyck:k=2,d=16 at every cut": (
        "427e9fd99f69767c2a30aca224c98348737104314bd29a8b5fa9139795b77383"
    ),
    "rank dyck:k=2,d=12 mod 1000003 --cut 5 --cut 4 --cut 5": (
        "582306fcb2418df000607f6877c5b53b82396bfd852eeac4be74d78e0bb1cd09"
    ),
    "rank per:n=8 at every cut, structured": (
        "c78b7dbe7a0c528428ae0aa424991b864671115b1745857626dfddbeae18c91c"
    ),
    "rank pal:n=7,k=3 --cut 7": "ac613ea4c4fb36f8eb46421e9daee667518bf1550bf4bd2f106c97de2279d28a",
}


def double_first_entry(path: str) -> None:
    """Double the coefficient of the first entry line, so that verify
    prints a witness."""
    with open(path) as f:
        lines = f.read().splitlines()
    i = next(n for n, line in enumerate(lines) if line.startswith("entry "))
    tokens = lines[i].split()
    tokens[3] = str(2 * int(tokens[3]))
    lines[i] = " ".join(tokens)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def output_digest(name, tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    for file, text in FILES.items():
        (tmp_path / file).write_text(text)
    digest = hashlib.sha256()
    for argv in CASES[name]:
        if callable(argv):
            argv()
            continue
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(f"exit {code}\n".encode())
        if "--out" in argv:
            digest.update((tmp_path / argv[argv.index("--out") + 1]).read_bytes())
        else:
            kept = [line for line in out.splitlines() if not line.startswith("elapsed ")]
            digest.update("\n".join(kept).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, tmp_path, monkeypatch, capsys):
    assert output_digest(name, tmp_path, monkeypatch, capsys) == DIGESTS[name]
