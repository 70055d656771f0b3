"""What a command holds at its peak, measured with tracemalloc.

Each bound names what may be live at once, measured on the same build:
`expand` holds its output plus its largest live gate, and `family` and
`expand` writing to a file hold the polynomial plus one block of text,
and reading a reduction file holds its source-poly section once.
A return of kept gate polynomials, of copied term dicts, of a whole
output text held as one string or of a list of a file's lines fails here.
"""

import gc
import os
import tracemalloc

from ncpoly.algebra import VarTable, parse_poly
from ncpoly.circuits import expand, parse_circuit
from ncpoly.cli import main
from ncpoly.families import make_family
from ncpoly.fields import QQ
from ncpoly.reductions.serialize import parse_reduction


def traced(fn):
    """(fn(), bytes it left allocated, bytes at its peak), both above the
    allocation before the call."""
    gc.collect()
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if not running:
            tracemalloc.stop()
    return result, held - base, peak - base


def left_chain(d: int, names=("x", "y")) -> str:
    """(x + y)^d, or the sum of other names to the d, as the left chain
    p <- p * (x + y)."""
    lines = [f"g{i} input {name}" for i, name in enumerate(names)]
    total = 0
    for i in range(1, len(names)):
        lines.append(f"g{len(lines)} add g{total} g{i}")
        total = len(lines) - 1
    for _ in range(d - 1):
        lines.append(f"g{len(lines)} mul g{len(lines) - 1} g{total}")
    return "\n".join(lines + [f"output g{len(lines) - 1}"]) + "\n"


def squarings(k: int) -> str:
    """(x + y)^(2^k) by repeated squaring: its last gate reads one gate of
    2^(2^(k-1)) terms twice."""
    lines = ["g0 input x", "g1 input y", "g2 add g0 g1"]
    for _ in range(k):
        lines.append(f"g{len(lines)} mul g{len(lines) - 1} g{len(lines) - 1}")
    return "\n".join(lines + [f"output g{len(lines) - 1}"]) + "\n"


def test_expand_of_a_left_chain_holds_its_output_and_the_gate_before_it():
    # (x + y)^16: the last product reads (x + y)^15, which is all that may
    # be live beside the output; every earlier power must be gone
    d = 16
    chain = parse_circuit(left_chain(d), VarTable())
    before = parse_circuit(left_chain(d - 1), VarTable())
    out, out_bytes, peak = traced(lambda: expand(chain))
    assert len(out.terms) == 2**d
    del out
    _, gate_bytes, _ = traced(lambda: expand(before))
    # measured: the peak is the output plus that gate to within 1%; a copy
    # of the output's dict adds about 20% and keeping every gate about 30%
    assert peak < 1.05 * (out_bytes + gate_bytes), (peak, out_bytes, gate_bytes)


def _write_peak(tmp_path, argv) -> tuple:
    """(peak bytes of `ncpoly argv --out FILE`, the file's size, its line count)."""
    path = tmp_path / "out.txt"
    code, _, peak = traced(lambda: main([*argv, "--out", str(path)]))
    assert code == 0
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        lines = sum(1 for _ in f)
    path.unlink()
    return peak, size, lines


def _assert_one_block(peak, size, lines, realized):
    # the polynomial at the peak of its realization, its sorted word list
    # (8 bytes a term) and one block of 4096 of its 65,536 lines: the
    # block's line strings, their join and its encoded bytes.  Measured on
    # Python 3.10-3.13 at 0.31-0.45 of the text above the polynomial and the
    # word list; a whole text held as blocks and as their join adds more
    # than twice the text, and a single whole copy adds one text.
    assert peak < realized + 8 * lines + 0.6 * size, (peak, realized, size)


def test_family_writing_a_file_holds_the_polynomial_and_one_block(tmp_path):
    spec = "pal:n=8,k=4"  # 65,536 words of 16 letters
    poly, _, realized = traced(lambda: make_family(spec).poly)
    assert len(poly.terms) == 4**8
    del poly
    _assert_one_block(*_write_peak(tmp_path, ["family", spec]), realized)


def test_expand_writing_a_file_holds_the_polynomial_and_one_block(tmp_path):
    text = squarings(4)  # (x + y)^16, 65,536 words
    circuit = tmp_path / "sq.circuit"
    circuit.write_text(text)
    poly, _, realized = traced(lambda: expand(parse_circuit(text, VarTable())))
    assert len(poly.terms) == 2**16
    del poly
    _assert_one_block(*_write_peak(tmp_path, ["expand", str(circuit)]), realized)


def test_parse_reduction_holds_its_source_poly_section_once(tmp_path):
    # (x + y + z)^10: 59,049 embedded terms in about 1.2 MiB of text
    circuit, red = tmp_path / "c.circuit", tmp_path / "r.red"
    circuit.write_text(left_chain(10, ("x", "y", "z")))
    assert main(["reduce", "dyck-complete", f"circuit={circuit}", "--out", str(red)]) == 0
    text = red.read_text()
    section = text[text.index("source-poly\n") + len("source-poly\n") : text.rindex("end-poly\n")]
    (_, poly), _, peak = traced(lambda: parse_reduction(text, QQ))
    assert len(poly.terms) == 3**10
    del poly
    _, _, alone = traced(lambda: parse_poly(section, VarTable()))
    # measured: 1.23 times parse_poly of the section alone, the one slice
    # it is handed; the file's line list, a list of the section's lines
    # and their join made it 2.05
    assert peak < 1.3 * alone, (peak, alone)
