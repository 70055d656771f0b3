"""What a command holds at its peak, measured with tracemalloc.

Each bound names what may be live at once, measured on the same build:
`expand` holds its output plus its largest live gate, and `family` and
`expand` writing to a file hold the polynomial plus one block of text.
A return of kept gate polynomials, of copied term dicts or of a whole
output text held as one string fails here.
"""

import gc
import os
import tracemalloc

from ncpoly.algebra import VarTable
from ncpoly.circuits import expand, parse_circuit
from ncpoly.cli import main
from ncpoly.families import make_family


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


def left_chain(d: int) -> str:
    """(x + y)^d as the left chain p <- p * (x + y)."""
    lines = ["g0 input x", "g1 input y", "g2 add g0 g1"]
    for _ in range(d - 1):
        lines.append(f"g{len(lines)} mul g{len(lines) - 1} g2")
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
