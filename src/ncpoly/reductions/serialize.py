"""Reduction interchange files: a header naming source and target, the
matrix substitution, and (for circuit-derived reductions) the source
polynomial inline so verification is self-contained."""

from ..algebra import NCPoly, VarTable, _text_lines, format_poly, parse_poly
from ..automata import format_substitution, parse_substitution
from ..fields import Field
from .base import AbpReduction


def format_reduction(r: AbpReduction, source_poly: NCPoly | None = None) -> str:
    parts = [
        f"reduction {r.kind or 'abp'}\n",
        f"source {r.source}\n",
        f"target {r.target}\n",
        format_substitution(r.substitution),
    ]
    if source_poly is not None:
        parts += ["source-poly\n", format_poly(source_poly), "end-poly\n"]
    return "".join(parts)


def parse_reduction(text: str, field: Field):
    """Returns (reduction, embedded source polynomial or None).

    A second reduction, source or target line, a source-poly section
    without its end-poly line, or any non-blank line after end-poly, is
    refused with ValueError: a line must not replace an earlier one, and a
    file cut short or run together with another is not read as a smaller
    polynomial.  The substitution and the source polynomial are each
    parsed from one slice of text, so no list of the file's lines is held.
    """
    header: dict[str, str] = {}
    section = "header"
    pos = 0  # offset in text of the line raw
    sub_start = sub_end = poly_start = poly_end = len(text)
    for raw in _text_lines(text, keepends=True):
        stripped = raw.strip()
        if section == "header":
            word, _, value = stripped.partition(" ")
            if word in ("reduction", "source", "target") and value:
                if word in header:
                    raise ValueError(f"second {word} line {raw.splitlines()[0]!r}")
                header[word] = value.strip()
            elif stripped == "substitution":
                section = "substitution"
                sub_start = pos
            elif stripped:
                raise ValueError(f"unexpected header line {raw.splitlines()[0]!r}")
        elif section == "substitution":
            if stripped == "source-poly":
                section = "poly"
                sub_end, poly_start = pos, pos + len(raw)
        elif section == "poly":
            if stripped == "end-poly":
                section = "done"
                poly_end = pos
        elif stripped:
            raise ValueError(f"line after end-poly: {raw.splitlines()[0]!r}")
        pos += len(raw)
    if len(header) < 3:
        raise ValueError("reduction file is missing header lines")
    if section == "poly":
        raise ValueError("source-poly section has no end-poly line")
    input_table = VarTable(field=field)
    output_table = VarTable(field=field)
    sub = parse_substitution(text[sub_start:sub_end], input_table, output_table)
    poly = None
    if section == "done":
        poly = parse_poly(text[poly_start:poly_end], output_table)
    return AbpReduction(sub, header["source"], header["target"], kind=header["reduction"]), poly
