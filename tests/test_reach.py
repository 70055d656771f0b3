"""Structural checks: src/ holds only what the program reaches, and the
oracles in tests/oracles.py stay apart from the engines they check."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ncpoly"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# Top-level names that no other src/ code references, each with the reason
# it stays.  Anything else without a caller belongs in the tests or nowhere.
BLOCKED = {
    "homogenize": "the benchmark tracer hooks it by name in reductions.completeness",
    "hadamard_bruteforce": "the benchmark's output checks import it as their oracle",
    "format_circuit": "the writer that parse_circuit reads back; embedded circuits will use it",
    "format_abp": "the writer that parse_abp reads back",
    "proj_to_iproj": "waits for a VNP-separation command",
    "transfer": "waits for a VNP-separation command",
    "commutative_version": "waits for a VNP-separation command",
    "set_multilinear_rank1_split": "waits for a VNP-separation command",
}

# What the oracles may import from ncpoly: data types, and expand, the
# brute-force expansion that is itself the circuits' oracle.
ORACLE_IMPORTS = {
    "ncpoly.algebra": None,  # any name
    "ncpoly.fields": None,
    "ncpoly.circuits": {"Add", "Circuit", "Const", "Input", "Mul", "expand"},
}


def _used_names(node) -> set:
    """The names and attribute names that node reads; an import alias is no
    Name node, so an import alone is no reference."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def unreferenced_top_level_names() -> set:
    defined = set()
    referenced = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.add(own)
            # a definition's own body (recursion, a method naming its class)
            # does not count as a caller
            referenced |= _used_names(node) - {own}
    return defined - referenced


def test_every_top_level_name_in_src_has_a_caller_or_a_reason():
    unreferenced = unreferenced_top_level_names()
    assert not unreferenced - BLOCKED.keys(), "move test-only code out of src/"
    # a blocked name that gained a caller leaves the list
    assert not BLOCKED.keys() - unreferenced


def test_oracles_import_only_data_types_from_ncpoly():
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in sys.stdlib_module_names:
                continue
            assert node.level == 0 and module in ORACLE_IMPORTS, module
            allowed = ORACLE_IMPORTS[module]
            names = {alias.name for alias in node.names}
            assert allowed is None or names <= allowed, (module, names - allowed)
