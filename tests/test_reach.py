"""Structural checks: src/ holds only what the program reaches, down to
each class member, the oracles in tests/oracles.py stay apart from the
engines they check, and importing the program generates no code and
defers no import."""

import ast
import sys
from collections import Counter
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

# Methods and properties of src classes that no src code reads, each with
# the reason it stays.
MEMBERS_BLOCKED = {
    ("_ArgumentParser", "error"): "argparse calls it on a bad command line",
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


def unreferenced_members() -> set:
    """(class, name) for each non-dunder method or property of a src class
    whose name no attribute read in src/ names outside its own body.

    Members are matched by name alone, so one that shares its name with an
    attribute read elsewhere (str.format, dict.get) counts as read."""
    members = {}
    reads = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                reads[node.attr] += 1
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if member.name.startswith("__") and member.name.endswith("__"):
                        continue
                    members.setdefault((node.name, member.name), []).append(member)
    unreferenced = set()
    for (cls, name), defs in members.items():
        # a member's own body (recursion, a property's setter) is no caller
        own = sum(
            isinstance(sub, ast.Attribute) and sub.attr == name for d in defs for sub in ast.walk(d)
        )
        if reads[name] == own:
            unreferenced.add((cls, name))
    return unreferenced


def test_every_method_and_property_in_src_has_a_caller_or_a_reason():
    unreferenced = unreferenced_members()
    assert not unreferenced - MEMBERS_BLOCKED.keys(), "move test-only members out of src/"
    assert not MEMBERS_BLOCKED.keys() - unreferenced


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


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """(module name, whether a function body holds it) for each module an
    import statement in path loads, its parent packages included."""
    package = _module_name(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = package.rsplit(".", child.level - 1)[0] if child.level else ""
                module = ".".join(filter(None, [base, child.module]))
                names = [module] + [f"{module}.{alias.name}" for alias in child.names]
                # a name that is a submodule of the package loads it
                names = names[:1] + [n for n in names[1:] if n in MODULES]
            else:
                body = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                yield from visit(child, in_function or body)
                continue
            for name in names:
                parts = name.split(".")
                for i in range(1, len(parts) + 1):
                    yield ".".join(parts[:i]), in_function

    yield from visit(ast.parse(path.read_text()), False)


MODULES = {_module_name(path): path for path in SRC.rglob("*.py")}


def test_importing_the_program_generates_no_code_and_defers_no_import():
    """Every command is one process and pays the package import first.

    Measured on a development host with Python 3.11.7, a fresh `import
    ncpoly.cli` took 22 ms with bytecode cached and 43-45 ms without,
    while a parse-trees job takes 1-3 ms.  The 16 dataclasses cost about
    7 ms of that: each execs generated `__init__`/`__eq__`/`__repr__`
    source as its module loads (a frozen 4-field one 0.94 ms, a
    NamedTuple 0.075 ms, a slotted class 0.006 ms), and `dataclasses` with
    the `inspect` it pulls in took 6.6 ms of the 22.4 ms under
    `-X importtime`.  Hankel set-up is about 95 % this import.  A
    function-level import of a module not yet loaded
    would move that cost into the first timed call instead, so one may
    name only a module that `ncpoly.cli` loads at top level.
    """
    loaded, queue = set(), ["ncpoly", "ncpoly.cli"]
    while queue:
        name = queue.pop()
        if name in loaded:
            continue
        loaded.add(name)
        if name in MODULES:
            queue += [module for module, in_function in _imports(MODULES[name]) if not in_function]
    # the walk follows relative and stdlib imports
    assert {"ncpoly.reductions.base", "fractions"} <= loaded
    for name, path in MODULES.items():
        imported = list(_imports(path))
        assert "dataclasses" not in {module for module, _ in imported}, name
        deferred = {module for module, in_function in imported if in_function}
        assert deferred <= loaded, (name, deferred - loaded)
