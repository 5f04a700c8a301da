"""Every public definition of the package has a caller.

The definitions checked are the public module-level functions and classes,
and the public methods, classmethods and properties of the public classes.
A function or class counts as used when some module of the package or some
script refers to it (a bare name or an attribute) outside its own
definition, a method only when it is referred to as an attribute: a local
variable of the same name calls nothing.  Re-exports in `__init__` do not count, and neither do tests, so a helper
that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coronawalk"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

# definitions kept without a caller in the package, each with its reason
ALLOWED = {
    # bench/tracer.py looks it up by name in GRAPH_METHODS; it goes with the
    # next change to the benchmark (ROADMAP item 8)
    "graphs.py:Graph.distance_matrix",
    # bench/tracer.py looks it up by name in GRAPH_METHODS; it goes with the
    # next change to the benchmark (ROADMAP item 8)
    "graphs.py:Graph.degrees",
    # bench/tracer.py looks it up by name in GRAPH_METHODS; the lifted base
    # periodicity test decides a one-vertex or disconnected base as any other,
    # so the package no longer calls it; it goes with the next change to the
    # benchmark (ROADMAP item 8)
    "graphs.py:Graph.is_connected",
}


def _names(node) -> set[str]:
    """Bare names and attributes node refers to, attributes as '.name'."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out |= {sub.attr, f".{sub.attr}"}
    return out


def _scan(path: Path, defined: dict[str, str], used: set[str]) -> None:
    """Add path's public definitions (qualified name -> the name a use must
    match: '.name' for a method) to `defined` and the names it uses outside
    their own definitions to `used`."""
    checked = path.parent == PACKAGE and path.name != "__init__.py"
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            used |= _names(stmt)
            continue
        own = stmt.name
        public = checked and not own.startswith("_")
        if public:
            defined[f"{path.name}:{own}"] = own
        if isinstance(stmt, ast.FunctionDef):
            used |= _names(stmt) - {own}
            continue
        for part in (*stmt.bases, *stmt.keywords, *stmt.decorator_list):
            used |= _names(part) - {own}
        for member in stmt.body:
            if not isinstance(member, ast.FunctionDef):
                used |= _names(member) - {own}
                continue
            if public and not member.name.startswith("_"):
                defined[f"{path.name}:{own}.{member.name}"] = f".{member.name}"
            used |= _names(member) - {own, member.name, f".{member.name}"}


def test_every_public_definition_is_referenced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in SOURCES:
        _scan(path, defined, used)
    orphans = {q for q, name in defined.items() if name not in used}
    assert orphans <= ALLOWED, f"public definitions with no caller: {sorted(orphans - ALLOWED)}"
    assert ALLOWED <= orphans, f"allowed, but defined and called: {sorted(ALLOWED - orphans)}"
