"""Every public module-level function and class of the package has a caller.

A name counts as used when some module of the package or some script
refers to it (a bare name or an attribute) outside its own definition.
Re-exports in `__init__` do not count, and neither do tests, so a helper
that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coronawalk"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_referenced():
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent == PACKAGE and path.name != "__init__.py" \
                        and not own.startswith("_"):
                    defined[own] = path.name
            used |= _names(stmt) - {own}
    orphans = sorted(f"{module}:{name}" for name, module in defined.items()
                     if name not in used)
    assert not orphans, f"public definitions with no caller: {orphans}"
