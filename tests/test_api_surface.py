"""Guard against public API that only unit tests use.

Every public function, method, class and module-level constant under
``src/claimcheck/`` must be read somewhere outside the unit tests: in a
module under ``src/`` (its own included), in the acceptance module, in the
independent oracle, or as the console entry point. Names are matched, not
resolved, so a method counts as used when any attribute of that name is
read. Only reads count: assigning a name is no use of it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "claimcheck"
REFERENCE_FILES = (ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "oracle_eval.py")


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(qualified name, line) of each public module-level function, class
    and constant, and each public method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, ast.ClassDef):
            found.append((node.name, node.lineno))
            found.extend((f"{node.name}.{item.name}", item.lineno) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((target.id, node.lineno) for target in targets
                         if isinstance(target, ast.Name))
    return [(name, line) for name, line in found
            if not name.rpartition(".")[2].startswith("_")]


def _referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _entry_points() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.partition("[project.scripts]")[2].partition("\n[")[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', scripts))


def unreferenced_api() -> list[str]:
    sources = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    used = _entry_points()
    for tree in [*sources.values(), *(ast.parse(p.read_text(encoding="utf-8"))
                                      for p in REFERENCE_FILES)]:
        used |= _referenced_names(tree)
    return [f"{path.name}:{line} {name}"
            for path, tree in sources.items()
            for name, line in _definitions(tree)
            if name.rpartition(".")[2] not in used]


def test_every_public_function_has_a_caller_outside_unit_tests():
    assert unreferenced_api() == []
