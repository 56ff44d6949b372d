"""Guard against module-level imports that nothing uses.

An unused import misleads a reader about what a module depends on, and
survives every refactor that removes its last use (36 had piled up in
27 modules).  This walks every module in the package via :mod:`ast` and
fails on any name a module-level import binds that the module never
reads.  A name counts as read when it appears as an identifier or inside
a string that parses as an expression, which covers string annotations
(``Optional["MobilityPlan"]``) and ``__all__`` entries.  Package
``__init__.py`` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(body):
    """(bound name, line) for each import at module level, including
    those under a module-level ``if`` or ``try``."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, block, []))
        elif isinstance(node, ast.ExceptHandler):
            yield from _module_imports(node.body)


def _names_read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                sub.id
                for sub in ast.walk(expression)
                if isinstance(sub, ast.Name)
            )
    return names


def _unused_imports(source):
    tree = ast.parse(source)
    read = _names_read(tree)
    return [
        (name, line)
        for name, line in _module_imports(tree.body)
        if name not in read
    ]


def test_no_unused_module_level_imports():
    violations = [
        f"{path.relative_to(SRC.parent)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in _unused_imports(path.read_text())
    ]
    assert not violations, (
        "module-level imports nothing uses:\n" + "\n".join(violations)
    )


def test_lint_catches_an_unused_import_and_reads_string_annotations():
    source = (
        "import os\n"
        "from typing import List, Optional, Tuple\n"
        "def f(plan: Optional['List[int]']) -> None:\n"
        "    return os.sep\n"
    )
    assert _unused_imports(source) == [("Tuple", 2)]
