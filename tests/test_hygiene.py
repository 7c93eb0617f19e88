"""Source hygiene checks that need only the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "aqec").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def _dotted(node: ast.AST) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source: str) -> list[str]:
    """Imported names that the module never reads.

    ``import a.b`` counts as used only where ``a.b`` (or a longer chain
    through it) is read, so a dotted import kept for nothing is caught too.
    """
    tree = ast.parse(source)
    used = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if chain is not None:
            parts = chain.split(".")
            used.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [n for n in names if n not in used]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_names():
    source = ("import os\nimport scipy.linalg\nimport scipy.sparse\n"
              "from typing import Sequence, Mapping\n"
              "x: Mapping = scipy.sparse.eye(2)\n")
    assert unused_imports(source) == ["os", "scipy.linalg", "Sequence"]
