"""Source hygiene checks: unused imports, read with the standard library's
``ast``, and the modules that importing the CLI loads."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_scipy_beyond_linalg_and_sparse():
    # a fresh interpreter: the oracle tests load scipy.optimize into this one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, aqec.cli\n"
             "for name, module in sorted(sys.modules.items()):\n"
             "    print(name, hasattr(module, '__path__'))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = dict(line.split() for line in out.splitlines())
    heavy = {"scipy.optimize", "scipy.special", "scipy.fft", "scipy.spatial"}
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in heavy] == []
    subpackages = {m for m, is_package in loaded.items()
                   if m.startswith("scipy.") and m.count(".") == 1
                   and not m.startswith("scipy._") and is_package == "True"}
    assert subpackages == {"scipy.linalg", "scipy.sparse"}
