"""Source hygiene checks: unused imports, environment reads in the package,
parameter defaults that no caller overrides and module-level names that
nothing references, read with the standard library's ``ast``, and the
modules that importing the CLI loads."""

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


def env_reads(source: str) -> list[str]:
    """Every read of the process environment: ``os.environ``, ``os.getenv``
    and ``from os import environ``/``getenv``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _dotted(node) in (
                "os.environ", "os.getenv"):
            found.append(_dotted(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names
                      if a.name in ("environ", "getenv")]
    return found


def test_package_reads_no_environment_variable():
    # each setting a user can change is an ExperimentConfig field
    for path in sorted((ROOT / "src" / "aqec").glob("*.py")):
        assert env_reads(path.read_text()) == [], path.name


def test_checker_flags_environment_reads():
    source = ("import os\nfrom os import getenv\n"
              "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.path.sep\n")
    assert sorted(env_reads(source)) == ["os.environ", "os.getenv", "os.getenv"]


def _defaulted_params(tree: ast.AST) -> dict[str, tuple[str, int | None]]:
    """"qualname.param" -> (function name, positional index or None) of
    every parameter with a default; a method's index counts after self."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                skip = 1 if isinstance(node, ast.ClassDef) else 0
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out[f"{prefix}{child.name}.{arg.arg}"] = (child.name, i - skip)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out[f"{prefix}{child.name}.{arg.arg}"] = (child.name, None)
                visit(child, prefix + child.name + ".")

    visit(tree, "")
    return out


def _set_params(trees) -> set[tuple[str, object]]:
    """(callee name, keyword or positional index) of every argument passed
    at a call site; a ``*args`` or ``**kwargs`` sets every position or
    keyword from there on, marked by "*" and "**"."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            for i, arg in enumerate(node.args):
                out.add((name, ("*", i) if isinstance(arg, ast.Starred) else i))
            for kw in node.keywords:
                out.add((name, kw.arg if kw.arg is not None else "**"))
    return out


def unset_defaults(sources: list[str], callers: list[str]) -> list[str]:
    """Parameters with a default, declared in ``sources``, that no call in
    ``sources`` or ``callers`` passes, by keyword or by position.

    Calls are matched to functions by name alone, so a call to another
    function of the same name counts as setting the parameter.
    """
    trees = [ast.parse(s) for s in sources]
    params = {}
    for tree in trees:
        params.update(_defaulted_params(tree))
    passed = _set_params(trees + [ast.parse(s) for s in callers])
    starred = {(n, k[1]) for n, k in passed if isinstance(k, tuple)}
    unset = []
    for qualname, (name, index) in sorted(params.items()):
        param = qualname.rsplit(".", 1)[1]
        hit = ((name, param) in passed or (name, "**") in passed
               or (index is not None and ((name, index) in passed or any(
                   n == name and i <= index for n, i in starred))))
        if not hit:
            unset.append(qualname)
    return unset


# defaulted parameters that no caller in src or perfbench sets, and why
# they stay parameters
UNSET_ALLOWED = {
    "main.argv": "the entry-point idiom: None reads sys.argv, a list runs "
                 "the CLI in-process",
    "evolve_lindblad.record_times": "the oracle tests compare intermediate "
                                    "records with exact propagators",
    "evolve_lindblad.observables": "the tests read observables off a single "
                                   "Lindblad evolution",
    "evolve_cycles.rtol": "the step-halving convergence test tightens it",
}


def test_every_default_is_overridden_somewhere():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "aqec").glob("*.py"))]
    callers = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    unset = unset_defaults(sources, callers)
    assert [q for q in unset if q not in UNSET_ALLOWED] == []
    assert sorted(set(UNSET_ALLOWED) - set(unset)) == []


def test_checker_flags_unset_defaults():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "def g(x=0, y=0):\n    pass\n"
              "class K:\n    def m(self, n=1, k=2):\n        pass\n"
              "f(1, 2)\ng(*args)\nK().m(k=3)\n")
    assert unset_defaults([source], ["f(0, d=4)"]) == ["K.m.n", "f.c"]


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
    # scipy.integrate too: the integrator's tableau is written out in
    # dynamics, because importing it would load scipy.fft and more
    heavy = {"scipy.optimize", "scipy.special", "scipy.fft", "scipy.spatial",
             "scipy.integrate"}
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in heavy] == []
    subpackages = {m for m, is_package in loaded.items()
                   if m.startswith("scipy.") and m.count(".") == 1
                   and not m.startswith("scipy._") and is_package == "True"}
    assert subpackages == {"scipy.linalg", "scipy.sparse"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(_dotted(d.func if isinstance(d, ast.Call) else d)
               in ("dataclass", "dataclasses.dataclass")
               for d in node.decorator_list)


def _module_names(tree: ast.Module) -> list[str]:
    """Names that a module's top-level statements define: functions,
    classes, assignment targets, and the annotated fields of each
    ``@dataclass`` class as "Class.field"."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                names += [f"{node.name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a module reads, reaches as an attribute, imports, or
    spells as an identifier string (a lookup through ``globals()``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def dead_names(sources: dict[str, str]) -> list[str]:
    """"module.name" of each top-level definition or dataclass field
    ("module.Class.field") in ``sources`` (module name -> source) that no
    module in ``sources`` references.

    References are matched by name alone, so a name read anywhere in the
    package, for whatever object, keeps every definition of that name. A
    field that is only passed to the constructor is never read, so it is
    dead.
    """
    trees = {m: ast.parse(s) for m, s in sources.items()}
    referenced = set().union(*map(_referenced, trees.values()))
    return sorted(f"{m}.{n}" for m, tree in trees.items()
                  for n in _module_names(tree)
                  if n.rsplit(".", 1)[-1] not in referenced)


# module-level names that nothing in src/aqec references, and why they stay
DEAD_ALLOWED = {
    "analysis.residual_error": "perfbench's census pins "
                               "aqec.analysis.state_fidelity, and only "
                               "residual_error reads that binding",
}


def test_every_package_name_is_referenced():
    # ROADMAP aim 2: nothing in src/ that no command reaches
    sources = {p.stem: p.read_text()
               for p in sorted((ROOT / "src" / "aqec").glob("*.py"))}
    dead = dead_names(sources)
    assert [n for n in dead if n not in DEAD_ALLOWED] == []
    assert sorted(set(DEAD_ALLOWED) - set(dead)) == []


def test_checker_flags_dead_names():
    models = ("def phase_channels(terms, rate):\n    return ()\n"
              "def pulse_reset_rates(terms, rate):\n    return {}, {}\n"
              "class Kind:\n    pass\n"
              "@dataclass(frozen=True)\n"
              "class Channel:\n    label: str\n    op: int\n"
              "class Plain:\n    spare: int\n"
              "LIMIT, _SPARE = 1, 2\n")
    runner = ("from . import models as mo\n"
              "def _point(cfg):\n    return mo.phase_channels(cfg, LIMIT)\n"
              "def _schedule(cfg):\n    return Kind()\n"
              "def _run(name):\n    return globals()[name](None)\n"
              "def _ops():\n    return mo.Channel('q', 1).op, mo.Plain\n"
              "_run('_point')\n_run('_ops')\n")
    assert dead_names({"models": models, "runner": runner}) == [
        "models.Channel.label", "models._SPARE", "models.pulse_reset_rates",
        "runner._schedule"]
