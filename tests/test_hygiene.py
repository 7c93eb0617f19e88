"""Source hygiene checks: unused imports, imports inside functions,
functools caches, environment reads, random draws and sines outside
``pulse`` in the package, model classes
constructed outside the config, parameter defaults that no caller
overrides and module-level names that nothing references, read with the
standard library's ``ast``, and the modules that importing the CLI, or
running its pulse ascent, loads."""

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


def function_imports(source: str) -> list[str]:
    """"function:module.name" of every name imported inside a function, at
    any depth, by the qualified name of the innermost enclosing function
    and the imported module path without its leading dots."""
    found = []

    def visit(node, prefix, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", func)
            else:
                if func is not None and isinstance(child, (ast.Import,
                                                           ast.ImportFrom)):
                    module = getattr(child, "module", None)
                    base = f"{module}." if module else ""
                    found.extend(f"{func}:{base}{a.name}" for a in child.names)
                visit(child, prefix, func)

    visit(ast.parse(source), "", None)
    return found


# imports inside functions of src/aqec, and why they stay there: each
# keeps a module off the cold start of every command that never reaches
# the function
FUNCTION_IMPORTS_ALLOWED = {
    "dynamics._propagators:scipy.linalg":
        "cold start: only a constant segment needs expm, and importing "
        "scipy.linalg from cold takes about 0.3 s; expm is still looked "
        "up on scipy.linalg at each call, so perfbench's binding census "
        "is unchanged",
    "runner._pool_map:concurrent.futures":
        "cold start: only a pool of more than one worker needs it, and it "
        "loads logging too, about 5 ms in all",
}


def test_package_imports_at_module_level():
    found = []
    for path in sorted((ROOT / "src" / "aqec").glob("*.py")):
        found += [f"{path.stem}.{f}" for f in function_imports(path.read_text())]
    assert [f for f in found if f not in FUNCTION_IMPORTS_ALLOWED] == []
    assert sorted(set(FUNCTION_IMPORTS_ALLOWED) - set(found)) == []
    assert all(why.startswith("cold start")
               for why in FUNCTION_IMPORTS_ALLOWED.values())


def test_checker_flags_function_imports():
    source = ("import os\n"
              "if os.sep:\n    import re\n"
              "def f():\n    import json\n"
              "    from .hilbert import basis_state as b\n"
              "    def g():\n        from . import models\n    return g\n"
              "class K:\n    x = 1\n"
              "    def m(self):\n        if self:\n            import csv, io\n")
    assert function_imports(source) == [
        "f:json", "f:hilbert.basis_state", "f.g:models", "K.m:csv", "K.m:io"]


CACHE_DECORATORS = {"functools.lru_cache", "functools.cache"}


def cache_decorators(source: str) -> list[str]:
    """Name of every function, at any depth, decorated with
    ``functools.lru_cache`` or ``functools.cache``, called or bare, through
    the module, an alias of it or a name imported from it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.update({a.asname or a.name: f"{node.module}.{a.name}"
                             for a in node.names})
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            name = _dotted(deco.func if isinstance(deco, ast.Call) else deco)
            head, dot, rest = (name or "").partition(".")
            if imported.get(head, head) + dot + rest in CACHE_DECORATORS:
                found.append(node.name)
    return found


# functions of src/aqec memoised across calls, and why each cache's hits
# pay for its key: a module-level cache outlives the calls it was sized
# for and holds memory for the life of the process
CACHES_ALLOWED: dict[str, str] = {}


def test_package_keeps_no_unlisted_cache():
    found = []
    for path in sorted((ROOT / "src" / "aqec").glob("*.py")):
        found += [f"{path.stem}.{f}" for f in cache_decorators(path.read_text())]
    assert [f for f in found if f not in CACHES_ALLOWED] == []
    assert sorted(set(CACHES_ALLOWED) - set(found)) == []
    assert all(CACHES_ALLOWED.values())


def test_checker_flags_cache_decorators():
    source = ("import functools\nimport functools as ft\n"
              "from functools import cache, lru_cache as memo, wraps\n"
              "@functools.lru_cache(maxsize=16)\ndef a(n):\n    return n\n"
              "@ft.cache\ndef b():\n    return 1\n"
              "@memo\ndef c():\n    return 1\n"
              "class K:\n    @cache\n    def m(self):\n        return 2\n"
              "@wraps(a)\ndef e():\n    return 3\n"
              "@staticmethod\ndef f():\n    return 4\n")
    assert cache_decorators(source) == ["a", "b", "c", "m"]


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


def random_draws(source: str) -> list[str]:
    """Every way to draw random numbers: a ``np.random`` or
    ``numpy.random`` attribute, and an import of ``random`` or
    ``numpy.random``, or of a name from either."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _dotted(node) in (
                "np.random", "numpy.random"):
            found.append(_dotted(node))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name in ("random", "numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "random", "numpy.random", "numpy"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if node.module != "numpy" or a.name == "random"]
    return found


def test_package_draws_no_random_numbers():
    # every output is deterministic by construction
    for path in sorted((ROOT / "src" / "aqec").glob("*.py")):
        assert random_draws(path.read_text()) == [], path.name


def test_checker_flags_random_draws():
    source = ("import random\nimport numpy as np\nimport numpy.random\n"
              "from random import choice\nfrom numpy import random as r, pi\n"
              "from numpy.random import default_rng\n"
              "x = np.random.default_rng(0).random(3)\n"
              "y = numpy.random.rand(2) + rng.random(2) + pi\n")
    # numpy.random three times: imported, imported from numpy, and read
    assert sorted(random_draws(source)) == [
        "np.random", "numpy.random", "numpy.random", "numpy.random",
        "numpy.random.default_rng", "random", "random.choice"]


SINES = ("np.sin", "numpy.sin", "math.sin")


def sine_calls(source: str) -> list[str]:
    """Every read of ``np.sin``, ``numpy.sin`` or ``math.sin``, and every
    import of ``sin`` from ``numpy`` or ``math``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and _dotted(node) in SINES:
            found.append(_dotted(node))
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy", "math"):
            found += [f"{node.module}.sin" for a in node.names
                      if a.name == "sin"]
    return found


def test_sine_basis_evaluated_only_in_pulse():
    # pulse.evaluate samples the basis and pulse.drive feeds the integrators
    for path in sorted((ROOT / "src" / "aqec").glob("*.py")):
        if path.name != "pulse.py":
            assert sine_calls(path.read_text()) == [], path.name


def test_checker_flags_sine_calls():
    source = ("import math\nimport numpy as np\nimport numpy\n"
              "from math import sin\nfrom numpy import sinh, sin as s\n"
              "a = np.sin(1.0) + numpy.sin(2.0) + math.sin(3.0)\n"
              "b = np.sinh(1.0) + np.arcsin(0.5) + s(1.0)\n")
    assert sorted(sine_calls(source)) == [
        "math.sin", "math.sin", "np.sin", "numpy.sin", "numpy.sin"]


MODEL_CLASSES = {"SingleQubitModel", "ThreeQubitModel", "VslqModel"}


def model_constructions(source: str) -> list[str]:
    """Qualified name of the function around each call of a model class,
    by its bare name or as an attribute, or "<module>" outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                name = _dotted(child.func)
                if name is not None and name.rsplit(".", 1)[-1] in MODEL_CLASSES:
                    found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_models_constructed_only_by_config():
    # ExperimentConfig.model() constructs every model a command runs; a
    # point derives its variants from it with dataclasses.replace
    found = []
    for path in sorted((ROOT / "src" / "aqec").glob("*.py")):
        if path.stem != "config":
            found += [f"{path.stem}.{f}"
                      for f in model_constructions(path.read_text())]
    assert found == []


def test_checker_flags_model_constructions():
    source = ("from . import models as mo\n"
              "from .models import SingleQubitModel, VslqModel\n"
              "DEFAULT = SingleQubitModel(1.0, 0.0, 0.0)\n"
              "def f(cfg):\n    return mo.ThreeQubitModel(j=1.0, gamma_p=0.0,"
              " gamma_r=0.0)\n"
              "class K:\n    def m(self, p):\n"
              "        return [VslqModel(**p) for _ in range(2)]\n"
              "def g(cfg, model: mo.VslqModel):\n"
              "    return replace(cfg.model(), delta=1.0), model\n")
    assert model_constructions(source) == ["<module>", "f", "K.m"]


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


def _loaded_modules(probe: str, *args: str) -> list[str]:
    """Names of the modules a fresh interpreter holds after running
    ``probe`` with ``args`` as sys.argv[1:]; the oracle tests load scipy
    into this one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe += "\nprint('\\n'.join(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()


def _scipy_or_pool(loaded: list[str]) -> list[str]:
    return [m for m in loaded if m.split(".")[0] == "scipy"
            or m.startswith("concurrent.futures")]


def test_cli_import_loads_no_scipy():
    # ROADMAP aim 1's cold start: scipy.linalg loads inside the one
    # function that needs it, and the worker pool's module only when a
    # pool runs
    assert _scipy_or_pool(_loaded_modules("import sys, aqec.cli")) == []


def test_optimize_command_loads_no_scipy(tmp_path):
    # the command level: a pulse ascent propagates Schrodinger blocks only,
    # so it never builds a CSR stack or exponentiates
    probe = ("import json, sys\n"
             "from pathlib import Path\n"
             "from aqec import optimize, runner\n"
             "from aqec.config import with_overrides\n"
             "from aqec.presets import preset_config\n"
             "out = Path(sys.argv[1])\n"
             "cfg = with_overrides(preset_config('fig2'), max_iters=2)\n"
             "try:\n"
             "    runner.cmd_optimize(cfg, out)\n"
             "except optimize.ConvergenceError:\n"
             "    pass\n"
             "summary = json.loads((out / 'optimize_summary.json').read_text())\n"
             "assert summary['iterations'] == 2, summary\n")
    loaded = _loaded_modules(probe, str(tmp_path / "run"))
    assert _scipy_or_pool(loaded) == []


def test_lindblad_commands_load_no_scipy_sparse(tmp_path):
    # the pulse-phase RHS is numpy alone: a 1-cycle sq evolve and one
    # residual sweep point integrate Lindblad pulse phases and load
    # scipy.linalg, for expm, but no scipy.sparse module
    probe = ("import csv, sys\n"
             "from pathlib import Path\n"
             "from aqec import runner\n"
             "from aqec.config import with_overrides\n"
             "from aqec.presets import preset_config\n"
             "from aqec.pulse import save_pulse, seed_pulse\n"
             "out = Path(sys.argv[1])\n"
             "out.mkdir()\n"
             "cfg = preset_config('fig3')\n"
             "pulse = seed_pulse(cfg.n_modes, cfg.t_p, cfg.seed_c1x)\n"
             "save_pulse(pulse, out / 'pulse.json')\n"
             "runner.cmd_evolve(with_overrides(\n"
             "    cfg, pulse_file=str(out / 'pulse.json'), t_r=40.0),\n"
             "    out / 'evolve')\n"
             "rows = list(csv.DictReader(open(out / 'evolve' / "
             "'trajectory.csv')))\n"
             "assert len(rows) == 3, rows\n"
             "row = runner._residual_point(runner._with_t1(\n"
             "    with_overrides(cfg, t_r_grid=(40.0,)), 20e3), 20e3, pulse)\n"
             "assert row['best_t_r_ns'] == 40.0, row\n")
    loaded = _loaded_modules(probe, str(tmp_path / "run"))
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if m.startswith("scipy.sparse")] == []


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


def _referenced(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(names, members): every name a module reads as a variable or
    imports, and every name it reaches as an attribute, passes as a
    keyword, or spells as an identifier string (a lookup through
    ``globals()`` or ``getattr``)."""
    names, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            members.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            members.add(node.value)
    return names, members


def dead_names(sources: dict[str, str]) -> list[str]:
    """"module.name" of each top-level definition or dataclass field
    ("module.Class.field") in ``sources`` (module name -> source) that no
    module in ``sources`` references.

    References are matched by name alone, so a name referenced anywhere in
    the package, for whatever object, keeps every definition of that name.
    A field counts as read only as an attribute, a keyword or a string: a
    local variable of the same name does not read it, and a field that is
    only passed positionally to the constructor is dead.
    """
    trees = {m: ast.parse(s) for m, s in sources.items()}
    refs = [_referenced(tree) for tree in trees.values()]
    members = set().union(*(m for _, m in refs))
    referenced = members.union(*(n for n, _ in refs))
    return sorted(f"{m}.{n}" for m, tree in trees.items()
                  for n in _module_names(tree)
                  if n.rsplit(".", 1)[-1] not in
                  (members if "." in n else referenced))


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
              "class Channel:\n    label: str\n    op: int\n    rate: float\n"
              "class Plain:\n    spare: int\n"
              "LIMIT, _SPARE = 1, 2\n")
    runner = ("from . import models as mo\n"
              "def _point(cfg):\n    return mo.phase_channels(cfg, LIMIT)\n"
              "def _schedule(cfg):\n    return Kind()\n"
              "def _run(name):\n    return globals()[name](None)\n"
              "def _ops():\n    return mo.Channel('q', 1, 0.0).op, mo.Plain\n"
              "def _rate(rate):\n    return rate\n"
              "_run('_point')\n_run('_ops')\n_run('_rate')\n")
    # a local variable named like a field does not read it
    assert dead_names({"models": models, "runner": runner}) == [
        "models.Channel.label", "models.Channel.rate", "models._SPARE",
        "models.pulse_reset_rates", "runner._schedule"]
