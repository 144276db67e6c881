"""No module of the package imports a name it never uses, and no private
module-level function, class or constant goes unreferenced.

pyflakes and ruff are not dependencies, so the check walks the syntax tree
itself. A name counts as used when it appears as a name anywhere in the
module, including inside a quoted annotation; in ``__init__.py`` a name
listed in ``__all__`` counts as used too. A private ``_name`` defined at
module level counts as referenced when some module of the package loads it
as a name, reads it as an attribute or imports it.

The benchmark's tracer (``perfbench/spans.py``) looks up package functions
by name; every name it spans or counts must still be one.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

import graspscore

MODULES = sorted(pathlib.Path(graspscore.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PYPROJECT = ROOT / "pyproject.toml"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str, is_init: bool = False) -> list[str]:
    """Names bound by an import of ``source`` that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno

    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    if is_init:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                   for t in node.targets):
                used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_modules_are_found():
    assert {"__init__.py", "scene.py", "gripper.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), is_init=path.name == "__init__.py") == []


def test_checker_flags_unused_and_spares_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .mesh import TriangleMesh, transform_mesh\n"
        "from .scene import PredictionTable\n"
        "def f(m: TriangleMesh) -> 'PredictionTable':\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: transform_mesh"]
    exported = "from .mesh import build_mesh, sample_surface\n__all__ = ['build_mesh']\n"
    assert unused_imports(exported, is_init=True) == ["line 1: sample_surface"]
    assert unused_imports(exported) == ["line 1: build_mesh", "line 1: sample_surface"]


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level ``_name`` function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (module name -> source)
    that no module references besides their definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    return [f"{module} line {line}: {name}" for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in referenced]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_private_name_checker_flags_dead_and_spares_referenced_names():
    sources = {
        "a.py": "_USED = 1\n_DEAD: int = 2\ndef _helper():\n    return _USED\ndef _orphan():\n    pass\n",
        "b.py": "from . import a\nfrom .a import _helper\n_LIMIT = a._OTHER\ndef f():\n    return _LIMIT\n",
    }
    assert unreferenced_private_names(sources) == ["a.py line 2: _DEAD", "a.py line 5: _orphan"]


def test_labels_does_not_import_scene_pipeline_or_cli():
    """The table and file layer sits below evaluation, labeling and the
    command line: ``labels.py`` imports none of them."""
    tree = ast.parse((pathlib.Path(graspscore.__file__).parent / "labels.py").read_text())
    above = {"scene", "pipeline", "cli"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
            found += sorted(names & above)
    assert found == []


def test_third_party_imports_are_declared_dependencies():
    """The top-level modules the package imports, less the standard
    library, are exactly the ``dependencies`` of ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_") for req in requirements}
    assert imported - set(sys.stdlib_module_names) == declared


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_names_resolve_to_package_functions():
    """Each ``TRACED_METHODS`` entry is a method the tracer can wrap, and
    each ``COUNTER_HOOKS`` key names a span the tracer makes: a public
    function defined in its module, or a traced method."""
    spans = _load_spans()
    modules = {p.stem: importlib.import_module(f"graspscore.{p.stem}") for p in MODULES if p.stem != "__init__"}
    for module, cls, attr in spans.TRACED_METHODS:
        raw = vars(getattr(modules[module], cls))[attr]
        assert inspect.isfunction(raw.__func__ if isinstance(raw, classmethod) else raw), (module, cls, attr)
    assert spans.COUNTER_HOOKS
    for name in spans.COUNTER_HOOKS:
        module, *path = name.split(".")
        if len(path) == 1:
            fn = getattr(modules[module], path[0], None)
            assert inspect.isfunction(fn) and fn.__module__ == f"graspscore.{module}", name
            assert not path[0].startswith("_"), name
        else:
            assert (module, *path) in spans.TRACED_METHODS, name
