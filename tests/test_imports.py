"""No module of the package imports a name it never uses.

pyflakes and ruff are not dependencies, so the check walks the syntax tree
itself. A name counts as used when it appears as a name anywhere in the
module, including inside a quoted annotation; in ``__init__.py`` a name
listed in ``__all__`` counts as used too.
"""

import ast
import pathlib

import pytest

import graspscore

MODULES = sorted(pathlib.Path(graspscore.__file__).parent.glob("*.py"))


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
