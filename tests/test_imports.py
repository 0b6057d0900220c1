"""Every name a package module imports is used in it or exported by it, and
every module-level private name is referenced by some package module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudovox

MODULES = sorted(Path(pseudovox.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_unused_import():
    source = "from typing import Iterable, Sequence\n__all__ = ['Sequence']\nimport os\nos.sep\n"
    assert unused_imports(source) == ["Iterable (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and constants, with their lines."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def orphans(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of ``sources`` reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_detects_orphans():
    sources = {
        "a.py": "_USED = 1\n_UNUSED = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _helper\n__all__ = ['x']\n_x: int = 3\n",
    }
    assert orphans(sources) == ["a.py: _UNUSED (line 2)", "a.py: _Gone (line 5)", "b.py: _x (line 3)"]


def test_package_has_no_orphans():
    assert orphans({path.name: path.read_text(encoding="utf-8") for path in MODULES}) == []


def test_cli_loads_no_thread_pool():
    code = (
        "import sys, pseudovox.cli; "
        "print(sorted({'concurrent.futures', 'pseudovox.concurrency'} & set(sys.modules)))"
    )
    src = str(Path(pseudovox.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
