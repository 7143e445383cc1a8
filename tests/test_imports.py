"""Every name a factorix module imports is used in that module, every
parameter of a factorix function is read, no module imports another's
private (underscore) names, every module-level private name is referenced
somewhere in factorix, and the CLI imports no module that only some
commands need."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "factorix"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        hint = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
            # a string annotation such as field: "GroupTable" is code too
            hint_tree = ast.parse(hint.value, mode="eval")
            used.update(n.id for n in ast.walk(hint_tree) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_detects_an_unused_import():
    source = 'import os\nfrom a import b, c, d\nb()\ne: "d" = "c"\n'
    assert unused_imports(source) == ["c (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """The parameters (``self`` and ``cls`` aside) that their function's
    body, nested functions included, never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}({a.arg}) (line {node.lineno})" for a in params
                if a.arg not in ("self", "cls") and a.arg not in read]
    return out


def test_detects_an_unused_parameter():
    source = ("def f(self, a, b, *rest, c=1, **kw):\n    def g(d):\n        return a + c\n"
              "    return g, lambda e, h: h, kw\n")
    assert unused_parameters(source) == [
        "f(b) (line 1)", "f(rest) (line 1)", "g(d) (line 2)", "<lambda>(e) (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def private_imports(source: str) -> list[str]:
    """The underscore names (dunders aside) a module imports from factorix."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("factorix")):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    out.append(f"{name} (line {node.lineno})")
    return out


def test_detects_a_private_import():
    source = "from . import __version__\nfrom .certify import _embed, embed\nfrom os import _exit\n"
    assert private_imports(source) == ["_embed (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


def private_definitions(source: str) -> dict[str, int]:
    """The underscore names (dunders aside) a module defines at its top
    level, by def, class or assignment, with their line numbers."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                out[name] = node.lineno
    return out


def references(source: str) -> set[str]:
    """The names a module reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The module-level private names that no module in ``sources`` reads."""
    read = set().union(*map(references, sources.values()))
    return [f"{module}: {name} (line {line})" for module, source in sorted(sources.items())
            for name, line in sorted(private_definitions(source).items()) if name not in read]


def test_detects_an_unreferenced_private_name():
    sources = {
        "a": "_USED = 1\n_DEAD: int = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n",
        "b": "import a\nprint(a._helper())\n__all__ = []\n",
    }
    assert unreferenced_privates(sources) == ["a: _DEAD (line 2)", "a: _Gone (line 5)"]


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_cli_import_leaves_out_the_fork_pool():
    """Only a forked case2 run needs the process pool, so a plain command
    such as ``factorix verify`` does not pay for importing it."""
    probe = "import sys, factorix.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))  # this test's factorix
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
