"""The package namespace: every exported name exists, once, and every
module uses the names it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import majorant


def test_all_names_are_unique():
    assert len(set(majorant.__all__)) == len(majorant.__all__)


def test_all_names_resolve():
    assert [name for name in majorant.__all__ if not hasattr(majorant, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    A name counts as read when it appears as an identifier, inside a quoted
    annotation, or in `__all__`; `from __future__` imports are directives.
    """
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    quoted: list[ast.AST] = []  # annotations and __all__, whose strings hold names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            quoted.append(node.value)
    for part in quoted:
        for node in ast.walk(part):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, say
                    continue
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from math import gcd, log\nimport numpy as np\nlog(2)\nraise ValueError('gcd')\n"
    assert unused_imports(source) == ["gcd", "np"]
    source = "from typing import Any, Optional\nx: 'Optional[int]'\n__all__ = ['Any']\n"
    assert unused_imports(source) == []
    assert unused_imports("import os.path\nos.getcwd()\n") == []


def test_no_module_imports_an_unused_name():
    package = Path(majorant.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no other top-level statement reads.

    `sources` maps module names to source text.  A name is private when it
    starts with one underscore; dunder names such as `__version__` are not.
    A read is a loaded identifier or an attribute, in any module; a
    statement reading a name it defines itself, as a recursive function
    does, does not count.
    """
    defined: list[tuple[str, str]] = []  # (module, name)
    reads: list[tuple[set[str], set[str]]] = []  # (names a statement defines, names it reads)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            defined += [(module, n) for n in sorted(names)]
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
            reads.append((names, read))
    return [
        f"{module}.{name}"
        for module, name in defined
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in read and name not in names for names, read in reads)
    ]


def test_unreferenced_private_names_are_found():
    sources = {
        "a": "_LIMIT = 3\n__version__ = '1'\ndef _walk(n):\n    return _walk(n - 1)\n",
        "b": "from .a import _LIMIT\ndef _used():\n    return _LIMIT\nx = _used()\n",
    }
    assert unreferenced_private_names(sources) == ["a._walk"]


def test_every_private_name_is_referenced():
    package = Path(majorant.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
