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
