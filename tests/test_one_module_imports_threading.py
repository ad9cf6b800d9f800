"""Only ``evaluation.py`` imports ``threading``.

Work that threads share is coordinated in one place, ``evaluation._once``;
any other shared state is kept by single atomic steps (such as
``dict.setdefault``), so no module but ``evaluation.py`` needs a lock.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "queryflip"


def _imports_threading(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in ("threading", "_thread") for name in names):
            return True
    return False


def test_only_evaluation_imports_threading():
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if _imports_threading(ast.parse(path.read_text("utf-8")))
    ]
    assert importers == ["evaluation.py"]
