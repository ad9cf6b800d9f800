"""``evaluation.py`` holds no BLAS call.

Its metrics add their floats in a fixed order, so a report's bytes do not
depend on the BLAS kernel numpy dispatches to. Matrix products go through
BLAS, so the module may hold no ``@`` and none of numpy's product or
linear-algebra functions.
"""

from __future__ import annotations

import ast
from pathlib import Path

EVALUATION = Path(__file__).resolve().parents[1] / "src" / "queryflip" / "evaluation.py"
BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot", "linalg"}


def _blas_uses(source: str) -> list[str]:
    """Each ``@``, ``@=`` and read of a BLAS name of numpy, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {(node.module or "").split(".")[-1], *(a.name for a in node.names)}
            found += [(node.lineno, f"from numpy {name}") for name in names & BLAS_NAMES]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_evaluation_holds_no_blas_call():
    assert _blas_uses(EVALUATION.read_text("utf-8")) == []


def test_the_guard_finds_each_form():
    source = "\n".join([
        "import numpy as np",
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "numpy.einsum('ij,jk', a, b)",
        "np.linalg.norm(a)",
        "from numpy import inner",
        "from numpy.linalg import eigh",
        "np.add.reduce(a * b, axis=1)",
    ])
    assert _blas_uses(source) == [
        "2: @", "3: @", "4: np.dot", "5: np.einsum", "6: np.linalg",
        "7: from numpy inner", "8: from numpy linalg",
    ]
