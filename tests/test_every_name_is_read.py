"""Every function, method, class, module-level constant and stored
attribute the package defines is read somewhere.

Definitions come from ``ast`` over ``src/queryflip/*.py``; reads are
taken from ``src/queryflip/`` and ``perfbench/``. A method, a ``def``
directly in a class body, is read only through an attribute load
(``.name``); a constant, a name a module's own body assigns, through a
name or attribute load. Other functions and classes are read by any
``NAME`` token but the one right after their ``def`` or ``class``.
Dunders are exempt: Python reads them. A name read only by the tests, or
only as a string, counts as unread.

The check works by name, not by owner: two classes that define a method
of the same name share its reads, so one of them can go unread unseen
(``doc_ids`` on ``Corpus`` and on ``Ranking`` was such a pair).

The saved archive is held to the same rule: each member is read on load.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from queryflip.corpus import Corpus, ingest_corpus
from queryflip.embed import EmbeddingTable
from queryflip.lm import NgramLM
from queryflip.pipeline import STACK_FILE, build_stack, save_stack
from queryflip.text import Vocabulary

from conftest import SAMPLE_LINES, sample_config

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "queryflip"
READERS = [*PACKAGE.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _reads(path: Path) -> Counter:
    """NAME tokens of one file, less those a ``def`` or ``class`` names."""
    reads: Counter = Counter()
    previous = None
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text("utf-8")).readline)
    for token in tokens:
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            reads[token.string] += 1
        if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
            previous = token.string
    return reads


def test_every_def_and_class_in_the_package_is_read():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text("utf-8"))))
        in_class = {
            id(item)
            for node in nodes
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, functions)
        }
        for node in nodes:
            if isinstance(node, (*functions, ast.ClassDef)) and not _dunder(node.name):
                owner = methods if id(node) in in_class else defined
                owner.add((path.name, node.name))
    reads: Counter = Counter()
    loads: set[str] = set()
    for path in READERS:
        reads += _reads(path)
        loads |= _attribute_loads(path)
    unread = sorted(
        [f"{file}:{name}" for file, name in defined if not reads[name]]
        + [f"{file}:.{name}" for file, name in methods if name not in loads]
    )
    assert unread == [], f"defined but never read: {unread}"


def test_every_module_constant_is_read():
    """Each name a package module's own body assigns is loaded, as a name
    or as an attribute, somewhere in ``src/queryflip/`` or ``perfbench/``."""
    assigned = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text("utf-8")).body:
            if isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            elif isinstance(statement, ast.Assign):
                targets = statement.targets
            else:
                continue
            assigned |= {
                (path.name, n.id)
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name) and not _dunder(n.id)
            }
    loads: set[str] = set()
    for path in READERS:
        tree = ast.parse(path.read_text("utf-8"))
        loads |= _attribute_loads(path) | {
            n.id
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
    unread = sorted(f"{file}:{name}" for file, name in assigned if name not in loads)
    assert unread == [], f"assigned but never read: {unread}"


def test_every_parameter_is_read_by_its_function():
    """Each parameter of each ``def`` in the package is loaded as a name
    somewhere in its function's body, nested functions included.

    ``self``, ``cls`` and names starting with ``_`` are exempt, and so are
    lambdas: their caller fixes their shape. Reads count by name, so a
    nested function's own parameter of the same name hides an unread one.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, kinds):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            loads = {
                n.id
                for statement in node.body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{p.lineno}:{p.arg}"
                for p in params
                if p is not None
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
                and p.arg not in loads
            ]
    assert unread == [], f"parameters never read: {unread}"


def _attribute_loads(path: Path) -> set[str]:
    """Attribute names loaded in one file, less those only written into,
    as ``x.name[i] = ...`` writes into ``x.name``."""
    nodes = list(ast.walk(ast.parse(path.read_text("utf-8"))))
    written_into = {
        id(n.value)
        for n in nodes
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
    }
    return {
        n.attr
        for n in nodes
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and id(n) not in written_into
    }


def test_every_stored_attribute_is_read():
    """Each ``self.<name> = ...`` in the package is loaded as ``.<name>``
    somewhere in ``src/queryflip/`` or ``perfbench/``.

    Reads count by attribute name, whatever the object, so an attribute
    that shares its name with one read elsewhere goes unread unseen.
    """
    stored = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                stored.add((path.name, node.attr))
    loads = set()
    for path in READERS:
        loads |= _attribute_loads(path)
    unread = sorted(f"{file}:{name}" for file, name in stored if name not in loads)
    assert unread == [], f"stored but never read: {unread}"


class _RecordingArrays(Mapping):
    """The archive's arrays, noting the name of each one read."""

    def __init__(self, arrays):
        self._arrays = arrays
        self.read: set[str] = set()

    def __getitem__(self, name):
        self.read.add(name)
        return self._arrays[name]

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self):
        return len(self._arrays)


def test_every_archive_member_is_read_on_load(tmp_path):
    """Each component's ``from_arrays`` together reads every member the
    saved sample stack holds, but the two ``load_stack`` reads itself, so
    no member is written and then left unread."""
    config = sample_config(artifacts=str(tmp_path))
    save_stack(build_stack(ingest_corpus(SAMPLE_LINES), config), config)
    with np.load(tmp_path / STACK_FILE, allow_pickle=False) as npz:
        arrays = _RecordingArrays({name: npz[name] for name in npz.files})
    vocab = Vocabulary.from_arrays(arrays)
    Corpus.from_arrays(arrays)
    EmbeddingTable.from_arrays(arrays)
    NgramLM.from_arrays(arrays, config.lm_order, config.lm_k, vocab.content_size)
    assert arrays.read == set(arrays) - {"format", "fingerprint"}
