"""The bytes the CLI writes on the synthetic corpus, pinned by sha256.

Criterion 10 checks that runs agree with each other; these tests check
that they agree with the pinned values, so a change that moves a report
or edit byte fails here. Inputs: the synthetic corpus and its 60 queries,
a config of ``embed_dim`` 48 and ``timing`` off with paths relative to
the run directory, and for ``edit`` 240 triplet lines, each query's top
document paired with ranks 2-5 of its top-5 ranking.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from queryflip import corpus as corpus_module, evaluation
from queryflip.cli import main
from queryflip.config import RunConfig
from queryflip.corpus import ingest_corpus
from queryflip.pipeline import build_stack
from queryflip.text import tokenize

from synthdata import synthetic_corpus, synthetic_queries

REPORT_SHA256 = "0be1c10aa166de53d312d45167c0ac59a5fd0ebc6f9541661c58a60c22f30aa6"
EDITS_SHA256 = "d201fb7b1e276cf164623c6d7afda8e730ec2e825626e55980d5b198567ac1a2"

SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(run_dir: Path, *argv: str) -> None:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "queryflip.cli", *argv],
        cwd=run_dir,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        capture_output=True,
    )


def _assert_sha256(path: Path, pinned: str) -> None:
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    assert actual == pinned, (
        f"{path.name} sha256 is {actual}, pinned {pinned}. A change that "
        "moves it must say why in CHANGES.md, and pin the new value here."
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    run = tmp_path_factory.mktemp("byte-contract")
    corpus, queries = synthetic_corpus(), synthetic_queries()
    (run / "corpus.jsonl").write_text("\n".join(corpus) + "\n")
    (run / "queries.txt").write_text("\n".join(queries) + "\n")
    config = {"corpus": "corpus.jsonl", "artifacts": "artifacts",
              "out_dir": "reports", "embed_dim": 48, "timing": "off"}
    (run / "config.json").write_text(json.dumps(config))
    stack = build_stack(ingest_corpus(corpus), RunConfig(embed_dim=48, timing="off"))
    lines = []
    for query in queries:
        ranking = stack.search.search(stack.vocab.encode(tokenize(query)), 5)
        top = ranking.entries[0][0]
        lines += [
            json.dumps({"query": query, "doc_id": top, "counter_doc_id": doc_id})
            for doc_id, _ in ranking.entries[1:]
        ]
    assert len(lines) == 240
    (run / "triplets.jsonl").write_text("\n".join(lines) + "\n")
    _cli(run, "index", "--config", "config.json")
    return run


def test_eval_report_bytes_are_pinned(run_dir):
    _cli(run_dir, "eval", "--config", "config.json", "--queries", "queries.txt",
         "--workers", "1")
    _assert_sha256(run_dir / "reports" / "report.json", REPORT_SHA256)


def _compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum`` on ints and floats: ints add exactly
    until the first float, and from it on each addition's rounding error
    is kept (Neumaier's summation) and added in at the end."""
    total, error, floats = start, 0.0, False
    for x in iterable:
        if not floats:
            total += x
            floats = isinstance(total, float)
            continue
        t = total + x
        error += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + error if floats and error and math.isfinite(error) else total


def test_eval_report_bytes_hold_under_compensated_sum(run_dir, monkeypatch):
    """The report path adds its floats left to right, so the pinned eval,
    run in-process with 3.12's ``sum`` in the report modules, writes the
    pinned bytes on any Python version."""
    for module in (corpus_module, evaluation):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    monkeypatch.chdir(run_dir)
    assert main(["eval", "--config", "config.json", "--queries", "queries.txt",
                 "--workers", "1", "--out-dir", "reports-3.12-sum"]) == 0
    _assert_sha256(run_dir / "reports-3.12-sum" / "report.json", REPORT_SHA256)


@pytest.mark.parametrize("workers", ["1", "4"])
def test_edit_triplets_bytes_are_pinned(run_dir, workers):
    out = f"edits-{workers}.jsonl"
    _cli(run_dir, "edit", "--config", "config.json", "--triplets", "triplets.jsonl",
         "--timing", "off", "--workers", workers, "--out", out)
    _assert_sha256(run_dir / out, EDITS_SHA256)
