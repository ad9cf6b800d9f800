"""Smoke check of the benchmark harness itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest
import requests

import run
from queryflip import corpus, evaluation, pipeline
from queryflip.config import RunConfig
from synthdata import synthetic_corpus

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "synth-eval": dataclasses.replace(
        run.WORKLOADS["synth-eval"], queries=6, chunk=3, setups=2),
    "zipf-4k": dataclasses.replace(
        run.WORKLOADS["zipf-4k"], queries=4, chunk=2, setups=1,
        zipf_words=400, zipf_docs=120, min_vocab=0),
    "remote-stub": dataclasses.replace(
        run.WORKLOADS["remote-stub"], queries=2, chunk=1, setups=1),
}


def test_tiny_workloads_are_the_real_ones_shrunk():
    assert set(TINY) == set(run.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(TINY[name], seed=3, seconds=0.0, trace=trace)
    assert result["correct"], "output checks or span nesting failed"
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {m: v["unit"] for m, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_output_checks_count_broken_outcomes():
    config = RunConfig()
    stack = pipeline.build_stack(corpus.ingest_corpus(synthetic_corpus()), config)
    ids = stack.vocab.encode(["flour", "dough", "oven"])
    triplets = evaluation.build_triplets(stack.search.search(ids, 3), stack.corpus)
    report = evaluation.evaluate(triplets, "cfe2", pipeline.make_context(stack, config))
    assert run.outcome_violations(report, stack) == 0

    good = report.records[0]
    assert good.outcome is not None
    report.records[:] = [
        good,
        dataclasses.replace(good, outcome=good.query),  # does not flip
        dataclasses.replace(good, outcome=good.outcome + " [UNK]"),
        dataclasses.replace(good, outcome=None),  # flipped without outcome
    ]
    assert run.outcome_violations(report, stack) == 3


def test_report_digest_hashes_the_timing_off_report_bytes():
    config = RunConfig()
    stack = pipeline.build_stack(corpus.ingest_corpus(synthetic_corpus()), config)
    ctx = pipeline.make_context(stack, config)
    ids = stack.vocab.encode(["star", "orbit", "comet"])
    triplets = evaluation.build_triplets(stack.search.search(ids, 4), stack.corpus)
    timed = [evaluation.evaluate(triplets, m, ctx) for m in run.METHODS]
    off = [evaluation.evaluate(triplets, m, ctx, timing="off") for m in run.METHODS]
    expected = hashlib.sha256(evaluation.reports_to_json(off).encode("utf-8"))
    assert run.report_digest(timed) == expected.hexdigest()


def test_zipf_run_below_its_vocabulary_floor_fails():
    small = dataclasses.replace(TINY["zipf-4k"], min_vocab=10**6)
    with pytest.raises(RuntimeError, match="vocabulary"):
        run.run_workload(small, seed=3, seconds=0.0, trace=False)


def test_stub_child_stops_when_the_run_fails(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(synthetic_corpus()) + "\n", encoding="utf-8")
    with pytest.raises(KeyError):
        with run.stub_backends(str(path)) as backends:
            url = backends["score"]["url"]
            raise KeyError("the run failed")
    with pytest.raises(requests.ConnectionError):
        requests.post(f"{url}/score", json={"query": "x", "doc_id": "y"}, timeout=5)
