from __future__ import annotations

import time

import numpy as np
import pytest

from queryflip.lm import NgramPredictor, perplexity
from queryflip.remote import (
    BackendEndpoint,
    BackendUnavailableError,
    ProtocolError,
    RemoteEmbedder,
    RemotePerplexity,
    RemotePredictor,
    RemoteScorer,
    call_backend,
)
from queryflip.text import MASK_ID, PAD_ID

from stub_backend import StubBackendServer
from test_corpus import ids


@pytest.fixture(scope="module")
def stub(sample_stack_module):
    with StubBackendServer(sample_stack_module) as server:
        yield server


@pytest.fixture(scope="module")
def sample_stack_module(request):
    return request.getfixturevalue("sample_stack")


def _endpoint(stub, role, **kw) -> BackendEndpoint:
    return BackendEndpoint(stub.base_url, role, **kw)


def test_score_round_trip_exact(sample_stack, stub):
    q = ids(sample_stack, "apple recipe")
    body = call_backend(
        _endpoint(stub, "score"), {"query": "apple recipe", "doc_id": "d1"}
    )
    assert body["score"] == sample_stack.search.score(q, "d1")


def test_remote_scorer_drops_specials(sample_stack, stub):
    scorer = RemoteScorer(_endpoint(stub, "score"), sample_stack.vocab)
    q = ids(sample_stack, "apple recipe")
    padded = [PAD_ID] + q
    assert scorer.score(padded, "d1") == sample_stack.search.score(padded, "d1")


def test_predict_returns_exactly_top(sample_stack, stub):
    predictor = RemotePredictor(
        _endpoint(stub, "predict"), sample_stack.vocab,
        sample_stack.corpus["d3"].text,
    )
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    dist = predictor.predict(masked, 0, 3)
    assert len(dist.entries) == 3
    probs = [p for _, p in dist.entries]
    assert probs == sorted(probs, reverse=True)


def test_remote_predictor_matches_builtin(sample_stack, stub):
    d3_ids = sample_stack.vocab.encode(sample_stack.corpus["d3"].tokens)
    builtin = NgramPredictor(sample_stack.lm, d3_ids, lam=0.5)
    remote = RemotePredictor(
        _endpoint(stub, "predict"), sample_stack.vocab,
        sample_stack.corpus["d3"].text,
    )
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    assert remote.predict(masked, 0, 5) == builtin.predict(masked, 0, 5)


def test_remote_embedder_matches_builtin(sample_stack, stub):
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    q = ids(sample_stack, "apple banana")
    assert np.array_equal(
        embedder.vectors_for(q), sample_stack.table.vectors_for(q)
    )


def test_remote_embedder_rejects_ragged_vectors(sample_stack, stub):
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    stub.override = {"vectors": [[1.0, 0.0], [1.0]]}
    try:
        with pytest.raises(ProtocolError, match="same width"):
            embedder.vectors_for(ids(sample_stack, "apple banana"))
    finally:
        stub.override = None


@pytest.mark.parametrize(
    "body, message",
    [
        ({}, "no vectors list"),
        ({"vectors": None}, "no vectors list"),
        ({"vectors": [[1.0, 0.0]]}, "vector count"),
        ({"vectors": [[1.0, 0.0], ["x", 1.0]]}, "same width"),
        ({"vectors": [1.0, 0.0]}, "same width"),
        ({"vectors": [[[1.0]], [[1.0]]]}, "same width"),
    ],
    ids=["missing", "null", "count", "non_number", "flat", "nested"],
)
def test_remote_embedder_bad_body_raises_protocol_error(
    sample_stack, monkeypatch, body, message
):
    # Bypass the transport's schema check so the adapter's own checks run.
    monkeypatch.setattr("queryflip.remote.call_backend", lambda endpoint, request: body)
    endpoint = BackendEndpoint("http://localhost:1", "embed")
    embedder = RemoteEmbedder(endpoint, sample_stack.vocab)
    with pytest.raises(ProtocolError, match=message):
        embedder.vectors_for(ids(sample_stack, "apple banana"))


def test_remote_perplexity_matches_builtin(sample_stack, stub):
    ppl = RemotePerplexity(_endpoint(stub, "perplexity"), sample_stack.vocab)
    q = ids(sample_stack, "banana recipe")
    assert ppl(q) == perplexity(q, sample_stack.lm)


def test_retry_then_succeed(sample_stack, stub):
    stub.fail_next = 1
    body = call_backend(
        _endpoint(stub, "score", retries=2),
        {"query": "apple", "doc_id": "d1"},
    )
    assert "score" in body


def test_timeout_budget_and_elapsed(sample_stack, stub):
    stub.sleep_s = 0.5
    try:
        endpoint = _endpoint(stub, "score", timeout_ms=150, retries=2)
        start = time.perf_counter()
        with pytest.raises(BackendUnavailableError):
            call_backend(endpoint, {"query": "apple", "doc_id": "d1"})
        elapsed = time.perf_counter() - start
    finally:
        stub.sleep_s = 0.0
    budget = 0.150 * 3  # timeout x (retries + 1)
    assert elapsed == pytest.approx(budget, rel=0.2)


def test_schema_violation_names_field(sample_stack, stub):
    stub.override = {"wrong": 1.0}
    try:
        with pytest.raises(ProtocolError, match="score"):
            call_backend(_endpoint(stub, "score"), {"query": "a", "doc_id": "d1"})
    finally:
        stub.override = None


def test_non_finite_number_rejected(sample_stack, stub):
    stub.override = {"ppl": float("inf")}
    try:
        with pytest.raises(ProtocolError, match="non-finite|ppl"):
            call_backend(_endpoint(stub, "perplexity"), {"tokens": ["a"]})
    finally:
        stub.override = None


def test_descending_probs_enforced(sample_stack, stub):
    stub.override = {"tokens": ["apple", "pie"], "probs": [0.1, 0.9]}
    try:
        with pytest.raises(ProtocolError, match="non-increasing"):
            call_backend(
                _endpoint(stub, "predict"),
                {"masked_query": ["[MASK]"], "doc": "x", "position": 0, "top": 2},
            )
    finally:
        stub.override = None


def test_unknown_role_rejected():
    with pytest.raises(ValueError, match="unknown backend role"):
        BackendEndpoint("http://localhost:1", "rank")
