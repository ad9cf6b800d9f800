from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
import requests

from queryflip import remote
from queryflip.lm import NgramPredictor, perplexity
from queryflip.masker import maxsim_importance
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


@contextmanager
def _answering(stub, body):
    """Make the stub answer every request with ``body``."""
    stub.override = body
    try:
        yield
    finally:
        stub.override = None


def _predictor(stack, stub) -> RemotePredictor:
    return RemotePredictor(
        _endpoint(stub, "predict"), stack.vocab, stack.corpus["d3"].text
    )


class _Answer:
    """A stand-in for ``requests.Response``: a status and a body text."""

    def __init__(self, status_code=200, body=None, text=None):
        self.status_code = status_code
        self._text = json.dumps(body) if text is None else text

    def json(self):
        return json.loads(self._text)


def _fake_post(monkeypatch, *answers):
    """Replace ``requests.post`` with one that gives ``answers`` in turn
    (the last one from then on); returns the headers of every request."""
    sent = []

    def post(url, json, headers, timeout):
        sent.append(headers)
        return answers[min(len(sent), len(answers)) - 1]

    monkeypatch.setattr("queryflip.remote.requests.post", post)
    return sent


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
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    dist = _predictor(sample_stack, stub).predict(masked, 0, 3)
    assert len(dist.entries) == 3
    probs = [p for _, p in dist.entries]
    assert probs == sorted(probs, reverse=True)


def test_remote_predictor_matches_builtin(sample_stack, stub):
    d3_ids = sample_stack.corpus["d3"].ids
    builtin = NgramPredictor(sample_stack.lm, d3_ids, lam=0.5)
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    remote = _predictor(sample_stack, stub).predict(masked, 0, 5)
    assert remote == builtin.predict(masked, 0, 5)


@pytest.mark.parametrize(
    "tokens, message",
    [
        (["apple", "[MASK]"], r"non-content token: '\[MASK\]'"),
        (["[PAD]", "apple"], r"non-content token: '\[PAD\]'"),
        (["apple", "[UNK]"], r"non-content token: '\[UNK\]'"),
        (["apple", "xylophone"], "non-content token: 'xylophone'"),
        (["apple", "apple"], "repeat"),
    ],
    ids=["mask", "pad", "unk", "out_of_vocabulary", "repeat"],
)
def test_remote_predictor_rejects_non_content_and_repeats(
    sample_stack, stub, tokens, message
):
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    with _answering(stub, {"tokens": tokens, "probs": [0.5, 0.25]}):
        with pytest.raises(ProtocolError, match=message):
            _predictor(sample_stack, stub).predict(masked, 0, 2)


@pytest.mark.parametrize(
    "body, message",
    [
        ({"probs": [0.5]}, "missing field: tokens"),
        ({"tokens": "apple", "probs": [0.5]}, "wrong type: tokens"),
        ({"tokens": ["apple", 3], "probs": [0.5, 0.25]}, "wrong type: tokens"),
        ({"tokens": ["apple"], "probs": 0.5}, "wrong type: probs"),
        ({"tokens": ["apple", "pie"], "probs": [0.5, "x"]}, "not a number: probs"),
        ({"tokens": ["apple", "pie"], "probs": [0.5, float("nan")]},
         "non-finite number in field: probs"),
        ({"tokens": ["apple"], "probs": [0.5, 0.25]}, "lengths differ"),
        # PredictionDistribution's own messages, passed through as ProtocolError.
        ({"tokens": ["apple", "pie"], "probs": [1.5, 0.25]}, r"must lie in \(0, 1\]"),
        ({"tokens": ["apple", "pie"], "probs": [0.5, 0.0]}, r"must lie in \(0, 1\]"),
        ({"tokens": ["apple", "pie", "bread"], "probs": [0.5, 0.25, 0.125]},
         "more than 2 predictions"),
        ({"tokens": [], "probs": []}, "empty prediction"),
    ],
    ids=["missing", "tokens_not_list", "token_not_string", "probs_not_list",
         "prob_not_number", "prob_nan", "lengths", "prob_above_one",
         "prob_zero", "more_than_top", "empty"],
)
def test_remote_predictor_bad_body_raises_protocol_error(
    sample_stack, stub, body, message
):
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    with _answering(stub, body):
        with pytest.raises(ProtocolError, match=message):
            _predictor(sample_stack, stub).predict(masked, 0, 2)


def test_remote_embedder_matches_builtin(sample_stack, stub):
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    q = ids(sample_stack, "apple banana")
    assert np.array_equal(
        embedder.vectors_for(q), sample_stack.table.vectors_for(q)
    )


def test_remote_embedder_rejects_ragged_vectors(sample_stack, stub):
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    with _answering(stub, {"vectors": [[1.0, 0.0], [1.0]]}):
        with pytest.raises(ProtocolError, match="same width"):
            embedder.vectors_for(ids(sample_stack, "apple banana"))


@pytest.mark.parametrize(
    "body, message",
    [
        ({}, "missing field: vectors"),
        ({"vectors": None}, "wrong type: vectors"),
        ({"vectors": [[1.0, 0.0]]}, "vector count"),
        ({"vectors": [[1.0, 0.0], ["x", 1.0]]}, "not a number: vectors"),
        ({"vectors": [[1.0, 0.0], [True, 0.0]]}, "not a number: vectors"),
        ({"vectors": [[1.0, 0.0], [float("inf"), 0.0]]},
         "non-finite number in field: vectors"),
        ({"vectors": [1.0, 0.0]}, "wrong type: vectors"),
        ({"vectors": [[[1.0]], [[1.0]]]}, "not a number: vectors"),
        ({"vectors": [[1.0, 0.0], [0.0, 0.0]]}, "zero vector"),
    ],
    ids=["missing", "null", "count", "non_number", "bool", "infinite", "flat",
         "nested", "zero"],
)
def test_remote_embedder_bad_body_raises_protocol_error(
    sample_stack, stub, body, message
):
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    with _answering(stub, body):
        with pytest.raises(ProtocolError, match=message):
            embedder.vectors_for(ids(sample_stack, "apple banana"))


def test_remote_embedder_keeps_first_width(sample_stack, stub):
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    with _answering(stub, {"vectors": [[1.0, 0.0], [0.0, 1.0]]}):
        embedder.vectors_for(ids(sample_stack, "apple banana"))
    with _answering(stub, {"vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}):
        with pytest.raises(ProtocolError, match=r"same width \(2\)"):
            embedder.vectors_for(ids(sample_stack, "apple banana"))


@pytest.mark.parametrize("calls", [2, 4])
def test_remote_embedder_first_width_is_kept_once_across_threads(
    sample_stack, monkeypatch, calls
):
    # Every answer, each of its own width, arrives before any call checks
    # its width: whichever call keeps its width first, the others must fail
    # against it.
    widths = list(range(3, 3 + calls))
    answered = threading.Barrier(calls)

    def call_backend(endpoint, payload):
        width = widths.pop()
        answered.wait(timeout=10)
        return {"vectors": [[1.0] + [0.0] * (width - 1)] * len(payload["tokens"])}

    monkeypatch.setattr(remote, "call_backend", call_backend)
    embedder = RemoteEmbedder(
        BackendEndpoint("http://localhost:1", "embed"), sample_stack.vocab
    )
    query = ids(sample_stack, "apple banana")
    start = threading.Barrier(calls)

    def embed(_):
        start.wait(timeout=10)
        try:
            return embedder.vectors_for(query).shape[1]
        except ProtocolError as exc:
            return exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(calls) as pool:
            outcomes = list(pool.map(embed, range(calls)))
    finally:
        sys.setswitchinterval(interval)
    [kept] = [o for o in outcomes if not isinstance(o, ProtocolError)]
    errors = [o for o in outcomes if isinstance(o, ProtocolError)]
    assert len(errors) == calls - 1
    assert all(f"same width ({kept})" in str(e) for e in errors)


def test_maxsim_over_a_width_changing_backend_raises_protocol_error(
    sample_stack, monkeypatch
):
    # The query and the document are embedded in two calls; a second
    # answer of another width must not reach the matrix product.
    _fake_post(
        monkeypatch,
        _Answer(body={"vectors": [[1.0, 0.0], [0.0, 1.0]]}),
        _Answer(body={"vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}),
    )
    embedder = RemoteEmbedder(
        BackendEndpoint("http://localhost:1", "embed"), sample_stack.vocab
    )
    query, doc = ids(sample_stack, "apple banana"), ids(sample_stack, "apple pie")
    with pytest.raises(ProtocolError, match="same width"):
        maxsim_importance(query, doc, embedder)


def test_remote_embedder_renormalises_only_beyond_tolerance(sample_stack, stub):
    near_unit = [0.6, 0.8 + 5e-7]  # norm within 1e-6 of 1
    embedder = RemoteEmbedder(_endpoint(stub, "embed"), sample_stack.vocab)
    with _answering(stub, {"vectors": [[3.0, 4.0], near_unit]}):
        out = embedder.vectors_for(ids(sample_stack, "apple banana"))
    assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-12)
    assert out[1].tolist() == near_unit


def test_remote_embedder_rejects_empty_token_list(sample_stack):
    endpoint = BackendEndpoint("http://localhost:1", "embed")
    with pytest.raises(ValueError, match="no tokens"):
        RemoteEmbedder(endpoint, sample_stack.vocab).vectors_for([])


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
    scorer = RemoteScorer(_endpoint(stub, "score"), sample_stack.vocab)
    with _answering(stub, {"wrong": 1.0}):
        with pytest.raises(ProtocolError, match="score"):
            scorer.score(ids(sample_stack, "apple"), "d1")


@pytest.mark.parametrize(
    "body, message",
    [({"score": "high"}, "not a number: score"), ({"score": True}, "not a number: score")],
    ids=["string", "bool"],
)
def test_remote_scorer_rejects_non_number(sample_stack, stub, body, message):
    scorer = RemoteScorer(_endpoint(stub, "score"), sample_stack.vocab)
    with _answering(stub, body):
        with pytest.raises(ProtocolError, match=message):
            scorer.score(ids(sample_stack, "apple"), "d1")


def test_non_finite_number_rejected(sample_stack, stub):
    ppl = RemotePerplexity(_endpoint(stub, "perplexity"), sample_stack.vocab)
    with _answering(stub, {"ppl": float("inf")}):
        with pytest.raises(ProtocolError, match="non-finite|ppl"):
            ppl(ids(sample_stack, "apple"))


@pytest.mark.parametrize("value", [0, -1.5])
def test_non_positive_perplexity_rejected(sample_stack, stub, value):
    ppl = RemotePerplexity(_endpoint(stub, "perplexity"), sample_stack.vocab)
    with _answering(stub, {"ppl": value}):
        with pytest.raises(ProtocolError, match="out of range: ppl"):
            ppl(ids(sample_stack, "apple"))


def test_descending_probs_enforced(sample_stack, stub):
    masked = tuple([MASK_ID] + ids(sample_stack, "recipe"))
    with _answering(stub, {"tokens": ["apple", "pie"], "probs": [0.1, 0.9]}):
        with pytest.raises(ProtocolError, match="non-increasing"):
            _predictor(sample_stack, stub).predict(masked, 0, 2)


@pytest.mark.parametrize(
    "answer, message",
    [
        (_Answer(404, {"score": 1.0}), "returned status 404"),
        (_Answer(text="{not json"), "invalid JSON"),
        (_Answer(body=[1.0]), "response body is not an object"),
        (_Answer(body={"proto_version": 2, "score": 1.0}), "unsupported proto_version: 2"),
    ],
    ids=["status_4xx", "invalid_json", "not_object", "proto_version"],
)
def test_transport_failure_is_not_retried(monkeypatch, answer, message):
    sent = _fake_post(monkeypatch, answer)
    endpoint = BackendEndpoint("http://localhost:1", "score", retries=2)
    with pytest.raises(ProtocolError, match=message):
        call_backend(endpoint, {"query": "a", "doc_id": "d1"})
    assert len(sent) == 1


def test_retry_waits_are_capped_at_the_timeout(monkeypatch):
    # Against a dead backend, the doubling waits stop growing at the
    # endpoint's timeout: 64 retries wait minutes, not 2**63 x 10 ms.
    def post(url, json, headers, timeout):
        sent.append(timeout)
        raise requests.ConnectionError("refused")

    sent, waits = [], []
    monkeypatch.setattr("queryflip.remote.requests.post", post)
    monkeypatch.setattr("queryflip.remote.time.sleep", waits.append)
    endpoint = BackendEndpoint("http://localhost:1", "score", timeout_ms=300, retries=64)
    with pytest.raises(BackendUnavailableError, match="after 65 attempts"):
        call_backend(endpoint, {"query": "a", "doc_id": "d1"})
    assert len(sent) == 65
    assert len(waits) == 64
    assert waits[:3] == [0.01, 0.02, 0.04]
    assert max(waits) == waits[-1] == 0.3


def test_transport_returns_any_object_and_sends_token(monkeypatch):
    sent = _fake_post(monkeypatch, _Answer(body={"anything": [1]}))
    body = call_backend(
        BackendEndpoint("http://localhost:1", "score", token="s3cret"), {}
    )
    assert body == {"anything": [1]}
    call_backend(BackendEndpoint("http://localhost:1", "score"), {})
    assert sent[0]["Authorization"] == "Bearer s3cret"
    assert "Authorization" not in sent[1]


def test_unknown_role_rejected():
    with pytest.raises(ValueError, match="unknown backend role"):
        BackendEndpoint("http://localhost:1", "rank")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((5, "score"), {}, "url must be a string"),
        (("localhost:8080", "score"), {}, "url must start with http:// or https://"),
        (("http://", "score"), {}, "url must name a host"),
        (("http://:8080", "score"), {}, "url must name a host"),
        (("http://x", "score"), {"timeout_ms": "5"}, "timeout_ms must be an integer"),
        (("http://x", "score"), {"timeout_ms": 2.5}, "timeout_ms must be an integer"),
        (("http://x", "score"), {"retries": True}, "retries must be an integer"),
        (("http://x", "score"), {"token": 7}, "token must be a string"),
        (("http://x", "score"), {"timeout_ms": 0}, "timeout_ms must be > 0"),
        (("http://x", "score"), {"retries": -1}, "retries must be >= 0"),
    ],
    ids=["url", "url_scheme", "url_no_host", "url_port_only", "timeout_str",
         "timeout_float", "retries_bool", "token", "timeout_0", "retries_neg"],
)
def test_endpoint_constructor_checks_every_field(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        BackendEndpoint(*args, **kwargs)


def test_endpoint_url_scheme_ignores_case():
    # requests picks its transport adapter by a case-blind prefix match.
    for url in ("HTTP://x", "Https://x:8080/"):
        assert BackendEndpoint(url, "score").url.endswith("/score")


def test_endpoint_from_dict_keeps_the_constructor_defaults():
    endpoint = BackendEndpoint.from_dict("score", {"url": "http://x"})
    assert endpoint == BackendEndpoint("http://x", "score")
