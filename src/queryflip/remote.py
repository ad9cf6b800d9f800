"""HTTP client for external model backends.

Any of the four statistical backends can be swapped for a remote model
that speaks a small JSON-over-POST protocol, one endpoint path per role:

    /score       {query, doc_id}                          -> {score}
    /embed       {tokens: [..]}                           -> {vectors: [[..]]}
    /predict     {masked_query: [..], doc, position, top} -> {tokens, probs}
    /perplexity  {tokens: [..]}                           -> {ppl}

Requests carry ``proto_version`` (currently 1). ``call_backend`` is a
transport that knows no role: it retries connection errors, timeouts and
5xx answers with exponential backoff (requests are read-only, so retries
are safe) and returns any JSON object of this version. Each adapter checks
its role's answer once, ``/predict``'s through ``PredictionDistribution``; a
bad answer is a ``ProtocolError`` naming the field or the broken rule.

The transport is ``requests``, imported by the first remote call (or the
first read of ``remote.requests``), so a run whose roles are all local
never loads it. ``call_backend`` posts through whatever this module's
``requests`` attribute holds at the call, so a stand-in bound there sees
every attempt.
"""

from __future__ import annotations

import logging
import math
import sys
import time
from typing import Any, Sequence

import numpy as np

from .config import ROLES, BackendEndpoint  # noqa: F401  (ROLES: re-exported)
from .lm import PredictionDistribution
from .text import SPECIAL_IDS, Vocabulary

logger = logging.getLogger(__name__)

PROTO_VERSION = 1

#: Norm slack before the client renormalizes an embedding vector. Within
#: tolerance the vector passes through untouched, so a well-behaved
#: backend reproduces in-process results bit for bit.
_NORM_TOL = 1e-6

_BACKOFF_BASE_S = 0.01


class BackendUnavailableError(RuntimeError):
    """The backend did not produce a usable response within the retry budget."""


class ProtocolError(RuntimeError):
    """The backend answered, but the payload violates the wire schema."""


def __getattr__(name: str) -> Any:
    """Import ``requests`` on the first read of ``remote.requests`` (PEP 562)
    and bind it, so later reads find it without this hook."""
    if name != "requests":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import requests

    globals()["requests"] = requests
    return requests


def _require(body: dict[str, Any], fld: str, kind: type) -> Any:
    """``body[fld]``: a finite number if ``kind`` is float, else a ``kind``."""
    if fld not in body:
        raise ProtocolError(f"response missing field: {fld}")
    return _number(body[fld], fld) if kind is float else _typed(body[fld], fld, kind)


def _typed(value: Any, fld: str, kind: type) -> Any:
    if not isinstance(value, kind):
        raise ProtocolError(f"response field has wrong type: {fld}")
    return value


def _number(value: Any, fld: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ProtocolError(f"response field not a number: {fld}")
    if not math.isfinite(value):
        raise ProtocolError(f"non-finite number in field: {fld}")
    return float(value)


def call_backend(endpoint: BackendEndpoint, request: dict[str, Any]) -> dict[str, Any]:
    """POST a role request and return the response body, a JSON object.

    Connection errors, timeouts and 5xx responses are retried up to the
    endpoint's budget with exponential backoff, each wait at most the
    endpoint's timeout; anything else fails at once (retrying cannot fix
    a broken backend). Callers check the fields.
    """
    payload = {"proto_version": PROTO_VERSION, **request}
    headers = {"Content-Type": "application/json"}
    if endpoint.token:
        headers["Authorization"] = f"Bearer {endpoint.token}"
    timeout_s = endpoint.timeout_ms / 1000.0
    transport = sys.modules[__name__].requests  # the module or a stand-in
    last_error: Exception | None = None
    wait_s = _BACKOFF_BASE_S
    for attempt in range(endpoint.retries + 1):
        if attempt:
            time.sleep(min(wait_s, timeout_s))
            wait_s *= 2  # a float: past its range it is inf, never an error
        try:
            response = transport.post(
                endpoint.url, json=payload, headers=headers, timeout=timeout_s
            )
        except transport.RequestException as exc:
            last_error = exc
            logger.debug("backend %s attempt %d failed: %s", endpoint.url, attempt, exc)
            continue
        if response.status_code >= 500:
            last_error = RuntimeError(f"server error {response.status_code}")
            continue
        if response.status_code != 200:
            raise ProtocolError(
                f"backend {endpoint.url} returned status {response.status_code}"
            )
        try:
            body = response.json()
        except ValueError as exc:
            raise ProtocolError(f"backend {endpoint.url} sent invalid JSON") from exc
        if not isinstance(body, dict):
            raise ProtocolError("response body is not an object")
        version = body.get("proto_version", PROTO_VERSION)
        if version != PROTO_VERSION:
            raise ProtocolError(f"unsupported proto_version: {version}")
        return body
    raise BackendUnavailableError(
        f"backend {endpoint.url} unavailable after {endpoint.retries + 1} attempts: "
        f"{last_error}"
    )


# ---------------------------------------------------------------------------
# Drop-in adapters matching the in-process component call shapes


class RemoteScorer:
    """Relevance scorer backed by a /score endpoint.

    Special tokens are dropped before the query is flattened to text;
    they carry no scoreable content, which matches the in-process
    scorer's treatment exactly.
    """

    def __init__(self, endpoint: BackendEndpoint, vocab: Vocabulary) -> None:
        self.endpoint = endpoint
        self.vocab = vocab

    def score(self, query_ids: Sequence[int], doc_id: str) -> float:
        text = self.vocab.text(t for t in query_ids if t not in SPECIAL_IDS)
        body = call_backend(self.endpoint, {"query": text, "doc_id": doc_id})
        return _require(body, "score", float)


class RemoteEmbedder:
    """Token-vector provider backed by an /embed endpoint.

    The first answer fixes the width, since the masker and BERTScore
    multiply the vectors of two calls. Eval threads share one embedder:
    one atomic ``dict.setdefault`` keeps the first width, with no lock.
    """

    def __init__(self, endpoint: BackendEndpoint, vocab: Vocabulary) -> None:
        self.endpoint = endpoint
        self.vocab = vocab
        self._first: dict[str, int] = {}  # the first answer's "width"

    def vectors_for(self, token_ids: Sequence[int]) -> np.ndarray:
        surfaces = self.vocab.decode(token_ids)
        if not surfaces:
            raise ValueError("no tokens to embed")
        body = call_backend(self.endpoint, {"tokens": surfaces})
        vectors = _require(body, "vectors", list)
        if len(vectors) != len(surfaces):
            raise ProtocolError("vector count does not match token count")
        rows = [
            [_number(x, "vectors") for x in _typed(vec, "vectors", list)]
            for vec in vectors
        ]
        width = self._first.setdefault("width", len(rows[0]))
        if any(len(row) != width for row in rows):
            raise ProtocolError(f"vectors must all have the same width ({width})")
        out = np.asarray(rows, dtype=np.float64)
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms == 0.0):
            raise ProtocolError("zero vector in embed response")
        off = np.abs(norms - 1.0) > _NORM_TOL
        if np.any(off):
            out[off] /= norms[off, None]
        return out


class RemotePredictor:
    """Masked-slot word prediction backed by a /predict endpoint.

    Every ``predict`` is one request: a remote model may read the query to
    the right of the slot, so no answer is reused for another query.
    """

    def __init__(
        self, endpoint: BackendEndpoint, vocab: Vocabulary, doc_text: str
    ) -> None:
        self.endpoint = endpoint
        self.vocab = vocab
        self.doc_text = doc_text

    def predict(
        self, masked_ids: Sequence[int], position: int, top: int
    ) -> PredictionDistribution:
        body = call_backend(
            self.endpoint,
            {
                "masked_query": self.vocab.decode(masked_ids),
                "doc": self.doc_text,
                "position": position,
                "top": top,
            },
        )
        tokens = [_typed(t, "tokens", str) for t in _require(body, "tokens", list)]
        probs = [_number(p, "probs") for p in _require(body, "probs", list)]
        if len(tokens) != len(probs):
            raise ProtocolError("tokens and probs lengths differ")
        if len(tokens) > top:
            raise ProtocolError(f"more than {top} predictions returned")
        ids = [self.vocab.id(surface) for surface in tokens]
        for surface, token_id in zip(tokens, ids):
            if token_id in SPECIAL_IDS:  # out-of-vocabulary surfaces map to UNK
                raise ProtocolError(f"predicted a non-content token: {surface!r}")
        try:  # the type checks the rest: empty, range, order, repeats
            return PredictionDistribution(tuple(zip(ids, probs)))
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc


class RemotePerplexity:
    """Sequence perplexity backed by a /perplexity endpoint."""

    def __init__(self, endpoint: BackendEndpoint, vocab: Vocabulary) -> None:
        self.endpoint = endpoint
        self.vocab = vocab

    def __call__(self, token_ids: Sequence[int]) -> float:
        body = call_backend(
            self.endpoint, {"tokens": self.vocab.decode(token_ids)}
        )
        ppl = _require(body, "ppl", float)
        if ppl <= 0:
            raise ProtocolError("response field out of range: ppl")
        return ppl
