"""HTTP client for external model backends.

Any of the four statistical backends can be swapped for a remote model
that speaks a small JSON-over-POST protocol, one endpoint path per role:

    /score       {query, doc_id}                          -> {score}
    /embed       {tokens: [..]}                           -> {vectors: [[..]]}
    /predict     {masked_query: [..], doc, position, top} -> {tokens, probs}
    /perplexity  {tokens: [..]}                           -> {ppl}

Requests carry ``proto_version`` (currently 1). The client validates
responses rather than trusting backends: shapes, orderings, finiteness
and unit norms are checked, and transient failures are retried with
exponential backoff. All requests are read-only, so retries are safe.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
import requests

from .lm import PredictionDistribution
from .text import MASK_ID, SPECIAL_IDS, Vocabulary

logger = logging.getLogger(__name__)

PROTO_VERSION = 1

ROLES = ("score", "embed", "predict", "perplexity")

#: Norm slack before the client renormalizes an embedding vector. Within
#: tolerance the vector passes through untouched, so a well-behaved
#: backend reproduces in-process results bit for bit.
_NORM_TOL = 1e-6

_BACKOFF_BASE_S = 0.01


class BackendUnavailableError(RuntimeError):
    """The backend did not produce a usable response within the retry budget."""


class ProtocolError(RuntimeError):
    """The backend answered, but the payload violates the wire schema."""


@dataclass(frozen=True)
class BackendEndpoint:
    """Where one backend role lives and how patiently to call it."""

    base_url: str
    role: str
    timeout_ms: int = 5000
    retries: int = 2
    token: str | None = None

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown backend role: {self.role}")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    @property
    def url(self) -> str:
        return self.base_url.rstrip("/") + "/" + self.role

    @classmethod
    def from_dict(cls, role: str, raw: dict[str, Any]) -> "BackendEndpoint":
        return cls(
            base_url=raw["url"],
            role=role,
            timeout_ms=int(raw.get("timeout_ms", 5000)),
            retries=int(raw.get("retries", 2)),
            token=raw.get("token"),
        )


def _require(payload: dict[str, Any], fld: str, kind: type) -> Any:
    if fld not in payload:
        raise ProtocolError(f"response missing field: {fld}")
    value = payload[fld]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ProtocolError(f"response field not a number: {fld}")
        value = float(value)
        if not math.isfinite(value):
            raise ProtocolError(f"non-finite number in field: {fld}")
    elif not isinstance(value, kind):
        raise ProtocolError(f"response field has wrong type: {fld}")
    return value


def _check_finite(values: Sequence[float], fld: str) -> None:
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ProtocolError(f"non-finite number in field: {fld}")


def call_backend(endpoint: BackendEndpoint, request: dict[str, Any]) -> dict[str, Any]:
    """POST a role request and return the schema-validated response body.

    Connection errors, timeouts and 5xx responses are retried up to the
    endpoint's budget with exponential backoff; a schema violation fails
    immediately (retrying cannot fix a broken backend).
    """
    payload = {"proto_version": PROTO_VERSION, **request}
    headers = {"Content-Type": "application/json"}
    if endpoint.token:
        headers["Authorization"] = f"Bearer {endpoint.token}"
    timeout_s = endpoint.timeout_ms / 1000.0
    last_error: Exception | None = None
    for attempt in range(endpoint.retries + 1):
        if attempt:
            time.sleep(_BACKOFF_BASE_S * (2 ** (attempt - 1)))
        try:
            response = requests.post(
                endpoint.url, json=payload, headers=headers, timeout=timeout_s
            )
        except requests.RequestException as exc:
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
        return _validate(endpoint.role, body)
    raise BackendUnavailableError(
        f"backend {endpoint.url} unavailable after {endpoint.retries + 1} attempts: "
        f"{last_error}"
    )


def _validate(role: str, body: dict[str, Any]) -> dict[str, Any]:
    if role == "score":
        return {"score": _require(body, "score", float)}
    if role == "perplexity":
        ppl = _require(body, "ppl", float)
        if ppl <= 0:
            raise ProtocolError("response field out of range: ppl")
        return {"ppl": ppl}
    if role == "embed":
        vectors = _require(body, "vectors", list)
        for vec in vectors:
            if not isinstance(vec, list):
                raise ProtocolError("response field has wrong type: vectors")
            _check_finite(vec, "vectors")
        return {"vectors": vectors}
    if role == "predict":
        tokens = _require(body, "tokens", list)
        probs = _require(body, "probs", list)
        _check_finite(probs, "probs")
        if len(tokens) != len(probs):
            raise ProtocolError("tokens and probs lengths differ")
        if any(not isinstance(t, str) for t in tokens):
            raise ProtocolError("response field has wrong type: tokens")
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise ProtocolError("response field out of range: probs")
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ProtocolError("probs must be non-increasing")
        return {"tokens": tokens, "probs": probs}
    raise ValueError(f"unknown backend role: {role}")


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
        surfaces = [
            self.vocab.surface(t) for t in query_ids if t not in SPECIAL_IDS
        ]
        body = call_backend(
            self.endpoint, {"query": " ".join(surfaces), "doc_id": doc_id}
        )
        return body["score"]


class RemoteEmbedder:
    """Token-vector provider backed by an /embed endpoint."""

    def __init__(self, endpoint: BackendEndpoint, vocab: Vocabulary) -> None:
        self.endpoint = endpoint
        self.vocab = vocab

    def vectors_for(self, token_ids: Sequence[int]) -> np.ndarray:
        surfaces = self.vocab.decode(token_ids)
        body = call_backend(self.endpoint, {"tokens": surfaces})
        vectors = body.get("vectors")
        if not isinstance(vectors, list):
            raise ProtocolError("embed response has no vectors list")
        if len(vectors) != len(surfaces):
            raise ProtocolError("vector count does not match token count")
        try:
            out = np.asarray(vectors, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ProtocolError("vectors must all have the same width") from exc
        if out.ndim != 2:
            raise ProtocolError("vectors must all have the same width")
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms == 0.0):
            raise ProtocolError("zero vector in embed response")
        off = np.abs(norms - 1.0) > _NORM_TOL
        if np.any(off):
            out[off] /= norms[off, None]
        return out


class RemotePredictor:
    """Masked-slot word prediction backed by a /predict endpoint."""

    def __init__(
        self, endpoint: BackendEndpoint, vocab: Vocabulary, doc_text: str
    ) -> None:
        self.endpoint = endpoint
        self.vocab = vocab
        self.doc_text = doc_text

    def predict(
        self, masked_ids: Sequence[int], position: int, top: int
    ) -> PredictionDistribution:
        if masked_ids[position] != MASK_ID:
            raise ValueError(f"position {position} is not masked")
        body = call_backend(
            self.endpoint,
            {
                "masked_query": self.vocab.decode(masked_ids),
                "doc": self.doc_text,
                "position": position,
                "top": top,
            },
        )
        if len(body["tokens"]) > top:
            raise ProtocolError(f"more than {top} predictions returned")
        entries = tuple(
            (self.vocab.id(surface), float(prob))
            for surface, prob in zip(body["tokens"], body["probs"])
        )
        return PredictionDistribution(position, entries)


class RemotePerplexity:
    """Sequence perplexity backed by a /perplexity endpoint."""

    def __init__(self, endpoint: BackendEndpoint, vocab: Vocabulary) -> None:
        self.endpoint = endpoint
        self.vocab = vocab

    def __call__(self, token_ids: Sequence[int]) -> float:
        body = call_backend(
            self.endpoint, {"tokens": self.vocab.decode(token_ids)}
        )
        return body["ppl"]
