"""Per-token importance scoring for queries: which tokens to mask first.

Two scorers are provided. The max-similarity scorer pools each query
token's dot products against all document token vectors; the occlusion
scorer measures the relevance drop when a token is removed and needs
nothing but the (blackbox) search model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Document


@dataclass(frozen=True)
class ImportanceScores:
    """Scores r_1..r_l for one query plus the masking order they induce.

    ``order`` is the permutation of token positions sorted by descending
    score; ties resolve to the leftmost position so traces are
    reproducible.
    """

    scores: tuple[float, ...]
    order: tuple[int, ...]

    @classmethod
    def from_scores(cls, scores: Sequence[float]) -> "ImportanceScores":
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        return cls(tuple(float(s) for s in scores), tuple(order))

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.scores))):
            raise ValueError("order must be a permutation of token positions")

    def __len__(self) -> int:
        return len(self.scores)


def maxsim_importance(
    query_ids: Sequence[int], doc_ids: Sequence[int], embedder
) -> ImportanceScores:
    """r_i = max over document tokens j of v_q(i) . v_d(j).

    With unit-norm vectors each score lies in [-1, 1]. The max-pool is
    order-free in the document, and adding document tokens can only raise
    scores. Scores are rounded to 12 decimals, so every query token that
    occurs in the document scores exactly 1.0 instead of 1 +- 1 ulp, and
    such ties resolve leftmost rather than by float noise. ``embedder``
    must provide ``vectors_for(ids) -> ndarray``.
    """
    if len(query_ids) == 0:
        raise ValueError("empty query")
    if len(doc_ids) == 0:
        raise ValueError("empty document")
    q = embedder.vectors_for(query_ids)
    d = embedder.vectors_for(doc_ids)
    sims = q @ d.T
    return ImportanceScores.from_scores(np.round(np.max(sims, axis=1), 12).tolist())


def occlusion_importance(
    query_ids: Sequence[int], doc: Document, scorer
) -> ImportanceScores:
    """r_i = rel(q, d) - rel(q without token i, d).

    Purely blackbox: only needs ``scorer.score(ids, doc_id)``. Under an
    additive scorer like BM25, tokens that do not match the document get
    exactly 0.
    """
    if len(query_ids) == 0:
        raise ValueError("empty query")
    base = scorer.score(query_ids, doc.id)
    scores = []
    for i in range(len(query_ids)):
        reduced = list(query_ids[:i]) + list(query_ids[i + 1 :])
        scores.append(base - scorer.score(reduced, doc.id))
    return ImportanceScores.from_scores(scores)
