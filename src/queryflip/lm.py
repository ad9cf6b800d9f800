"""N-gram language model: masked-slot word prediction and perplexity.

The model is the statistical backbone of the editor. Prediction for a
masked query slot interpolates the n-gram conditional (left context
within the query) with the add-k-smoothed unigram distribution of the
target document, which is how the target document conditions what gets
written into the slot. Perplexity is exp of the mean negative log
likelihood, natural base.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import exp, log
from typing import Mapping, Sequence

import numpy as np

from .text import FIRST_CONTENT_ID, MASK_ID, PAD_ID, Vocabulary
from .corpus import Corpus

#: Sentence-boundary padding marker used in n-gram contexts. Not a
#: vocabulary id, so it can never collide with a real token.
BOS = -1


@dataclass(frozen=True)
class PredictionDistribution:
    """Top predictions for one masked slot: (token id, probability) pairs.

    Probabilities are strictly positive and non-increasing; equal
    probabilities are ordered by ascending token id. Special tokens are
    never predicted.
    """

    position: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        probs = [p for _, p in self.entries]
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in (0, 1]")
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ValueError("probabilities must be non-increasing")


class NgramLM:
    """Add-k-smoothed n-gram counts over the content vocabulary.

    Contexts are (order-1)-tuples of token ids, BOS-padded at sentence
    starts. Only content tokens are ever predicted; the candidate space
    has ``n_candidates`` tokens with contiguous ids starting at
    FIRST_CONTENT_ID. Probability of a non-candidate target (a special
    token appearing inside a scored sequence) is the add-k floor of an
    unseen token, so perplexity stays defined for PAD-bearing sequences.
    Immutable after training; concurrent reads are safe.
    """

    def __init__(self, order: int, k: float, n_candidates: int) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not k > 0:
            raise ValueError("smoothing constant k must be > 0")
        if n_candidates < 1:
            raise ValueError("candidate vocabulary is empty")
        self.order = order
        self.k = k
        self.n_candidates = n_candidates
        # Defaults serve _observe; every read goes through .get().
        self._counts: defaultdict[tuple[int, ...], Counter[int]] = defaultdict(Counter)
        self._totals: defaultdict[tuple[int, ...], int] = defaultdict(int)
        self._dist_cache: dict[tuple[int, ...], np.ndarray] = {}

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Settings plus one (context, target, count) row per observed n-gram."""
        grams = [
            (context, target, count)
            for context, counter in self._counts.items()
            for target, count in counter.items()
        ]
        contexts, targets, counts = zip(*grams)
        return {
            "lm.order": np.array(self.order),
            "lm.k": np.array(self.k),
            "lm.n_candidates": np.array(self.n_candidates),
            "lm.contexts": np.array(contexts, dtype=np.int32),
            "lm.targets": np.array(targets, dtype=np.int32),
            "lm.counts": np.array(counts, dtype=np.int32),
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "NgramLM":
        lm = cls(
            int(arrays["lm.order"]),
            float(arrays["lm.k"]),
            int(arrays["lm.n_candidates"]),
        )
        for context, target, count in zip(
            arrays["lm.contexts"].tolist(),
            arrays["lm.targets"].tolist(),
            arrays["lm.counts"].tolist(),
        ):
            lm._observe(tuple(context), target, count)
        return lm

    def _observe(self, context: tuple[int, ...], target: int, count: int = 1) -> None:
        self._counts[context][target] += count
        self._totals[context] += count

    def train_sequence(self, token_ids: Sequence[int]) -> None:
        ctx_len = self.order - 1
        padded = [BOS] * ctx_len + list(token_ids)
        for pos, target in enumerate(token_ids):
            if target < FIRST_CONTENT_ID:
                continue  # specials (UNK) are context, never targets
            context = tuple(padded[pos : pos + ctx_len])
            self._observe(context, target)
        self._dist_cache.clear()

    def context_at(self, token_ids: Sequence[int], position: int) -> tuple[int, ...]:
        """BOS-padded (order-1)-token context preceding ``position``."""
        ctx_len = self.order - 1
        left = list(token_ids[:position])
        padded = [BOS] * ctx_len + left
        return tuple(padded[len(padded) - ctx_len :]) if ctx_len else ()

    def prob(self, token_id: int, context: tuple[int, ...]) -> float:
        """P(token | context) with add-k smoothing over the candidates."""
        total = self._totals.get(context, 0)
        count = self._counts.get(context, {}).get(token_id, 0)
        return (count + self.k) / (total + self.k * self.n_candidates)

    def distribution(self, context: tuple[int, ...]) -> np.ndarray:
        """Dense P(. | context) over candidate ids (index = id - first id)."""
        cached = self._dist_cache.get(context)
        if cached is not None:
            return cached
        dist = np.full(self.n_candidates, self.k, dtype=np.float64)
        for token_id, count in self._counts.get(context, {}).items():
            dist[token_id - FIRST_CONTENT_ID] += count
        dist /= self._totals.get(context, 0) + self.k * self.n_candidates
        self._dist_cache[context] = dist
        return dist


def train_ngram(
    corpus: Corpus, vocab: Vocabulary, order: int = 3, k: float = 0.1
) -> NgramLM:
    """Count n-grams over every document, BOS-padded at document starts."""
    if corpus.n_docs == 0:
        raise ValueError("empty corpus")
    lm = NgramLM(order, k, vocab.content_size)
    for doc in corpus.documents():
        lm.train_sequence(vocab.encode(doc.tokens))
    return lm


def perplexity(token_ids: Sequence[int], lm: NgramLM) -> float:
    """exp(-(1/T) sum_t ln P(x_t | context_t)), natural base."""
    if len(token_ids) == 0:
        raise ValueError("empty sequence")
    log_sum = 0.0
    for pos, target in enumerate(token_ids):
        log_sum += log(lm.prob(target, lm.context_at(token_ids, pos)))
    return exp(-log_sum / len(token_ids))


def document_unigram(d_prime_ids: Sequence[int], lm: NgramLM) -> np.ndarray:
    """Add-k-smoothed unigram distribution of a document over candidates."""
    dist = np.full(lm.n_candidates, lm.k, dtype=np.float64)
    total = 0
    for token_id in d_prime_ids:
        if token_id >= FIRST_CONTENT_ID:
            dist[token_id - FIRST_CONTENT_ID] += 1.0
            total += 1
    dist /= total + lm.k * lm.n_candidates
    return dist


def _top_entries(
    probs: np.ndarray, top: int, position: int
) -> PredictionDistribution:
    ids = np.arange(FIRST_CONTENT_ID, FIRST_CONTENT_ID + probs.shape[0])
    # Primary key: descending probability; secondary: ascending token id.
    order = np.lexsort((ids, -probs))[:top]
    entries = tuple((int(ids[i]), float(probs[i])) for i in order)
    return PredictionDistribution(position, entries)


def predict_masked(
    masked_ids: Sequence[int],
    d_prime_ids: Sequence[int],
    position: int,
    top: int,
    lm: NgramLM,
    lam: float = 0.5,
) -> PredictionDistribution:
    """Predict the token for one masked slot of a query.

    The returned distribution is
    ``(1 - lam) * P_ngram(. | left context) + lam * P_doc(.)`` where
    P_doc is the smoothed unigram distribution of the target document.
    A slot with no real token to its left (or with an unfilled/PAD token
    inside the context window) has no usable n-gram context and falls
    back to P_doc alone. Ties break by ascending token id.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    if top < 1:
        raise ValueError("top must be >= 1")
    if position < 0 or position >= len(masked_ids):
        raise ValueError(f"position {position} out of range")
    if masked_ids[position] != MASK_ID:
        raise ValueError(f"position {position} is not masked")

    p_doc = document_unigram(d_prime_ids, lm)
    context = lm.context_at(masked_ids, position)
    window = masked_ids[max(0, position - (lm.order - 1)) : position]
    if position == 0 or any(t in (MASK_ID, PAD_ID) for t in window):
        probs = p_doc
    else:
        probs = (1.0 - lam) * lm.distribution(context) + lam * p_doc
    return _top_entries(probs, top, position)


class NgramPredictor:
    """Word-prediction backend binding an n-gram model to one document."""

    def __init__(self, lm: NgramLM, d_prime_ids: Sequence[int], lam: float = 0.5):
        self.lm = lm
        self.d_prime_ids = tuple(d_prime_ids)
        self.lam = lam

    def predict(
        self, masked_ids: Sequence[int], position: int, top: int
    ) -> PredictionDistribution:
        return predict_masked(
            masked_ids, self.d_prime_ids, position, top, self.lm, self.lam
        )
