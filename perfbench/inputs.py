"""Seeded Zipf corpus and query generator for the benchmark, no downloads.

The synthetic workloads reuse ``tests/synthdata.py``; this module makes
the large-vocabulary corpus. Word ``w``
belongs to topic ``w mod n_topics``; a document draws most of its words
from its topic's own words by a Zipf law over their order inside the
topic, and the rest from a Zipf law over all words. Summed over topics,
word frequency still falls off as a Zipf law of global rank, while
queries sampled from one topic rank that topic's documents first with
scores that decay down the list.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _ONSETS for v in _VOWELS]


def word(index: int) -> str:
    """A distinct three-syllable, letters-only surface for each index."""
    n = len(_SYLLABLES)
    if not 0 <= index < n**3:
        raise ValueError(f"word index {index} out of range")
    return "".join(
        _SYLLABLES[(index // n**k) % n] for k in (2, 1, 0)
    )


class ZipfCorpus:
    """Topic-mixture Zipf documents and topic-focused queries."""

    def __init__(
        self,
        n_words: int,
        n_docs: int,
        seed: int,
        s: float = 1.0,
        n_topics: int = 40,
        topic_share: float = 0.7,
        doc_words: tuple[int, int] = (24, 48),
    ) -> None:
        if n_docs < 1 or not 1 <= n_topics <= n_words:
            raise ValueError("need a document and 1..n_words topics")
        self.n_words = n_words
        self.n_docs = n_docs
        self.n_topics = n_topics
        self.topic_share = topic_share
        self.doc_words = doc_words
        self._rng = random.Random(seed)
        self._weights = [1.0 / (r + 1) ** s for r in range(n_words)]
        self._cum = list(accumulate(self._weights))
        self._used: set[int] = set()

    def _topic_words(self, topic: int, k: int) -> list[int]:
        """``k`` words of ``topic``, Zipf over their order inside the topic."""
        size = len(range(topic, self.n_words, self.n_topics))
        ranks = self._rng.choices(range(size), cum_weights=self._cum[:size], k=k)
        return [topic + r * self.n_topics for r in ranks]

    def corpus_lines(self) -> list[str]:
        """JSONL lines ``{"id", "text"}``; sentences of 6-12 words."""
        rng = self._rng
        lines = []
        for d in range(self.n_docs):
            n = rng.randint(*self.doc_words)
            n_topic = sum(rng.random() < self.topic_share for _ in range(n))
            ids = self._topic_words(d % self.n_topics, n_topic)
            ids += rng.choices(range(self.n_words), cum_weights=self._cum, k=n - n_topic)
            rng.shuffle(ids)
            self._used.update(ids)
            sentences = []
            while ids:
                cut = rng.randint(6, 12)
                sentences.append(" ".join(word(i) for i in ids[:cut]) + ".")
                ids = ids[cut:]
            lines.append(json.dumps({"id": f"z{d:05d}", "text": " ".join(sentences)}))
        return lines

    def queries(self, n_queries: int) -> list[str]:
        """3-5 distinct words from the 100 most frequent of one topic.

        Only words that occur in the corpus are used, so every query term
        is in the index vocabulary. Call after ``corpus_lines``.
        """
        rng = self._rng
        out = []
        for q in range(n_queries):
            topic = q % self.n_topics
            ranked = range(topic, self.n_words, self.n_topics)[:100]
            words = [w for w in ranked if w in self._used]
            if not words:
                raise RuntimeError("generate the corpus before its queries")
            weights = [self._weights[r] for r, w in enumerate(ranked) if w in self._used]
            length = min(rng.randint(3, 5), len(words))
            picked: list[int] = []
            while len(picked) < length:
                (w,) = rng.choices(words, weights)
                if w not in picked:
                    picked.append(w)
            out.append(" ".join(word(i) for i in picked))
        return out
