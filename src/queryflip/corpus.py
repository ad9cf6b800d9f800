"""Document storage, inverted index, and the built-in BM25 search model.

The search model plays the role of the relevance scorer the rest of the
pipeline treats as a black box: it produces rel(query, doc) scores, ranked
lists, and the sparse query representation used by the similarity metric.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .text import SPECIAL_IDS, Vocabulary, tokenize

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Document:
    """A stored document: stable id, raw text, and its token sequence."""

    id: str
    text: str
    tokens: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)


class Corpus:
    """Id-addressable document collection with corpus-level statistics."""

    def __init__(self, documents: Sequence[Document]) -> None:
        docs: dict[str, Document] = {}
        for doc in documents:
            if doc.id in docs:
                raise ValueError(f"duplicate id: {doc.id}")
            docs[doc.id] = doc
        self._docs = docs
        total_len = sum(d.length for d in docs.values())
        self.n_docs = len(docs)
        self.avgdl = total_len / self.n_docs if self.n_docs else 0.0

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __getitem__(self, doc_id: str) -> Document:
        return self._docs[doc_id]

    def documents(self) -> Iterable[Document]:
        return self._docs.values()

    def doc_ids(self) -> list[str]:
        return list(self._docs)


def ingest_corpus(lines: Iterable[str]) -> Corpus:
    """Parse a line-delimited record stream into a Corpus.

    Each non-blank line must be a JSON object with string fields ``id``
    and ``text``. Malformed records and duplicate ids raise ValueError
    with the offending line number / id.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed record @ line {lineno}: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"malformed record @ line {lineno}: not an object")
        for fld in ("id", "text"):
            if fld not in record:
                raise ValueError(f"missing field: {fld} @ line {lineno}")
            if not isinstance(record[fld], str):
                raise ValueError(f"invalid field: {fld} @ line {lineno}")
        doc_id = record["id"]
        if doc_id in seen:
            raise ValueError(f"duplicate id: {doc_id} @ line {lineno}")
        seen.add(doc_id)
        docs.append(Document(doc_id, record["text"], tuple(tokenize(record["text"]))))
    return Corpus(docs)


class InvertedIndex:
    """Term-id postings plus document lengths.

    Postings map token id -> {doc id: term frequency}, with doc ids in
    ascending order. Special token ids are never indexed, so MASK/PAD/UNK
    query tokens can never match anything. Immutable after build.
    """

    def __init__(
        self,
        postings: Mapping[int, Mapping[str, int]],
        doc_len: Mapping[str, int],
    ) -> None:
        self.postings = {t: dict(p) for t, p in postings.items()}
        self.doc_len = dict(doc_len)

    def df(self, term_id: int) -> int:
        return len(self.postings.get(term_id, ()))

    def tf(self, term_id: int, doc_id: str) -> int:
        return self.postings.get(term_id, {}).get(doc_id, 0)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """CSR postings: per term id, the documents as positions in
        ascending doc-id order, with their term frequencies. Document
        lengths are not stored; they come from the corpus."""
        position = {doc_id: i for i, doc_id in enumerate(sorted(self.doc_len))}
        terms = sorted(self.postings)
        rows = [self.postings[t] for t in terms]
        docs = [position[doc_id] for row in rows for doc_id in row]
        tfs = [tf for row in rows for tf in row.values()]
        return {
            "index.terms": np.array(terms, dtype=np.int32),
            "index.indptr": np.cumsum([0] + [len(row) for row in rows]),
            "index.docs": np.array(docs, dtype=np.int32),
            "index.tfs": np.array(tfs, dtype=np.int32),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], corpus: Corpus
    ) -> "InvertedIndex":
        doc_ids = sorted(corpus.doc_ids())
        indptr = arrays["index.indptr"].tolist()
        docs = [doc_ids[i] for i in arrays["index.docs"].tolist()]
        tfs = arrays["index.tfs"].tolist()
        postings = {
            term_id: dict(zip(docs[start:end], tfs[start:end]))
            for term_id, start, end in zip(
                arrays["index.terms"].tolist(), indptr, indptr[1:]
            )
        }
        return cls(postings, {doc_id: corpus[doc_id].length for doc_id in doc_ids})


def build_index(corpus: Corpus, vocab: Vocabulary) -> InvertedIndex:
    postings: dict[int, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for doc_id in sorted(corpus.doc_ids()):
        doc = corpus[doc_id]
        doc_len[doc_id] = doc.length
        counts: Counter[int] = Counter(vocab.encode(doc.tokens))
        for term_id, tf in counts.items():
            if term_id in SPECIAL_IDS:
                continue
            postings.setdefault(term_id, {})[doc_id] = tf
    return InvertedIndex(postings, doc_len)


@dataclass(frozen=True)
class Bm25Params:
    """Okapi constants; the community-standard defaults."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not self.k1 > 0:
            raise ValueError("k1 must be > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass(frozen=True)
class Ranking:
    """Ordered (doc id, score) pairs for one query, scores non-increasing."""

    query_ids: tuple[int, ...]
    entries: tuple[tuple[str, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ids = [doc_id for doc_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("ranking entries must be unique by doc id")
        scores = [s for _, s in self.entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError("ranking scores must be non-increasing")

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


class Bm25SearchModel:
    """BM25 relevance scorer over an inverted index.

    Scoring uses Robertson idf with +1 inside the log (keeps idf >= 0):

        idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
        w(t,d) = idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * n/avgdl))

    A query is scored one token occurrence at a time, so repeated query
    terms contribute once per occurrence. Non-indexed terms contribute 0.
    The model is immutable after construction and safe for concurrent use.
    """

    def __init__(
        self,
        corpus: Corpus,
        index: InvertedIndex,
        params: Bm25Params = Bm25Params(),
    ) -> None:
        self.corpus = corpus
        self.index = index
        self.params = params

    def idf(self, term_id: int) -> float:
        df = self.index.df(term_id)
        n = self.corpus.n_docs
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _weight(self, term_id: int, tf: int, doc_len: int) -> float:
        k1, b = self.params.k1, self.params.b
        norm = 1.0 - b + b * doc_len / self.corpus.avgdl
        return self.idf(term_id) * tf * (k1 + 1.0) / (tf + k1 * norm)

    def bm25_score(self, query_ids: Sequence[int], doc_id: str) -> float:
        """rel(q, d) for one document; 0.0 when no query term matches."""
        doc_len = self.index.doc_len[doc_id]
        score = 0.0
        for term_id in query_ids:
            tf = self.index.tf(term_id, doc_id)
            if tf:
                score += self._weight(term_id, tf, doc_len)
        return score

    # The scorer protocol used by the editor and the evaluation harness.
    def score(self, query_ids: Sequence[int], doc_id: str) -> float:
        return self.bm25_score(query_ids, doc_id)

    def search(self, query_ids: Sequence[int], k: int) -> Ranking:
        """Top-k documents by bm25_score, ties broken by ascending doc id.

        When k exceeds the corpus size every document is returned,
        zero-score ones included. Raises ValueError on an empty corpus or
        k < 1.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.corpus.n_docs == 0:
            raise ValueError("empty corpus")
        scores: dict[str, float] = {}
        # Accumulate in query-token order so the sum matches bm25_score
        # float-for-float.
        for term_id in query_ids:
            for doc_id, tf in self.index.postings.get(term_id, {}).items():
                w = self._weight(term_id, tf, self.index.doc_len[doc_id])
                scores[doc_id] = scores.get(doc_id, 0.0) + w
        ranked = sorted(scores.items(), key=lambda e: (-e[1], e[0]))
        if len(ranked) < k:
            matched = set(scores)
            zeros = [d for d in sorted(self.corpus.doc_ids()) if d not in matched]
            ranked.extend((d, 0.0) for d in zeros)
        return Ranking(tuple(query_ids), tuple(ranked[:k]))

    def query_representation(self, query_ids: Sequence[int]) -> dict[int, float]:
        """L2-normalized sparse idf*tf vector over the vocabulary.

        Special tokens carry no weight; a query that maps entirely to
        specials yields the zero vector (returned as an empty dict and
        flagged via a debug log).
        """
        counts: Counter[int] = Counter(
            t for t in query_ids if t not in SPECIAL_IDS
        )
        weights = {t: self.idf(t) * tf for t, tf in counts.items()}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm == 0.0:
            logger.debug("query has no scoreable terms; zero representation")
            return {}
        return {t: w / norm for t, w in sorted(weights.items())}
