"""Document storage, the corpus with its one token-id stream, and the
built-in BM25 search model with its postings.

The search model plays the role of the relevance scorer the rest of the
pipeline treats as a black box: it produces rel(query, doc) scores, ranked
lists, and the idf weights of the similarity metric's sparse query
representation.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .text import (
    FIRST_CONTENT_ID,
    Vocabulary,
    build_vocabulary,
    pack_strings,
    tokenize_sentences,
    unpack_strings,
)


@dataclass(frozen=True)
class Document:
    """A stored document: stable id, raw text, its token ids, and the
    bounds of its sentences in them: sentence j is
    ``ids[sentence_bounds[j]:sentence_bounds[j + 1]]``."""

    id: str
    text: str
    ids: tuple[int, ...]
    sentence_bounds: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.ids)

    def sentences(self) -> list[tuple[int, ...]]:
        """The token ids of each sentence, in text order."""
        ids, bounds = self.ids, self.sentence_bounds
        return [ids[a:b] for a, b in zip(bounds, bounds[1:])]


class Corpus:
    """Id-addressable document collection: the ``{id: text}`` records
    (copied) and every document's token ids as one integer stream,
    documents in record order: document i is
    ``ids[offsets[i]:offsets[i + 1]]``. A corpus holds its tokens in this
    form only; the index, the embeddings and the n-gram model are built
    from it. It holds at least one document.

    ``sentence_offsets`` cuts the same stream into sentences (see
    ``tokenize_sentences``): it rises strictly from 0 to ``len(ids)`` and
    holds every document bound, so no sentence crosses a document and
    none is empty. An empty document is a repeated bound of ``offsets``
    and one bound here.

    A doc id -> position map is kept; a Document, holding its row as a
    tuple, is built on first access and the same object is returned on
    every later one.
    """

    def __init__(
        self,
        records: Mapping[str, str],
        ids: np.ndarray,
        offsets: np.ndarray,
        sentence_offsets: np.ndarray,
    ) -> None:
        sentences = sentence_offsets
        if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in (ids, offsets, sentences)):
            raise ValueError(
                "corpus token ids, offsets and sentence offsets must be 1-d integer arrays"
            )
        if not (len(offsets) and offsets[0] == 0 and offsets[-1] == len(ids)
                and (offsets[1:] >= offsets[:-1]).all()):
            raise ValueError(f"corpus token offsets must rise from 0 to {len(ids)}")
        if not (len(sentences) and sentences[0] == 0 and sentences[-1] == len(ids)
                and (sentences[1:] > sentences[:-1]).all()):
            raise ValueError(
                f"corpus sentence offsets must rise strictly from 0 to {len(ids)}"
            )
        # In range, since both run from 0 to len(ids).
        if (sentences[np.searchsorted(sentences, offsets)] != offsets).any():
            raise ValueError("corpus sentence offsets must hold every document bound")
        self.n_docs = len(offsets) - 1
        if len(records) != self.n_docs:
            raise ValueError(
                f"{self.n_docs} rows of token ids for {len(records)} documents"
            )
        if not records:
            raise ValueError("empty corpus")
        self.records = dict(records)
        self.ids, self.offsets, self.sentence_offsets = ids, offsets, sentences
        self.avgdl = len(ids) / self.n_docs
        self._positions = dict(zip(self.records, range(self.n_docs)))
        self._docs: dict[str, Document] = {}

    def doc_labels(self) -> np.ndarray:
        """The document index of every id in the stream."""
        return np.repeat(np.arange(self.n_docs), np.diff(self.offsets))

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.records

    def __getitem__(self, doc_id: str) -> Document:
        doc = self._docs.get(doc_id)
        if doc is None:
            position = self._positions[doc_id]
            start, end = self.offsets[position : position + 2].tolist()
            ids = tuple(self.ids[start:end].tolist())
            sentences = self.sentence_offsets
            first, last = np.searchsorted(sentences, (start, end)).tolist()
            bounds = tuple((sentences[first : last + 1] - start).tolist())
            # Two threads may both build a document; both return the one stored.
            doc = Document(doc_id, self.records[doc_id], ids, bounds)
            doc = self._docs.setdefault(doc_id, doc)
        return doc

    def position(self, doc_id: str) -> int:
        """The document's row: document i spans ``offsets[i:i + 2]``."""
        return self._positions[doc_id]

    def documents(self) -> list[Document]:
        return [self[doc_id] for doc_id in self.records]

    def doc_ids(self) -> list[str]:
        return list(self.records)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Ids and texts as UTF-8 buffers with offsets, and the token ids."""
        ids, id_offsets = pack_strings(self.doc_ids())
        texts, text_offsets = pack_strings(list(self.records.values()))
        return {
            "corpus.ids": ids,
            "corpus.id_offsets": id_offsets,
            "corpus.texts": texts,
            "corpus.text_offsets": text_offsets,
            "corpus.token_ids": self.ids,
            "corpus.token_offsets": self.offsets,
            "corpus.sentence_offsets": self.sentence_offsets,
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Corpus":
        ids = unpack_strings(arrays["corpus.ids"], arrays["corpus.id_offsets"])
        texts = unpack_strings(arrays["corpus.texts"], arrays["corpus.text_offsets"])
        return cls(
            dict(zip(ids, texts)),
            arrays["corpus.token_ids"],
            arrays["corpus.token_offsets"],
            arrays["corpus.sentence_offsets"],
        )


# Surrogate code points: UTF-8 cannot encode them, but JSON's \u escapes
# can produce them, and so does a byte that is not UTF-8 read with
# errors="surrogateescape" (see ``open_lines``).
_SURROGATE = re.compile("[\ud800-\udfff]")


def open_lines(path: str) -> TextIO:
    """A UTF-8 text file to read; a byte that is not UTF-8 reads as a surrogate."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Each non-blank line with its number; a line holding a surrogate (a
    byte that is not UTF-8, read by ``open_lines``) raises ValueError."""
    for lineno, line in enumerate(lines, start=1):
        if _SURROGATE.search(line):
            raise ValueError(f"not UTF-8 @ line {lineno}")
        if line.strip():
            yield lineno, line


def read_records(
    lines: Iterable[str], fields: Sequence[str]
) -> Iterator[tuple[int, list[str]]]:
    """Each non-blank line's ``fields`` values, with its line number. A line
    must be a JSON object whose ``fields`` are strings that UTF-8 can encode
    (a lone surrogate escape such as ``"\\ud800"`` is valid JSON but not);
    each fault raises ValueError as ``<problem> @ line N``."""
    for lineno, line in numbered_lines(lines):
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            problem = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            raise ValueError(f"malformed record @ line {lineno}: {problem}") from exc
        if not isinstance(record, dict):
            raise ValueError(f"malformed record @ line {lineno}: not an object")
        for fld in fields:
            if fld not in record:
                raise ValueError(f"missing field: {fld} @ line {lineno}")
            value = record[fld]
            if not isinstance(value, str) or _SURROGATE.search(value):
                raise ValueError(f"invalid field: {fld} @ line {lineno}")
        yield lineno, [record[fld] for fld in fields]


def ingest_corpus(lines: Iterable[str]) -> dict[str, str]:
    """Parse a line-delimited record stream into ``{id: text}`` records,
    in stream order: ``read_records`` lines with fields ``id`` and
    ``text``, each id once (a duplicate raises ValueError naming it)."""
    records: dict[str, str] = {}
    for lineno, (doc_id, text) in read_records(lines, ("id", "text")):
        if doc_id in records:
            raise ValueError(f"duplicate id: {doc_id} @ line {lineno}")
        records[doc_id] = text
    return records


def build_corpus(
    records: Mapping[str, str], min_count: int
) -> tuple[Corpus, Vocabulary]:
    """Tokenize each text once, build the vocabulary from those token
    lists, and encode them into the corpus's one id stream, with its
    document and sentence bounds."""
    marked = [tokenize_sentences(text) for text in records.values()]
    n_marks = sum(map(len, marked))
    is_token = np.fromiter(map(bool, chain.from_iterable(marked)), bool, count=n_marks)
    # A break's stream offset is the number of tokens before it: the k-th
    # break (from 0), at position p of the marked stream, follows p - k.
    at = np.flatnonzero(~is_token)
    breaks = at - np.arange(len(at))
    tokens = [list(filter(None, m)) for m in marked]
    del marked  # before the ids, the build's largest list, are made
    vocab = build_vocabulary(tokens, min_count)
    ids = np.array(vocab.encode(chain.from_iterable(tokens)), dtype=np.int32)
    offsets = np.cumsum([0] + [len(t) for t in tokens], dtype=np.int64)
    starts = np.zeros(len(ids) + 1, dtype=bool)
    starts[offsets] = True
    starts[breaks] = True
    sentence_offsets = np.flatnonzero(starts)
    return Corpus(records, ids, offsets, sentence_offsets), vocab


@dataclass(frozen=True)
class Ranking:
    """Ordered (doc id, score) pairs for one query, as ``search`` ranks
    them: each document once, scores non-increasing."""

    query_ids: tuple[int, ...]
    entries: tuple[tuple[str, float], ...]


class Bm25SearchModel:
    """BM25 relevance scorer over the corpus's term-frequency postings.

    Built from the four CSR arrays ``count_postings`` counts from the
    corpus's token ids: ``terms`` (int32, strictly increasing content token
    ids), ``indptr`` (int64, ``len(terms) + 1`` row bounds, each row
    non-empty), ``docs`` (int32, each row's documents as strictly
    increasing positions in corpus order) and ``tfs`` (int32, term
    frequencies >= 1), and the Okapi constants ``k1`` (> 0) and ``b`` (in
    [0, 1]), which the run's config sets, and checks, as ``k1`` and
    ``b_bm25``. Special token ids are never indexed, so MASK/PAD/UNK
    query tokens can never match anything. Scoring uses
    Robertson idf with +1 inside the log (keeps idf >= 0):

        idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))
        w(t,d) = idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * n/avgdl))

    Derived once at construction, as arrays: idf per term (the ratio in
    one numpy expression, then ``math.log`` of each; ``idf`` and
    ``idf_array`` read it), the impact
    w(t,d) of every posting in one numpy expression (``impacts``, in
    posting order), and the postings regrouped by document. ``score``
    builds a document's {term id: w} table from the regrouped arrays the
    first time it scores that document and keeps it; ``search`` adds rows
    of ``impacts`` into one score array. A query is scored one token
    occurrence at a time, so repeated query terms contribute once per
    occurrence. Non-indexed terms contribute 0. Apart from those memoized
    tables the model is immutable after construction, and it is safe for
    concurrent use.
    """

    def __init__(
        self,
        corpus: Corpus,
        terms: np.ndarray,
        indptr: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        k1: float,
        b: float,
    ) -> None:
        self.corpus = corpus
        self.docs = docs
        n = corpus.n_docs
        term_ids = terms.tolist()
        dfs = np.diff(indptr)
        # The idf formula's float operations in its order, for every term
        # at once, then df 0 (an unseen term); ``math.log`` of each.
        with_unseen = np.append(dfs, 0)
        ratios = 1.0 + (n - with_unseen + 0.5) / (with_unseen + 0.5)
        *idfs, self._idf_unseen = map(math.log, ratios.tolist())
        self._idf = dict(zip(term_ids, idfs))
        self._row = dict(zip(term_ids, range(len(term_ids))))
        self._bounds: list[int] = indptr.tolist()
        self._corpus_ids = corpus.doc_ids()
        # Positions in ascending doc-id order: ``search``'s order among
        # equal scores.
        by_id = sorted(range(n), key=self._corpus_ids.__getitem__)
        self._by_id = np.array(by_id, dtype=np.int64)
        lengths = np.diff(corpus.offsets)
        # The scalar formula's float operations in its order, one element
        # per posting. Only a posting's document is normalised, so avgdl 0
        # (every document empty, no postings) divides nothing.
        k1_norm = k1 * (1.0 - b + b * lengths[docs] / corpus.avgdl)
        posting_idf = np.repeat(np.array(idfs), dfs)
        self.impacts = posting_idf * tfs * (k1 + 1.0) / (tfs + k1_norm)
        # The postings regrouped by document: document p's terms and impacts
        # are _doc_terms / _doc_impacts[_doc_bounds[p]:_doc_bounds[p + 1]].
        # The sorted keys doc * n_postings + i: each document's postings
        # in posting order, so by term, and each key's i is its posting.
        n_postings = len(docs)
        by_doc = np.sort(docs.astype(np.int64) * n_postings + np.arange(n_postings))
        by_doc %= n_postings
        self._doc_terms = np.repeat(terms, dfs)[by_doc]
        self._doc_impacts = self.impacts[by_doc]
        self._doc_bounds = np.cumsum(np.r_[0, np.bincount(docs, minlength=n)])
        self._weights: dict[str, dict[int, float]] = {}

    def idf(self, term_id: int) -> float:
        return self._idf.get(term_id, self._idf_unseen)

    def idf_array(self, size: int) -> np.ndarray:
        """``idf`` of every token id below ``size``, as one array."""
        return np.array([self.idf(t) for t in range(size)], dtype=np.float64)

    def score(self, query_ids: Sequence[int], doc_id: str) -> float:
        """rel(q, d) for one document; 0.0 when no query term matches.

        The one scoring kernel, and the scorer protocol the editor and the
        evaluation harness use; ``search`` makes the same additions in the
        same order. The impacts are added left to right in query-token
        order; ``sum`` would round differently on Python >= 3.12.
        """
        weights = self._weights.get(doc_id)
        if weights is None:
            # Two threads may both build a table; both return the one stored.
            weights = self._weights.setdefault(doc_id, self._doc_weights(doc_id))
        score = 0.0
        for term_id in query_ids:
            score += weights.get(term_id, 0.0)
        return score

    def _doc_weights(self, doc_id: str) -> dict[int, float]:
        """{term id: w(t,d)} of one document, from the regrouped postings."""
        position = self.corpus.position(doc_id)
        start, end = self._doc_bounds[position : position + 2].tolist()
        terms = self._doc_terms[start:end].tolist()
        return dict(zip(terms, self._doc_impacts[start:end].tolist()))

    def search(self, query_ids: Sequence[int], k: int) -> Ranking:
        """The first k of every document ranked by (-``score``, doc id):
        zero-score documents fill a ranking that too few documents match,
        and k above the corpus size returns them all. Raises ValueError on
        k < 1.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = np.zeros(self.corpus.n_docs)
        bounds, docs, impacts = self._bounds, self.docs, self.impacts
        # One query token at a time, in query order, repeats included: each
        # document receives the additions ``score`` makes, in its order
        # (``score``'s + 0.0 for a term the document lacks changes nothing).
        for term_id in query_ids:
            row = self._row.get(term_id)
            if row is not None:
                start, end = bounds[row], bounds[row + 1]
                scores[docs[start:end]] += impacts[start:end]
        # Every impact is > 0, so a matched document scores above every
        # unmatched one; a stable sort of the doc-id order breaks ties.
        # Only documents at or above the k-th score (0.0 when fewer than k
        # match) can place, so they are sorted alone. It is partitioned out
        # of the matched scores: np.partition slows down on many tied zeros.
        matched = scores[scores > 0.0]
        kth = np.partition(matched, -k)[-k] if len(matched) >= k else 0.0
        order = self._by_id[scores[self._by_id] >= kth]
        ranked = order[np.argsort(-scores[order], kind="stable")[:k]].tolist()
        ids = self._corpus_ids
        entries = zip([ids[p] for p in ranked], scores[ranked].tolist())
        return Ranking(tuple(query_ids), tuple(entries))


def run_starts(keys: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal ``keys``."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][: len(keys)])


def count_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``keys`` in place; return each distinct key, ascending, and
    how many times it occurs (``np.unique(keys, return_counts=True)``
    with no sorted copy)."""
    keys.sort()
    starts = run_starts(keys)
    return keys[starts], np.diff(np.append(starts, len(keys)))


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i]``, ``starts[i] + 1``, ... for ``lengths[i]`` values, for
    every i in turn."""
    heads = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - heads, lengths)


def sums_in_order(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of ``lengths[i]`` consecutive ``values``, added
    left to right from 0.0 as a Python loop adds them: one add per place in
    the run, so the floats do not depend on numpy's summation order. An
    empty run sums to 0.0."""
    heads = np.cumsum(lengths) - lengths
    totals = np.zeros(len(lengths))
    for place in range(lengths.max(initial=0)):
        running = lengths > place
        totals[running] += values[heads[running] + place]
    return totals


def count_postings(corpus: Corpus) -> tuple[np.ndarray, ...]:
    """Every (term, document) pair of the token ids, specials left out,
    counted into the CSR postings ``terms``, ``indptr``, ``docs`` and
    ``tfs`` (see ``Bm25SearchModel``), sorted by term, then document
    position in corpus order."""
    n = corpus.n_docs
    content = corpus.ids >= FIRST_CONTENT_ID
    term_ids = corpus.ids[content].astype(np.int64)
    pairs, tfs = count_keys(term_ids * n + corpus.doc_labels()[content])
    terms, docs = np.divmod(pairs, n)
    starts = run_starts(terms)  # the pairs are sorted: one run per term
    indptr = np.append(starts, len(pairs))
    terms = terms[starts].astype(np.int32)
    return terms, indptr, docs.astype(np.int32), tfs.astype(np.int32)


def build_index(corpus: Corpus, k1: float, b: float) -> Bm25SearchModel:
    """The BM25 model with constants ``k1`` and ``b`` over the corpus's
    counted postings."""
    return Bm25SearchModel(corpus, *count_postings(corpus), k1, b)
