"""N-gram language model: masked-slot word prediction and perplexity.

The model, one immutable count table sorted by context and then target,
is the statistical backbone of the editor. Prediction for a masked query
slot interpolates the n-gram conditional (left context within the query)
with the add-k-smoothed unigram distribution of the target document,
which is how the target document conditions what gets written into the
slot. A prediction scores only the context's observed targets and those
of the document's tokens that can still place; every candidate outside
both shares one floor probability.
Perplexity is exp of the mean negative log likelihood, natural base.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from math import exp, log
from typing import Any, Mapping, Sequence

import numpy as np

from .text import FIRST_CONTENT_ID, MASK_ID, PAD_ID, Vocabulary
from .corpus import Corpus, ranges, run_starts, sums_in_order

#: Padding marker in n-gram contexts: before each document when counting,
#: before the query when predicting. Not a vocabulary id, so it can never
#: collide with a real token.
BOS = -1


@dataclass(frozen=True, slots=True)
class PredictionDistribution:
    """Top predictions for one masked slot: (token id, probability) pairs.

    Every predictor's answer is checked here, once: at least one entry,
    each probability in (0, 1], probabilities non-increasing and no
    token twice. It does not name its slot, so one checked instance can
    answer every slot with the same left context. ``logs`` holds
    ``math.log`` of each probability, taken once when the instance is
    made; it is left out of the constructor, ``repr`` and comparisons.
    """

    entries: tuple[tuple[int, float], ...]
    logs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty prediction")
        probs = [p for _, p in self.entries]
        if any(not 0.0 < p <= 1.0 for p in probs):
            raise ValueError("probabilities must lie in (0, 1]")
        if any(a < b for a, b in zip(probs, probs[1:])):
            raise ValueError("probabilities must be non-increasing")
        if len({t for t, _ in self.entries}) != len(probs):
            raise ValueError("predicted tokens repeat")
        object.__setattr__(self, "logs", tuple(map(log, probs)))


class NgramLM:
    """Add-k-smoothed n-gram model. Its one change after construction: the
    first lookup builds the run index. Two threads may both build it; the
    dicts are equal and one is kept, so concurrent reads are safe.
    ``sweep_edits`` builds it before it starts several workers.

    ``order`` and ``k`` are taken as given (``RunConfig`` checks them);
    ``n_candidates`` is the vocabulary's content size, when built and
    when loaded. It holds one count table: ``grams`` (int32,
    ``(n, order)``: the order-1 context ids, then the target) and
    ``counts`` (int32, ``(n,)``), rows strictly increasing by context, then
    target, with each context's counts totalling below 2**31. Contexts are
    BOS-padded at document starts and hold ids below the vocabulary size
    ``FIRST_CONTENT_ID + n_candidates``. Derived at construction, with
    numpy and no loop over rows: each context's packed key, which with
    the target must rise strictly from row to row, and each context's run
    of rows, where its key changes. The rest is held in flat typed
    buffers, no Python object per row: each run's context key, the run
    starts (int64), the add-k denominators (float64), the targets
    (``grams``' last column, not copied) and the counts (``counts`` with a
    trailing 0). ``distribution`` and ``perplexity`` read them through
    memoryviews, which give plain Python numbers, and find a context's
    run by a dict from its key, which the first lookup builds. Where a
    packed n-gram fits int64, the packed rows are held too, for
    ``sentence_perplexities``. A context's key reads its ids as
    base-``radix`` digits, BOS as 0 and each id as id + 1, first id most
    significant, with ``radix`` the vocabulary size + 1; it is a Python
    int, exact at every order.

    Only content tokens are ever predicted; the candidate space has
    ``n_candidates`` tokens with contiguous ids starting at
    FIRST_CONTENT_ID. Probability of a non-candidate target (a special
    token appearing inside a scored sequence) is the add-k floor of an
    unseen token, so perplexity stays defined for PAD-bearing sequences.
    """

    def __init__(
        self,
        order: int,
        k: float,
        n_candidates: int,
        grams: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        if n_candidates < 1:
            raise ValueError("candidate vocabulary is empty")
        if grams.shape[1:] != (order,):
            raise ValueError(f"n-gram contexts must hold order-1 = {order - 1} ids")
        if counts.shape != grams.shape[:1]:
            raise ValueError(f"{len(grams)} n-gram rows but counts {counts.shape}")
        if (counts < 1).any():
            raise ValueError("n-gram counts must be >= 1")
        # Each column's least and greatest id, with no boolean table made:
        # targets must be candidates, in [FIRST_CONTENT_ID, vocabulary size),
        # and context ids in [BOS, vocabulary size), outside which an id has
        # no key digit. An empty table has neither (and an unsigned one no
        # BOS to start from).
        self.radix = _radix(n_candidates)
        if len(grams):
            targets = grams[:, -1]
            if targets.min() < FIRST_CONTENT_ID or targets.max() >= self.radix - 1:
                raise ValueError("n-gram target outside the candidate ids")
            for column in grams.T[:-1]:
                if column.min() < BOS or column.max() >= self.radix - 1:
                    raise ValueError("n-gram context outside the vocabulary ids")
        # Every id is in range, so the table is held as int32 whatever
        # integer type it came in.
        grams = grams.astype(np.int32, copy=False)
        contexts, targets = grams[:, :-1], grams[:, -1]
        # Packed keys in int64 while the largest fits, else in Python ints
        # (object arrays); with no context columns (order 1) every key is 0.
        # Every digit is in range, so the keys order the contexts as the
        # rows do.
        fits = self.radix ** (order - 1) <= np.iinfo(np.int64).max
        keys = _pack(contexts, self.radix, np.int64 if fits else object)
        rising = (keys[1:] > keys[:-1]) | (
            (keys[1:] == keys[:-1]) & (targets[1:] > targets[:-1])
        )
        if not rising.all():
            raise ValueError("n-gram rows not sorted strictly by context, then target")
        # Each context's rows form one run. A context maps to its run index
        # r: rows starts[r]:starts[r + 1], add-k denominator
        # denominators[r] (the run's count total + k * n_candidates). An
        # unseen context gets index len(runs), an empty run.
        n = len(grams)
        starts = run_starts(keys)
        totals = np.add.reduceat(counts.astype(np.int64), starts)
        # Below 2**31 every count and total is exact in int32 and in the
        # float64 denominators. A count past int64 wraps in ``totals``, so
        # the counts are checked too.
        if (counts >= 2**31).any() or (totals >= 2**31).any():
            raise ValueError("n-gram counts of a context must total below 2**31")
        # The counts, then 0: the count ``sentence_perplexities`` reads for
        # an n-gram past the last row.
        held = np.zeros(n + 1, dtype=np.int32)
        held[:n] = counts
        self.order = order
        self.k = k
        self.n_candidates = n_candidates
        self.grams = grams
        self.counts = held[:n]
        # Each run's context key, then radix ** (order - 1), above every key.
        self._run_keys = np.append(keys[starts], self.radix ** (order - 1))
        self._runs: dict[int, int] | None = None  # see ``run_index``
        self._unseen = len(starts)
        self._starts = memoryview(np.append(starts, [n, n]))
        self._denominators = memoryview(np.append(totals, 0) + k * n_candidates)
        self._targets = memoryview(targets)
        self._counts = memoryview(held)
        # Where a packed n-gram fits int64, each row packed (context key *
        # radix + target + 1), then a sentinel no key reaches; else None.
        self._row_keys = None
        sentinel = np.iinfo(np.int64).max
        if self.radix**order <= sentinel:
            self._row_keys = np.append(keys * self.radix + targets + 1, sentinel)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The count table as held: ``grams`` and ``counts``. The settings
        are not stored; the loader has them from the config and the
        vocabulary."""
        return {"lm.grams": self.grams, "lm.counts": self.counts}

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], order: int, k: float, n_candidates: int
    ) -> "NgramLM":
        # Integers only: the packed keys would truncate float ids, and the
        # add-k denominators would sum float counts as truncated integers.
        grams, counts = arrays["lm.grams"], arrays["lm.counts"]
        if grams.dtype.kind not in "iu" or counts.dtype.kind not in "iu":
            raise ValueError("n-gram tables must be integer arrays")
        return cls(order, k, n_candidates, grams, counts)

    def run_index(self) -> dict[int, int]:
        """Each run's context key to its run index; the first call builds it."""
        if self._runs is None:
            # Two threads may both build it; the dicts are equal.
            self._runs = dict(zip(self._run_keys[:-1].tolist(), range(self._unseen)))
        return self._runs

    def distribution(
        self, context: tuple[int, ...]
    ) -> tuple[list[int], list[int], float]:
        """The run of ``context``, order-1 ids in [BOS, vocabulary size):
        its observed targets (ascending), their counts, and the add-k
        denominator. P(t | context) is ``(count + k) / denominator``, with
        count 0 for an unseen target. A context no row holds is unseen: its
        run, index ``len(runs)``, is empty."""
        key, radix = 0, self.radix
        for token_id in context:
            key = key * radix + int(token_id) + 1
        run = self.run_index().get(key, self._unseen)
        start, end = self._starts[run], self._starts[run + 1]
        denominator = self._denominators[run]
        targets, counts = self._targets[start:end], self._counts[start:end]
        return targets.tolist(), counts.tolist(), denominator


def train_ngram(corpus: Corpus, vocab: Vocabulary, order: int, k: float) -> NgramLM:
    """Count n-grams over every document, BOS-padded at document starts."""
    # The stream with order-1 BOS pads before each document.
    pad = order - 1
    ids = np.full(len(corpus.ids) + pad * corpus.n_docs, BOS, dtype=np.int32)
    ids[np.arange(len(corpus.ids)) + pad * (corpus.doc_labels() + 1)] = corpus.ids
    # One pass over one stream: each content id is the target of the window
    # of ``order`` ids ending at it. Specials (UNK) are context, never targets.
    ends = np.flatnonzero(ids >= FIRST_CONTENT_ID)
    windows = ids[ends[:, None] + np.arange(1 - order, 1)]
    # Count each distinct window. Its prefixes are numbered one column at a
    # time, in sorted order: a prefix's number * radix + the next id + 1
    # sorts the longer prefixes as the rows would, and stays below
    # len(windows) * radix, in int64 at every order. After the last column
    # the numbers index the distinct rows, sorted.
    radix = _radix(vocab.content_size)
    number = np.zeros(len(windows), dtype=np.int64)
    for column in windows.T:
        _, number, counts = np.unique(
            number * radix + column + 1, return_inverse=True, return_counts=True
        )
    grams = np.empty((len(counts), order), dtype=np.int32)
    grams[number] = windows  # equal rows share a number
    return NgramLM(order, k, vocab.content_size, grams, counts.astype(np.int32))


def _pack(rows: np.ndarray, radix: int, dtype: Any = np.int64) -> np.ndarray:
    """Each row's ids as one key of base-``radix`` digits, id + 1 (BOS as
    0), first id most significant."""
    keys = np.zeros(len(rows), dtype=dtype)
    for column in rows.T:
        keys *= radix
        keys += column.astype(dtype)
        keys += 1
    return keys


def _radix(n_candidates: int) -> int:
    """The base of the packed keys: the vocabulary size + 1, so each id
    (BOS included) is one digit, id + 1."""
    return FIRST_CONTENT_ID + n_candidates + 1


def perplexity(token_ids: Sequence[int], lm: NgramLM) -> float:
    """exp(-(1/T) sum_t ln P(x_t | context_t)), natural base, of a
    non-empty sequence of vocabulary ids.

    The context's packed key is rolled along the sequence: after each
    token the oldest digit is dropped and the token's shifted in.
    """
    radix, modulus = lm.radix, lm.radix ** (lm.order - 1)
    runs, unseen = lm.run_index(), lm._unseen
    # P(target | context) from the context's run, as ``distribution`` gives it.
    starts, targets, counts = lm._starts, lm._targets, lm._counts
    denominators, k = lm._denominators, lm.k
    key = 0  # the all-BOS context
    log_sum = 0.0
    for target in token_ids:
        run = runs.get(key, unseen)
        end = starts[run + 1]
        i = bisect_left(targets, target, starts[run], end)
        count = counts[i] if i < end and targets[i] == target else 0
        log_sum += log((count + k) / denominators[run])
        key = (key * radix + int(target) + 1) % modulus
    return exp(-log_sum / len(token_ids))


#: Documents ``sentence_perplexities`` scores per step, which bounds its arrays.
_BATCH_DOCS = 512


def sentence_perplexities(
    corpus: Corpus, doc_ids: Sequence[str], lm: NgramLM
) -> list[list[float]]:
    """``perplexity`` of every sentence of the documents ``doc_ids``, bit
    for bit: one list per document, one float per sentence in text order
    (see ``Document.sentences``).

    Token ids and sentence bounds are read from the corpus arrays,
    ``_BATCH_DOCS`` documents at a time. Each token's n-gram, BOS-padded
    at its sentence's start, is packed as ``NgramLM`` packs a context and
    found among the packed rows and run keys the model holds; the table
    is not packed again. The arithmetic is ``perplexity``'s: ``(count +
    k) / denominator`` in float64, ``math.log`` of each distinct ratio,
    each sentence's terms added left to right from 0.0 (one add per
    place in the sentence), then ``math.exp(-total / length)``. Where a
    packed n-gram could pass int64, the model holds no packed rows and
    each sentence is scored by ``perplexity`` itself.
    """
    radix, pad = lm.radix, lm.order - 1
    rows, runs = lm._row_keys, lm._run_keys
    if rows is None:
        return [[perplexity(s, lm) for s in corpus[d].sentences()] for d in doc_ids]
    # Past the last row and run, the sentinels: count 0 and the unseen
    # context's denominator.
    counts, denominators = np.asarray(lm._counts), np.asarray(lm._denominators)
    positions = np.array([corpus.position(d) for d in doc_ids], dtype=np.int64)
    bounds = corpus.sentence_offsets
    out: list[list[float]] = []
    for chunk in range(0, len(positions), _BATCH_DOCS):
        docs = positions[chunk : chunk + _BATCH_DOCS]
        first = np.searchsorted(bounds, corpus.offsets[docs])
        per_doc = np.searchsorted(bounds, corpus.offsets[docs + 1]) - first
        sentences = ranges(first, per_doc)
        lengths = bounds[sentences + 1] - bounds[sentences]
        # The chunk's tokens in one stream, pad BOS before each sentence,
        # and each token's window of ``order`` ids ending at it.
        heads = np.cumsum(lengths) - lengths
        ends = ranges(heads + pad * np.arange(1, len(lengths) + 1), lengths)
        stream = np.full(len(ends) + pad * len(lengths), BOS, dtype=np.int64)
        stream[ends] = corpus.ids[ranges(bounds[sentences], lengths)]
        keys = _pack(stream[ends[:, None] + np.arange(-pad, 1)], radix)
        # Each distinct key once, in ascending order: its row and its
        # context's run, or the sentinels where the table lacks them.
        keys, inverse = np.unique(keys, return_inverse=True)
        contexts = keys // radix
        run = np.searchsorted(runs, contexts)
        run = np.where(runs[run] == contexts, run, lm._unseen)
        row = np.searchsorted(rows, keys)
        count = np.where(rows[row] == keys, counts[row], 0)
        ratio = (count + lm.k) / denominators[run]
        ratios, ratio_of = np.unique(ratio, return_inverse=True)
        terms = np.array([log(r) for r in ratios.tolist()])[ratio_of[inverse]]
        totals = sums_in_order(terms, lengths)
        values = [exp(m) for m in (-totals / lengths).tolist()]
        for end, n in zip(np.cumsum(per_doc).tolist(), per_doc.tolist()):
            out.append(values[end - n : end])
    return out


class LocalPerplexity:
    """The local perplexity role: called with a sequence, its
    ``perplexity`` (the name is looked up at each call, so a patched one
    applies); ``batch``, every sentence's of many documents of ``corpus``
    at once (``sentence_perplexities``)."""

    def __init__(self, lm: NgramLM, corpus: Corpus) -> None:
        self.lm = lm
        self.corpus = corpus

    def __call__(self, token_ids: Sequence[int]) -> float:
        return perplexity(token_ids, self.lm)

    def batch(self, doc_ids: Sequence[str]) -> list[list[float]]:
        return sentence_perplexities(self.corpus, doc_ids, self.lm)


class NgramPredictor:
    """Masked-slot word prediction, conditioned on one target document d'.

    A slot's distribution is ``(1 - lam) * P_ngram(. | left context) +
    lam * P_doc(.)``, where P_doc is the add-k-smoothed unigram
    distribution of d'. A slot with no real token to its left (or with an
    unfilled/PAD token inside the context window) has no usable n-gram
    context and falls back to P_doc alone. Every candidate outside the
    context's observed targets and d''s tokens gets the same floor value,
    so only those ids can rank above it; floor-valued ids fill the
    remaining places in ascending order. Entries come out by descending
    probability, ties by ascending token id, exactly as a sort over all
    candidates.

    Of those ids, only the ones that can reach the top ``top`` are
    scored: every observed target of the context, then d''s other tokens
    by descending count and then id. Outside the observed targets a d'
    token's probability rises with its count, so the walk stops after
    ``top`` of them plus every token tied with the last: no token left
    out can rank above one scored.

    Answers are memoized by (left context, ``top``). The left context is
    the BOS-padded (order-1)-token context, or ``None`` for a slot that
    falls back to P_doc alone. The memo is exact: ``predict`` reads
    nothing of the query but that context. It lives as long as the
    predictor, which serves one d'.
    """

    def __init__(self, lm: NgramLM, d_prime_ids: Sequence[int], lam: float):
        self.lm = lm
        self.lam = lam
        # Add-k numerators of d''s content tokens: k, plus 1.0 per occurrence.
        doc: dict[int, float] = {}
        n_tokens = 0
        for token_id in d_prime_ids:
            if token_id >= FIRST_CONTENT_ID:
                doc[token_id] = doc.get(token_id, lm.k) + 1.0
                n_tokens += 1
        d_doc = n_tokens + lm.k * lm.n_candidates
        # P_doc and its lam-weighted share, per d' token and for an id d'
        # lacks; d''s tokens by descending count, then id.
        self._p_doc = {t: num / d_doc for t, num in doc.items()}
        self._p_doc_absent = lm.k / d_doc
        self._share = {t: lam * p for t, p in self._p_doc.items()}
        self._share_absent = lam * self._p_doc_absent
        self._by_count = sorted(doc, key=lambda t: (-doc[t], t))
        # (left context or None, top) -> the answer; see the class docstring.
        self._memo: dict[tuple[Any, int], PredictionDistribution] = {}

    def predict(
        self, masked_ids: Sequence[int], position: int, top: int
    ) -> PredictionDistribution:
        """The ``top`` (>= 1) most probable tokens for the masked ``position``."""
        width = self.lm.order - 1
        window = masked_ids[max(0, position - width) : position]
        context = None
        if position > 0 and not any(t in (MASK_ID, PAD_ID) for t in window):
            context = (BOS,) * (width - len(window)) + tuple(window)
        key = (context, top)
        dist = self._memo.get(key)
        if dist is None:
            # Two threads may both compute a key; both return the one stored.
            dist = self._memo.setdefault(key, self._predict(context, top))
        return dist

    def _predict(
        self, context: tuple[int, ...] | None, top: int
    ) -> PredictionDistribution:
        lm, k = self.lm, self.lm.k
        if context is None:
            # P_doc alone: no observed targets and weight 0 on the n-gram
            # part, so base is 0.0 and 0.0 + p is p, bit for bit.
            targets, counts, d_ngram = (), (), 1.0
            w, share, absent = 0.0, self._p_doc, self._p_doc_absent
        else:
            targets, counts, d_ngram = lm.distribution(context)
            w, share, absent = 1.0 - self.lam, self._share, self._share_absent
        base = w * (k / d_ngram)
        floor = base + absent
        scored = {
            t: w * ((k + c) / d_ngram) + share.get(t, absent)
            for t, c in zip(targets, counts)
        }
        # d''s other tokens, by descending count: probabilities non-increasing.
        walked, last = 0, 0.0
        for t in self._by_count:
            if t in scored:
                continue
            p = base + share[t]
            if walked >= top and p != last:
                break
            scored[t] = p
            walked, last = walked + 1, p
        # Every scored probability is >= floor; ids at the floor tie with
        # the unscored ones, so they are placed with them, by id.
        above = [(t, p) for t, p in scored.items() if p > floor]
        entries = sorted(above, key=lambda e: (-e[1], e[0]))[:top]
        taken = {t for t, _ in entries}
        ids = range(FIRST_CONTENT_ID, FIRST_CONTENT_ID + lm.n_candidates)
        fill = (t for t in ids if t not in taken)
        entries += [(t, floor) for t in islice(fill, top - len(entries))]
        return PredictionDistribution(tuple(entries))
