"""Triplet construction, the metric suite, baselines, and report emission.

Metrics per edited query: whether the ranking flipped, cosine similarity
of the sparse query representations, greedy-matching embedding F1,
perplexity ratio (1.0 = unchanged fluency), and wall-clock seconds per
edit. A record's metrics are computed after its edit is timed. Its
fluency, text and vectors are asked through the row's ``SharedWork`` as
the record is made. CosSim and BERTScore are functions of (q, outcome)
alone, so they are computed per block of records, each distinct (q,
outcome) of the block once, by one numpy kernel per metric with no BLAS
in it, so a report's bytes do not depend on the BLAS kernel. A max_flip
outcome is a sentence of the target document d', so its vectors and
perplexity are asked of d''s ``SharedWork``, which every ranking with
that target shares. That work also ranks d''s stored sentences once, by
perplexity, while a max_flip edit's flip checks stop at the first
sentence that flips. The local perplexity role scores the sentences of
every target document of a pass in one batch per beam size; any other
``ppl_fn`` (a remote backend sees each sentence once per target and beam
size) is asked per sentence. A report derives its aggregates and its
breakdown by target-document rank from its records, and serializes to
canonical JSON plus markdown tables.
"""

from __future__ import annotations

import io
import json
import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, Collection, Iterator, Sequence

import numpy as np

from .corpus import Bm25SearchModel, Corpus, Document, Ranking, ranges, sums_in_order
from .editor import EditResult, Triplet, check_flip, edit
from .lm import LocalPerplexity
from .masker import ImportanceScores, maxsim_importance, occlusion_importance
from .text import FIRST_CONTENT_ID, PAD_ID, UNK_ID, Vocabulary

logger = logging.getLogger(__name__)

_LOCK_TYPE = type(threading.Lock())

METHODS = ("cfe2", "mask_only", "max_flip")

#: Rows ``beam_sweep`` makes before it computes their metrics, which
#: bounds the arrays of one kernel call.
_BLOCK_ROWS = 256
#: Vector entries ``bertscore_f1`` multiplies at a time (256 kB of
#: float64), so that its products stay in cache.
_PRODUCT_ENTRIES = 2**15


# ---------------------------------------------------------------------------
# Triplet construction


def build_triplets(ranking: Ranking, corpus: Corpus) -> list[Triplet]:
    """Pair the top document with every lower-ranked one.

    A ranking of k documents yields up to k-1 triplets tagged with the
    target document's rank (2..k). Ranks tied with the top score are
    skipped with a warning: a tie can never satisfy the strict
    precondition. Fewer than two results yield an empty list.
    """
    entries = ranking.entries
    if len(entries) < 2:
        logger.warning("ranking has fewer than 2 results; no triplets")
        return []
    top_id, top_score = entries[0]
    triplets = []
    for rank, (doc_id, score) in enumerate(entries[1:], start=2):
        if not top_score > score:
            logger.warning(
                "rank-%d document %s ties the top document; skipped", rank, doc_id
            )
            continue
        triplets.append(
            Triplet(
                ranking.query_ids,
                corpus[top_id],
                corpus[doc_id],
                top_score,
                score,
                counter_rank=rank,
            )
        )
    return triplets


# ---------------------------------------------------------------------------
# Metrics


def cos_sim_metric(
    queries: Sequence[Sequence[int]], edits: Sequence[Sequence[int]], idf: np.ndarray
) -> list[float]:
    """Cosine of the sparse query representations of each pair
    ``(queries[i], edits[i])``, clamped to [0, 1]. Identical sequences
    score exactly 1.0; a sequence with no scoreable term (its
    representation is the zero vector) scores 0.0.

    A sequence's representation weighs each distinct term t by
    ``idf[t] * tf`` (``idf`` as ``Bm25SearchModel.idf_array`` gives it;
    special tokens carry no weight) and divides by the L2 norm. The float
    operations are those of a Python loop, in its order: the squares are
    added left to right from 0.0 in first-occurrence order, and the dot
    product adds the shared terms' products left to right from 0.0 in
    ascending term order. Each distinct sequence is represented once.
    """
    number: dict[tuple[int, ...], int] = {}  # of each distinct sequence
    pairs = np.array([number.setdefault(tuple(ids), len(number))
                      for pair in zip(queries, edits) for ids in pair],
                     dtype=np.int64).reshape(-1, 2)
    sequences = list(number)
    lengths = np.fromiter(map(len, sequences), np.int64, len(sequences))
    tokens = np.fromiter(chain.from_iterable(sequences), np.int64, int(lengths.sum()))
    owner = np.repeat(np.arange(len(sequences)), lengths)
    scored = tokens >= FIRST_CONTENT_ID
    size = len(idf)
    # Each sequence's distinct terms in ascending order, with the place of
    # their first occurrence and their count.
    keys, first, tf = np.unique(
        owner[scored] * size + tokens[scored], return_index=True, return_counts=True
    )
    seq, term = np.divmod(keys, size)
    weights = idf[term] * tf
    by_first = np.argsort(first)
    w = weights[by_first]
    counts = np.bincount(seq, minlength=len(sequences))
    squares = sums_in_order(w * w, counts)
    representation = weights / np.sqrt(squares)[seq]
    # Each pair's terms of q and of q', as positions in ``keys``; a shared
    # term has the same (pair, term) key on both sides.
    heads = np.cumsum(counts) - counts
    q, e = pairs[:, 0], pairs[:, 1]
    u = ranges(heads[q], counts[q])
    v = ranges(heads[e], counts[e])
    u_pair = np.repeat(np.arange(len(pairs)), counts[q])
    u_keys = u_pair * size + term[u]
    v_keys = np.repeat(np.arange(len(pairs)), counts[e]) * size + term[v]
    at = np.searchsorted(v_keys, u_keys)
    shared = np.flatnonzero(np.append(v_keys, -1)[at] == u_keys)  # -1: no key
    products = representation[u[shared]] * representation[v[at[shared]]]
    dots = sums_in_order(products, np.bincount(u_pair[shared], minlength=len(pairs)))
    dots = np.clip(dots, 0.0, 1.0)
    dots[q == e] = 1.0
    return dots.tolist()


def bertscore_f1(
    queries: Sequence[Sequence[int]],
    edits: Sequence[Sequence[int]],
    query_vectors: Sequence[np.ndarray],
    edited_vectors: Sequence[np.ndarray],
) -> list[float]:
    """Greedy-matching token similarity F1 in [0, 1] of each pair
    ``(queries[i], edits[i])``, whose token vectors are
    ``query_vectors[i]`` and ``edited_vectors[i]``. Identical sequences
    score exactly 1.0.

    Each token's best dot product against the other sequence is mapped
    from [-1, 1] to [0, 1] via (s+1)/2, then averaged into precision and
    recall. No BLAS: each dot product is ``np.add.reduce`` over the vector
    axis of an elementwise product, and each mean is ``np.add.reduceat``
    over the pair's own values, so a pair's floats do not depend on the
    other pairs of the call, nor on the BLAS kernel or the CPU.
    """
    if not len(queries):
        return []
    n_q = np.array([len(m) for m in query_vectors])
    n_e = np.array([len(m) for m in edited_vectors])
    if not (n_q.all() and n_e.all()):
        raise ValueError("BERTScore of an empty sequence")
    q, e = np.concatenate(query_vectors), np.concatenate(edited_vectors)
    e = e.astype(np.result_type(q, e), copy=False)  # the products are made in e's
    q_heads, e_heads = np.cumsum(n_q) - n_q, np.cumsum(n_e) - n_e
    # Every (edited token, original token) cell, pair by pair; in a pair,
    # row by row (an edited token's cells are consecutive).
    cells = n_e * n_q
    width, height = np.repeat(n_q, cells), np.repeat(n_e, cells)
    heads = np.repeat(np.cumsum(cells) - cells, cells)
    place = np.arange(len(heads)) - heads
    row, col = np.divmod(place, width)
    rows, cols = np.repeat(e_heads, cells) + row, np.repeat(q_heads, cells) + col
    sims = np.empty(len(rows), dtype=e.dtype)
    step = max(1, _PRODUCT_ENTRIES // q.shape[1])
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        products = e[rows[part]]
        products *= q[cols[part]]
        sims[part] = np.add.reduce(products, axis=1)
    # The same cells column by column: an original token's are consecutive.
    across, down = np.divmod(place, height)
    by_col = heads + down * width + across
    best_p = (np.maximum.reduceat(sims, np.flatnonzero(col == 0)) + 1.0) / 2.0
    best_r = (np.maximum.reduceat(sims[by_col], np.flatnonzero(down == 0)) + 1.0) / 2.0
    precision = np.add.reduceat(best_p, e_heads) / n_e.astype(best_p.dtype)
    recall = np.add.reduceat(best_r, q_heads) / n_q.astype(best_r.dtype)
    p, r = precision.astype(np.float64), recall.astype(np.float64)
    total = p + r
    f1 = np.divide(2.0 * p * r, total, out=np.zeros(len(p)), where=total != 0.0)
    f1[[tuple(a) == tuple(b) for a, b in zip(queries, edits)]] = 1.0
    return f1.tolist()


def fluency_metric(
    query_ids: Sequence[int],
    edited_ids: Sequence[int],
    ppl_fn: Callable[[Sequence[int]], float],
    edited_ppl_fn: Callable[[Sequence[int]], float],
) -> float:
    """Perplexity ratio ppl(edited) / ppl(original); 1.0 is ideal. The
    original's perplexity is ``ppl_fn``'s, the edited query's
    ``edited_ppl_fn``'s."""
    return edited_ppl_fn(edited_ids) / ppl_fn(query_ids)


# ---------------------------------------------------------------------------
# Baselines


def baseline_mask_only(
    triplet: Triplet, importance: ImportanceScores, scorer
) -> EditResult:
    """Drop important tokens instead of editing them.

    Iteration i (from ``importance.first_masks``, as in ``edit``)
    replaces the top-i important tokens with PAD (which the index never
    matches) and stops at the first replacement set that flips the pair.
    No flip after masking every token yields None. The trace is empty.
    """
    query = triplet.query_ids
    for i in range(importance.first_masks, len(query) + 1):
        positions = set(importance.order[:i])
        padded = tuple(
            PAD_ID if pos in positions else tok for pos, tok in enumerate(query)
        )
        if check_flip(padded, triplet, scorer):
            return EditResult(padded, i, ())
    return EditResult(None, len(query), ())


def rank_sentences(
    sentences: Sequence[tuple[int, ...]], ppl_fn: Callable[[Sequence[int]], float]
) -> list[tuple[int, ...]]:
    """The distinct sentences that hold no ``[UNK]``, by ascending
    (perplexity, token ids): the order of ``select_final``. A stored
    sentence holds ``[UNK]`` where a word fell below the vocabulary's
    ``min_count``; no outcome may. Each sentence kept costs one ``ppl_fn``
    call, in text order."""
    distinct = [ids for ids in dict.fromkeys(sentences) if UNK_ID not in ids]
    ppls = [ppl_fn(ids) for ids in distinct]
    return [ids for _, ids in sorted(zip(ppls, distinct))]


def baseline_max_flip(
    triplet: Triplet, ranked: Sequence[tuple[int, ...]], scorer
) -> EditResult:
    """Use a whole sentence of the target document as the new query.

    ``ranked`` holds d''s sentences as token ids, those holding ``[UNK]``
    left out, ranked by ``rank_sentences``. The first that flips the pair
    is the flipping sentence ``select_final`` would pick: the lowest
    perplexity, ties by ascending token-id sequence. The sentences after
    it are not checked. None when no sentence flips.
    """
    for ids in ranked:
        if check_flip(ids, triplet, scorer):
            return EditResult(ids, 0, ())
    return EditResult(None, 0, ())


# ---------------------------------------------------------------------------
# Evaluation harness


@dataclass(frozen=True)
class EvalContext:
    """Read-only bundle of the components one evaluation run needs.

    ``search`` is always the built-in lexical model; the harness reads
    only its ``idf_array``, the weights of CosSim's query
    representations. ``scorer``, ``embedder``, the predictor
    factory and ``ppl_fn`` may be remote-backed drop-ins with the same
    call shapes. The predictor factory is called once per target
    document and beam size (see ``SharedWork``). The local ``ppl_fn``, a
    ``LocalPerplexity``, also gives the perplexity of every sentence of
    many documents at once (see ``_sweep_tasks``).
    ``masker`` names the importance masker and ``max_masks`` caps cfe2's
    masks (None: |q|).
    """

    vocab: Vocabulary
    search: Bm25SearchModel
    scorer: Any
    embedder: Any
    ppl_fn: Callable[[Sequence[int]], float]
    predictor_factory: Callable[[Document], Any]
    masker: str
    max_masks: int | None


def _once(memo: dict, key: Any, compute: Callable[[Any], Any]) -> Any:
    """``memo[key]``, computed by ``compute(key)`` on first use.

    The memo maps a key to its value (never None), or to the lock held by
    the thread that is computing it. The first caller computes the value;
    a caller that finds it being computed waits for it.
    """
    value = memo.get(key)
    if value is None:
        pending = threading.Lock()
        pending.acquire()
        value = memo.setdefault(key, pending)  # atomic: one caller wins
        if value is pending:
            try:
                memo[key] = value = compute(key)
            except BaseException:
                del memo[key]  # a later caller computes it afresh
                raise
            finally:
                pending.release()
            return value
    if type(value) is _LOCK_TYPE:
        with value:  # wait until its value is stored, then look again
            pass
        return _once(memo, key, compute)
    return value


class SharedWork:
    """The values the triplets of one key share, each computed once, on
    first use. A triplet (q, d, d') has two keys: its ranking (q, d), whose
    work gives the importance of q's tokens for d and q's text, and its
    target d', whose work gives d''s predictor (with its memo of answers)
    and d''s distinct sentences as token ids, ranked by
    ``rank_sentences``. ``sentence_ppls``, when
    given, returns a table of the sentence perplexities of the pass's
    target documents (see ``_sweep_tasks``); ranking d' seeds the
    perplexity memo from it, which is exact, since the table holds the
    floats ``ppl_fn`` gives.
    Both also hold memos of ``vectors_for`` and perplexity, so they stand
    in for the embedder and ``ppl_fn`` where the masker, the editor and
    the metric inputs (see ``_record_for``) take them.

    The memos are keyed by the token sequence asked about, so no sequence
    is asked twice. That is exact because each is a function of the
    sequence alone, and the shared values are functions of the key.
    Memoized vectors are read-only, since every caller of a sequence gets
    the same array.

    The triplets of one key may run on several worker threads; see
    ``_once``. The object refers to the context and nothing refers back
    to it, so it is freed with the last task that holds it (see
    ``_sweep_tasks``).
    """

    def __init__(
        self,
        ctx: EvalContext,
        sentence_ppls: Callable[[], dict[str, list[float]]] | None = None,
    ):
        self.ctx = ctx
        self._sentence_ppls = sentence_ppls
        self._shared: dict[str, Any] = {}
        self._vectors: dict[tuple[int, ...], Any] = {}
        self._ppl: dict[tuple[int, ...], Any] = {}

    def importance(self, triplet: Triplet) -> ImportanceScores:
        def compute(_):
            query, d = triplet.query_ids, triplet.d
            if self.ctx.masker == "maxsim":
                return maxsim_importance(query, d.ids, self)
            if self.ctx.masker == "occlusion":
                return occlusion_importance(query, d, self.ctx.scorer)
            raise ValueError(f"unknown masker: {self.ctx.masker}")

        return _once(self._shared, "importance", compute)

    def predictor(self, d_prime: Document):
        return _once(
            self._shared, "predictor", lambda _: self.ctx.predictor_factory(d_prime)
        )

    def sentences(self, d_prime: Document) -> list[tuple[int, ...]]:
        def compute(_):
            sentences = d_prime.sentences()
            if self._sentence_ppls is not None:
                self._ppl.update(zip(sentences, self._sentence_ppls()[d_prime.id]))
            return rank_sentences(sentences, self.ppl)

        return _once(self._shared, "sentences", compute)

    def query_text(self, query_ids: Sequence[int]) -> str:
        # Interned, so the records of one query share one string at
        # every size.
        return _once(
            self._shared, "query_text",
            lambda _: sys.intern(self.ctx.vocab.text(query_ids)),
        )

    def vectors_for(self, ids: Sequence[int]) -> np.ndarray:
        return _once(self._vectors, tuple(ids), self._read_only_vectors)

    def _read_only_vectors(self, ids: tuple[int, ...]) -> np.ndarray:
        vectors = self.ctx.embedder.vectors_for(ids)
        vectors.setflags(write=False)
        return vectors

    def ppl(self, ids: Sequence[int]) -> float:
        return _once(self._ppl, tuple(ids), self.ctx.ppl_fn)


@dataclass
class EvalRecord:
    """Per-triplet outcome plus its metric values (None where undefined).
    ``beam_sweep`` sets CosSim and BERTScore per block of records."""

    index: int
    query: str
    doc_id: str
    counter_doc_id: str
    counter_rank: int | None
    flipped: bool
    outcome: str | None
    masks_used: int
    cos_sim: float | None
    bertscore: float | None
    fluency: float | None
    elapsed: float


@dataclass
class EvalReport:
    """One method's records and meta. ``aggregates`` (all records) and ``by_rank``
    (ascending target-document rank; unranked records left out) derive from them."""

    method: str
    records: list[EvalRecord]
    meta: dict[str, Any]
    aggregates: dict[str, Any] = field(init=False)
    by_rank: dict[int, dict[str, Any]] = field(init=False)

    def __post_init__(self) -> None:
        self.aggregates = aggregate_records(self.records)
        self.by_rank = {
            k: aggregate_records([r for r in self.records if r.counter_rank == k])
            for k in sorted({r.counter_rank for r in self.records} - {None})
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "meta": self.meta,
            "aggregates": self.aggregates,
            "by_rank": {str(r): v for r, v in self.by_rank.items()},
            "records": [vars(r) for r in self.records],
        }


def _mean(values: list[float]) -> float | None:
    total = 0.0
    for value in values:  # left to right; ``sum`` differs on 3.12+
        total += value
    return total / len(values) if values else None


def aggregate_records(records: Sequence[EvalRecord]) -> dict[str, Any]:
    """Recompute every aggregate from the raw records (at least one).

    Flip rate counts missing outcomes as non-flips; similarity and
    fluency means cover only the records with an outcome, with the
    number of misses reported separately.
    """
    solved = [r for r in records if r.outcome is not None]
    flips = sum(1 for r in records if r.flipped)
    return {
        "triplets": len(records),
        "flips": flips,
        "flip_rate": flips / len(records),
        "nulls": len(records) - len(solved),
        "mean_cos_sim": _mean([r.cos_sim for r in solved]),
        "mean_bertscore_f1": _mean([r.bertscore for r in solved]),
        "mean_fluency": _mean([r.fluency for r in solved]),
        "mean_runtime_s": _mean([r.elapsed for r in records]),
    }


def run_method(
    triplet: Triplet,
    method: str,
    beam_width: int,
    work: SharedWork,
    target: SharedWork,
) -> EditResult:
    """Produce one EditResult for ``triplet`` with ``method``, one of
    ``METHODS`` (any other name raises ValueError). ``work`` is the
    ``SharedWork`` of the triplet's ranking (q, d) and ``target`` that of
    its target document d'; the run reads its context from ``work.ctx``.
    Only cfe2 reads ``beam_width`` and ``ctx.max_masks``.
    """
    ctx = work.ctx
    if method == "cfe2":
        return edit(
            triplet,
            ctx.scorer,
            work.importance(triplet),
            target.predictor(triplet.d_prime),
            work.ppl,
            beam_width=beam_width,
            max_masks=ctx.max_masks,
        )
    if method == "mask_only":
        return baseline_mask_only(triplet, work.importance(triplet), ctx.scorer)
    if method == "max_flip":
        return baseline_max_flip(triplet, target.sentences(triplet.d_prime), ctx.scorer)
    raise ValueError(f"unknown method: {method}")


def evaluate(
    triplets: Sequence[Triplet],
    method: str,
    ctx: EvalContext,
    beam_width: int = 10,
    workers: int = 1,
    timing: str = "wall",
    meta: dict[str, Any] | None = None,
) -> EvalReport:
    """Run ``method`` on every triplet and assemble the report: the
    one-size ``beam_sweep``. Each edit is timed on its own; with
    ``timing="off"`` the elapsed fields are 0.0, so repeated runs are
    byte-identical. Workers and shared work are as in ``sweep_edits``."""
    return beam_sweep(triplets, [beam_width], ctx, workers, meta, method, timing=timing)[0]


def _record_for(
    index: int,
    triplet: Triplet,
    method: str,
    result: EditResult,
    work: SharedWork,
    target: SharedWork,
    elapsed: float,
) -> tuple[EvalRecord, tuple[Any, ...] | None]:
    """The row's record, CosSim and BERTScore left None, and for an
    outcome, the inputs of their kernels: (q, outcome, q's vectors, the
    outcome's vectors). The vectors, the fluency and the outcome's text
    are asked here, through the row's works."""
    query_ids = triplet.query_ids
    outcome = result.outcome
    record = EvalRecord(index, work.query_text(query_ids), triplet.d.id,
                        triplet.d_prime.id, triplet.counter_rank, outcome is not None,
                        None, result.masks_used, None, None, None, elapsed)
    if outcome is None:
        return record, None
    # A max_flip outcome is a sentence of d', asked again by every ranking
    # with that target, so d''s work holds its answers.
    owner = target if method == "max_flip" else work
    pair = (query_ids, outcome, work.vectors_for(query_ids), owner.vectors_for(outcome))
    record.fluency = fluency_metric(query_ids, outcome, work.ppl, owner.ppl)
    record.outcome = work.ctx.vocab.text(outcome)
    return record, pair


def _sweep_tasks(
    triplets: Sequence[Triplet], ctx: EvalContext, n_sizes: int
) -> Iterator[tuple[int, Triplet, list[SharedWork], list[SharedWork]]]:
    """The tasks of ``sweep_edits``, the one edit loop of ``eval``,
    ``sweep-beam`` and ``edit``: ``(index, triplet, works, targets)`` for
    every triplet, in input order. ``works`` holds one ``SharedWork`` per
    beam size for the triplet's ranking, keyed by (q, d), and ``targets``
    one per beam size for its target document, keyed by d'. A key's works
    are made on its first triplet and let go with the task of its last,
    so every triplet of a key shares them wherever it stands in the input,
    and the live ones are bounded by the keys still to come, not by the
    run's length.

    When ``ctx.ppl_fn`` is the local role, each size also has one
    table of the perplexity of every sentence of every target document of
    the run, made by one ``batch`` call on the first ask (a max_flip
    ranking) and shared by all works of that size.

    Each size has its own works, so the edits at one size pay exactly the
    shared work an ``evaluate`` at that size pays. Sharing them across
    sizes would let a size reuse perplexities another size paid for, and
    the measured runtime would no longer grow with the beam as an
    ``evaluate`` at each size does.
    """
    last: dict[Any, int] = {}
    for i, t in enumerate(triplets):
        last[t.query_ids, t.d.id] = last[t.d_prime.id] = i
    tables: list[Any] = [None] * n_sizes
    if isinstance(ctx.ppl_fn, LocalPerplexity):
        batch = ctx.ppl_fn.batch
        targets = list(dict.fromkeys(t.d_prime.id for t in triplets))
        tables = [
            partial(_once, {}, "table", lambda _: dict(zip(targets, batch(targets))))
            for _ in tables
        ]
    live: dict[Any, list[SharedWork]] = {}

    def works_for(key: Any, index: int) -> list[SharedWork]:
        works = live.get(key)
        if works is None:
            works = live[key] = [SharedWork(ctx, table) for table in tables]
        if last[key] == index:
            del live[key]
        return works

    for index, t in enumerate(triplets):
        works = works_for((t.query_ids, t.d.id), index)
        yield index, t, works, works_for(t.d_prime.id, index)


def sweep_edits(
    triplets: Sequence[Triplet],
    sizes: Sequence[int],
    ctx: EvalContext,
    make: Callable[..., Any],
    method: str = "cfe2",
    *,
    workers: int,
    timing: str,
) -> Iterator[list[Any]]:
    """Edit every triplet with ``method`` at every beam size and yield, per
    triplet in input order, one ``make(index, triplet, method, result,
    work, target, elapsed)`` per size, in the order of ``sizes``.

    The work the triplets of one ranking (q, d) or of one target document
    d' share at one size (see ``SharedWork`` and ``_sweep_tasks``) is
    computed once, inside the first timed edit at that size that needs
    it, so with one worker the summed ``elapsed`` covers all the work
    exactly. ``make`` runs after the edit's clock stops. With one worker
    the triplets are edited lazily, one per row taken. Several workers
    take single triplets, so one ranking's triplets run in parallel; an
    edit that waits for a value another thread is computing counts that
    wait in its ``elapsed``. Each triplet is edited at every size in turn,
    so a change in host speed hits all sizes alike, and the size it
    starts with rotates from triplet to triplet, so shared work and the
    extra cost of a triplet's first edit (cold caches) are spread over
    all sizes. Edits are timed in wall seconds, or by a constant 0.0 clock
    under ``timing="off"``, so repeated runs write identical bytes."""
    clock = time.perf_counter if timing == "wall" else lambda: 0.0
    n = len(sizes)

    # Holds no reference to ctx: each task carries it in its works, which
    # are freed with the last task that shares them.
    def sweep(
        task: tuple[int, Triplet, list[SharedWork], list[SharedWork]],
    ) -> list[Any]:
        index, triplet, works, targets = task
        row: dict[int, Any] = {}
        for k in range(index, index + n):
            s = k % n
            work, target = works[s], targets[s]
            start = clock()
            result = run_method(triplet, method, sizes[s], work, target)
            row[s] = make(
                index, triplet, method, result, work, target, clock() - start
            )
        return [row[s] for s in range(n)]

    tasks = _sweep_tasks(triplets, ctx, n)
    if workers <= 1:
        yield from map(sweep, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(sweep, tasks)  # in input order


def beam_sweep(
    triplets: Sequence[Triplet],
    sizes: Sequence[int],
    ctx: EvalContext,
    workers: int,
    meta: dict[str, Any] | None = None,
    method: str = "cfe2",
    *,
    timing: str,
) -> list[EvalReport]:
    """One ``EvalReport`` per beam size, in the order given, of the records
    ``sweep_edits`` makes with ``_record_for`` and of ``meta``.

    Rows are taken ``_BLOCK_ROWS`` at a time. Each row asks for its
    metric inputs when it is made (see ``_record_for``), so no shared work
    outlives its last task. The block then computes the CosSim and
    BERTScore of each distinct (q, outcome) among its rows once, across
    sizes and rankings, with one call of each kernel, and sets them in its
    records. Both metrics are functions of (q, outcome) alone, so the
    records depend neither on where blocks are cut nor on the worker
    count."""
    if not triplets:
        raise ValueError("no triplets to evaluate")
    rows = sweep_edits(
        triplets, sizes, ctx, _record_for, method, workers=workers, timing=timing
    )
    idf = ctx.search.idf_array(len(ctx.vocab))
    records: list[list[EvalRecord]] = []
    while block := list(islice(rows, _BLOCK_ROWS)):
        made = list(chain.from_iterable(block))
        pairs = {p[:2]: p for _, p in made if p is not None}
        queries, outcomes = [q for q, _ in pairs], [o for _, o in pairs]
        cos = cos_sim_metric(queries, outcomes, idf)
        f1 = bertscore_f1(queries, outcomes, [p[2] for p in pairs.values()],
                          [p[3] for p in pairs.values()])
        metrics = dict(zip(pairs, zip(cos, f1)))
        for record, pair in made:
            if pair is not None:
                record.cos_sim, record.bertscore = metrics[pair[:2]]
        records += ([record for record, _ in row] for row in block)
    return [
        EvalReport(method, list(column), {"beam": b, "timing": timing, **(meta or {})})
        for b, column in zip(sizes, zip(*records))
    ]


# ---------------------------------------------------------------------------
# Report serialization


def canonical_json(payload: Any) -> str:
    """Stable JSON encoding: sorted keys, fixed layout, trailing newline.
    Each chunk is written to one buffer as it is encoded, not kept in a list."""
    encoder = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False)
    out = io.StringIO()
    out.writelines(encoder.iterencode(payload))
    out.write("\n")
    return out.getvalue()


def reports_to_json(reports: Sequence[EvalReport]) -> str:
    payload: dict[str, Any] = {}
    for report in reports:  # a repeated method's key would keep only the last
        if report.method in payload:
            raise ValueError(f"duplicate method: {report.method}")
        payload[report.method] = report.to_dict()
    return canonical_json(payload)


_METRIC_ROWS = (
    ("Flip Rate", "flip_rate"),
    ("CosSim", "mean_cos_sim"),
    ("BERTScore-F1", "mean_bertscore_f1"),
    ("Fluency", "mean_fluency"),
    ("Runtime (s/edit)", "mean_runtime_s"),
    ("Nulls", "nulls"),
)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_markdown(reports: Sequence[EvalReport], title: str = "Evaluation") -> str:
    """The metrics-by-method table, then each method's per-rank table."""
    lines = [f"# {title}", ""]
    if reports:
        lines += [f"Triplets: {reports[0].aggregates['triplets']}", ""]
    lines += _table([(r.method, r.aggregates) for r in reports])
    for report in reports:
        if report.by_rank:
            lines += ["", f"## By target-document rank: {report.method}", ""]
            lines += _table(report.by_rank.items())
    return "\n".join(lines + [""])


def _table(columns: Collection[tuple[Any, dict[str, Any]]]) -> list[str]:
    """A markdown table: a column per (heading, aggregates), a row per metric."""
    lines = ["| Metric | " + " | ".join(str(h) for h, _ in columns) + " |"]
    lines.append("|" + "---|" * (len(columns) + 1))
    for label, key in _METRIC_ROWS:
        cells = " | ".join(_fmt(aggregates.get(key)) for _, aggregates in columns)
        lines.append(f"| {label} | {cells} |")
    return lines
