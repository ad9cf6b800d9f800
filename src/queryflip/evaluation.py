"""Triplet construction, the metric suite, baselines, and report emission.

Metrics per edited query: whether the ranking flipped, cosine similarity
of the sparse query representations, greedy-matching embedding F1,
perplexity ratio (1.0 = unchanged fluency), and wall-clock seconds per
edit. A record's metrics are computed after its edit is timed, once per
distinct (ranking, outcome): the ranking's ``SharedWork`` memoizes them
by outcome. A max_flip outcome is a sentence of the target document d',
so its vectors, representation and perplexity are asked of d''s
``SharedWork``, which every ranking with that target shares. That work
also ranks d''s stored sentences once, by perplexity, while a max_flip
edit's flip checks stop at the first sentence that flips. The local
perplexity role scores the sentences of every target document of a pass
in one batch per beam size; any other ``ppl_fn`` (a remote backend sees
each sentence once per target and beam size) is asked per sentence. A
report derives its aggregates and its breakdown by target-document rank
from its records, and serializes to canonical JSON plus markdown tables.
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
from typing import Any, Callable, Collection, Iterator, Sequence

import numpy as np

from .corpus import Bm25SearchModel, Corpus, Document, Ranking
from .editor import EditResult, Triplet, check_flip, edit
from .lm import LocalPerplexity
from .masker import ImportanceScores, maxsim_importance, occlusion_importance
from .text import PAD_ID, UNK_ID, Vocabulary

logger = logging.getLogger(__name__)

_LOCK_TYPE = type(threading.Lock())

METHODS = ("cfe2", "mask_only", "max_flip")


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
    query_ids: Sequence[int], edited_ids: Sequence[int], search, edited_search
) -> float:
    """Cosine of the sparse query representations, clamped to [0, 1].

    The original query's representation is asked of ``search``, the
    edited query's of ``edited_search``. Identical queries score exactly
    1.0. A query whose representation is the zero vector (no scoreable
    terms) scores 0.0.
    """
    if list(query_ids) == list(edited_ids):
        return 1.0
    u = search.query_representation(query_ids)
    v = edited_search.query_representation(edited_ids)
    if not u or not v:
        logger.debug("zero-vector query in cosine metric; scored 0.0")
        return 0.0
    dot = 0.0
    for t, w in u.items():  # left to right; ``sum`` differs on 3.12+
        if t in v:
            dot += w * v[t]
    return max(0.0, min(1.0, dot))


def bertscore_f1(
    query_ids: Sequence[int], edited_ids: Sequence[int], embedder, edited_embedder
) -> float:
    """Greedy-matching token similarity F1 in [0, 1].

    Each token's best dot product against the other sequence is mapped
    from [-1, 1] to [0, 1] via (s+1)/2, then averaged into precision and
    recall. The original tokens' vectors are asked of ``embedder``, the
    edited tokens' of ``edited_embedder``. Identical sequences score
    exactly 1.0.
    """
    if list(query_ids) == list(edited_ids):
        return 1.0
    q = embedder.vectors_for(query_ids)
    e = edited_embedder.vectors_for(edited_ids)
    sims = e @ q.T  # rows: edited tokens, cols: original tokens
    # np.mean's own sum and division, without its dispatch: the same bits.
    best_p = (sims.max(axis=1) + 1.0) / 2.0
    best_r = (sims.max(axis=0) + 1.0) / 2.0
    precision = float(np.add.reduce(best_p) / len(best_p))
    recall = float(np.add.reduce(best_r) / len(best_r))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


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

    ``search`` is always the built-in lexical model (it defines rankings
    and query representations); ``scorer``, ``embedder``, the predictor
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
    work gives the importance of q's tokens for d, q's text, and the
    metrics of each outcome, and its target d', whose work gives d''s
    predictor (with its memo of answers) and d''s distinct sentences as
    token ids, ranked by ``rank_sentences``. ``sentence_ppls``, when
    given, returns a table of the sentence perplexities of the pass's
    target documents (see ``_sweep_tasks``); ranking d' seeds the
    perplexity memo from it, which is exact, since the table holds the
    floats ``ppl_fn`` gives.
    Both also hold memos of ``vectors_for``, ``query_representation`` and
    perplexity, so they stand in for the embedder, the search model and
    ``ppl_fn`` where the metrics, the masker and the editor take them.

    The memos are keyed by the token sequence asked about, so no sequence
    is asked twice. That is exact because each of the three is a function
    of the sequence alone, and the shared values are functions of the key.
    The metric memo is keyed by the outcome: its values are functions of
    (q, outcome), and q is fixed by the ranking. Memoized vectors are
    read-only, since every caller of a sequence gets the same array.

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
        self._representations: dict[tuple[int, ...], Any] = {}
        self._ppl: dict[tuple[int, ...], Any] = {}
        self._metrics: dict[tuple[int, ...], Any] = {}

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

    def metrics(
        self, query_ids: Sequence[int], outcome: tuple[int, ...], owner: SharedWork
    ) -> tuple[float, float, float, str]:
        """(cos_sim, bertscore, fluency, outcome text) of ``outcome`` as an
        edit of q, computed on the first ask. q's vectors, representation
        and perplexity are asked of this work, the outcome's of ``owner``:
        this work, or the work of the key the outcome belongs to."""

        def compute(_):
            return (
                cos_sim_metric(query_ids, outcome, self, owner),
                bertscore_f1(query_ids, outcome, self, owner),
                fluency_metric(query_ids, outcome, self.ppl, owner.ppl),
                self.ctx.vocab.text(outcome),
            )

        return _once(self._metrics, outcome, compute)

    def vectors_for(self, ids: Sequence[int]) -> np.ndarray:
        return _once(self._vectors, tuple(ids), self._read_only_vectors)

    def _read_only_vectors(self, ids: tuple[int, ...]) -> np.ndarray:
        vectors = self.ctx.embedder.vectors_for(ids)
        vectors.setflags(write=False)
        return vectors

    def query_representation(self, ids: Sequence[int]) -> dict[int, float]:
        return _once(
            self._representations, tuple(ids), self.ctx.search.query_representation
        )

    def ppl(self, ids: Sequence[int]) -> float:
        return _once(self._ppl, tuple(ids), self.ctx.ppl_fn)


@dataclass(frozen=True)
class EvalRecord:
    """Per-triplet outcome plus its metric values (None where undefined)."""

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
) -> EvalRecord:
    query_ids = triplet.query_ids
    outcome = result.outcome
    cos = f1 = fluency = outcome_text = None
    if outcome is not None:
        # A max_flip outcome is a sentence of d', asked again by every
        # ranking with that target, so d''s work holds its answers.
        owner = target if method == "max_flip" else work
        cos, f1, fluency, outcome_text = work.metrics(query_ids, outcome, owner)
    return EvalRecord(
        index=index,
        query=work.query_text(query_ids),
        doc_id=triplet.d.id,
        counter_doc_id=triplet.d_prime.id,
        counter_rank=triplet.counter_rank,
        flipped=outcome is not None,
        outcome=outcome_text,
        masks_used=result.masks_used,
        cos_sim=cos,
        bertscore=f1,
        fluency=fluency,
        elapsed=elapsed,
    )


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
    ``sweep_edits`` makes with ``_record_for`` and of ``meta``."""
    if not triplets:
        raise ValueError("no triplets to evaluate")
    rows = sweep_edits(
        triplets, sizes, ctx, _record_for, method, workers=workers, timing=timing
    )
    return [
        EvalReport(method, list(records), {"beam": b, "timing": timing, **(meta or {})})
        for b, records in zip(sizes, zip(*rows))
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
