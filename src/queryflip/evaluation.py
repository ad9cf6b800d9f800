"""Triplet construction, the metric suite, baselines, and report emission.

Metrics per edited query: whether the ranking flipped, cosine similarity
of the sparse query representations, greedy-matching embedding F1,
perplexity ratio (1.0 = unchanged fluency), and wall-clock seconds per
edit. Reports aggregate per method, break results down by the rank of
the target document, and serialize to canonical JSON plus a markdown
table.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .corpus import Bm25SearchModel, Corpus, Document, Ranking
from .editor import (
    EditCandidate,
    EditResult,
    IterationTrace,
    TraceCandidate,
    Triplet,
    check_flip,
    edit,
    select_final,
)
from .masker import ImportanceScores, maxsim_importance, occlusion_importance
from .text import PAD_ID, Vocabulary, tokenize

logger = logging.getLogger(__name__)

_LOCK_TYPE = type(threading.Lock())

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")

TIMING_MODES = ("wall", "off")


def edit_clock(timing: str) -> Callable[[], float]:
    """The clock each edit is timed with: wall seconds, or a constant 0.0
    under ``timing="off"`` so repeated runs write identical bytes."""
    if timing not in TIMING_MODES:
        raise ValueError(f"unknown timing mode: {timing}")
    return time.perf_counter if timing == "wall" else lambda: 0.0


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


def flip_rate(flipped_flags: Sequence[bool]) -> float:
    """Fraction of records that flipped; a missing outcome counts as no flip."""
    if not flipped_flags:
        raise ValueError("no records")
    return sum(1 for f in flipped_flags if f) / len(flipped_flags)


def cos_sim_metric(
    query_ids: Sequence[int], edited_ids: Sequence[int], search
) -> float:
    """Cosine of the sparse query representations, clamped to [0, 1].

    Identical queries score exactly 1.0. A query whose representation is
    the zero vector (no scoreable terms) scores 0.0.
    """
    if len(query_ids) == 0 or len(edited_ids) == 0:
        raise ValueError("empty query")
    if list(query_ids) == list(edited_ids):
        return 1.0
    u = search.query_representation(query_ids)
    v = search.query_representation(edited_ids)
    if not u or not v:
        logger.debug("zero-vector query in cosine metric; scored 0.0")
        return 0.0
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    return max(0.0, min(1.0, dot))


def bertscore_f1(
    query_ids: Sequence[int], edited_ids: Sequence[int], embedder
) -> float:
    """Greedy-matching token similarity F1 in [0, 1].

    Each token's best dot product against the other sequence is mapped
    from [-1, 1] to [0, 1] via (s+1)/2, then averaged into precision and
    recall. Identical sequences score exactly 1.0.
    """
    if len(query_ids) == 0 or len(edited_ids) == 0:
        raise ValueError("empty query")
    if list(query_ids) == list(edited_ids):
        return 1.0
    q = embedder.vectors_for(query_ids)
    e = embedder.vectors_for(edited_ids)
    sims = e @ q.T  # rows: edited tokens, cols: original tokens
    precision = float(np.mean((np.max(sims, axis=1) + 1.0) / 2.0))
    recall = float(np.mean((np.max(sims, axis=0) + 1.0) / 2.0))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def fluency_metric(
    query_ids: Sequence[int],
    edited_ids: Sequence[int],
    ppl_fn: Callable[[Sequence[int]], float],
) -> float:
    """Perplexity ratio ppl(edited) / ppl(original); 1.0 is ideal."""
    if len(query_ids) == 0 or len(edited_ids) == 0:
        raise ValueError("empty query")
    return ppl_fn(edited_ids) / ppl_fn(query_ids)


# ---------------------------------------------------------------------------
# Baselines


def baseline_mask_only(
    triplet: Triplet, importance: ImportanceScores, scorer
) -> EditResult:
    """Drop important tokens instead of editing them.

    Iteration i replaces the top-i important tokens with PAD (which the
    index never matches) and stops at the first replacement set that
    flips the pair. No flip after masking every token yields None.
    """
    query = triplet.query_ids
    if len(query) == 0:
        raise ValueError("empty query")
    trace: list[IterationTrace] = []
    for i in range(1, len(query) + 1):
        positions = tuple(sorted(importance.order[:i]))
        padded = tuple(
            PAD_ID if pos in positions else tok for pos, tok in enumerate(query)
        )
        flipped = check_flip(padded, triplet, scorer)
        trace.append(
            IterationTrace(i, positions, (TraceCandidate(padded, 0.0, flipped),))
        )
        if flipped:
            return EditResult(padded, i, tuple(trace))
    return EditResult(None, len(query), tuple(trace))


def split_sentences(text: str) -> list[str]:
    """Split on ., ! or ? followed by whitespace; no empty sentences."""
    return [s for s in _SENTENCE_RE.split(text.strip()) if s.strip()]


def sentence_ids(text: str, vocab: Vocabulary) -> tuple[tuple[int, ...], ...]:
    """The token ids of each sentence of ``text`` that has a token."""
    tokenized = (tokenize(sentence) for sentence in split_sentences(text))
    return tuple(tuple(vocab.encode(tokens)) for tokens in tokenized if tokens)


def baseline_max_flip(
    triplet: Triplet,
    sentences: Sequence[tuple[int, ...]],
    scorer,
    ppl_fn: Callable[[Sequence[int]], float],
) -> EditResult:
    """Use a whole sentence of the target document as the new query.

    ``sentences`` are d''s sentences as token ids (see ``sentence_ids``).
    Among those that flip the pair, ``select_final`` picks the one with
    the lowest perplexity (ties by ascending token-id sequence). None
    when no sentence flips.
    """
    flipping = [
        EditCandidate(ids, 0.0) for ids in sentences if check_flip(ids, triplet, scorer)
    ]
    if not flipping:
        return EditResult(None, 0, ())
    return EditResult(select_final(flipping, ppl_fn).tokens, 0, ())


# ---------------------------------------------------------------------------
# Evaluation harness


@dataclass
class EvalContext:
    """Read-only bundle of the components one evaluation run needs.

    ``search`` is always the built-in lexical model (it defines rankings
    and query representations); ``scorer``, ``embedder``, the predictor
    factory and ``ppl_fn`` may be remote-backed drop-ins with the same
    call shapes. The predictor factory is called once per target
    document (see ``TargetWork``).
    """

    vocab: Vocabulary
    search: Bm25SearchModel
    scorer: Any
    embedder: Any
    ppl_fn: Callable[[Sequence[int]], float]
    predictor_factory: Callable[[Document], Any]
    masker: str = "maxsim"


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


class RankingWork:
    """The values every triplet of one ranking shares, each computed once,
    on first use: the importance of q's tokens for its top document d,
    q's text, and memos of ``vectors_for``, ``query_representation`` and
    perplexity. It stands in for the embedder, the search model and
    ``ppl_fn`` where the metrics and the masker take them.

    The memos are keyed by the token sequence asked about, so no sequence
    (q included) is asked twice. That is exact because each of the three
    is a function of the sequence alone, and the shared values are
    functions of (q, d), which are the same for the whole ranking.

    The triplets of one group may run on several worker threads; see
    ``_once``. The object refers to the context and nothing refers back
    to it, so no reference cycle keeps a loaded stack alive after its
    group is done.
    """

    def __init__(self, ctx: EvalContext, query_ids: tuple[int, ...], doc: Document):
        self.ctx = ctx
        self.query_ids = query_ids
        self.doc = doc
        self._shared: dict[str, Any] = {}
        self._vectors: dict[tuple[int, ...], Any] = {}
        self._representations: dict[tuple[int, ...], Any] = {}
        self._ppl: dict[tuple[int, ...], Any] = {}

    def importance(self) -> ImportanceScores:
        return _once(self._shared, "importance", self._importance)

    def text(self) -> str:
        return _once(self._shared, "text", self._text)

    def vectors_for(self, ids: Sequence[int]) -> np.ndarray:
        return _once(self._vectors, tuple(ids), self.ctx.embedder.vectors_for)

    def query_representation(self, ids: Sequence[int]) -> dict[int, float]:
        return _once(
            self._representations, tuple(ids), self.ctx.search.query_representation
        )

    def ppl(self, ids: Sequence[int]) -> float:
        return _once(self._ppl, tuple(ids), self.ctx.ppl_fn)

    def _importance(self, _key: str) -> ImportanceScores:
        try:
            masker = _MASKERS[self.ctx.masker]
        except KeyError:
            raise ValueError(f"unknown masker: {self.ctx.masker}") from None
        return masker(self)

    def _text(self, _key: str) -> str:
        return " ".join(self.ctx.vocab.decode(self.query_ids))


class TargetWork:
    """The values every triplet with one target document d' shares, each
    computed once, on first use: d''s predictor (with its memo of
    answers), d''s sentences as token ids, and a memo of those sentences'
    perplexities, keyed by token sequence, which max_flip's selection and
    the fluency of its outcome both read.

    Like ``RankingWork``, it is safe to share between worker threads and
    nothing refers back to it from the context.
    """

    def __init__(self, ctx: EvalContext, d_prime: Document):
        self.ctx = ctx
        self.d_prime = d_prime
        self._shared: dict[str, Any] = {}
        self._ppl: dict[tuple[int, ...], Any] = {}

    def predictor(self):
        return _once(self._shared, "predictor", self._predictor)

    def sentences(self) -> tuple[tuple[int, ...], ...]:
        return _once(self._shared, "sentences", self._sentences)

    def ppl(self, ids: Sequence[int]) -> float:
        return _once(self._ppl, tuple(ids), self.ctx.ppl_fn)

    def _predictor(self, _key: str):
        return self.ctx.predictor_factory(self.d_prime)

    def _sentences(self, _key: str) -> tuple[tuple[int, ...], ...]:
        return sentence_ids(self.d_prime.text, self.ctx.vocab)


_MASKERS: dict[str, Callable[[RankingWork], ImportanceScores]] = {
    "maxsim": lambda work: maxsim_importance(work.query_ids, work.doc.ids, work),
    "occlusion": lambda work: occlusion_importance(
        work.query_ids, work.doc, work.ctx.scorer
    ),
}
MASKERS = tuple(_MASKERS)


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
    """One method's records, aggregates, and per-rank breakdown."""

    method: str
    records: list[EvalRecord]
    aggregates: dict[str, Any] = field(default_factory=dict)
    by_rank: dict[int, dict[str, Any]] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "method": self.method,
            "meta": self.meta,
            "aggregates": self.aggregates,
            "by_rank": {str(r): v for r, v in sorted(self.by_rank.items())},
            "records": [vars(r) for r in self.records],
        }


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate_records(records: Sequence[EvalRecord]) -> dict[str, Any]:
    """Recompute every aggregate from the raw records.

    Flip rate counts missing outcomes as non-flips; similarity and
    fluency means cover only the records with an outcome, with the
    number of misses reported separately.
    """
    if not records:
        raise ValueError("no records")
    solved = [r for r in records if r.outcome is not None]
    return {
        "triplets": len(records),
        "flips": sum(1 for r in records if r.flipped),
        "flip_rate": flip_rate([r.flipped for r in records]),
        "nulls": len(records) - len(solved),
        "mean_cos_sim": _mean([r.cos_sim for r in solved]),
        "mean_bertscore_f1": _mean([r.bertscore for r in solved]),
        "mean_fluency": _mean([r.fluency for r in solved]),
        "mean_runtime_s": _mean([r.elapsed for r in records]),
    }


def _breakdown_by_rank(records: Sequence[EvalRecord]) -> dict[int, dict[str, Any]]:
    ranks = sorted({r.counter_rank for r in records if r.counter_rank is not None})
    return {
        rank: aggregate_records([r for r in records if r.counter_rank == rank])
        for rank in ranks
    }


def _run_cfe2(
    triplet: Triplet, work: RankingWork, target: TargetWork, beam_width: int,
    max_masks: int | None,
) -> EditResult:
    budget = len(triplet.query_ids)
    if max_masks is not None:
        budget = min(max_masks, budget)
    return edit(
        triplet,
        work.ctx.scorer,
        work.importance(),
        target.predictor(),
        work.ppl,
        beam_width=beam_width,
        max_masks=budget,
    )


def _run_mask_only(
    triplet: Triplet, work: RankingWork, target: TargetWork, beam_width: int,
    max_masks: int | None,
) -> EditResult:
    return baseline_mask_only(triplet, work.importance(), work.ctx.scorer)


def _run_max_flip(
    triplet: Triplet, work: RankingWork, target: TargetWork, beam_width: int,
    max_masks: int | None,
) -> EditResult:
    return baseline_max_flip(triplet, target.sentences(), work.ctx.scorer, target.ppl)


_METHOD_RUNNERS = {
    "cfe2": _run_cfe2,
    "mask_only": _run_mask_only,
    "max_flip": _run_max_flip,
}
METHODS = tuple(_METHOD_RUNNERS)


def run_method(
    triplet: Triplet,
    method: str,
    ctx: EvalContext,
    beam_width: int = 10,
    max_masks: int | None = None,
    work: RankingWork | None = None,
    target: TargetWork | None = None,
) -> EditResult:
    """Produce one EditResult for ``triplet`` with the chosen method.

    ``work`` carries the values shared with other triplets of the same
    query and top document, and ``target`` those shared with other
    triplets of the same target document; without them they are
    computed afresh.
    """
    try:
        run = _METHOD_RUNNERS[method]
    except KeyError:
        raise ValueError(f"unknown method: {method}") from None
    if work is None:
        work = RankingWork(ctx, triplet.query_ids, triplet.d)
    if target is None:
        target = TargetWork(ctx, triplet.d_prime)
    return run(triplet, work, target, beam_width, max_masks)


def evaluate(
    triplets: Sequence[Triplet],
    method: str,
    ctx: EvalContext,
    beam_width: int = 10,
    max_masks: int | None = None,
    workers: int = 1,
    timing: str = "wall",
    meta: dict[str, Any] | None = None,
) -> EvalReport:
    """Run ``method`` on every triplet and assemble the report.

    Each edit is timed individually with a per-task wall clock; with
    ``timing="off"`` the elapsed fields are recorded as 0.0 so repeated
    runs are byte-identical. Triplets may be processed by several worker
    threads; records are emitted in input order regardless. The work a
    ranking or a target document shares is charged to the first timed
    edit that needs it (see ``beam_sweep``).
    """
    return beam_sweep(
        triplets, [beam_width], ctx, max_masks, workers, timing, meta, method
    )[0]


def _record_for(
    index: int,
    triplet: Triplet,
    method: str,
    result: EditResult,
    work: RankingWork,
    target: TargetWork,
    elapsed: float,
) -> EvalRecord:
    query_ids = triplet.query_ids
    outcome = result.outcome
    cos = f1 = fluency = None
    outcome_text = None
    if outcome is not None:
        cos = cos_sim_metric(query_ids, outcome, work)
        f1 = bertscore_f1(query_ids, outcome, work)
        ppl = work.ppl
        if method == "max_flip":
            # The outcome is a sentence of d', whose perplexity the target's
            # memo holds; it never equals q, which cannot flip.
            def ppl(ids):
                return work.ppl(ids) if ids is query_ids else target.ppl(ids)

        fluency = fluency_metric(query_ids, outcome, ppl)
        outcome_text = " ".join(work.ctx.vocab.decode(outcome))
    return EvalRecord(
        index=index,
        query=work.text(),
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


def check_beam_sizes(sizes: Sequence[int]) -> None:
    """Reject an empty list of beam sizes, a size below 1 or a repeated
    size, whose reports would share one name."""
    if not sizes:
        raise ValueError("no beam sizes")
    if any(b < 1 for b in sizes):
        raise ValueError("beam sizes must be >= 1")
    repeated = [b for i, b in enumerate(sizes) if b in sizes[:i]]
    if repeated:
        raise ValueError(f"duplicate beam size: {repeated[0]}")


def ranking_groups(
    triplets: Sequence[Triplet],
) -> list[list[tuple[int, Triplet]]]:
    """Maximal runs of consecutive triplets with equal query and top
    document, as ``(input index, triplet)`` pairs; ``build_triplets``
    emits each ranking as one run."""
    return [
        list(run)
        for _, run in groupby(
            enumerate(triplets), key=lambda item: (item[1].query_ids, item[1].d.id)
        )
    ]


def _sweep_tasks(
    triplets: Sequence[Triplet], ctx: EvalContext, n_sizes: int
) -> Iterator[tuple[int, Triplet, list[RankingWork], list[TargetWork]]]:
    """``(index, triplet, works, targets)`` for every triplet, in input
    order. ``works`` holds one ``RankingWork`` per beam size, shared by the
    triplet's group; ``targets`` one ``TargetWork`` per beam size, shared
    by every triplet with the same target document.

    Each size has its own works, so the edits at one size pay exactly the
    shared work an ``evaluate`` at that size pays. Sharing them across
    sizes would let a size reuse perplexities another size paid for, and
    the measured runtime would no longer grow with the beam as an
    ``evaluate`` at each size does. A target's works are let go with the
    task of the last triplet that has its document, so the live ones are
    bounded by the documents still to come, not by the run's length.
    """
    last = {triplet.d_prime.id: i for i, triplet in enumerate(triplets)}
    live: dict[str, list[TargetWork]] = {}
    for group in ranking_groups(triplets):
        first = group[0][1]
        works = [RankingWork(ctx, first.query_ids, first.d) for _ in range(n_sizes)]
        for index, triplet in group:
            key = triplet.d_prime.id
            targets = live.get(key)
            if targets is None:
                targets = live[key] = [
                    TargetWork(ctx, triplet.d_prime) for _ in range(n_sizes)
                ]
            if last[key] == index:
                del live[key]
            yield index, triplet, works, targets


def edit_each(
    triplets: Sequence[Triplet],
    ctx: EvalContext,
    beam_width: int,
    max_masks: int | None,
    clock: Callable[[], float],
) -> Iterator[tuple[EditResult, float]]:
    """cfe2's result and timed seconds for each triplet, in input order,
    sharing work between triplets as ``beam_sweep`` does at one size."""
    for _, triplet, works, targets in _sweep_tasks(triplets, ctx, 1):
        start = clock()
        result = run_method(
            triplet, "cfe2", ctx, beam_width, max_masks, works[0], targets[0]
        )
        yield result, clock() - start


def beam_sweep(
    triplets: Sequence[Triplet],
    sizes: Sequence[int],
    ctx: EvalContext,
    max_masks: int | None = None,
    workers: int = 1,
    timing: str = "wall",
    meta: dict[str, Any] | None = None,
    method: str = "cfe2",
) -> list[EvalReport]:
    """One report per beam size, in the order given (``evaluate`` is the
    one-size case).

    The triplets are split into ranking groups (see ``ranking_groups``).
    A group's shared work at one size (see ``RankingWork``), and the work
    of all triplets with one target document (see ``TargetWork``), is
    computed once, inside the first timed edit at that size that needs
    it, so with one worker the summed ``elapsed`` covers all the work
    exactly.
    Workers take single triplets, so one ranking's triplets run in
    parallel; an edit that waits for a value another thread is computing
    counts that wait in its ``elapsed``. Records come out in input order.
    Each triplet is edited at every size in turn, so a change in host
    speed hits all sizes alike, and the size it starts with rotates from
    triplet to triplet, so a group's shared work and the extra cost of a
    triplet's first edit (cold caches) are spread over all sizes."""
    check_beam_sizes(sizes)
    if not triplets:
        raise ValueError("no triplets to evaluate")
    clock = edit_clock(timing)
    n = len(sizes)

    # Holds no reference to ctx: each task carries it in its works, which
    # are freed with the last task that shares them.
    def sweep(
        task: tuple[int, Triplet, list[RankingWork], list[TargetWork]],
    ) -> list[EvalRecord]:
        index, triplet, works, targets = task
        records: dict[int, EvalRecord] = {}
        for k in range(index, index + n):
            s = k % n
            work, target = works[s], targets[s]
            start = clock()
            result = run_method(
                triplet, method, work.ctx, sizes[s], max_masks, work, target
            )
            records[s] = _record_for(
                index, triplet, method, result, work, target, clock() - start
            )
        return [records[s] for s in range(n)]

    tasks = _sweep_tasks(triplets, ctx, n)
    if workers <= 1:
        rows = [sweep(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(sweep, tasks))  # in input order

    return [
        EvalReport(
            method=method,
            records=list(records),
            aggregates=aggregate_records(records),
            by_rank=_breakdown_by_rank(records),
            meta={"beam": size, "timing": timing, **(meta or {})},
        )
        for size, records in zip(sizes, zip(*rows))
    ]


# ---------------------------------------------------------------------------
# Report serialization


def canonical_json(payload: Any) -> str:
    """Stable JSON encoding: sorted keys, fixed layout, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def reports_to_json(reports: Sequence[EvalReport]) -> str:
    return canonical_json({r.method: r.to_dict() for r in reports})


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
    """Metrics-by-method table plus a per-rank breakdown per method."""
    lines = [f"# {title}", ""]
    if reports:
        counts = reports[0].aggregates
        lines.append(f"Triplets: {counts['triplets']}")
        lines.append("")
    header = "| Metric | " + " | ".join(r.method for r in reports) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(reports) + 1))
    for label, key in _METRIC_ROWS:
        cells = " | ".join(_fmt(r.aggregates.get(key)) for r in reports)
        lines.append(f"| {label} | {cells} |")
    for report in reports:
        if not report.by_rank:
            continue
        ranks = sorted(report.by_rank)
        lines.append("")
        lines.append(f"## By target-document rank: {report.method}")
        lines.append("")
        lines.append("| Metric | " + " | ".join(str(r) for r in ranks) + " |")
        lines.append("|" + "---|" * (len(ranks) + 1))
        for label, key in _METRIC_ROWS:
            cells = " | ".join(_fmt(report.by_rank[r].get(key)) for r in ranks)
            lines.append(f"| {label} | {cells} |")
    lines.append("")
    return "\n".join(lines)
