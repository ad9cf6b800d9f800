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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .corpus import Bm25SearchModel, Corpus, Document, Ranking
from .editor import (
    EditResult,
    IterationTrace,
    TraceCandidate,
    Triplet,
    check_flip,
    edit,
)
from .masker import ImportanceScores, maxsim_importance, occlusion_importance
from .text import PAD_ID, Vocabulary, tokenize

logger = logging.getLogger(__name__)

METHODS = ("cfe2", "mask_only", "max_flip")

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


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
    start = time.perf_counter()
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
            return EditResult(padded, i, tuple(trace), time.perf_counter() - start)
    return EditResult(None, len(query), tuple(trace), time.perf_counter() - start)


def split_sentences(text: str) -> list[str]:
    """Split on ., ! or ? followed by whitespace; no empty sentences."""
    return [s for s in _SENTENCE_RE.split(text.strip()) if s.strip()]


def baseline_max_flip(
    triplet: Triplet,
    vocab: Vocabulary,
    scorer,
    ppl_fn: Callable[[Sequence[int]], float],
) -> EditResult:
    """Use a whole sentence of the target document as the new query.

    Among the sentences of d' that flip the pair, the one with the
    lowest perplexity wins (ties by ascending token-id sequence). None
    when no sentence flips.
    """
    start = time.perf_counter()
    flipping: list[tuple[int, ...]] = []
    for sentence in split_sentences(triplet.d_prime.text):
        tokens = tokenize(sentence)
        if not tokens:
            continue
        ids = tuple(vocab.encode(tokens))
        if check_flip(ids, triplet, scorer):
            flipping.append(ids)
    if not flipping:
        return EditResult(None, 0, (), time.perf_counter() - start)
    best = min(flipping, key=lambda ids: (ppl_fn(ids), ids))
    return EditResult(best, 0, (), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Evaluation harness


@dataclass
class EvalContext:
    """Read-only bundle of the components one evaluation run needs.

    ``search`` is always the built-in lexical model (it defines rankings
    and query representations); ``scorer``, ``embedder``, the predictor
    factory and ``ppl_fn`` may be remote-backed drop-ins with the same
    call shapes.
    """

    vocab: Vocabulary
    search: Bm25SearchModel
    scorer: Any
    embedder: Any
    ppl_fn: Callable[[Sequence[int]], float]
    predictor_factory: Callable[[Document], Any]
    masker: str = "maxsim"

    def importance(self, query_ids: Sequence[int], doc: Document) -> ImportanceScores:
        if self.masker == "maxsim":
            doc_ids = self.vocab.encode(doc.tokens)
            return maxsim_importance(query_ids, doc_ids, self.embedder)
        if self.masker == "occlusion":
            return occlusion_importance(query_ids, doc, self.scorer)
        raise ValueError(f"unknown masker: {self.masker}")


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


def run_method(
    triplet: Triplet,
    method: str,
    ctx: EvalContext,
    beam_width: int = 10,
    max_masks: int | None = None,
) -> EditResult:
    """Produce one EditResult for ``triplet`` with the chosen method."""
    if method == "cfe2":
        importance = ctx.importance(triplet.query_ids, triplet.d)
        predictor = ctx.predictor_factory(triplet.d_prime)
        budget = len(triplet.query_ids)
        if max_masks is not None:
            budget = min(max_masks, budget)
        return edit(
            triplet,
            ctx.scorer,
            importance,
            predictor,
            ctx.ppl_fn,
            beam_width=beam_width,
            max_masks=budget,
        )
    if method == "mask_only":
        importance = ctx.importance(triplet.query_ids, triplet.d)
        return baseline_mask_only(triplet, importance, ctx.scorer)
    if method == "max_flip":
        return baseline_max_flip(triplet, ctx.vocab, ctx.scorer, ctx.ppl_fn)
    raise ValueError(f"unknown method: {method}")


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
    threads; records are emitted in input order regardless.
    """
    if not triplets:
        raise ValueError("no triplets to evaluate")
    if timing not in ("wall", "off"):
        raise ValueError(f"unknown timing mode: {timing}")

    def work(item: tuple[int, Triplet]) -> EvalRecord:
        index, triplet = item
        start = time.perf_counter()
        result = run_method(triplet, method, ctx, beam_width, max_masks)
        elapsed = time.perf_counter() - start if timing == "wall" else 0.0
        return _record_for(index, triplet, result, ctx, elapsed)

    items = list(enumerate(triplets))
    if workers <= 1:
        records = [work(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(work, items))
    records.sort(key=lambda r: r.index)

    report = EvalReport(
        method=method,
        records=records,
        aggregates=aggregate_records(records),
        by_rank=_breakdown_by_rank(records),
        meta={"beam": beam_width, "timing": timing, **(meta or {})},
    )
    return report


def _record_for(
    index: int,
    triplet: Triplet,
    result: EditResult,
    ctx: EvalContext,
    elapsed: float,
) -> EvalRecord:
    query_ids = triplet.query_ids
    outcome = result.outcome
    cos = f1 = fluency = None
    outcome_text = None
    if outcome is not None:
        cos = cos_sim_metric(query_ids, outcome, ctx.search)
        f1 = bertscore_f1(query_ids, outcome, ctx.embedder)
        fluency = fluency_metric(query_ids, outcome, ctx.ppl_fn)
        outcome_text = " ".join(ctx.vocab.decode(outcome))
    return EvalRecord(
        index=index,
        query=" ".join(ctx.vocab.decode(query_ids)),
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


def beam_sweep(
    triplets: Sequence[Triplet],
    sizes: Sequence[int],
    ctx: EvalContext,
    max_masks: int | None = None,
    workers: int = 1,
    timing: str = "wall",
    meta: dict[str, Any] | None = None,
) -> list[EvalReport]:
    """One cfe2 report per beam size, in the order given."""
    if not sizes:
        raise ValueError("no beam sizes")
    if any(b < 1 for b in sizes):
        raise ValueError("beam sizes must be >= 1")
    return [
        evaluate(
            triplets,
            "cfe2",
            ctx,
            beam_width=b,
            max_masks=max_masks,
            workers=workers,
            timing=timing,
            meta=meta,
        )
        for b in sizes
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
