"""Iterative mask-and-refill query editing with beam search.

Given a triplet (query, top document d, target document d') where d
currently outranks d', the editor looks for a minimally-edited query
under which d' strictly outranks d:

  1. mask the i most important query tokens (starting at i = 1),
  2. refill the masked slots left to right with beam-searched word
     predictions, keeping the b most probable partial edits,
  3. flip-check every fully decoded candidate in the final beam; if any
     flips, return the flipping candidate with the lowest perplexity,
     otherwise mask one more token and repeat.

Candidate probabilities accumulate in log space, so long queries cannot
underflow the product update. Everything here is a pure function of its
inputs: triplets can be edited in parallel against shared read-only
models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from math import log

from .corpus import Document
from .masker import ImportanceScores
from .lm import PredictionDistribution
from .text import MASK_ID


@dataclass(frozen=True)
class Triplet:
    """(q, d, d') with the precondition rel(q, d) > rel(q, d')."""

    query_ids: tuple[int, ...]
    d: Document
    d_prime: Document
    rel_d: float
    rel_d_prime: float
    counter_rank: int | None = None  # rank of d' in the original list

    def __post_init__(self) -> None:
        if not self.rel_d > self.rel_d_prime:
            raise ValueError("not a valid counterfactual target")


@dataclass(frozen=True)
class EditCandidate:
    """A partially refilled query with its accumulated log probability."""

    tokens: tuple[int, ...]
    log_prob: float

    def __post_init__(self) -> None:
        if self.log_prob > 0.0:
            raise ValueError("log_prob must be <= 0")


@dataclass(frozen=True)
class Beam:
    """At most ``width`` candidates, ordered by descending log_prob."""

    width: int
    candidates: tuple[EditCandidate, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("beam width must be >= 1")
        if len(self.candidates) > self.width:
            raise ValueError("beam holds more candidates than its width")


@dataclass(frozen=True)
class TraceCandidate:
    tokens: tuple[int, ...]
    log_prob: float
    flipped: bool


@dataclass(frozen=True)
class IterationTrace:
    """What happened at one outer iteration: masks used and the final beam."""

    masks: int
    masked_positions: tuple[int, ...]
    candidates: tuple[TraceCandidate, ...]

    @property
    def any_flipped(self) -> bool:
        return any(c.flipped for c in self.candidates)


@dataclass(frozen=True)
class EditResult:
    """Outcome of one edit: the flipped query (or None) plus its trace."""

    outcome: tuple[int, ...] | None
    masks_used: int
    trace: tuple[IterationTrace, ...]
    elapsed: float


def expand_beam(
    beam: Beam,
    distributions: PredictionDistribution | Sequence[PredictionDistribution],
) -> Beam:
    """Extend every candidate by one slot and keep the top ``width``.

    ``distributions`` holds one prediction per candidate (conditioned on
    that candidate's filled tokens); a single distribution is broadcast
    to all candidates. All predictions must target the same slot, and
    every candidate must still have that slot masked. New log
    probabilities are ``old + ln P(token)``. Identical token sequences
    are deduplicated keeping the higher log probability; ties order by
    ascending token-id sequence.
    """
    if isinstance(distributions, PredictionDistribution):
        dists: list[PredictionDistribution] = [distributions] * len(beam.candidates)
    else:
        dists = list(distributions)
        if len(dists) != len(beam.candidates):
            raise ValueError(
                f"{len(dists)} distributions for {len(beam.candidates)} candidates"
            )
    if not dists or any(not d.entries for d in dists):
        raise ValueError("empty prediction distribution")
    positions = {d.position for d in dists}
    if len(positions) != 1:
        raise ValueError("distributions target different slots")
    slot = positions.pop()

    best: dict[tuple[int, ...], EditCandidate] = {}
    for candidate, dist in zip(beam.candidates, dists):
        if candidate.tokens[slot] != MASK_ID:
            raise ValueError(f"slot {slot} is not masked in candidate")
        prefix = candidate.tokens[:slot]
        suffix = candidate.tokens[slot + 1 :]
        for token_id, prob in dist.entries:
            tokens = prefix + (token_id,) + suffix
            log_prob = candidate.log_prob + log(prob)
            held = best.get(tokens)
            if held is None or log_prob > held.log_prob:
                best[tokens] = EditCandidate(tokens, log_prob)
    ranked = sorted(best.values(), key=lambda c: (-c.log_prob, c.tokens))
    return Beam(beam.width, tuple(ranked[: beam.width]))


def check_flip(candidate_ids: Sequence[int], triplet: Triplet, scorer) -> bool:
    """True iff rel(candidate, d') > rel(candidate, d), strictly."""
    if MASK_ID in candidate_ids:
        raise ValueError("candidate still contains masked slots")
    ids = list(candidate_ids)
    return scorer.score(ids, triplet.d_prime.id) > scorer.score(ids, triplet.d.id)


def select_final(
    candidates: Sequence[EditCandidate], ppl_fn: Callable[[Sequence[int]], float]
) -> EditCandidate:
    """The flipping candidate with the lowest perplexity.

    Equal perplexities resolve to the lexicographically smaller token-id
    sequence.
    """
    if not candidates:
        raise ValueError("no flipping candidates to select from")
    return min(candidates, key=lambda c: (ppl_fn(c.tokens), c.tokens))


def decode_masked_slots(
    masked_ids: Sequence[int], slots: Sequence[int], predictor, width: int
) -> Beam:
    """Beam-decode the given masked slots left to right.

    ``predictor.predict(tokens, position, top)`` supplies per-candidate
    prediction distributions; ``top`` is the beam width, so each of the
    (at most) b candidates proposes its b most probable tokens.
    """
    beam = Beam(width, (EditCandidate(tuple(masked_ids), 0.0),))
    for slot in sorted(slots):
        dists = [predictor.predict(c.tokens, slot, width) for c in beam.candidates]
        beam = expand_beam(beam, dists)
    return beam


def edit(
    triplet: Triplet,
    scorer,
    importance: ImportanceScores,
    predictor,
    ppl_fn: Callable[[Sequence[int]], float],
    beam_width: int = 10,
    max_masks: int | None = None,
) -> EditResult:
    """Run the full iterative editing loop for one triplet.

    For i = 1..max_masks the top-i important tokens are masked, the
    slots are refilled by beam search in query-position order, and every
    complete candidate in the final beam is flip-checked. The first
    iteration producing a flip wins; with no flip at all the outcome is
    None. The per-iteration beams and flip checks are recorded in the
    trace, so callers can audit that no earlier iteration could have
    flipped. Deterministic for fixed inputs.
    """
    query = triplet.query_ids
    if len(query) == 0:
        raise ValueError("empty query")
    if len(importance) != len(query):
        raise ValueError("importance scores do not match query length")
    if max_masks is None:
        max_masks = len(query)
    if not 1 <= max_masks <= len(query):
        raise ValueError("max_masks must be in 1..|query|")

    start = time.perf_counter()
    trace: list[IterationTrace] = []
    for i in range(1, max_masks + 1):
        positions = tuple(sorted(importance.order[:i]))
        masked = tuple(
            MASK_ID if pos in positions else tok for pos, tok in enumerate(query)
        )
        beam = decode_masked_slots(masked, positions, predictor, beam_width)
        flags = [check_flip(c.tokens, triplet, scorer) for c in beam.candidates]
        trace.append(
            IterationTrace(
                masks=i,
                masked_positions=positions,
                candidates=tuple(
                    TraceCandidate(c.tokens, c.log_prob, f)
                    for c, f in zip(beam.candidates, flags)
                ),
            )
        )
        flipping = [c for c, f in zip(beam.candidates, flags) if f]
        if flipping:
            chosen = select_final(flipping, ppl_fn)
            elapsed = time.perf_counter() - start
            return EditResult(chosen.tokens, i, tuple(trace), elapsed)
    elapsed = time.perf_counter() - start
    return EditResult(None, max_masks, tuple(trace), elapsed)
