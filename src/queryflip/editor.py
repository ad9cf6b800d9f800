"""Iterative mask-and-refill query editing with beam search.

Given a triplet (query, top document d, target document d') where d
currently outranks d', the editor looks for a minimally-edited query
under which d' strictly outranks d:

  1. mask the i most important query tokens, every ``[UNK]`` among them,
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

from dataclasses import dataclass
from typing import Callable, Sequence

from math import inf

from .corpus import Document
from .masker import ImportanceScores
from .lm import PredictionDistribution
from .text import MASK_ID


@dataclass(frozen=True)
class Triplet:
    """(q, d, d') with a non-empty q and rel(q, d) > rel(q, d'), which
    the editor, the baselines and the metrics take as given."""

    query_ids: tuple[int, ...]
    d: Document
    d_prime: Document
    rel_d: float
    rel_d_prime: float
    counter_rank: int | None = None  # rank of d' in the original list

    def __post_init__(self) -> None:
        if not self.query_ids:
            raise ValueError("empty query")
        if not self.rel_d > self.rel_d_prime:
            raise ValueError("not a valid counterfactual target")


@dataclass(frozen=True)
class EditCandidate:
    """A partially refilled query with its accumulated log probability."""

    tokens: tuple[int, ...]
    log_prob: float


@dataclass(frozen=True)
class Beam:
    """1 to ``width`` distinct candidates, ordered by descending log_prob."""

    width: int
    candidates: tuple[EditCandidate, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.candidates) <= self.width:
            raise ValueError("beam must hold 1 to width candidates")
        if len({c.tokens for c in self.candidates}) != len(self.candidates):
            raise ValueError("beam holds a candidate twice")


@dataclass(frozen=True)
class IterationTrace:
    """What happened at one outer iteration: the masked query positions
    (their count is the iteration's mask count), the ``beam`` as decoded
    and ``flips``, one flip flag per beam candidate, in the beam's order.
    """

    masked_positions: tuple[int, ...]
    beam: Beam
    flips: tuple[bool, ...]


@dataclass(frozen=True)
class EditResult:
    """Outcome of one edit: the flipped query (or None) plus its trace."""

    outcome: tuple[int, ...] | None
    masks_used: int
    trace: tuple[IterationTrace, ...]


def expand_beam(beam: Beam, distributions: Sequence[PredictionDistribution]) -> Beam:
    """Extend every candidate by one slot and keep the top ``width``.

    The slot is the leftmost masked one, which every candidate must have
    masked. ``distributions`` holds one prediction per candidate for that
    slot, conditioned on that candidate's filled tokens. New log
    probabilities are ``old + ln P(token)``, with the logs each
    distribution took when it was made. The candidates are distinct and
    no prediction names a token twice, so every extension is a distinct
    sequence; ties order by ascending token-id sequence.

    Once ``width`` sequences are held, their minimum is a floor: at least
    ``width`` sequences end at or above it, so none strictly below it can
    place. A distribution's probabilities are non-increasing, so a
    candidate's row stops at its first entry strictly below the floor.
    The result is the same as expanding every entry, whatever the order
    of the candidates or of tied entries.
    """
    slot = beam.candidates[0].tokens.index(MASK_ID)

    width = beam.width
    ranked: list[tuple[float, tuple[int, ...]]] = []
    floor = -inf
    for candidate, dist in zip(beam.candidates, distributions):
        prefix = candidate.tokens[:slot]
        suffix = candidate.tokens[slot + 1 :]
        base = candidate.log_prob
        for (token_id, _), token_log in zip(dist.entries, dist.logs):
            log_prob = base + token_log
            if log_prob < floor:
                break
            ranked.append((-log_prob, prefix + (token_id,) + suffix))
            if len(ranked) == width:
                floor = -max(ranked)[0]
    ranked.sort()
    candidates = tuple(EditCandidate(tokens, -neg) for neg, tokens in ranked[:width])
    return Beam(width, candidates)


def check_flip(candidate_ids: Sequence[int], triplet: Triplet, scorer) -> bool:
    """True iff rel(candidate, d') > rel(candidate, d), strictly."""
    ids = list(candidate_ids)
    return scorer.score(ids, triplet.d_prime.id) > scorer.score(ids, triplet.d.id)


def select_final(
    candidates: Sequence[EditCandidate], ppl_fn: Callable[[Sequence[int]], float]
) -> EditCandidate:
    """The flipping candidate with the lowest perplexity.

    Equal perplexities resolve to the lexicographically smaller token-id
    sequence. A lone candidate is returned without calling ``ppl_fn``.
    """
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=lambda c: (ppl_fn(c.tokens), c.tokens))


def decode_masked_slots(masked_ids: Sequence[int], predictor, width: int) -> Beam:
    """Beam-decode the ``MASK_ID`` positions of ``masked_ids`` left to right.

    ``predictor.predict(tokens, position, top)`` supplies per-candidate
    prediction distributions; ``top`` is the beam width, so each of the
    (at most) b candidates proposes its b most probable tokens.
    """
    beam = Beam(width, (EditCandidate(tuple(masked_ids), 0.0),))
    for slot in [i for i, t in enumerate(masked_ids) if t == MASK_ID]:
        dists = [predictor.predict(c.tokens, slot, width) for c in beam.candidates]
        beam = expand_beam(beam, dists)
    return beam


def edit(
    triplet: Triplet,
    scorer,
    importance: ImportanceScores,
    predictor,
    ppl_fn: Callable[[Sequence[int]], float],
    beam_width: int,
    max_masks: int | None,
) -> EditResult:
    """Run the full iterative editing loop for one triplet.

    For i = ``importance.first_masks``..max_masks the top-i important
    tokens are masked (every ``[UNK]`` among them, so no outcome keeps
    one), the slots are refilled by beam search in query-position order,
    and every complete candidate in the final beam is flip-checked. The
    first iteration producing a flip wins; with no flip at all (or a
    ``max_masks`` below ``first_masks``) the outcome is None. A
    ``max_masks`` of None or above |q| is |q|. The
    per-iteration beams and flip checks are recorded in the trace, so
    callers can audit that no earlier iteration could have flipped.
    Deterministic for fixed inputs.
    """
    query = triplet.query_ids
    max_masks = len(query) if max_masks is None else min(max_masks, len(query))

    trace: list[IterationTrace] = []
    for i in range(importance.first_masks, max_masks + 1):
        positions = tuple(sorted(importance.order[:i]))
        masked = tuple(
            MASK_ID if pos in positions else tok for pos, tok in enumerate(query)
        )
        beam = decode_masked_slots(masked, predictor, beam_width)
        flags = tuple(check_flip(c.tokens, triplet, scorer) for c in beam.candidates)
        trace.append(IterationTrace(positions, beam, flags))
        flipping = [c for c, f in zip(beam.candidates, flags) if f]
        if flipping:
            chosen = select_final(flipping, ppl_fn)
            return EditResult(chosen.tokens, i, tuple(trace))
    return EditResult(None, max_masks, tuple(trace))
