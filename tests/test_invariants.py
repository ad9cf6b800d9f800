"""The paper's invariants, checked on random stacks.

Each example builds a small Zipf stack (``synthdata.zipf_corpus``) under
drawn settings and edits the triplets of drawn queries, some holding a
word no document has. For every method, each non-null outcome strictly
flips its pair under the stack's own lexical model and holds no special
id (``mask_only`` drops tokens by writing ``[PAD]``, so only there is
``[PAD]`` allowed), and ``evaluate`` writes the same bytes at 1 and 4
workers, the 4-worker run on a model whose n-gram run index is not yet
built. cfe2's trace proves its schedule minimal: every recorded flag is
a fresh ``check_flip``, no earlier iteration holds one, and the outcome
is a flagged candidate of the last iteration, as long as q and changed
only where that iteration masked.
"""

from __future__ import annotations

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from queryflip.config import MASKERS
from queryflip.corpus import ingest_corpus
from queryflip.editor import check_flip
from queryflip.evaluation import (
    METHODS,
    build_triplets,
    evaluate,
    reports_to_json,
    sweep_edits,
)
from queryflip.pipeline import build_stack, make_context
from queryflip.text import PAD_ID, SPECIAL_IDS

from conftest import sample_config
from synthdata import zipf_corpus

# Not one of zipf_corpus's words ``w0``, ``w1``, ...
OOV_WORD = "qxjw"


@st.composite
def edited_stacks(draw):
    """(stack, config, triplets): a fresh stack, so its run index is
    unbuilt, and the triplets of 1-3 drawn queries."""
    n_words = draw(st.integers(8, 60))
    n_docs = draw(st.integers(6, 40))
    lines = zipf_corpus(draw(st.integers(0, 2**32 - 1)), n_words, n_docs)
    config = sample_config(
        lm_order=draw(st.integers(1, 4)),
        masker=draw(st.sampled_from(MASKERS)),
        beam=draw(st.integers(1, 4)),
        max_masks=draw(st.none() | st.integers(1, 3)),
        lam=draw(st.floats(0, 1)),
    )
    try:
        stack = build_stack(ingest_corpus(lines), config)
    except ValueError as exc:
        if "no co-occurrence signal" not in str(exc):
            raise
        reject()
    triplets = []
    for _ in range(draw(st.integers(1, 3))):
        picks = draw(st.lists(st.integers(0, n_words - 1), min_size=1, max_size=5))
        words = [f"w{i}" for i in picks]
        if draw(st.booleans()):
            words.insert(draw(st.integers(0, len(words))), OOV_WORD)
        query_ids = tuple(stack.vocab.encode(words))
        ranking = stack.search.search(query_ids, config.top_k)
        triplets += build_triplets(ranking, stack.corpus)
    return stack, config, triplets


def _results(triplets, method, ctx, beam):
    """(triplet, EditResult) of every triplet, edited with ``method``."""
    rows = sweep_edits(
        triplets, [beam], ctx, lambda _, triplet, _m, result, *rest: (triplet, result),
        method, workers=1, timing="off",
    )
    return [row[0] for row in rows]


@settings(max_examples=40, deadline=None)
@given(edited_stacks())
def test_every_method_flips_strictly_with_no_special_id_at_any_worker_count(drawn):
    stack, config, triplets = drawn
    ctx = make_context(stack, config)
    assert stack.lm._runs is None
    if not triplets:  # every drawn ranking ties or holds under two documents
        with pytest.raises(ValueError, match="no triplets to evaluate"):
            evaluate(triplets, "cfe2", ctx, config.beam, workers=4, timing="off")
        return
    for method in METHODS:
        parallel = evaluate(triplets, method, ctx, config.beam, workers=4, timing="off")
        serial = evaluate(triplets, method, ctx, config.beam, workers=1, timing="off")
        assert reports_to_json([parallel]) == reports_to_json([serial])
        allowed = {PAD_ID} if method == "mask_only" else set()
        for triplet, result in _results(triplets, method, ctx, config.beam):
            if result.outcome is not None:
                assert check_flip(result.outcome, triplet, stack.search)
                assert not (SPECIAL_IDS - allowed).intersection(result.outcome)


@settings(max_examples=150, deadline=None)
@given(edited_stacks())
def test_cfe2_trace_proves_its_outcome_minimal(drawn):
    stack, config, triplets = drawn
    ctx = make_context(stack, config)
    for triplet, result in _results(triplets, "cfe2", ctx, config.beam):
        for step in result.trace:
            candidates = step.beam.candidates
            fresh = [check_flip(c.tokens, triplet, stack.search) for c in candidates]
            assert list(step.flips) == fresh
        assert not any(any(step.flips) for step in result.trace[:-1])
        if result.outcome is None:
            assert not (result.trace and any(result.trace[-1].flips))
            continue
        last, query = result.trace[-1], triplet.query_ids
        flagged = [c.tokens for c, f in zip(last.beam.candidates, last.flips) if f]
        assert result.outcome in flagged
        assert len(result.outcome) == len(query)
        changed = {i for i, (a, b) in enumerate(zip(query, result.outcome)) if a != b}
        assert changed <= set(last.masked_positions)
