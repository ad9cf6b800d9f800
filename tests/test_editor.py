from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryflip.corpus import build_corpus, ingest_corpus
from queryflip.editor import (
    Beam,
    EditCandidate,
    Triplet,
    check_flip,
    decode_masked_slots,
    edit,
    expand_beam,
    select_final,
)
from queryflip.lm import NgramPredictor, PredictionDistribution, perplexity, train_ngram
from queryflip.masker import occlusion_importance
from queryflip.pipeline import build_stack
from queryflip.text import MASK_ID

from conftest import sample_config
from test_corpus import ids


def _triplet(stack, query_text, doc_id, counter_doc_id, rank=None):
    q = tuple(ids(stack, query_text))
    return Triplet(
        q,
        stack.corpus[doc_id],
        stack.corpus[counter_doc_id],
        stack.search.score(q, doc_id),
        stack.search.score(q, counter_doc_id),
        counter_rank=rank,
    )


def _predictor(stack, counter_doc_id, lam=0.5):
    return NgramPredictor(stack.lm, stack.corpus[counter_doc_id].ids, lam=lam)


def _ppl(stack):
    return lambda seq: perplexity(seq, stack.lm)


# ---------------------------------------------------------------------------
# expand_beam


def test_width_one_beam_is_greedy():
    beam = Beam(1, (EditCandidate((MASK_ID, 9), 0.0),))
    dist = PredictionDistribution(((5, 0.6), (6, 0.4)))
    out = expand_beam(beam, [dist])
    assert len(out.candidates) == 1
    assert out.candidates[0].tokens == (5, 9)
    assert out.candidates[0].log_prob == math.log(0.6)


def test_expand_matches_exhaustive_enumeration_two_slots():
    # Hand-set conditionals over usable vocab {3, 4, 5}; beam width 3^2
    # covers every sequence, so the final beam must equal brute force.
    first = PredictionDistribution(((3, 0.5), (4, 0.3), (5, 0.2)))
    second_given = {
        3: ((4, 0.7), (3, 0.2), (5, 0.1)),
        4: ((5, 0.6), (3, 0.3), (4, 0.1)),
        5: ((3, 0.5), (4, 0.4), (5, 0.1)),
    }
    beam = Beam(9, (EditCandidate((MASK_ID, MASK_ID), 0.0),))
    beam = expand_beam(beam, [first])
    dists = [
        PredictionDistribution(second_given[c.tokens[0]])
        for c in beam.candidates
    ]
    beam = expand_beam(beam, dists)

    brute = []
    for t1, p1 in first.entries:
        for t2, p2 in dict(second_given)[t1]:
            brute.append(((t1, t2), math.log(p1) + math.log(p2)))
    brute.sort(key=lambda e: (-e[1], e[0]))
    assert [(c.tokens, c.log_prob) for c in beam.candidates] == brute


def test_distribution_rejects_a_repeated_token():
    # Two extensions of one beam can be equal only through a prediction
    # that names a token twice, so expand_beam needs no dedup.
    with pytest.raises(ValueError, match="repeat"):
        PredictionDistribution(((3, 0.5), (3, 0.2), (4, 0.1)))


def test_beam_rejects_a_repeated_candidate():
    with pytest.raises(ValueError, match="candidate twice"):
        Beam(4, (EditCandidate((3, MASK_ID), -1.0), EditCandidate((3, MASK_ID), -2.0)))
    with pytest.raises(ValueError, match="1 to width"):
        Beam(4, ())
    with pytest.raises(ValueError, match="1 to width"):
        Beam(0, (EditCandidate((MASK_ID,), 0.0),))


def test_expand_rejects_empty_distribution():
    beam = Beam(2, (EditCandidate((MASK_ID,), 0.0),))
    # The type rejects an empty prediction before expand_beam sees it.
    with pytest.raises(ValueError, match="empty prediction"):
        expand_beam(beam, [PredictionDistribution(())])


def test_expand_fills_the_leftmost_masked_slot():
    beam = Beam(2, (EditCandidate((7, MASK_ID, MASK_ID), 0.0),))
    out = expand_beam(beam, [PredictionDistribution(((3, 0.5),))])
    assert [c.tokens for c in out.candidates] == [(7, 3, MASK_ID)]


def test_decode_fills_every_masked_position(sample_stack):
    predictor = _predictor(sample_stack, "d3")
    masked = (MASK_ID, 5, MASK_ID)
    beam = decode_masked_slots(masked, predictor, 2)
    assert beam.candidates
    for c in beam.candidates:
        assert MASK_ID not in c.tokens
        assert c.tokens[1] == 5


# ---------------------------------------------------------------------------
# check_flip / select_final


def test_original_query_never_flips(sample_stack):
    t = _triplet(sample_stack, "apple recipe", "d1", "d3")
    assert check_flip(t.query_ids, t, sample_stack.search) is False


def test_equal_scores_do_not_flip(sample_stack):
    # "recipe recipe" scores d1 and d3 identically
    t = _triplet(sample_stack, "apple recipe", "d1", "d3")
    cand = tuple(ids(sample_stack, "recipe recipe"))
    s = sample_stack.search
    assert s.score(cand, "d1") == s.score(cand, "d3")
    assert check_flip(cand, t, s) is False


def test_banana_recipe_flips(sample_stack):
    # hand BM25: "banana" matches only d3, so d3 gains ln(8/3) over d1
    t = _triplet(sample_stack, "apple recipe", "d1", "d3")
    cand = tuple(ids(sample_stack, "banana recipe"))
    assert check_flip(cand, t, sample_stack.search) is True


def test_select_final_single_and_ppl_order(sample_stack):
    ppl = _ppl(sample_stack)
    banana = EditCandidate(tuple(ids(sample_stack, "banana recipe")), -1.0)
    bread = EditCandidate(tuple(ids(sample_stack, "bread recipe")), -1.0)
    assert select_final([bread], ppl) is bread
    # hand perplexities: banana-recipe 7.5619 < bread-recipe 16.0935
    assert select_final([bread, banana], ppl) is banana


def test_select_final_lone_candidate_skips_perplexity():
    def no_ppl(seq):
        raise AssertionError("one candidate needs no perplexity")

    only = EditCandidate((3, 4), -1.0)
    assert select_final([only], no_ppl) is only


def test_select_final_tie_breaks_lexicographically():
    constant_ppl = lambda seq: 2.0  # noqa: E731
    low = EditCandidate((3, 4), -1.0)
    high = EditCandidate((4, 3), -1.0)
    assert select_final([high, low], constant_ppl) is low


# ---------------------------------------------------------------------------
# edit


def test_edit_golden_trace_on_sample_corpus(sample_stack):
    # Full hand trace: occlusion importance ties apple/recipe, so "apple"
    # masks first; slot 0 fills from d3's unigram; "banana recipe" and
    # "bread recipe" flip; the lower perplexity edit wins at i = 1.
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    result = edit(
        t, stack.search, importance, _predictor(stack, "d3"), _ppl(stack),
        beam_width=10, max_masks=None,
    )
    assert result.outcome is not None
    assert stack.vocab.decode(result.outcome) == ["banana", "recipe"]
    assert result.masks_used == 1
    assert len(result.trace) == 1
    trace = result.trace[0]
    flipped = [c for c, f in zip(trace.beam.candidates, trace.flips) if f]
    assert {stack.vocab.decode(c.tokens)[0] for c in flipped} == {"banana", "bread"}


def test_edit_is_deterministic(sample_stack):
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    results = [
        edit(t, stack.search, importance, _predictor(stack, "d3"), _ppl(stack),
             beam_width=10, max_masks=None)
        for _ in range(2)
    ]
    assert results[0].outcome == results[1].outcome
    assert results[0].masks_used == results[1].masks_used
    first = [(it.beam, it.flips) for it in results[0].trace]
    second = [(it.beam, it.flips) for it in results[1].trace]
    assert first == second


def test_edit_outcome_preserves_length_and_masked_positions_only(sample_stack):
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    result = edit(t, stack.search, importance, _predictor(stack, "d3"), _ppl(stack),
                  beam_width=10, max_masks=None)
    assert len(result.outcome) == len(t.query_ids)
    masked = set(result.trace[-1].masked_positions)
    for pos, (before, after) in enumerate(zip(t.query_ids, result.outcome)):
        if pos not in masked:
            assert before == after


def _forced_null_stack():
    # d_prime's only unmatched token maps to UNK (min_count 2), so every
    # candidate query built from the content vocabulary matches d at
    # least as strongly: d is shorter with the same term frequencies.
    lines = [
        json.dumps({"id": "a", "text": "x y"}),
        json.dumps({"id": "b", "text": "x y zonly"}),
    ]
    return build_stack(ingest_corpus(lines), sample_config(min_count=2))


def test_edit_forced_null_exhausts_all_masks():
    stack = _forced_null_stack()
    t = _triplet(stack, "x y", "a", "b")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    result = edit(t, stack.search, importance, _predictor(stack, "b"), _ppl(stack),
                  beam_width=10, max_masks=None)
    assert result.outcome is None
    assert result.masks_used == len(t.query_ids)
    assert [len(it.masked_positions) for it in result.trace] == [1, 2]
    assert not any(f for it in result.trace for f in it.flips)


def test_edit_rejects_invalid_triplet(sample_stack):
    stack = sample_stack
    q = tuple(ids(stack, "apple recipe"))
    with pytest.raises(ValueError, match="not a valid counterfactual target"):
        Triplet(q, stack.corpus["d3"], stack.corpus["d1"],
                stack.search.score(q, "d3"), stack.search.score(q, "d1"))
    # An empty query scores 0.0 against both: the query is checked first.
    with pytest.raises(ValueError, match="^empty query$"):
        Triplet((), stack.corpus["d1"], stack.corpus["d3"], 0.0, 0.0)


def test_edit_budget_above_query_length_equals_no_budget():
    # The forced null runs every iteration up to the budget, so a budget
    # left unclamped would show as extra iterations and a larger masks_used.
    stack = _forced_null_stack()
    t = _triplet(stack, "x y", "a", "b")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    results = [
        edit(t, stack.search, importance, _predictor(stack, "b"), _ppl(stack),
             beam_width=10, max_masks=budget)
        for budget in (None, len(t.query_ids) + 3)
    ]
    assert results[0] == results[1]
    assert results[1].masks_used == len(t.query_ids)


# ---------------------------------------------------------------------------
# beam-vs-enumeration equivalence on randomized toy instances


def _random_toy_stack(rng: random.Random):
    surfaces = ["ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"]
    vocab_size = rng.randint(4, len(surfaces))
    pool = surfaces[:vocab_size]
    texts = []
    for _ in range(rng.randint(3, 6)):
        texts.append(" ".join(rng.choices(pool, k=rng.randint(3, 8))))
    lines = [json.dumps({"id": f"d{i}", "text": t}) for i, t in enumerate(texts)]
    corpus, vocab = build_corpus(ingest_corpus(lines), 1)
    lm = train_ngram(corpus, vocab, order=rng.choice((2, 3)), k=0.1)
    return corpus, vocab, lm


def _enumerate_fillings(masked, slots, predictor, n_candidates):
    """Independent oracle: score every possible filling, no pruning."""
    results = []
    fill_order = sorted(slots)
    from queryflip.text import FIRST_CONTENT_ID

    choices = range(FIRST_CONTENT_ID, FIRST_CONTENT_ID + n_candidates)
    for combo in itertools.product(choices, repeat=len(fill_order)):
        tokens = list(masked)
        log_prob = 0.0
        for slot, token in zip(fill_order, combo):
            dist = predictor.predict(tuple(tokens), slot, n_candidates)
            log_prob += math.log(dict(dist.entries)[token])
            tokens[slot] = token
        results.append((tuple(tokens), log_prob))
    results.sort(key=lambda e: (-e[1], e[0]))
    return results


def test_beam_equals_enumeration_on_random_instances():
    rng = random.Random(2024)
    checked = 0
    for _ in range(25):
        corpus, vocab, lm = _random_toy_stack(rng)
        n = vocab.content_size
        doc = rng.choice(list(corpus.documents()))
        predictor = NgramPredictor(lm, doc.ids, lam=rng.choice((0.0, 0.5, 1.0)))
        length = rng.randint(2, 4)
        query = tuple(rng.choices(range(3, 3 + n), k=length))
        n_slots = rng.randint(1, min(2, length))
        slots = sorted(rng.sample(range(length), n_slots))
        masked = tuple(
            MASK_ID if pos in slots else tok for pos, tok in enumerate(query)
        )
        width = n * n  # >= |vocab|^slots, so nothing is pruned
        beam = decode_masked_slots(masked, predictor, width)
        expected = _enumerate_fillings(masked, slots, predictor, n)
        got = [(c.tokens, c.log_prob) for c in beam.candidates]
        assert got == expected[: len(got)]
        assert len(got) == len(expected)  # no pruning happened
        checked += 1
    assert checked == 25


# ---------------------------------------------------------------------------
# pruned expand_beam against the full expansion


def _full_expansion(beam, distributions):
    """expand_beam without the floor: every entry of every row, ranked by a
    key over all of them."""
    slot = beam.candidates[0].tokens.index(MASK_ID)
    every = [
        (c.tokens[:slot] + (token_id,) + c.tokens[slot + 1 :], c.log_prob + math.log(p))
        for c, dist in zip(beam.candidates, distributions)
        for token_id, p in dist.entries
    ]
    ranked = sorted(every, key=lambda item: (-item[1], item[0]))
    return [(tokens, lp.hex()) for tokens, lp in ranked[: beam.width]]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_pruned_expand_matches_full_expansion(data):
    # Few distinct values, so candidate log probs, probabilities within a
    # row and sums across rows tie often; candidates come in any order and
    # tied entries in either id order. Inputs are legal: distinct
    # candidates, and distinct ids in each row.
    width = data.draw(st.integers(1, 12), label="width")
    length = data.draw(st.integers(1, 3), label="length")
    slot = data.draw(st.integers(0, length - 1), label="slot")
    filled = st.sampled_from((3, 4))
    after = st.sampled_from((MASK_ID, 3))
    bases = st.sampled_from((0.0, -0.5, math.log(0.5), -1.0, -3.0))
    token_rows = st.lists(
        st.tuples(
            st.tuples(*[filled] * slot, st.just(MASK_ID), *[after] * (length - slot - 1)),
            bases,
        ),
        min_size=1,
        max_size=width,
        unique_by=lambda c: c[0],
    )
    row = st.lists(
        st.tuples(st.integers(3, 8), st.sampled_from((1.0, 0.5, 0.25, 0.2, 0.1))),
        min_size=1,
        max_size=6,
        unique_by=lambda e: e[0],
    )
    candidates, dists = [], []
    for tokens, base in data.draw(token_rows, label="candidates"):
        candidates.append(EditCandidate(tokens, base))
        entries = data.draw(row)
        entries.sort(key=lambda e: -e[1])  # stable: tied ids keep drawn order
        dists.append(PredictionDistribution(tuple(entries)))
    beam = Beam(width, tuple(candidates))
    got = expand_beam(beam, dists)
    assert [(c.tokens, c.log_prob.hex()) for c in got.candidates] == (
        _full_expansion(beam, dists)
    )


# ---------------------------------------------------------------------------
# the trace against an eager decode and flip checks


def test_trace_candidates_equal_the_eager_tuple(sample_stack):
    # One edit that flips at i = 1 and one that exhausts both masks.
    forced = _forced_null_stack()
    cases = [
        (sample_stack, _triplet(sample_stack, "apple recipe", "d1", "d3"), "d3"),
        (forced, _triplet(forced, "x y", "a", "b"), "b"),
    ]
    for stack, t, counter in cases:
        importance = occlusion_importance(t.query_ids, t.d, stack.search)
        predictor = _predictor(stack, counter)
        result = edit(t, stack.search, importance, predictor, _ppl(stack),
                      beam_width=4, max_masks=None)
        assert result.trace
        for it in result.trace:
            masked = tuple(
                MASK_ID if pos in it.masked_positions else tok
                for pos, tok in enumerate(t.query_ids)
            )
            beam = decode_masked_slots(masked, predictor, 4)
            flips = tuple(check_flip(c.tokens, t, stack.search) for c in beam.candidates)
            assert beam.candidates
            assert it.beam == beam
            assert it.flips == flips
