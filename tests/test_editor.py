from __future__ import annotations

import itertools
import json
import math
import random

import pytest

from queryflip.corpus import ingest_corpus
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
from queryflip.text import MASK_ID, build_vocabulary

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
    d_prime = stack.vocab.encode(stack.corpus[counter_doc_id].tokens)
    return NgramPredictor(stack.lm, d_prime, lam=lam)


def _ppl(stack):
    return lambda seq: perplexity(seq, stack.lm)


# ---------------------------------------------------------------------------
# expand_beam


def test_width_one_beam_is_greedy():
    beam = Beam(1, (EditCandidate((MASK_ID, 9), 0.0),))
    dist = PredictionDistribution(0, ((5, 0.6), (6, 0.4)))
    out = expand_beam(beam, dist)
    assert len(out.candidates) == 1
    assert out.candidates[0].tokens == (5, 9)
    assert out.candidates[0].log_prob == math.log(0.6)


def test_expand_matches_exhaustive_enumeration_two_slots():
    # Hand-set conditionals over usable vocab {3, 4, 5}; beam width 3^2
    # covers every sequence, so the final beam must equal brute force.
    first = PredictionDistribution(0, ((3, 0.5), (4, 0.3), (5, 0.2)))
    second_given = {
        3: ((4, 0.7), (3, 0.2), (5, 0.1)),
        4: ((5, 0.6), (3, 0.3), (4, 0.1)),
        5: ((3, 0.5), (4, 0.4), (5, 0.1)),
    }
    beam = Beam(9, (EditCandidate((MASK_ID, MASK_ID), 0.0),))
    beam = expand_beam(beam, first)
    dists = [
        PredictionDistribution(1, second_given[c.tokens[0]])
        for c in beam.candidates
    ]
    beam = expand_beam(beam, dists)

    brute = []
    for t1, p1 in first.entries:
        for t2, p2 in dict(second_given)[t1]:
            brute.append(((t1, t2), math.log(p1) + math.log(p2)))
    brute.sort(key=lambda e: (-e[1], e[0]))
    assert [(c.tokens, c.log_prob) for c in beam.candidates] == brute


def test_expand_dedupes_identical_sequences():
    beam = Beam(4, (EditCandidate((MASK_ID,), 0.0),))
    # a malformed-but-legal distribution mentioning token 3 twice
    dist = PredictionDistribution(0, ((3, 0.5), (3, 0.2), (4, 0.1)))
    out = expand_beam(beam, dist)
    assert [c.tokens for c in out.candidates] == [(3,), (4,)]
    assert out.candidates[0].log_prob == math.log(0.5)


def test_expand_rejects_empty_distribution():
    beam = Beam(2, (EditCandidate((MASK_ID,), 0.0),))
    with pytest.raises(ValueError, match="empty prediction"):
        expand_beam(beam, PredictionDistribution(0, ()))


def test_expand_requires_matching_count():
    beam = Beam(2, (EditCandidate((MASK_ID,), 0.0),))
    dists = [
        PredictionDistribution(0, ((3, 0.5),)),
        PredictionDistribution(0, ((4, 0.5),)),
    ]
    with pytest.raises(ValueError, match="distributions"):
        expand_beam(beam, dists)


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


def test_check_flip_rejects_masked_candidate(sample_stack):
    t = _triplet(sample_stack, "apple recipe", "d1", "d3")
    with pytest.raises(ValueError, match="masked"):
        check_flip((MASK_ID,) + t.query_ids[1:], t, sample_stack.search)


def test_select_final_single_and_ppl_order(sample_stack):
    ppl = _ppl(sample_stack)
    banana = EditCandidate(tuple(ids(sample_stack, "banana recipe")), -1.0)
    bread = EditCandidate(tuple(ids(sample_stack, "bread recipe")), -1.0)
    assert select_final([bread], ppl) is bread
    # hand perplexities: banana-recipe 7.5619 < bread-recipe 16.0935
    assert select_final([bread, banana], ppl) is banana


def test_select_final_tie_breaks_lexicographically():
    constant_ppl = lambda seq: 2.0  # noqa: E731
    low = EditCandidate((3, 4), -1.0)
    high = EditCandidate((4, 3), -1.0)
    assert select_final([high, low], constant_ppl) is low


def test_select_final_empty_rejected(sample_stack):
    with pytest.raises(ValueError):
        select_final([], _ppl(sample_stack))


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
        beam_width=10,
    )
    assert result.outcome is not None
    assert stack.vocab.decode(result.outcome) == ["banana", "recipe"]
    assert result.masks_used == 1
    assert len(result.trace) == 1
    flipped = [c for c in result.trace[0].candidates if c.flipped]
    assert {stack.vocab.decode(c.tokens)[0] for c in flipped} == {"banana", "bread"}


def test_edit_is_deterministic(sample_stack):
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    results = [
        edit(t, stack.search, importance, _predictor(stack, "d3"), _ppl(stack))
        for _ in range(2)
    ]
    assert results[0].outcome == results[1].outcome
    assert results[0].masks_used == results[1].masks_used
    first = [(c.tokens, c.log_prob, c.flipped) for it in results[0].trace for c in it.candidates]
    second = [(c.tokens, c.log_prob, c.flipped) for it in results[1].trace for c in it.candidates]
    assert first == second


def test_edit_outcome_preserves_length_and_masked_positions_only(sample_stack):
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    result = edit(t, stack.search, importance, _predictor(stack, "d3"), _ppl(stack))
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
    result = edit(t, stack.search, importance, _predictor(stack, "b"), _ppl(stack))
    assert result.outcome is None
    assert result.masks_used == len(t.query_ids)
    assert [it.masks for it in result.trace] == [1, 2]
    assert not any(it.any_flipped for it in result.trace)


def test_edit_rejects_invalid_triplet(sample_stack):
    stack = sample_stack
    q = tuple(ids(stack, "apple recipe"))
    with pytest.raises(ValueError, match="not a valid counterfactual target"):
        Triplet(q, stack.corpus["d3"], stack.corpus["d1"],
                stack.search.score(q, "d3"), stack.search.score(q, "d1"))


def test_edit_rejects_bad_max_masks(sample_stack):
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    with pytest.raises(ValueError, match="max_masks"):
        edit(t, stack.search, importance, _predictor(stack, "d3"), _ppl(stack),
             max_masks=3)


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
    corpus = ingest_corpus(lines)
    vocab = build_vocabulary((d.tokens for d in corpus.documents()), 1)
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
        d_prime = vocab.encode(doc.tokens)
        predictor = NgramPredictor(lm, d_prime, lam=rng.choice((0.0, 0.5, 1.0)))
        length = rng.randint(2, 4)
        query = tuple(rng.choices(range(3, 3 + n), k=length))
        n_slots = rng.randint(1, min(2, length))
        slots = sorted(rng.sample(range(length), n_slots))
        masked = tuple(
            MASK_ID if pos in slots else tok for pos, tok in enumerate(query)
        )
        width = n * n  # >= |vocab|^slots, so nothing is pruned
        beam = decode_masked_slots(masked, slots, predictor, width)
        expected = _enumerate_fillings(masked, slots, predictor, n)
        got = [(c.tokens, c.log_prob) for c in beam.candidates]
        assert got == expected[: len(got)]
        assert len(got) == len(expected)  # no pruning happened
        checked += 1
    assert checked == 25
