from __future__ import annotations

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryflip import evaluation
from queryflip.config import MASKERS
from queryflip.corpus import Document, build_corpus, build_index, ingest_corpus
from queryflip.editor import EditCandidate, EditResult, Triplet, check_flip, select_final
from queryflip.evaluation import (
    METHODS,
    aggregate_records,
    baseline_mask_only,
    baseline_max_flip,
    bertscore_f1,
    build_triplets,
    cos_sim_metric,
    EvalRecord,
    EvalReport,
    evaluate,
    fluency_metric,
    rank_sentences,
    render_markdown,
    reports_to_json,
    run_method,
    SharedWork,
    sweep_edits,
)
from queryflip.masker import occlusion_importance
from queryflip.lm import perplexity
from queryflip.pipeline import build_stack, make_context
from queryflip.text import MASK_ID, PAD_ID, UNK_ID

from conftest import sample_config
from test_corpus import (
    B, IDF_DF1, IDF_DF2, K1, _TEXTS, ids, query_representation, reference_sentence_ids
)
from test_editor import _triplet
from test_masker import FakeEmbedder


# ---------------------------------------------------------------------------
# triplet construction


def test_build_triplets_top5_shape(sample_stack):
    # sample corpus only has 3 docs; check shape logic on its full ranking
    q = ids(sample_stack, "apple recipe")
    ranking = sample_stack.search.search(q, 3)
    triplets = build_triplets(ranking, sample_stack.corpus)
    assert [t.counter_rank for t in triplets] == [2, 3]
    assert all(t.d.id == "d1" for t in triplets)


def test_build_triplets_skips_ties_with_top(sample_stack):
    # "apple" scores d1 and d2 identically, so the rank-2 triplet cannot
    # satisfy the strict precondition and is skipped; rank 3 survives.
    q = ids(sample_stack, "apple")
    ranking = sample_stack.search.search(q, 3)
    assert ranking.entries[0][1] == ranking.entries[1][1]
    triplets = build_triplets(ranking, sample_stack.corpus)
    assert [t.counter_rank for t in triplets] == [3]


def test_build_triplets_single_result_empty(sample_stack):
    q = ids(sample_stack, "apple recipe")
    ranking = sample_stack.search.search(q, 1)
    assert build_triplets(ranking, sample_stack.corpus) == []


def _record(flipped: bool) -> EvalRecord:
    metric = 1.0 if flipped else None
    outcome = "edited" if flipped else None
    return EvalRecord(0, "q", "d", "c", None, flipped, outcome, 1, metric, metric, metric, 0.0)


def test_aggregate_records_flip_rate_values():
    assert aggregate_records([_record(True)] * 2)["flip_rate"] == 1.0
    assert aggregate_records([_record(True)] * 3 + [_record(False)])["flip_rate"] == 0.75


def test_report_derives_its_summaries_from_its_records():
    # Ranks out of order, and one record with no rank: the report sorts the
    # ranks itself and counts the unranked record only in its aggregates.
    records = [
        dataclasses.replace(_record(True), counter_rank=3),
        dataclasses.replace(_record(False), counter_rank=2),
        dataclasses.replace(_record(True), counter_rank=None),
    ]
    report = EvalReport("cfe2", records, {"beam": 5})
    assert report.aggregates == aggregate_records(records)
    assert list(report.by_rank) == [2, 3]
    assert report.by_rank == {
        2: aggregate_records(records[1:2]), 3: aggregate_records(records[:1])
    }
    assert report.aggregates["triplets"] == 3
    assert sum(b["triplets"] for b in report.by_rank.values()) == 2
    assert report.meta == {"beam": 5}


def test_reports_sharing_a_method_are_not_dropped_from_json():
    # The JSON keys reports by method, so a second cfe2 report would
    # overwrite the first while the markdown drew both.
    reports = [EvalReport("cfe2", [_record(True)], {"beam": b}) for b in (5, 10)]
    with pytest.raises(ValueError, match="duplicate method: cfe2"):
        reports_to_json(reports)


# ---------------------------------------------------------------------------
# metrics


def _idf(stack):
    return stack.search.idf_array(len(stack.vocab))


def test_cos_sim_identity_exact(sample_stack):
    q = ids(sample_stack, "apple recipe")
    assert cos_sim_metric([q], [list(q)], _idf(sample_stack)) == [1.0]


def test_cos_sim_disjoint_zero(sample_stack):
    q = ids(sample_stack, "apple recipe")
    other = ids(sample_stack, "tree bread")
    assert cos_sim_metric([q], [other], _idf(sample_stack)) == [0.0]
    # A mask_only outcome that pads every token has the zero vector.
    assert cos_sim_metric([q], [[PAD_ID] * len(q)], _idf(sample_stack)) == [0.0]


def test_cos_sim_hand_value(sample_stack):
    q = ids(sample_stack, "apple recipe")
    edited = ids(sample_stack, "apple orchard")
    expected = (IDF_DF2 * IDF_DF2) / (
        math.sqrt(2.0) * IDF_DF2 * math.hypot(IDF_DF2, IDF_DF1)
    )
    assert cos_sim_metric([q], [edited], _idf(sample_stack)) == pytest.approx(
        [expected], abs=1e-9
    )


def _reference_cos_sim(query_ids, edited_ids, search):
    """The cosine of two ``query_representation``s, their dot product
    added left to right: the reference ``cos_sim_metric`` must match bit
    for bit."""
    if list(query_ids) == list(edited_ids):
        return 1.0
    u = query_representation(search, query_ids)
    v = query_representation(search, edited_ids)
    dot = 0.0
    for t, w in u.items():
        if t in v:
            dot += w * v[t]
    return max(0.0, min(1.0, dot))


_QUERY_IDS = st.lists(st.integers(0, 12), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(_TEXTS, min_size=1, max_size=6),
    pairs=st.lists(st.tuples(_QUERY_IDS, _QUERY_IDS), min_size=1, max_size=12),
    data=st.data(),
)
def test_cos_sim_equals_the_reference_alone_and_in_a_block(texts, pairs, data):
    """Bit for bit, for queries with repeated terms, specials, [UNK], ids
    no document holds and sequences repeated across pairs; each pair's
    float is the same alone as in the block."""
    records = {f"d{i}": text for i, text in enumerate(texts)}
    records["fixed"] = "w0 w0 w1 w2"
    corpus, _ = build_corpus(records, 1)
    search = build_index(corpus, K1, B)
    # Some pairs reuse another pair's sequence, or pair a sequence with itself.
    for i in data.draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3)):
        pairs.append((pairs[i][1], pairs[i][data.draw(st.integers(0, 1))]))
    queries, edits = [q for q, _ in pairs], [e for _, e in pairs]
    idf = search.idf_array(13)
    block = cos_sim_metric(queries, edits, idf)
    expected = [_reference_cos_sim(q, e, search) for q, e in pairs]
    assert [x.hex() for x in block] == [x.hex() for x in expected]
    alone = [cos_sim_metric([q], [e], idf)[0] for q, e in pairs]
    assert [x.hex() for x in alone] == [x.hex() for x in block]


def test_bertscore_identity_exact(sample_stack):
    q = ids(sample_stack, "apple recipe")
    vectors = sample_stack.table.vectors_for(q)
    assert bertscore_f1([q], [list(q)], [vectors], [vectors]) == [1.0]


def test_bertscore_orthogonal_pair_half():
    embedder = FakeEmbedder({3: [1.0, 0.0], 4: [0.0, 1.0]})
    vectors = [embedder.vectors_for([3])], [embedder.vectors_for([4])]
    assert bertscore_f1([[3]], [[4]], *vectors) == pytest.approx([0.5], abs=1e-12)


def test_bertscore_hand_greedy_matching():
    # q = [a, b], q' = [a, c]; 2x2 similarity tables by hand.
    sqrt_half = 1.0 / math.sqrt(2.0)
    embedder = FakeEmbedder({
        1: [1.0, 0.0],          # a
        2: [0.0, 1.0],          # b
        3: [sqrt_half, sqrt_half],  # c
    })
    # precision rows (q' tokens): a->max(1, 0)=1; c->max(.7071, .7071)=.7071
    # recall cols (q tokens):     a->max(1, .7071)=1; b->max(0, .7071)=.7071
    p = ((1.0 + 1.0) / 2.0 + (sqrt_half + 1.0) / 2.0) / 2.0
    r = p
    expected = 2 * p * r / (p + r)
    vectors = [embedder.vectors_for([1, 2])], [embedder.vectors_for([1, 3])]
    assert bertscore_f1([[1, 2]], [[1, 3]], *vectors) == pytest.approx(
        [expected], abs=1e-12
    )


def test_bertscore_rejects_an_empty_sequence():
    vectors = np.ones((1, 2))
    with pytest.raises(ValueError, match="empty sequence"):
        bertscore_f1([[3], []], [[3], [3]], [vectors, vectors[:0]], [vectors, vectors])


def _mean_max_bertscore(q, e):
    """The F1 through the mean of the maxima in a fixed order, with no
    BLAS: each dot product ``np.add.reduce`` over the vector axis, each
    mean ``np.add.reduceat`` over the pair's values. The reference that
    ``bertscore_f1`` must match bit for bit."""
    sims = np.add.reduce(e[:, None, :] * q[None, :, :], axis=2)
    best_p = (sims.max(axis=1) + 1.0) / 2.0
    best_r = (sims.max(axis=0) + 1.0) / 2.0
    precision = float(np.add.reduceat(best_p, [0])[0] / len(best_p))
    recall = float(np.add.reduceat(best_r, [0])[0] / len(best_r))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@settings(max_examples=200, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                    min_size=1, max_size=6),
    dim=st.integers(1, 70),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
    cells_per_step=st.integers(1, 64),
)
def test_bertscore_equals_the_mean_max_reference(
    shapes, dim, dtype, seed, cells_per_step
):
    # Lengths up to 20 and 70 dimensions cross numpy's 8-element
    # pairwise-summation block. Each pair's float is the reference's, alone
    # and in a block whose products are cut into steps anywhere.
    rng = np.random.default_rng(seed)
    queries, edits, query_vectors, edited_vectors = [], [], [], []
    for n_query, n_edited in shapes:
        rows = rng.standard_normal((n_query + n_edited, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows.astype(dtype)
        first = 100 * len(queries)
        queries.append(list(range(first, first + n_query)))
        edits.append(list(range(first + n_query, first + n_query + n_edited)))
        query_vectors.append(rows[:n_query])
        edited_vectors.append(rows[n_query:])
    expected = list(map(_mean_max_bertscore, query_vectors, edited_vectors))
    with mock.patch.object(evaluation, "_PRODUCT_ENTRIES", cells_per_step * dim):
        block = bertscore_f1(queries, edits, query_vectors, edited_vectors)
    assert [x.hex() for x in block] == [x.hex() for x in expected]
    alone = [bertscore_f1([q], [e], [qv], [ev])[0] for q, e, qv, ev
             in zip(queries, edits, query_vectors, edited_vectors)]
    assert [x.hex() for x in alone] == [x.hex() for x in block]


def test_fluency_identity_exact(sample_stack):
    q = ids(sample_stack, "apple recipe")
    ppl = lambda seq: perplexity(seq, sample_stack.lm)  # noqa: E731
    assert fluency_metric(q, list(q), ppl, ppl) == 1.0


def test_fluency_uniform_lm_is_one():
    from queryflip.lm import NgramLM

    lm = NgramLM(2, 0.5, 4, np.empty((0, 2), np.int32), np.empty(0, np.int32))
    ppl = lambda seq: perplexity(seq, lm)  # noqa: E731
    assert fluency_metric([3, 4], [5, 6, 3], ppl, ppl) == pytest.approx(1.0, abs=1e-12)


def test_fluency_hand_ratio(sample_stack):
    stack = sample_stack
    q = ids(stack, "apple recipe")
    edited = ids(stack, "banana recipe")
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    expected = perplexity(edited, stack.lm) / perplexity(q, stack.lm)
    assert fluency_metric(q, edited, ppl, ppl) == pytest.approx(expected, abs=1e-12)
    assert expected > 1.0  # the edit is less fluent than the original


def test_cfe2_mask_budget_caps_the_edit(sample_stack, sample_ctx):
    # "apple pie" flips d1 against d2 only with both tokens masked.
    t = _triplet(sample_stack, "apple pie", "d1", "d2")
    full = run_method(t, "cfe2", 10, SharedWork(sample_ctx), SharedWork(sample_ctx))
    assert full.outcome is not None
    assert [len(it.masked_positions) for it in full.trace] == [1, 2]
    ctx = dataclasses.replace(sample_ctx, max_masks=1)
    capped = run_method(t, "cfe2", 10, SharedWork(ctx), SharedWork(ctx))
    assert capped.outcome is None
    assert [len(it.masked_positions) for it in capped.trace] == [1]


# ---------------------------------------------------------------------------
# out-of-vocabulary query words: every [UNK] is masked from the first iteration


def test_cfe2_masks_every_unk_first(sample_stack, sample_ctx):
    # No document holds "zzz" or "qqq", so both are [UNK]: maxsim ranks
    # them low, yet the first iteration masks both and q' keeps neither.
    t = _triplet(sample_stack, "apple zzz qqq", "d1", "d3")
    result = run_method(t, "cfe2", 10, SharedWork(sample_ctx), SharedWork(sample_ctx))
    assert sample_stack.vocab.decode(result.outcome) == ["apple", "tree", "banana"]
    assert [it.masked_positions for it in result.trace] == [(1, 2)]
    assert result.masks_used == 2


def test_cfe2_null_when_max_masks_is_below_the_unk_count(sample_stack, sample_ctx):
    # One mask cannot cover two [UNK]s, so no iteration runs.
    t = _triplet(sample_stack, "apple zzz qqq", "d1", "d3")
    ctx = dataclasses.replace(sample_ctx, max_masks=1)
    result = run_method(t, "cfe2", 10, SharedWork(ctx), SharedWork(ctx))
    assert result.outcome is None
    assert result.masks_used == 1
    assert result.trace == ()


def test_mask_only_replaces_every_unk(sample_stack, sample_ctx):
    # Without "pie" twice, d2 outranks d1; the [UNK] is replaced as well.
    t = _triplet(sample_stack, "apple pie pie tree zzz", "d1", "d2")
    work, target = SharedWork(sample_ctx), SharedWork(sample_ctx)
    result = run_method(t, "mask_only", 10, work, target)
    assert sample_stack.vocab.decode(result.outcome) == (
        ["[PAD]", "[PAD]", "[PAD]", "tree", "[PAD]"]
    )
    assert result.masks_used == 4


_TOY_WORDS = ("ant", "bee", "cat", "dog", "elk", "fox")
_ABSENT_WORDS = ("zzz", "qqq")  # no toy corpus holds them


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(_TOY_WORDS), min_size=3, max_size=6),
        min_size=3,
        max_size=5,
    ),
    query=st.lists(st.sampled_from(_TOY_WORDS + _ABSENT_WORDS), min_size=1, max_size=4),
    masker=st.sampled_from(MASKERS),
    min_count=st.integers(1, 2),
    beam_width=st.integers(1, 4),
)
def test_whole_edit_properties(texts, query, masker, min_count, beam_width):
    """cfe2 and mask_only over random toy corpora and queries, some of
    whose words are [UNK]. Every outcome strictly flips, has the query's
    length, differs from it only at masked positions and holds no [MASK]
    or [UNK] ([PAD] only from mask_only). cfe2's trace starts at
    max(1, #[UNK]) masks, grows by one per iteration, flips at its last
    iteration only, and every log probability in it is <= 0."""
    # The last document holds every toy word twice, so the vocabulary
    # always has room for the embedding dimension.
    texts = texts + [list(_TOY_WORDS) * 2]
    lines = [json.dumps({"id": f"d{i}", "text": " ".join(t)}) for i, t in enumerate(texts)]
    config = sample_config(masker=masker, min_count=min_count)
    stack = build_stack(ingest_corpus(lines), config)
    ctx = make_context(stack, config)
    ranking = stack.search.search(stack.vocab.encode(query), len(texts))
    for t in build_triplets(ranking, stack.corpus):
        work = SharedWork(ctx)
        first = max(1, t.query_ids.count(UNK_ID))
        for method in ("cfe2", "mask_only"):
            result = run_method(t, method, beam_width, work, SharedWork(ctx))
            if method == "cfe2":
                masks = [len(it.masked_positions) for it in result.trace]
                assert masks == list(range(first, first + len(masks)))
                assert masks[-1] == result.masks_used
                assert not any(any(it.flips) for it in result.trace[:-1])
                assert all(
                    c.log_prob <= 0.0 for it in result.trace for c in it.beam.candidates
                )
                masked = set(result.trace[-1].masked_positions)
            else:
                masked = set(work.importance(t).order[: result.masks_used])
            outcome = result.outcome
            if outcome is None:
                continue
            ids = list(outcome)
            assert ctx.scorer.score(ids, t.d_prime.id) > ctx.scorer.score(ids, t.d.id)
            forbidden = {MASK_ID, UNK_ID} | ({PAD_ID} if method == "cfe2" else set())
            assert not forbidden & set(outcome)
            assert len(outcome) == len(t.query_ids)
            assert all(
                before == after
                for pos, (before, after) in enumerate(zip(t.query_ids, outcome))
                if pos not in masked
            )


# ---------------------------------------------------------------------------
# baselines


def test_mask_only_flips_by_removal():
    # two docs sharing "recipe"; q's "apple" matches only doc a, so
    # removing it leaves b (whose second term matches) in front.
    lines = [
        json.dumps({"id": "a", "text": "apple recipe extra"}),
        json.dumps({"id": "b", "text": "banana recipe recipe"}),
    ]
    stack = build_stack(ingest_corpus(lines), sample_config())
    t = _triplet(stack, "apple recipe", "a", "b")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    result = baseline_mask_only(t, importance, stack.search)
    assert result.outcome is not None
    assert result.masks_used == 1
    assert PAD_ID in result.outcome


def test_mask_only_null_when_removal_cannot_help():
    lines = [
        json.dumps({"id": "a", "text": "x y"}),
        json.dumps({"id": "b", "text": "x y zonly"}),
    ]
    stack = build_stack(ingest_corpus(lines), sample_config(min_count=2))
    t = _triplet(stack, "x y", "a", "b")
    importance = occlusion_importance(t.query_ids, t.d, stack.search)
    result = baseline_mask_only(t, importance, stack.search)
    assert result.outcome is None
    assert result.masks_used == len(t.query_ids)


def test_pad_tokens_score_zero(sample_stack):
    # PAD is never indexed, so a PAD-only query matches nothing.
    assert sample_stack.search.score([PAD_ID, PAD_ID], "d1") == 0.0


def _stored_sentences(text):
    """The sentences a build stores for ``text``, as token surfaces."""
    corpus, vocab = build_corpus({"d": text}, 1)
    return [vocab.decode(ids) for ids in corpus["d"].sentences()]


def test_split_sentences_rules():
    assert _stored_sentences("One two. Three four! Five?") == [
        ["one", "two"], ["three", "four"], ["five"],
    ]
    assert _stored_sentences("no terminator at all") == [["no", "terminator", "at", "all"]]
    assert _stored_sentences("") == []


def _max_flip(t, stack, ppl):
    ranked = rank_sentences(t.d_prime.sentences(), ppl)
    return baseline_max_flip(t, ranked, stack.search)


def test_sentence_ids_skip_sentences_without_tokens():
    assert _stored_sentences("Apple pie. !!! Banana?") == [["apple", "pie"], ["banana"]]


def test_max_flip_single_sentence(sample_stack):
    stack = sample_stack
    t = _triplet(stack, "apple recipe", "d1", "d3")
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    result = _max_flip(t, stack, ppl)
    assert result.outcome is not None
    assert stack.vocab.decode(result.outcome) == ["banana", "bread", "recipe"]
    assert result.masks_used == 0


def test_max_flip_null_when_no_sentence_flips():
    lines = [
        json.dumps({"id": "a", "text": "x y"}),
        json.dumps({"id": "b", "text": "x y zonly"}),
    ]
    stack = build_stack(ingest_corpus(lines), sample_config(min_count=2))
    t = _triplet(stack, "x y", "a", "b")
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    result = _max_flip(t, stack, ppl)
    assert result.outcome is None


def test_max_flip_never_returns_a_sentence_holding_unk():
    # Under min_count 2 "zork" is [UNK] in d''s only flipping sentence.
    lines = [
        json.dumps({"id": "a", "text": "apple pie apple pie filler filler"}),
        json.dumps({"id": "b", "text": "apple pie. banana bread zork."}),
        json.dumps({"id": "c", "text": "banana bread banana bread"}),
    ]
    stack = build_stack(ingest_corpus(lines), sample_config(min_count=2))
    t = _triplet(stack, "apple pie", "a", "b")
    unk_sentence = tuple(stack.vocab.encode(["banana", "bread", "zork"]))
    assert UNK_ID in unk_sentence and unk_sentence in t.d_prime.sentences()
    assert check_flip(unk_sentence, t, stack.search)
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    assert rank_sentences(t.d_prime.sentences(), ppl) == [t.query_ids]
    assert _max_flip(t, stack, ppl).outcome is None


def test_max_flip_flips_whenever_any_sentence_flips(small_eval):
    # conditional soundness: the baseline finds an edit exactly when some
    # sentence of d' flips the pair on its own, so its flip rate is 1.0
    # on any dataset where every target document has a flipping sentence
    stack, ctx, triplets = small_eval
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    all_have_flipping_sentence = True
    for t in triplets:
        sentence_flips = [
            check_flip(s, t, stack.search)
            for s in reference_sentence_ids(t.d_prime.text, stack.vocab)
        ]
        exists = any(sentence_flips)
        all_have_flipping_sentence &= exists
        result = _max_flip(t, stack, ppl)
        assert (result.outcome is not None) == exists
    report = evaluate(triplets, "max_flip", ctx, timing="off")
    if all_have_flipping_sentence:
        assert report.aggregates["flip_rate"] == 1.0


def test_max_flip_prefers_lower_perplexity_sentence():
    # both sentences of doc b flip; the common-word one is more probable
    lines = [
        json.dumps({"id": "a", "text": "apple pie apple pie filler filler"}),
        json.dumps({"id": "b", "text": "banana bread. banana toast plum."}),
        json.dumps({"id": "c", "text": "banana bread banana bread"}),
    ]
    stack = build_stack(ingest_corpus(lines), sample_config())
    t = _triplet(stack, "apple pie", "a", "b")
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    result = _max_flip(t, stack, ppl)
    sentences = [tuple(stack.vocab.encode(["banana", "bread"])),
                 tuple(stack.vocab.encode(["banana", "toast", "plum"]))]
    assert result.outcome in sentences
    assert ppl(result.outcome) == min(ppl(s) for s in sentences)


def test_max_flip_equal_perplexities_pick_smaller_ids():
    lines = [
        json.dumps({"id": "a", "text": "apple pie apple pie filler filler"}),
        json.dumps({"id": "b", "text": "banana bread. banana toast plum."}),
        json.dumps({"id": "c", "text": "banana bread banana bread"}),
    ]
    stack = build_stack(ingest_corpus(lines), sample_config())
    t = _triplet(stack, "apple pie", "a", "b")
    result = _max_flip(t, stack, lambda seq: 2.0)
    sentences = [tuple(stack.vocab.encode(["banana", "bread"])),
                 tuple(stack.vocab.encode(["banana", "toast", "plum"]))]
    assert result.outcome == min(sentences)


def _reference_max_flip(triplet, sentences, scorer, ppl_fn):
    """max_flip as it was before sentences were ranked: flip-check every
    sentence, then let ``select_final`` pick among those that flip."""
    flipping = [
        EditCandidate(ids, 0.0) for ids in sentences if check_flip(ids, triplet, scorer)
    ]
    if not flipping:
        return EditResult(None, 0, ())
    return EditResult(select_final(flipping, ppl_fn).tokens, 0, ())


class _SetScorer:
    """Scores exactly the sentences of ``flipping`` above d on d'."""

    def __init__(self, flipping):
        self.flipping = flipping

    def score(self, ids, doc_id):
        return 1.0 if doc_id == "d'" and tuple(ids) in self.flipping else 0.0


_SENTENCES = st.lists(st.lists(st.integers(3, 5), min_size=1, max_size=3).map(tuple),
                      max_size=8)


@settings(max_examples=300, deadline=None)
@given(sentences=_SENTENCES, data=st.data())
def test_max_flip_equals_flipping_all_then_select_final(sentences, data):
    """Repeated sentences, and perplexities drawn from a few values so that
    they tie: the first flip in ranked order is ``select_final``'s pick."""
    distinct = list(dict.fromkeys(sentences))
    flipping = data.draw(st.sets(st.sampled_from(distinct)) if distinct else st.just(set()))
    values = st.sampled_from([1.5, 2.0, 2.0000000000000004, 9.0])
    ppls = data.draw(st.lists(values, min_size=len(distinct), max_size=len(distinct)))
    ppl_of = dict(zip(distinct, ppls))
    d, d_prime = Document("d", "", (), (0,)), Document("d'", "", (), (0,))
    t = Triplet((3,), d, d_prime, 1.0, 0.0)
    scorer = _SetScorer(flipping)
    asked = []

    def ppl(ids):
        asked.append(ids)
        return ppl_of[ids]

    ranked = rank_sentences(sentences, ppl)
    assert asked == distinct  # each distinct sentence once, in text order
    expected = _reference_max_flip(t, sentences, scorer, ppl_of.__getitem__)
    assert baseline_max_flip(t, ranked, scorer) == expected


class _CountingScorer:
    def __init__(self, inner):
        self.inner = inner
        self.scored = []

    def score(self, ids, doc_id):
        self.scored.append(tuple(ids))
        return self.inner.score(ids, doc_id)


def test_max_flip_stops_at_the_first_flip_in_ranked_order():
    # d' ranks "apple pie" (q itself, twice) first, then "banana bread
    # apple", which flips; the two sentences after it are never scored.
    lines = [
        json.dumps({"id": "a", "text": "apple pie apple pie filler filler"}),
        json.dumps({"id": "b", "text": "apple pie. plum jam. banana bread apple. "
                                       "apple pie. banana toast plum."}),
        json.dumps({"id": "c", "text": "banana bread banana bread"}),
    ]
    config = sample_config()
    stack = build_stack(ingest_corpus(lines), config)
    t = _triplet(stack, "apple pie", "a", "b")
    ppl = lambda seq: perplexity(seq, stack.lm)  # noqa: E731
    ranked = rank_sentences(t.d_prime.sentences(), ppl)
    assert [stack.vocab.decode(s) for s in ranked] == [
        ["apple", "pie"], ["banana", "bread", "apple"], ["banana", "toast", "plum"],
        ["plum", "jam"],
    ]
    scorer = _CountingScorer(stack.search)
    ctx = dataclasses.replace(make_context(stack, config), scorer=scorer)
    result = run_method(t, "max_flip", 10, SharedWork(ctx), SharedWork(ctx))
    assert result.outcome == ranked[1]
    assert scorer.scored == [ranked[0], ranked[0], ranked[1], ranked[1]]


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture(scope="module")
def small_eval():
    return _small_eval()


def _small_eval():
    lines = [
        json.dumps({"id": "a", "text": "apple pie recipe. sweet crust."}),
        json.dumps({"id": "b", "text": "banana bread recipe. ripe banana loaf."}),
        json.dumps({"id": "c", "text": "apple tree orchard. apple harvest."}),
        json.dumps({"id": "d", "text": "plum jam recipe. plum compote jar."}),
    ]
    config = sample_config(top_k=4)
    stack = build_stack(ingest_corpus(lines), config)
    ctx = make_context(stack, config)
    triplets = []
    for text in ("apple recipe", "banana recipe", "apple orchard"):
        ranking = stack.search.search(stack.vocab.encode(text.split()), 4)
        triplets.extend(build_triplets(ranking, stack.corpus))
    return stack, ctx, triplets


def test_evaluate_aggregates_match_records(small_eval):
    _, ctx, triplets = small_eval
    report = evaluate(triplets, "cfe2", ctx, beam_width=5, timing="off")
    assert report.aggregates == aggregate_records(report.records)
    assert 0.0 <= report.aggregates["flip_rate"] <= 1.0
    assert report.aggregates["triplets"] == len(triplets)


def test_evaluate_rank_breakdown_recomposes(small_eval):
    _, ctx, triplets = small_eval
    report = evaluate(triplets, "cfe2", ctx, beam_width=5, timing="off")
    total = sum(b["triplets"] for b in report.by_rank.values())
    assert total == report.aggregates["triplets"]
    weighted_flips = sum(b["flips"] for b in report.by_rank.values())
    assert weighted_flips == report.aggregates["flips"]
    solved = [r for r in report.records if r.outcome is not None]
    if solved:
        weighted_cos = sum(
            b["mean_cos_sim"] * (b["triplets"] - b["nulls"])
            for b in report.by_rank.values()
            if b["mean_cos_sim"] is not None
        )
        assert weighted_cos / len(solved) == pytest.approx(
            report.aggregates["mean_cos_sim"], abs=1e-12
        )


def test_evaluate_all_methods_produce_reports(small_eval):
    _, ctx, triplets = small_eval
    for method in ("cfe2", "mask_only", "max_flip"):
        report = evaluate(triplets, method, ctx, beam_width=5, timing="off")
        assert report.method == method
        assert len(report.records) == len(triplets)


def test_evaluate_unknown_method_rejected(small_eval):
    _, ctx, triplets = small_eval
    with pytest.raises(ValueError, match="unknown method"):
        evaluate(triplets, "nope", ctx)


def test_method_and_masker_names_keep_their_order():
    # perfbench runs and digests the methods in this order, and it is the
    # default of `eval --methods`.
    assert METHODS == ("cfe2", "mask_only", "max_flip")
    assert MASKERS == ("maxsim", "occlusion")


@pytest.mark.parametrize("method", ["cfe2", "mask_only"])
def test_unknown_masker_fails_on_first_importance(small_eval, method):
    _, ctx, triplets = small_eval
    bad = dataclasses.replace(ctx, masker="bert")  # bypasses RunConfig's check
    with pytest.raises(ValueError, match="unknown masker: bert"):
        evaluate(triplets, method, bad, timing="off")


def test_evaluate_parallel_matches_serial(small_eval):
    _, ctx, triplets = small_eval
    serial = evaluate(triplets, "cfe2", ctx, beam_width=5, timing="off")
    parallel = evaluate(triplets, "cfe2", ctx, beam_width=5, timing="off", workers=4)
    assert reports_to_json([serial]) == reports_to_json([parallel])


def test_sweep_edits_with_one_worker_edits_as_rows_are_taken(small_eval, monkeypatch):
    # `edit` writes each line as soon as its edit finishes: taking a row
    # runs that triplet's edits, one per size, and no other.
    _, ctx, triplets = small_eval
    edited = []
    run = evaluation.run_method

    def recording_run_method(triplet, *args):
        edited.append(triplet)
        return run(triplet, *args)

    monkeypatch.setattr(evaluation, "run_method", recording_run_method)
    rows = sweep_edits(
        triplets, [3, 5], ctx, lambda index, *_: index, "cfe2", workers=1, timing="off"
    )
    assert next(rows) == [0, 0] and edited == [triplets[0]] * 2
    assert next(rows) == [1, 1] and edited[2:] == [triplets[1]] * 2
    assert list(rows) == [[i, i] for i in range(2, len(triplets))]
    assert len(edited) == 2 * len(triplets)


def test_report_serialization_shape(small_eval):
    _, ctx, triplets = small_eval
    report = evaluate(triplets, "max_flip", ctx, timing="off")
    payload = json.loads(reports_to_json([report]))
    assert set(payload) == {"max_flip"}
    body = payload["max_flip"]
    assert {"aggregates", "by_rank", "meta", "records", "method"} <= set(body)
    markdown = render_markdown([report])
    assert "| Flip Rate |" in markdown
    assert "max_flip" in markdown


def test_null_outcomes_excluded_from_similarity_means():
    lines = [
        json.dumps({"id": "a", "text": "x y"}),
        json.dumps({"id": "b", "text": "x y zonly"}),
    ]
    config = sample_config(min_count=2, top_k=2)
    stack = build_stack(ingest_corpus(lines), config)
    ctx = make_context(stack, config)
    t = _triplet(stack, "x y", "a", "b")
    report = evaluate([t], "cfe2", ctx, timing="off")
    assert report.aggregates["flip_rate"] == 0.0
    assert report.aggregates["nulls"] == 1
    assert report.aggregates["mean_cos_sim"] is None


@pytest.mark.parametrize("masker", MASKERS)
def test_importance_is_the_maskers_own_result(small_eval, masker, monkeypatch):
    """The masker builds the one ``ImportanceScores`` a ranking uses,
    with or without [UNK] in the query; [UNK] positions lead its order."""
    _, ctx, triplets = small_eval
    ctx = dataclasses.replace(ctx, masker=masker)
    made = []
    name = f"{masker}_importance"
    masker_fn = getattr(evaluation, name)
    monkeypatch.setattr(evaluation, name, lambda *args: made.append(masker_fn(*args)) or made[-1])
    triplet = triplets[0]
    assert UNK_ID not in triplet.query_ids
    assert SharedWork(ctx).importance(triplet) is made[-1]
    assert made[-1].first_masks == 1
    unknown = dataclasses.replace(triplet, query_ids=triplet.query_ids + (UNK_ID,))
    scores = SharedWork(ctx).importance(unknown)
    assert scores is made[-1] and len(made) == 2
    assert scores.order[:1] == (len(triplet.query_ids),)
    assert scores.first_masks == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=100, deadline=None)
@given(payload=_JSON_VALUES)
def test_canonical_json_is_the_bytes_of_json_dumps(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert evaluation.canonical_json(payload) == expected
