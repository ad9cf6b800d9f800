from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
import tracemalloc
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryflip import lm as lm_module
from queryflip.corpus import Corpus, build_corpus, ingest_corpus
from queryflip.lm import (
    BOS,
    NgramLM,
    NgramPredictor,
    PredictionDistribution,
    perplexity,
    sentence_perplexities,
    train_ngram,
)
from queryflip.text import (
    FIRST_CONTENT_ID,
    MASK_ID,
    PAD_ID,
    UNK_ID,
    tokenize,
)

from synthdata import synthetic_corpus
from test_corpus import assert_same_arrays, ids, npz_round_trip


def _prob(lm, token_id, context):
    """P(token | context): add-k over the context's run from ``distribution``."""
    targets, counts, denominator = lm.distribution(context)
    count = dict(zip(targets, counts)).get(token_id, 0)
    return (count + lm.k) / denominator


def _context_at(lm, token_ids, position):
    """BOS-padded (order-1)-token context preceding ``position``: the
    reference the predictor's window-built context must equal."""
    ctx_len = lm.order - 1
    left = list(token_ids[:position])
    padded = [BOS] * ctx_len + left
    return tuple(padded[len(padded) - ctx_len :]) if ctx_len else ()


def _bigram_ab():
    # corpus {[a, b], [a, b]}, order 2, k = 0.1, candidates {a, b}
    lines = [json.dumps({"id": f"d{i}", "text": "a b"}) for i in range(2)]
    corpus, vocab = build_corpus(ingest_corpus(lines), 1)
    return train_ngram(corpus, vocab, order=2, k=0.1), vocab


def test_bigram_conditional_hand_value():
    lm, vocab = _bigram_ab()
    a, b = vocab.id("a"), vocab.id("b")
    # P(b | a) = (2 + 0.1) / (2 + 0.1 * 2)
    assert _prob(lm, b, (a,)) == pytest.approx(2.1 / 2.2, abs=1e-12)
    assert _prob(lm, b, (a,)) == pytest.approx(0.9545454545454545, abs=1e-12)


def test_unseen_context_backs_off_to_uniform():
    lm, vocab = _bigram_ab()
    a, b = vocab.id("a"), vocab.id("b")
    assert _prob(lm, a, (b,)) == pytest.approx(0.5, abs=1e-12)
    assert _prob(lm, b, (b,)) == pytest.approx(0.5, abs=1e-12)


def test_distributions_normalize():
    lm, vocab = _bigram_ab()
    a, b = vocab.id("a"), vocab.id("b")
    for context in ((BOS,), (a,), (b,), (UNK_ID,)):
        total = sum(_prob(lm, t, context) for t in (a, b))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_perplexity_uniform_lm_is_vocab_size():
    # an untrained model is uniform over its candidates
    lm = NgramLM(2, 0.1, 4, np.empty((0, 2), np.int32), np.empty(0, np.int32))
    seq = [FIRST_CONTENT_ID, FIRST_CONTENT_ID + 1, FIRST_CONTENT_ID + 3]
    assert perplexity(seq, lm) == pytest.approx(4.0, abs=1e-9)


def test_perplexity_trained_bigram_hand_value():
    lm, vocab = _bigram_ab()
    a, b = vocab.id("a"), vocab.id("b")
    # P(a | BOS) = 2.1/2.2, P(b | a) = 2.1/2.2
    expected = math.exp(-(math.log(2.1 / 2.2) + math.log(2.1 / 2.2)) / 2.0)
    assert perplexity([a, b], lm) == pytest.approx(expected, abs=1e-12)
    assert perplexity([a, b], lm) == pytest.approx(1.0476190476190477, abs=1e-12)


def test_perplexity_at_least_one():
    lm, vocab = _bigram_ab()
    a, b = vocab.id("a"), vocab.id("b")
    for seq in ([a], [b], [a, b], [b, a], [a, a, b]):
        assert perplexity(seq, lm) >= 1.0


def test_perplexity_unigram_length_invariance():
    lines = [
        json.dumps({"id": "d1", "text": "a b"}),
        json.dumps({"id": "d2", "text": "a a b"}),
    ]
    corpus, vocab = build_corpus(ingest_corpus(lines), 1)
    unigram = train_ngram(corpus, vocab, order=1, k=0.1)
    assert unigram.n_candidates == 2
    a, b = vocab.id("a"), vocab.id("b")
    seq = [a, b, b, a]
    assert perplexity(seq + seq, unigram) == pytest.approx(
        perplexity(seq, unigram), abs=1e-9
    )


def test_special_target_scored_at_unseen_floor():
    lm, vocab = _bigram_ab()
    a = vocab.id("a")
    # PAD is not a candidate: probability equals the add-k floor, so
    # sequences containing it stay scoreable (and expensive).
    assert _prob(lm, PAD_ID, (a,)) == pytest.approx(0.1 / 2.2, abs=1e-12)
    assert perplexity([a, PAD_ID], lm) > perplexity([a, vocab.id("b")], lm)


def reference_counts(corpus, vocab, order):
    """Per-n-gram counting with one Counter per context, in first-seen order.

    The reference train_ngram must agree with: each document BOS-padded,
    specials kept as context but never counted as targets.
    """
    counts = defaultdict(Counter)
    totals = defaultdict(int)
    ctx_len = order - 1
    for doc in corpus.documents():
        token_ids = vocab.encode(tokenize(doc.text))
        padded = [BOS] * ctx_len + token_ids
        for pos, target in enumerate(token_ids):
            if target < FIRST_CONTENT_ID:
                continue
            context = tuple(padded[pos : pos + ctx_len])
            counts[context][target] += 1
            totals[context] += 1
    return counts, totals


def _random_corpus(rng):
    words = [f"w{i}" for i in range(8)]
    lines = []
    for i in range(12):
        tokens = rng.choices(words, weights=range(8, 0, -1), k=rng.randint(0, 8))
        if i == 0:
            tokens = []
        if i == 5:
            # A word seen once: UNK under min_count 2, and context to "w0".
            tokens += [f"once{rng.randrange(10**6)}", "w0"]
        lines.append(json.dumps({"id": f"d{i}", "text": " ".join(tokens)}))
    return ingest_corpus(lines)


@pytest.mark.parametrize("min_count", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_train_ngram_matches_counter_reference(order, min_count):
    rng = random.Random(order * 10 + min_count)
    for _ in range(5):
        corpus, vocab = build_corpus(_random_corpus(rng), min_count)
        assert any(not doc.ids for doc in corpus.documents())
        k, n = 0.1, vocab.content_size
        lm = train_ngram(corpus, vocab, order=order, k=k)
        counts, totals = reference_counts(corpus, vocab, order)
        if min_count == 2 and order > 1:
            assert any(UNK_ID in context for context in counts)

        def ref_prob(token_id, context):
            count = counts.get(context, {}).get(token_id, 0)
            return (count + k) / (totals.get(context, 0) + k * n)

        # The model as built and as loaded from its saved arrays.
        loaded = NgramLM.from_arrays(npz_round_trip(lm.to_arrays()), order, k, n)
        assert_same_arrays(loaded.to_arrays(), lm.to_arrays())
        unseen = (PAD_ID,) * (order - 1)
        sequences = [vocab.encode(tokenize(d.text)) for d in corpus.documents()]
        sequences.append([PAD_ID, UNK_ID, FIRST_CONTENT_ID, FIRST_CONTENT_ID])
        for model in (lm, loaded):
            for context in [*counts, unseen]:
                for token_id in [*range(FIRST_CONTENT_ID, len(vocab)), PAD_ID]:
                    assert _prob(model, token_id, context) == ref_prob(token_id, context)
                seen = counts.get(context, {})
                targets, run_counts, denominator = model.distribution(context)
                assert targets == sorted(seen)
                assert run_counts == [seen[t] for t in targets]
                assert denominator == totals.get(context, 0) + k * n

            for seq in filter(None, sequences):
                log_sum = 0.0
                for pos, target in enumerate(seq):
                    log_sum += math.log(ref_prob(target, _context_at(model, seq, pos)))
                assert perplexity(seq, model) == math.exp(-log_sum / len(seq))


def _table_rows(lm):
    """The model's table as (context..., target, count) tuples."""
    return [(*row, count) for row, count in zip(lm.grams.tolist(), lm.counts.tolist())]


def _reference_rows(corpus, vocab, order):
    """``reference_counts`` as the sorted table train_ngram must build."""
    counts, _ = reference_counts(corpus, vocab, order)
    return sorted((*ctx, t, n) for ctx, seen in counts.items() for t, n in seen.items())


# Past int64 for every vocabulary: radix >= FIRST_CONTENT_ID + 2 = 5, and
# 5 ** 28 > 2 ** 63, so the keys of the 28-id contexts are Python ints.
_OBJECT_ORDER = 29


@settings(max_examples=40, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=10).map(" ".join),
        min_size=1, max_size=8,
    ),
    order=st.sampled_from([1, 2, 3, 4, _OBJECT_ORDER]),
    min_count=st.sampled_from([1, 2]),
)
def test_train_ngram_table_equals_the_reference_counts(texts, order, min_count):
    """The table counted from numbered prefixes holds exactly the
    reference's rows, sorted, at orders 1-4 (int64 context keys) and past
    int64 (object keys). One document, longer than every order, holds
    windows with no BOS, whose context keys past int64 need every digit."""
    records = {f"d{i}": text for i, text in enumerate(texts)}
    records["fixed"] = " ".join("abcde" * 6)
    corpus, vocab = build_corpus(records, min_count)
    lm = train_ngram(corpus, vocab, order=order, k=0.1)
    if order == _OBJECT_ORDER:
        assert lm.radix ** (order - 1) > np.iinfo(np.int64).max
    assert lm.grams.dtype == lm.counts.dtype == np.int32
    assert lm.grams.shape == (len(lm.counts), order)
    assert _table_rows(lm) == _reference_rows(corpus, vocab, order)


def _random_documents(data, vocab):
    """A corpus of random sentences over ``vocab``'s ids, ``[UNK]``
    included, so most of their contexts are unseen; some documents are
    empty."""
    docs = data.draw(
        st.lists(
            st.lists(
                st.lists(st.integers(UNK_ID, len(vocab) - 1), min_size=1, max_size=20),
                max_size=4,
            ),
            min_size=1, max_size=5,
        ),
        label="documents",
    )
    sentences = [s for doc in docs for s in doc]
    ids = np.array([t for s in sentences for t in s], dtype=np.int32)
    offsets = np.cumsum([0] + [sum(map(len, doc)) for doc in docs])
    sentence_offsets = np.cumsum([0] + [len(s) for s in sentences])
    records = {f"r{i}": "" for i in range(len(docs))}
    return Corpus(records, ids, offsets, sentence_offsets)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sentence_perplexities_equal_the_scalar_loop_bit_for_bit(data):
    """Every sentence of the training corpus and of random documents, at
    orders 1-4, at the largest order whose packed n-grams fit int64, and
    at the next, whose do not and which takes the scalar loop. Documents
    are scored in chunks of 1-3, in a random order."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    corpus, vocab = build_corpus(_random_corpus(rng), rng.choice((1, 2)))
    past = next(o for o in itertools.count(1) if (len(vocab) + 1) ** o > 2**63 - 1)
    order = data.draw(st.sampled_from((1, 2, 3, 4, past - 1, past)), label="order")
    k = data.draw(st.sampled_from((0.1, 1 / 3)), label="k")
    lm = train_ngram(corpus, vocab, order=order, k=k)
    chunk = data.draw(st.integers(1, 3), label="chunk")
    for scored in (corpus, _random_documents(data, vocab)):
        doc_ids = data.draw(st.permutations(scored.doc_ids()), label="doc ids")
        sentences = [scored[d].sentences() for d in doc_ids]
        expected = [[perplexity(s, lm).hex() for s in doc] for doc in sentences]
        logged = []

        def spy(x):
            logged.append(x)
            return math.log(x)

        with mock.patch.object(lm_module, "_BATCH_DOCS", chunk), \
                mock.patch.object(lm_module, "log", spy):
            got = sentence_perplexities(scored, doc_ids, lm)
        assert [[p.hex() for p in ppls] for ppls in got] == expected
        # ``math.log`` of each ratio: numpy's own log may differ from it in
        # the last bit, on some hosts only.
        ratios = {
            _prob(lm, t, _sentence_context(s, i, order))
            for doc in sentences for s in doc for i, t in enumerate(s)
        }
        assert set(logged) == ratios


def _synthetic_lm():
    corpus, vocab = build_corpus(ingest_corpus(synthetic_corpus()), 1)
    return corpus, train_ngram(corpus, vocab, order=3, k=0.1)


def test_sentence_perplexities_never_pack_the_table(monkeypatch):
    """A one-document batch packs its own windows, never the table's rows:
    the model holds them packed."""
    corpus, lm = _synthetic_lm()
    pack, packed = lm_module._pack, []

    def spy(rows, *args):
        packed.append(len(rows))
        return pack(rows, *args)

    monkeypatch.setattr(lm_module, "_pack", spy)
    doc_ids = corpus.doc_ids()[:1]
    got = sentence_perplexities(corpus, doc_ids, lm)
    assert packed and len(lm.grams) not in packed
    assert got == [[perplexity(s, lm) for s in corpus[d].sentences()] for d in doc_ids]


def test_model_keeps_no_python_object_per_row():
    """A constructed model keeps a few tracemalloc blocks (buffers and
    views), none per row; its first lookup adds the run index, at most
    two blocks per context run (the dict's key and value)."""
    _, lm = _synthetic_lm()
    runs = len(np.unique(lm.grams[:, :-1], axis=0))
    assert runs > 1000
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        model = NgramLM(lm.order, lm.k, lm.n_candidates, lm.grams, lm.counts)
        built = tracemalloc.take_snapshot()
        model.distribution((BOS, BOS))
        looked_up = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    def kept(after):
        return sum(stat.count_diff for stat in after.compare_to(before, "filename"))

    assert kept(built) <= 64
    assert kept(looked_up) <= 2 * runs + 64


@pytest.mark.parametrize("first", ["perplexity", "distribution"])
@pytest.mark.parametrize("order", [3, _OBJECT_ORDER])
def test_first_lookup_builds_the_run_index_once(order, first):
    """The run index is built by the first lookup, not by training, and
    then reused. It maps each context's key to its run, in table order,
    with int64 keys (order 3) and Python int keys (past int64); every row
    reads its own count through it."""
    corpus, vocab = build_corpus(ingest_corpus(synthetic_corpus()), 1)
    k, n = 0.1, vocab.content_size
    lm = train_ngram(corpus, vocab, order=order, k=k)
    assert lm._runs is None
    seq = corpus.documents()[0].ids
    if first == "perplexity":
        perplexity(seq, lm)
    else:
        lm.distribution((BOS,) * (order - 1))
    runs = lm._runs
    rows = [tuple(row) for row in lm.grams.tolist()]
    contexts = list(dict.fromkeys(row[:-1] for row in rows))
    keys = [functools.reduce(lambda key, t: key * lm.radix + t + 1, c, 0) for c in contexts]
    assert runs == dict(zip(keys, range(len(contexts))))
    totals = Counter()
    for row, count in zip(rows, lm.counts.tolist()):
        totals[row[:-1]] += count
    for row, count in zip(rows, lm.counts.tolist()):
        assert _prob(lm, row[-1], row[:-1]) == (count + k) / (totals[row[:-1]] + k * n)
    perplexity(seq, lm)
    assert lm._runs is runs


def _sentence_context(sentence, i, order):
    """The order-1 ids before ``sentence[i]``, BOS-padded."""
    before = sentence[max(0, i - order + 1) : i]
    return (BOS,) * (order - 1 - len(before)) + tuple(before)


def _set(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# Damages to a sorted table (grams, counts) of a model with n candidate
# ids, each with the message NgramLM rejects it with. The first context
# column rises, so a context set in the first or last row keeps the order;
# the first two rows share the all-BOS context. A context id out of range
# is set in the first context column and in the last (-2), since each
# column is checked on its own.
MALFORMED_TABLES = {
    "row_out_of_order": (
        lambda g, c, n: (g[::-1], c[::-1]),
        "n-gram rows not sorted strictly by context, then target",
    ),
    "target_out_of_order": (
        lambda g, c, n: (g[np.r_[1, 0, 2 : len(g)]], c[np.r_[1, 0, 2 : len(c)]]),
        "n-gram rows not sorted strictly by context, then target",
    ),
    "duplicate_row": (
        lambda g, c, n: (np.concatenate([g[:1], g]), np.concatenate([c[:1], c])),
        "n-gram rows not sorted strictly by context, then target",
    ),
    "count_below_one": (
        lambda g, c, n: (g, _set(c, -1, 0)),
        "n-gram counts must be >= 1",
    ),
    "target_special": (
        lambda g, c, n: (_set(g, (0, -1), UNK_ID), c),
        "n-gram target outside the candidate ids",
    ),
    "target_past_candidates": (
        lambda g, c, n: (_set(g, (-1, -1), FIRST_CONTENT_ID + n), c),
        "n-gram target outside the candidate ids",
    ),
    "context_below_bos": (
        lambda g, c, n: (_set(g, (0, 0), BOS - 1), c),
        "n-gram context outside the vocabulary ids",
    ),
    "context_past_vocabulary": (
        lambda g, c, n: (_set(g, (-1, 0), FIRST_CONTENT_ID + n), c),
        "n-gram context outside the vocabulary ids",
    ),
    "last_context_column_below_bos": (
        lambda g, c, n: (_set(g, (0, -2), BOS - 1), c),
        "n-gram context outside the vocabulary ids",
    ),
    "last_context_column_past_vocabulary": (
        lambda g, c, n: (_set(g, (-1, -2), FIRST_CONTENT_ID + n), c),
        "n-gram context outside the vocabulary ids",
    ),
    "count_past_int64": (
        lambda g, c, n: (g, _set(c.astype(np.uint64), -1, 2**63)),
        "n-gram counts of a context must total below 2**31",
    ),
    "context_total_past_int64": (
        lambda g, c, n: (g, _set(c.astype(np.int64), [0, 1], 2**62)),
        "n-gram counts of a context must total below 2**31",
    ),
    "context_total_at_int32_limit": (
        lambda g, c, n: (g, _set(c, [0, 1], 2**30)),
        "n-gram counts of a context must total below 2**31",
    ),
}


@pytest.mark.parametrize("order", [3, _OBJECT_ORDER])
@pytest.mark.parametrize("name", list(MALFORMED_TABLES))
def test_malformed_tables_are_rejected(name, order):
    damage, message = MALFORMED_TABLES[name]
    corpus, vocab = build_corpus({"d1": "a b c a b", "d2": "c a b b"}, 1)
    lm = train_ngram(corpus, vocab, order=order, k=0.1)
    assert (lm.grams[0, :-1] == BOS).all() and (lm.grams[1, :-1] == BOS).all()
    grams, counts = damage(lm.grams, lm.counts, lm.n_candidates)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NgramLM(order, lm.k, lm.n_candidates, grams, counts)


def test_a_table_of_unsigned_ids_in_range_is_held_as_int32():
    """Any integer type is read; an unsigned table holds no BOS, so its
    contexts here are the trained table's rows without one."""
    corpus, vocab = build_corpus({"d1": "a b c a b", "d2": "c a b b"}, 1)
    lm = train_ngram(corpus, vocab, order=3, k=0.1)
    inside = (lm.grams[:, :-1] != BOS).all(axis=1)
    grams, counts = lm.grams[inside], lm.counts[inside]
    assert len(grams)
    model = NgramLM(3, 0.1, lm.n_candidates, grams.astype(np.uint16), counts)
    assert model.grams.dtype == np.int32
    assert np.array_equal(model.grams, grams)


def test_context_totals_just_below_2_31_are_held_exactly():
    corpus, vocab = build_corpus({"d1": "a b c a b", "d2": "c a b b"}, 1)
    lm = train_ngram(corpus, vocab, order=3, k=0.1)
    counts = _set(lm.counts, [0, 1], [2**30, 2**30 - 1])
    model = NgramLM(3, 0.1, lm.n_candidates, lm.grams, counts)
    _, held, denominator = model.distribution((BOS, BOS))
    assert held == [2**30, 2**30 - 1]
    assert denominator == 2**31 - 1 + 0.1 * lm.n_candidates


def test_packed_context_keys_are_exact_past_int64():
    """Order 10 on the acceptance corpus: the largest key, radix ** 9,
    is past int64, and every answer still matches counts taken from the
    table's own rows."""
    corpus, vocab = build_corpus(ingest_corpus(synthetic_corpus()), 1)
    k, n = 0.1, vocab.content_size
    lm = train_ngram(corpus, vocab, order=10, k=k)
    assert lm.radix == len(vocab) + 1 == 192
    assert lm.radix**9 > np.iinfo(np.int64).max
    rows = [tuple(row) for row in lm.grams.tolist()]
    counts = dict(zip(rows, lm.counts.tolist()))
    totals = Counter()
    for row, count in counts.items():
        totals[row[:-1]] += count

    def ref_prob(token_id, context):
        return (counts.get((*context, token_id), 0) + k) / (totals[context] + k * n)

    for row, count in counts.items():
        assert _prob(lm, row[-1], row[:-1]) == (count + k) / (totals[row[:-1]] + k * n)
    for context in [(*rows[-1][:-2], PAD_ID), (BOS,) * 8 + (MASK_ID,)]:
        assert context not in totals
        assert _prob(lm, FIRST_CONTENT_ID, context) == k / (k * n)
        assert lm.distribution(context) == ([], [], k * n)
    for doc in corpus.documents():
        seq = doc.ids
        if seq:
            log_sum = 0.0
            for pos, target in enumerate(seq):
                log_sum += math.log(ref_prob(target, _context_at(lm, seq, pos)))
            assert perplexity(seq, lm) == math.exp(-log_sum / len(seq))


# ---------------------------------------------------------------------------
# Masked-slot prediction


def test_predict_lambda_one_equals_doc_unigram(sample_stack):
    # lambda = 1: exactly the smoothed unigram distribution of d'
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    masked = [MASK_ID] + ids(stack, "recipe")
    dist = NgramPredictor(stack.lm, d3, lam=1.0).predict(masked, 0, 7)
    probs = dict(dist.entries)
    hit, miss = 1.1 / 3.7, 0.1 / 3.7
    for surface in ("banana", "bread", "recipe"):
        assert probs[stack.vocab.id(surface)] == pytest.approx(hit, abs=1e-12)
    for surface in ("apple", "orchard", "pie", "tree"):
        assert probs[stack.vocab.id(surface)] == pytest.approx(miss, abs=1e-12)


def test_predict_lambda_zero_equals_ngram(sample_stack):
    # lambda = 0 at a slot with left context: exactly the n-gram conditional
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    apple = stack.vocab.id("apple")
    masked = [apple, MASK_ID]
    dist = NgramPredictor(stack.lm, d3, lam=0.0).predict(masked, 1, 7)
    probs = dict(dist.entries)
    context = _context_at(stack.lm, masked, 1)
    assert context == (BOS, apple)
    for token_id, prob in probs.items():
        assert prob == pytest.approx(_prob(stack.lm, token_id, context), abs=1e-15)


def test_predict_first_slot_falls_back_to_doc_distribution(sample_stack):
    # No left context at slot 0: the mixture degenerates to the document
    # unigram, so the top prediction is one of d3's tokens.
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    masked = [MASK_ID] + ids(stack, "recipe")
    dist = NgramPredictor(stack.lm, d3, lam=0.5).predict(masked, 0, 7)
    top_id, top_prob = dist.entries[0]
    assert stack.vocab.text([top_id]) in {"banana", "bread", "recipe"}
    assert top_prob == pytest.approx(1.1 / 3.7, abs=1e-12)
    # ties resolve by ascending token id: recipe < banana < bread
    assert stack.vocab.decode(t for t, _ in dist.entries[:3]) == [
        "recipe", "banana", "bread",
    ]


def test_predict_mixture_hand_value(sample_stack):
    # Slot 1 with left context "banana": mixture of trigram conditional
    # (context (BOS, banana) -> bread seen once) and d3's unigram.
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    banana = stack.vocab.id("banana")
    bread = stack.vocab.id("bread")
    masked = [banana, MASK_ID]
    dist = NgramPredictor(stack.lm, d3, lam=0.5).predict(masked, 1, 7)
    probs = dict(dist.entries)
    expected_bread = 0.5 * (1.1 / 1.7) + 0.5 * (1.1 / 3.7)
    assert probs[bread] == pytest.approx(expected_bread, abs=1e-12)
    assert dist.entries[0][0] == bread


def test_predict_top_truncates_and_sorts(sample_stack):
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    masked = [MASK_ID, stack.vocab.id("recipe")]
    dist = NgramPredictor(stack.lm, d3, lam=0.5).predict(masked, 0, 2)
    assert len(dist.entries) == 2
    probs = [p for _, p in dist.entries]
    assert probs == sorted(probs, reverse=True)


def test_predict_full_distribution_sums_to_one(sample_stack):
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    masked = stack.vocab.encode(["apple", "[MASK]", "recipe"])
    predictor = NgramPredictor(stack.lm, d3, lam=0.5)
    dist = predictor.predict(masked, 1, stack.vocab.content_size)
    assert sum(p for _, p in dist.entries) == pytest.approx(1.0, abs=1e-9)
    assert all(t >= FIRST_CONTENT_ID for t, _ in dist.entries)


def test_predict_deterministic(sample_stack):
    stack = sample_stack
    d3 = stack.corpus["d3"].ids
    masked = [MASK_ID] + ids(stack, "recipe")
    first = NgramPredictor(stack.lm, d3, lam=0.5).predict(masked, 0, 5)
    second = NgramPredictor(stack.lm, d3, lam=0.5).predict(masked, 0, 5)
    assert first == second


def dense_prediction(counts, totals, lm, d_prime_ids, masked_ids, position, top, lam):
    """The mixture over every candidate, picked by one np.lexsort.

    The n-gram row comes from the Counter reference, the document row
    adds 1.0 to k per occurrence; both are divided by their add-k
    denominators in one step, as a length-V array each.
    """
    n, k = lm.n_candidates, lm.k
    p_doc = np.full(n, k, dtype=np.float64)
    total = 0
    for token_id in d_prime_ids:
        if token_id >= FIRST_CONTENT_ID:
            p_doc[token_id - FIRST_CONTENT_ID] += 1.0
            total += 1
    p_doc /= total + k * n
    window = masked_ids[max(0, position - (lm.order - 1)) : position]
    if position == 0 or any(t in (MASK_ID, PAD_ID) for t in window):
        probs = p_doc
    else:
        context = _context_at(lm, masked_ids, position)
        row = np.full(n, k, dtype=np.float64)
        for token_id, count in counts.get(context, {}).items():
            row[token_id - FIRST_CONTENT_ID] += count
        row /= totals.get(context, 0) + k * n
        probs = (1.0 - lam) * row + lam * p_doc
    candidates = np.arange(FIRST_CONTENT_ID, FIRST_CONTENT_ID + n)
    order = np.lexsort((candidates, -probs))[:top]
    return tuple((int(candidates[i]), float(probs[i])) for i in order)


# With k = 1/3, k + 1.0 + 1.0 != k + 2: the document counts must be
# accumulated one occurrence at a time, as the dense reference does.
@pytest.mark.parametrize("k", [0.1, 1 / 3])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_predict_matches_dense_reference(order, k):
    rng = random.Random(order * 100 + int(k * 100))
    slots = {"ngram": 0, "fallback": 0}
    for _ in range(6):
        corpus, vocab = build_corpus(_random_corpus(rng), rng.choice((1, 2)))
        lm = train_ngram(corpus, vocab, order=order, k=k)
        counts, totals = reference_counts(corpus, vocab, order)
        n = vocab.content_size
        docs = [vocab.encode(tokenize(d.text)) for d in corpus.documents()]
        content = list(range(FIRST_CONTENT_ID, len(vocab)))
        for d_prime in docs:  # includes an empty document
            for lam in (0.0, 1.0, rng.random()):
                predictor = NgramPredictor(lm, d_prime, lam=lam)
                for _ in range(4):
                    length = rng.randint(1, 6)
                    masked = [rng.choice(content + [UNK_ID]) for _ in range(length)]
                    position = rng.randrange(length)
                    masked[position] = MASK_ID
                    if rng.random() < 0.3:
                        masked[rng.randrange(length)] = rng.choice((MASK_ID, PAD_ID))
                        masked[position] = MASK_ID
                    window = masked[max(0, position - (order - 1)) : position]
                    fallback = position == 0 or MASK_ID in window or PAD_ID in window
                    slots["fallback" if fallback else "ngram"] += 1
                    for top in (1, 3, 10, n + 5):
                        expected = dense_prediction(
                            counts, totals, lm, d_prime, masked, position, top, lam
                        )
                        got = predictor.predict(masked, position, top)
                        assert got.entries == expected
    assert min(slots.values()) > 0


def _bits(dist):
    return [(t, p.hex()) for t, p in dist.entries]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_predictions_equal_fresh_ones(data):
    # One predictor answers every call, repeats included and in any order;
    # each answer must equal, bit for bit, a new predictor's answer.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    corpus, vocab = build_corpus(_random_corpus(rng), rng.choice((1, 2)))
    order = data.draw(st.integers(1, 4), label="order")
    k = data.draw(st.sampled_from((0.1, 1 / 3)), label="k")
    lm = train_ngram(corpus, vocab, order=order, k=k)
    d_prime = data.draw(st.sampled_from([d.ids for d in corpus.documents()]))
    lam = data.draw(st.floats(0.0, 1.0), label="lam")
    content = list(range(FIRST_CONTENT_ID, len(vocab)))
    a, b = content[0], content[-1]
    token = st.sampled_from(content + [UNK_ID, MASK_ID, PAD_ID])
    masked = st.lists(token, min_size=1, max_size=7)
    calls = [
        ((MASK_ID, a, b), 0),  # no left context
        ((a, MASK_ID, MASK_ID), 2),  # MASK in the window
        ((a, PAD_ID, MASK_ID), 2),  # PAD in the window
        ((UNK_ID, a, MASK_ID), 2),  # UNK in the context
        ((a, b, MASK_ID), 2),
    ]
    for query in data.draw(st.lists(masked, max_size=8), label="queries"):
        position = data.draw(st.integers(0, len(query) - 1), label="position")
        query[position] = MASK_ID
        calls.append((tuple(query), position))
    tops = st.integers(1, 12)
    calls = [(query, position, data.draw(tops, label="top"))
             for query, position in calls]
    repeated = data.draw(st.permutations(calls + calls), label="order of calls")
    predictor = NgramPredictor(lm, d_prime, lam=lam)
    for query, position, top in repeated:
        got = predictor.predict(query, position, top)
        fresh = NgramPredictor(lm, d_prime, lam=lam).predict(query, position, top)
        assert _bits(got) == _bits(fresh)


def _full_scoring_prediction(lm, d_prime_ids, lam, masked_ids, position, top):
    """``NgramPredictor.predict`` scoring every observed target of the
    context and every token of d', and sorting them all."""
    k = lm.k
    doc = {}
    n_tokens = 0
    for token_id in d_prime_ids:
        if token_id >= FIRST_CONTENT_ID:
            doc[token_id] = doc.get(token_id, k) + 1.0
            n_tokens += 1
    d_doc = n_tokens + k * lm.n_candidates
    window = masked_ids[max(0, position - (lm.order - 1)) : position]
    if position == 0 or any(t in (MASK_ID, PAD_ID) for t in window):
        floor = k / d_doc
        scored = {t: num / d_doc for t, num in doc.items()}
    else:
        context = _context_at(lm, masked_ids, position)
        targets, counts, d_ngram = lm.distribution(context)
        ngram = dict(zip(targets, counts))
        w = 1.0 - lam
        floor = w * (k / d_ngram) + lam * (k / d_doc)
        scored = {
            t: w * ((k + ngram.get(t, 0)) / d_ngram) + lam * (doc.get(t, k) / d_doc)
            for t in ngram.keys() | doc.keys()
        }
    above = [(t, p) for t, p in scored.items() if p > floor]
    entries = sorted(above, key=lambda e: (-e[1], e[0]))[:top]
    taken = {t for t, _ in entries}
    ids = range(FIRST_CONTENT_ID, FIRST_CONTENT_ID + lm.n_candidates)
    fill = (t for t in ids if t not in taken)
    entries += [(t, floor) for t in itertools.islice(fill, top - len(entries))]
    return [(t, p.hex()) for t, p in entries]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predict_matches_full_scoring(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    corpus, vocab = build_corpus(_random_corpus(rng), rng.choice((1, 2)))
    order = data.draw(st.integers(1, 4), label="order")
    k = data.draw(st.sampled_from((0.1, 1 / 3)), label="k")
    lm = train_ngram(corpus, vocab, order=order, k=k)
    n = lm.n_candidates
    content = list(range(FIRST_CONTENT_ID, len(vocab)))
    # d' repeats tokens, so counts tie.
    d_prime = data.draw(
        st.lists(st.sampled_from(content + [UNK_ID]), max_size=12), label="d_prime"
    )
    # The last choice of lam makes one more count of d' add about half an
    # ulp to an unseen context's probability (about 1/n), so tokens with
    # different counts can round to the same probability.
    d_doc = sum(t >= FIRST_CONTENT_ID for t in d_prime) + k * n
    lam = data.draw(
        st.one_of(
            st.sampled_from((0.0, 0.5, 1.0)),
            st.floats(0.0, 1.0),
            st.floats(0.4, 0.8).map(lambda f: f * math.ulp(1 / n) * d_doc),
        ),
        label="lam",
    )
    # Seen contexts are the count table's, BOS padding dropped, plus the
    # first unseen one of content ids; a random query mostly gives an
    # unseen context, or none with MASK or PAD in its window; position 0
    # has none.
    seen = sorted({tuple(t for t in row if t != BOS) for row in lm.grams[:, :-1].tolist()})
    lefts = data.draw(st.lists(st.sampled_from(seen), max_size=4), label="seen")
    width = order - 1
    lefts += [
        left for left in itertools.product(content, repeat=width)
        if left not in seen
    ][:1]
    token = st.sampled_from(content + [UNK_ID, MASK_ID, PAD_ID])
    calls = [((MASK_ID,), 0)]
    for left in lefts:
        calls.append((left + (MASK_ID,), len(left)))
    for query in data.draw(st.lists(st.lists(token, min_size=1, max_size=6), max_size=4)):
        position = data.draw(st.integers(0, len(query) - 1), label="position")
        query[position] = MASK_ID
        calls.append((tuple(query), position))
    predictor = NgramPredictor(lm, d_prime, lam=lam)
    for query, position in calls:
        for top in range(1, n + 3):
            got = predictor.predict(query, position, top)
            assert _bits(got) == _full_scoring_prediction(
                lm, d_prime, lam, query, position, top
            )


def test_distribution_invariants_enforced():
    with pytest.raises(ValueError, match="non-increasing"):
        PredictionDistribution(((3, 0.2), (4, 0.5)))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        PredictionDistribution(((3, 0.0),))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        PredictionDistribution(((3, 1.5),))
    with pytest.raises(ValueError, match="empty prediction"):
        PredictionDistribution(())
    with pytest.raises(ValueError, match="repeat"):
        PredictionDistribution(((3, 0.5), (4, 0.25), (3, 0.25)))
