from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryflip.masker import ImportanceScores, maxsim_importance, occlusion_importance
from queryflip.text import FIRST_CONTENT_ID, MASK_ID, PAD_ID, UNK_ID

from test_corpus import IDF_DF2, ids


class FakeEmbedder:
    """Hand-set vectors keyed by token id."""

    def __init__(self, table: dict[int, list[float]]):
        self.table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def vectors_for(self, token_ids):
        return np.vstack([self.table[t] for t in token_ids])


def test_order_sorts_descending_with_leftmost_ties():
    scores = ImportanceScores((3, 4, 5, 6), (0.2, 0.9, 0.2, 0.9))
    assert scores.order == (1, 3, 0, 2)
    assert scores.first_masks == 1


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.sampled_from((MASK_ID, PAD_ID, UNK_ID, FIRST_CONTENT_ID, FIRST_CONTENT_ID + 1)),
            st.sampled_from((-1.0, 0.0, 0.25, 1.0)),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_unk_positions_lead_and_the_rest_follow_by_score(pairs):
    query, scores = zip(*pairs)
    importance = ImportanceScores(query, scores)
    unknown = [i for i, t in enumerate(query) if t == UNK_ID]
    known = [i for i, t in enumerate(query) if t != UNK_ID]
    by_score = lambda i: (-scores[i], i)  # noqa: E731
    assert importance.order == tuple(sorted(unknown, key=by_score) + sorted(known, key=by_score))
    assert importance.first_masks == max(1, len(unknown))


def test_single_token_query():
    embedder = FakeEmbedder({3: [1.0, 0.0], 5: [0.0, 1.0]})
    importance = maxsim_importance([3], [5], embedder)
    assert importance.order == (0,)
    assert len(importance.scores) == 1


def test_identical_token_scores_one():
    embedder = FakeEmbedder({7: [0.6, 0.8], 8: [1.0, 0.0]})
    importance = maxsim_importance([7], [8, 7], embedder)
    assert importance.scores[0] == pytest.approx(1.0, abs=1e-12)


def test_query_tokens_in_document_tie_at_one_and_resolve_leftmost():
    # A token's dot product with itself comes out as 1 +- 1 ulp; the
    # rounding makes both in-document query tokens tie at exactly 1.0,
    # whatever float noise the vectors carry.
    rng = np.random.default_rng(0)
    base = rng.normal(size=(2, 16))
    for trial in range(50):
        noisy = base + (1e-14 * rng.normal(size=base.shape) if trial else 0.0)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        embedder = FakeEmbedder({3: noisy[0], 4: noisy[1]})
        importance = maxsim_importance([3, 4], [4, 3], embedder)
        assert importance.scores == (1.0, 1.0)
        assert importance.order == (0, 1)


def test_maxsim_brute_force_oracle():
    # 2x2 token pairs with hand-set vectors: enumerate all dot products
    # and max-pool by hand.
    sqrt_half = 1.0 / math.sqrt(2.0)
    vectors = {
        3: [1.0, 0.0],            # apple
        4: [0.0, 1.0],            # recipe
        5: [sqrt_half, sqrt_half],  # banana
        6: [-1.0, 0.0],           # orchard
    }
    embedder = FakeEmbedder(vectors)
    importance = maxsim_importance([3, 4], [5, 6], embedder)
    # apple: max(0.7071, -1.0) = 0.7071; recipe: max(0.7071, 0.0) = 0.7071
    assert importance.scores[0] == pytest.approx(sqrt_half, abs=1e-12)
    assert importance.scores[1] == pytest.approx(sqrt_half, abs=1e-12)
    assert importance.order == (0, 1)  # tie resolves leftmost-first


def test_maxsim_permutation_invariant_and_monotone():
    rng = random.Random(3)
    base = {i: None for i in range(3, 11)}
    gen = np.random.default_rng(3)
    table = {}
    for i in base:
        v = gen.normal(size=4)
        table[i] = (v / np.linalg.norm(v)).tolist()
    embedder = FakeEmbedder(table)
    q = [3, 4, 5]
    doc = [6, 7, 8, 9]
    scores = maxsim_importance(q, doc, embedder).scores
    for _ in range(5):
        shuffled = doc[:]
        rng.shuffle(shuffled)
        assert maxsim_importance(q, shuffled, embedder).scores == scores
    grown = maxsim_importance(q, doc + [10], embedder).scores
    assert all(g >= s for g, s in zip(grown, scores))


def test_occlusion_zero_for_non_matching_token(sample_stack):
    # "banana" does not occur in d1, so removing it cannot change the
    # additive BM25 sum.
    q = ids(sample_stack, "apple banana")
    importance = occlusion_importance(q, sample_stack.corpus["d1"], sample_stack.search)
    assert importance.scores[1] == 0.0


def test_occlusion_matches_term_contribution(sample_stack):
    q = ids(sample_stack, "apple recipe")
    importance = occlusion_importance(q, sample_stack.corpus["d1"], sample_stack.search)
    assert importance.scores[0] == pytest.approx(IDF_DF2, abs=1e-9)
    assert importance.scores[1] == pytest.approx(IDF_DF2, abs=1e-9)
    # exact tie: leftmost position first
    assert importance.order == (0, 1)


def test_occlusion_equal_scores_identity_order(sample_stack):
    q = ids(sample_stack, "apple recipe")
    importance = occlusion_importance(q, sample_stack.corpus["d1"], sample_stack.search)
    assert importance.order == tuple(range(len(q)))
