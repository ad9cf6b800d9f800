from __future__ import annotations

import math

import numpy as np
import pytest

from queryflip.corpus import ingest_corpus
from queryflip.embed import train_embeddings
from queryflip.text import UNK_ID, build_vocabulary

import json


def _corpus(texts):
    lines = [json.dumps({"id": f"d{i}", "text": t}) for i, t in enumerate(texts)]
    corpus = ingest_corpus(lines)
    vocab = build_vocabulary((d.tokens for d in corpus.documents()), 1)
    return corpus, vocab


# Toy corpus for the co-occurrence ordering oracle: a/b co-occur only with
# each other, likewise c/d. Window 2 over "a b a b" yields the symmetric
# block [[2, 3], [3, 2]] for (a, b) (three unordered a-b pairs, one a-a
# and one b-b self pair counted twice into the diagonal). The closed-form
# SVD of a [[y, x], [x, y]] block gives cos(a, b) = PPMI(a,a)/PPMI(a,b),
# and exactly 0 across blocks.
PAIR_TEXTS = ["a b a b", "c d c d c d"]
# counts: ab=3, aa=2, bb=2, cd=5, cc=4, dd=4 -> total=28, rows a,b=5 c,d=9
COS_AB_EXPECTED = math.log(2 * 28 / 25) / math.log(3 * 28 / 25)


def test_paired_tokens_most_similar():
    corpus, vocab = _corpus(PAIR_TEXTS)
    table = train_embeddings(corpus, vocab, dim=4, window=2)
    a, b, c, d = (vocab.id(s) for s in "abcd")
    cos_ab = float(np.dot(table.vector(a), table.vector(b)))
    assert cos_ab == pytest.approx(COS_AB_EXPECTED, abs=1e-9)
    for other in (c, d):
        cos_other = float(np.dot(table.vector(a), table.vector(other)))
        assert cos_ab > cos_other
        assert cos_other == pytest.approx(0.0, abs=1e-9)


def test_all_vectors_unit_norm():
    corpus, vocab = _corpus(PAIR_TEXTS)
    table = train_embeddings(corpus, vocab, dim=4, window=2)
    norms = np.linalg.norm(table.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_training_is_deterministic():
    corpus, vocab = _corpus(PAIR_TEXTS)
    first = train_embeddings(corpus, vocab, dim=4, window=2)
    second = train_embeddings(corpus, vocab, dim=4, window=2)
    assert np.array_equal(first.vectors, second.vectors)


def test_dim_above_rank_rejected_with_suggestion():
    # "c" never co-occurs with anything, so the PPMI matrix has a zero
    # row and rank 2 < dim 3.
    corpus, vocab = _corpus(["a b", "c"])
    table = train_embeddings(corpus, vocab, dim=3, window=2)
    assert table.dim == 2
    assert table.vectors.shape == (len(vocab), 2)


def test_dim_above_vocab_rejected():
    corpus, vocab = _corpus(["a b a b"])
    with pytest.raises(ValueError, match="vocabulary size"):
        train_embeddings(corpus, vocab, dim=8, window=2)


def test_unk_vector_defined():
    corpus, vocab = _corpus(PAIR_TEXTS)
    table = train_embeddings(corpus, vocab, dim=4, window=2)
    assert np.linalg.norm(table.vector(UNK_ID)) == pytest.approx(1.0, abs=1e-9)
