from __future__ import annotations

import json
import logging
import math

import numpy as np
import pytest

from queryflip.corpus import ingest_corpus
from queryflip.embed import train_embeddings
from queryflip.text import FIRST_CONTENT_ID, UNK_ID, build_vocabulary

from synthdata import synthetic_corpus


def _corpus(texts):
    lines = [json.dumps({"id": f"d{i}", "text": t}) for i, t in enumerate(texts)]
    return _ingest(lines)


def _ingest(lines):
    corpus = ingest_corpus(lines)
    vocab = build_vocabulary((d.tokens for d in corpus.documents()), 1)
    return corpus, vocab


def _reference_table(corpus, vocab, dim, window):
    """Dense pair counts, PPMI and a full SVD: the textbook construction.

    Returns the clamped dim and the unit-norm table, specials first.
    """
    n = vocab.content_size
    cooc = np.zeros((n, n))
    for doc in corpus.documents():
        ids = [t - FIRST_CONTENT_ID for t in vocab.encode(doc.tokens)
               if t >= FIRST_CONTENT_ID]
        for i, a in enumerate(ids):
            for b in ids[i + 1 : i + window + 1]:
                cooc[a, b] += 1.0
                cooc[b, a] += 1.0
    marginals = cooc.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(cooc * cooc.sum() / np.outer(marginals, marginals))
    u, s, _ = np.linalg.svd(np.where(pmi > 0.0, pmi, 0.0))
    dim = max(2, min(dim, int(np.sum(s > s[0] * 1e-12))))
    factors = u[:, :dim] * np.sqrt(s[:dim])
    content = factors / np.linalg.norm(factors, axis=1, keepdims=True)
    unk = content.mean(axis=0)
    unk /= np.linalg.norm(unk)
    return dim, np.vstack([np.tile(unk, (FIRST_CONTENT_ID, 1)), content])


def _random_lines(seed):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    weights = 1.0 / np.arange(1, 31)
    weights /= weights.sum()
    return [
        json.dumps({
            "id": f"d{i}",
            "text": " ".join(rng.choice(words, size=int(rng.integers(5, 15)), p=weights)),
        })
        for i in range(40)
    ]


@pytest.mark.parametrize(
    "lines, dim, window",
    [(synthetic_corpus(), 64, 5), (_random_lines(0), 8, 3)],
    ids=["synthetic", "random"],
)
def test_table_agrees_with_dense_svd_reference(lines, dim, window):
    # Compare Gram matrices: they do not depend on the factors' signs.
    corpus, vocab = _ingest(lines)
    table = train_embeddings(corpus, vocab, dim=dim, window=window)
    ref_dim, reference = _reference_table(corpus, vocab, dim, window)
    assert table.dim == ref_dim == dim
    gram = table.vectors @ table.vectors.T
    np.testing.assert_allclose(gram, reference @ reference.T, rtol=0, atol=1e-10)


def test_dim_clamped_to_rank_like_reference(caplog):
    # Window 1 over "a b" and "c d e" gives a PPMI matrix of rank 4 < dim 5.
    corpus, vocab = _corpus(["a b", "c d e"])
    with caplog.at_level(logging.INFO, logger="queryflip.embed"):
        table = train_embeddings(corpus, vocab, dim=5, window=1)
    assert "clamping embedding dim 5 to PPMI rank 4" in caplog.text
    ref_dim, reference = _reference_table(corpus, vocab, 5, 1)
    assert table.dim == ref_dim == 4
    gram = table.vectors @ table.vectors.T
    np.testing.assert_allclose(gram, reference @ reference.T, rtol=0, atol=1e-10)


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
