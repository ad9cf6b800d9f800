from __future__ import annotations

import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from queryflip.corpus import build_corpus, ingest_corpus
from queryflip.embed import (
    DENSE_EIGH_MAX_VOCAB,
    _ppmi_entries,
    _top_eigenpairs,
    train_embeddings,
)
from queryflip.text import FIRST_CONTENT_ID, UNK_ID, tokenize

from synthdata import synthetic_corpus


def _corpus(texts):
    lines = [json.dumps({"id": f"d{i}", "text": t}) for i, t in enumerate(texts)]
    return _ingest(lines)


def _ingest(lines):
    return build_corpus(ingest_corpus(lines), 1)


def _reference_table(corpus, vocab, dim, window):
    """Dense pair counts, PPMI and a full SVD: the textbook construction.

    Returns the clamped dim and the unit-norm table, specials first.
    """
    n = vocab.content_size
    cooc = np.zeros((n, n))
    for doc in corpus.documents():
        ids = [t - FIRST_CONTENT_ID for t in vocab.encode(tokenize(doc.text))
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


def _random_lines(seed, n_words=30, n_docs=40):
    """Documents of 5-14 words drawn from a Zipf distribution."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    weights = 1.0 / np.arange(1, n_words + 1)
    weights /= weights.sum()
    return [
        json.dumps({
            "id": f"d{i}",
            "text": " ".join(rng.choice(words, size=int(rng.integers(5, 15)), p=weights)),
        })
        for i in range(n_docs)
    ]


# About 2,000 content words: above DENSE_EIGH_MAX_VOCAB, so the table
# comes from the Lanczos solve.
ZIPF_LINES = _random_lines(1, n_words=2200, n_docs=3000)


@pytest.mark.parametrize(
    "lines, dim, window",
    [(synthetic_corpus(), 64, 5), (_random_lines(0), 8, 3), (ZIPF_LINES, 64, 5)],
    ids=["synthetic", "random", "zipf-lanczos"],
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
    cos_ab = float(np.dot(table.vectors[a], table.vectors[b]))
    assert cos_ab == pytest.approx(COS_AB_EXPECTED, abs=1e-9)
    for other in (c, d):
        cos_other = float(np.dot(table.vectors[a], table.vectors[other]))
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
    assert np.linalg.norm(table.vectors[UNK_ID]) == pytest.approx(1.0, abs=1e-9)


def _lanczos_log(caplog):
    """(steps, restarts) of the last Lanczos solve logged."""
    found = re.findall(r"in (\d+) steps, (\d+) restarts$", caplog.text, re.MULTILINE)
    assert found, "no Lanczos solve was logged"
    return tuple(int(x) for x in found[-1])


def _assert_matches_dense_eigh(n, rows, cols, vals, k):
    """The top-k pairs agree with ``np.linalg.eigh`` of the dense matrix:
    eigenvalues, and the projector onto their span, which does not depend
    on signs or on the basis chosen inside a repeated eigenvalue."""
    values, vectors = _top_eigenpairs(n, rows, cols, vals, k)
    matrix = np.zeros((n, n))
    matrix[rows, cols] = vals
    ref_values, ref_vectors = np.linalg.eigh(matrix)
    top = np.sort(np.argsort(-np.abs(ref_values), kind="stable")[:k])
    np.testing.assert_allclose(
        values, ref_values[top], rtol=0, atol=1e-12 * np.abs(ref_values).max()
    )
    ref_vectors = ref_vectors[:, top]
    np.testing.assert_allclose(
        vectors @ vectors.T, ref_vectors @ ref_vectors.T, rtol=0, atol=1e-10
    )
    return values


def _ppmi_problem(corpus, vocab, window=5):
    return (vocab.content_size, *_ppmi_entries(corpus, vocab, window))


def _random_symmetric_entries(seed, n, density):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < density))
    matrix = upper + upper.T
    rows, cols = np.nonzero(matrix)
    return rows, cols, matrix[rows, cols]


@pytest.mark.parametrize(
    "make_entries, k",
    [
        (lambda: (300, *_random_symmetric_entries(3, 300, 0.03)), 10),
        (lambda: _ppmi_problem(*_ingest(_random_lines(0, n_words=300, n_docs=300))), 64),
    ],
    ids=["random-sparse", "ppmi-300-words"],
)
def test_top_eigenpairs_agree_with_dense_eigh(caplog, make_entries, k):
    n, rows, cols, vals = make_entries()
    with caplog.at_level(logging.DEBUG, logger="queryflip.embed"):
        values = _assert_matches_dense_eigh(n, rows, cols, vals, k)
    steps, _ = _lanczos_log(caplog)
    assert steps < n
    # The top-|lambda| set takes eigenvalues from both ends of the spectrum.
    assert values.min() < 0.0 < values.max()


def test_top_eigenpairs_find_repeated_eigenvalues(caplog):
    # Two disjoint documents of the same shape: the PPMI matrix is two
    # equal blocks, so every eigenvalue appears twice. The Krylov space of
    # one start vector holds one copy of each; the second copy is found
    # after the recurrence restarts on the invariant subspace.
    n, rows, cols, vals = _ppmi_problem(*_corpus(["a b c a d b e c", "f g h f i g j h"]), 2)
    with caplog.at_level(logging.DEBUG, logger="queryflip.embed"):
        values = _assert_matches_dense_eigh(n, rows, cols, vals, 4)
    _, restarts = _lanczos_log(caplog)
    assert restarts >= 1
    assert values[0] == pytest.approx(values[1]) and values[2] == pytest.approx(values[3])


def test_top_eigenpairs_of_a_near_double_eigenvalue_with_a_weak_coupling():
    # Eigenvalues about -1.000001, -1 and 1e-6. Reorthogonalising only past
    # sqrt(eps) left 3.4e-10 in the projector of the top two.
    matrix = np.array([[-1.0, 0.0, 1e-3], [0.0, -1.0, 0.0], [1e-3, 0.0, 0.0]])
    rows, cols = np.nonzero(matrix)
    _assert_matches_dense_eigh(3, rows, cols, matrix[rows, cols], 2)


def test_top_eigenpairs_after_a_restart_stay_orthogonal(caplog):
    # Two copies of a shifted 3 x 3 block and a zero row: the second copy
    # is found after a restart. The restart drops a coupling of up to
    # 1e-12 |Aq| that is still in A q; a later step with beta 1.3e-3
    # scaled it into an overlap that put 3.4e-10 in the projector when
    # only estimated overlaps triggered reorthogonalisation.
    block = np.array([[-0.03125, 0.0, 0.0], [0.0, -1.0, -0.03125], [0.0, -0.03125, -0.03125]])
    block -= np.abs(block).sum(axis=1).max() * np.eye(3)
    matrix = np.zeros((7, 7))
    matrix[:3, :3] = matrix[3:6, 3:6] = block
    rows, cols = np.nonzero(matrix)
    with caplog.at_level(logging.DEBUG, logger="queryflip.embed"):
        _assert_matches_dense_eigh(7, rows, cols, matrix[rows, cols], 6)
    _, restarts = _lanczos_log(caplog)
    assert restarts >= 1


# Zero, or of magnitude 1e-3 to 1 (PPMI values span a few orders of ten;
# near-underflow values would test float range, not the solver).
_ENTRIES = st.one_of(
    st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3)
)


@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(2, 10),
    data=st.data(),
    copies=st.sampled_from([1, 2]),
    shift=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    zero_rows=st.integers(0, 3),
)
def test_top_eigenpairs_agree_with_dense_eigh_on_random_matrices(
    b, data, copies, shift, zero_rows
):
    """A sparse symmetric b x b block, shifted down by ``shift`` times its
    row-sum norm on its nonzero rows (from 1 on, no eigenvalue is positive),
    placed ``copies`` times on disjoint rows (two copies repeat every
    eigenvalue), with zero rows mixed in. ``k`` is drawn where the top-k
    eigenspace is separated from the rest by 1% of |lambda_max|, so its
    projector is well defined. The second copies of repeated eigenvalues
    are found by restarting on an invariant Krylov space, so two copies
    take ``k >= b``: the first check then sees both spaces exhausted."""
    upper = np.zeros((b, b))
    upper[np.triu_indices(b)] = data.draw(
        st.lists(_ENTRIES, min_size=b * (b + 1) // 2, max_size=b * (b + 1) // 2)
    )
    block = upper + np.triu(upper, 1).T
    nonzero = np.flatnonzero(np.abs(block).sum(axis=1))
    block[nonzero, nonzero] -= shift * np.abs(block).sum(axis=1).max()
    n = copies * b + zero_rows
    matrix = np.zeros((n, n))
    for c in range(copies):
        matrix[c * b : (c + 1) * b, c * b : (c + 1) * b] = block
    order = np.array(data.draw(st.permutations(range(n))))
    matrix = matrix[np.ix_(order, order)]
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(matrix)))[::-1]
    assume(magnitudes[0] > 0.0)
    ks = [
        k for k in range(b if copies == 2 else 1, n)
        if magnitudes[k - 1] - magnitudes[k] >= 1e-2 * magnitudes[0]
    ]
    assume(ks)
    k = data.draw(st.sampled_from(ks))
    rows, cols = np.nonzero(matrix)
    _assert_matches_dense_eigh(n, rows, cols, matrix[rows, cols], k)


def test_lanczos_training_is_deterministic(caplog):
    corpus, vocab = _ingest(ZIPF_LINES)
    assert vocab.content_size > DENSE_EIGH_MAX_VOCAB
    with caplog.at_level(logging.DEBUG, logger="queryflip.embed"):
        first = train_embeddings(corpus, vocab, dim=64, window=5)
    _lanczos_log(caplog)
    second = train_embeddings(corpus, vocab, dim=64, window=5)
    assert np.array_equal(first.vectors, second.vectors)
