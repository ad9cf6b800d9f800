"""Static unit-norm token vectors trained from corpus co-occurrence.

The vectors stand in for contextual embeddings: the masker's max-pooled
token scores and the greedy-matching similarity metric only need one
vector per token and rely on the unit-norm invariant (dot product equals
cosine). Training counts co-occurring pairs over a symmetric window and
takes the eigenpairs of largest |eigenvalue| of the symmetric PPMI
matrix: from a dense eigendecomposition for small vocabularies, and from
a Lanczos solve over the sparse PPMI entries, reorthogonalised at every
step and stopped on a residual test, for larger ones. It is fully
deterministic for a given corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .text import FIRST_CONTENT_ID, Vocabulary
from .corpus import Corpus, count_keys, run_starts

logger = logging.getLogger(__name__)

# Vocabularies up to this many content words keep the dense
# eigendecomposition, which is faster there; above it the Lanczos solve
# wins. Medians of seven interleaved solves for dim 64 on Zipf corpora
# (2 shared vCPUs): dense 0.091 s against Lanczos 0.099 s at V 810,
# 0.120 s against 0.101 s at V 910, 0.175 s against 0.118 s at V 1,010,
# 0.300 s against 0.277 s at V 1,210, 0.446 s against 0.314 s at V 1,410,
# and 1.09 s against 0.362 s at V 2,010.
DENSE_EIGH_MAX_VOCAB = 900


@dataclass(frozen=True)
class EmbeddingTable:
    """Token id -> unit-norm vector, for every id in the vocabulary."""

    vectors: np.ndarray  # shape (vocab size, dim), float64, rows unit-norm

    def __post_init__(self) -> None:
        vectors = self.vectors
        if vectors.ndim != 2 or vectors.dtype != np.float64:
            raise ValueError(
                f"vectors must be a 2-d float64 array, not {vectors.ndim}-d {vectors.dtype}"
            )
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        norms = np.linalg.norm(vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) < 1e-6):
            raise ValueError("all stored vectors must be unit-norm")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def vectors_for(self, token_ids: Sequence[int]) -> np.ndarray:
        return self.vectors[np.asarray(token_ids, dtype=np.intp)]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"embed.vectors": self.vectors}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "EmbeddingTable":
        return cls(arrays["embed.vectors"])


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Removes the sign ambiguity of eigenvectors so the table does not
    depend on LAPACK internals. The result is a C-ordered copy: row norms
    round by memory order, and an ``eigh`` block is Fortran-ordered.
    """
    out = columns.copy()
    pivots = out[np.abs(out).argmax(axis=0), np.arange(out.shape[1])]
    out *= np.where(pivots < 0, -1.0, 1.0)
    return out


def _ppmi_entries(
    corpus: Corpus, vocab: Vocabulary, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive entries of the symmetric PPMI matrix over content ids,
    as ``(rows, cols, values)`` sorted by row, then column.

    Pairs are counted within a symmetric ``window`` inside each document,
    over one corpus-wide stream of content ids labelled by document: each
    window offset short of the longest document's length is one pass that
    keeps the pairs whose two ends share a document. PMI is computed on
    the nonzero pairs only.
    """
    n_content = vocab.content_size
    ids, docs = corpus.ids.astype(np.int64), corpus.doc_labels()
    content = ids >= FIRST_CONTENT_ID
    ids, docs = ids[content] - FIRST_CONTENT_ID, docs[content]
    longest = int(np.bincount(docs).max(initial=0))
    # One-word documents fit no pair, and leave ``keys`` empty.
    offsets = range(1, min(window, longest - 1) + 1)
    same = [docs[:-offset] == docs[offset:] for offset in offsets]
    # Each pair keyed both ways, into one buffer that ``count_keys`` sorts.
    keys = np.empty(2 * sum(np.count_nonzero(kept) for kept in same), dtype=np.int64)
    end = 0
    for offset, kept in zip(offsets, same):
        a, b = ids[:-offset][kept], ids[offset:][kept]
        for first, second in ((a, b), (b, a)):
            at, end = end, end + len(a)
            np.multiply(first, n_content, out=keys[at:end])
            keys[at:end] += second
    pairs, counts = count_keys(keys)
    del keys  # the largest array here, before the PMI's are made
    counts = counts.astype(np.float64)
    rows, cols = np.divmod(pairs, n_content)
    total = counts.sum()
    marginals = np.bincount(rows, weights=counts, minlength=n_content)
    # log(counts * total / (marginals[rows] * marginals[cols])), in place.
    pmi = counts
    pmi *= total
    pmi /= marginals[rows] * marginals[cols]
    np.log(pmi, out=pmi)
    positive = pmi > 0.0
    if not np.any(positive):
        raise ValueError("no co-occurrence signal in corpus")
    return rows[positive], cols[positive], pmi[positive]


def _orthogonalise(w: np.ndarray, basis: np.ndarray) -> float:
    """Remove from ``w``, in place, its components along the orthonormal
    rows of ``basis`` by classical Gram-Schmidt, and return its new norm.

    A second pass runs only when the first cuts the norm below 1/sqrt(2)
    of its old value (the test of Daniel, Gragg, Kaufman and Stewart
    1976): only then can the first pass's rounding be large against what
    is left.
    """
    before = np.linalg.norm(w)
    w -= basis.T @ (basis @ w)
    after = np.linalg.norm(w)
    if after < before / np.sqrt(2.0):
        w -= basis.T @ (basis @ w)
        after = np.linalg.norm(w)
    return after


def _top_eigenpairs(
    n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` eigenpairs of largest |eigenvalue| of the symmetric n x n
    matrix with entries ``(rows, cols, vals)``, sorted by row.

    Lanczos with full reorthogonalisation from a seeded start vector. A
    step runs the three-term recurrence, about one sparse product, and
    then one classical Gram-Schmidt pass of the new vector against the
    whole basis, with a second pass only when the first cancels most of
    it (``_orthogonalise``). Every few steps the Ritz pairs of the
    tridiagonal matrix are computed; the solve stops once the top
    ``k + 1`` of them by |theta|, from both ends of the spectrum, have
    residuals |beta * y_last| of at most 1e-12 |theta_max|, or once the
    basis spans the whole space. When the Krylov space becomes invariant
    (beta ~ 0) the recurrence continues from a fresh seeded vector
    orthogonalised against the basis; that is how further copies of a
    repeated eigenvalue are found, so a solve that converges before the
    first Krylov space is exhausted misses them. Returns the eigenvalues
    in ascending order and the unit eigenvectors as columns, as
    ``np.linalg.eigh`` orders them.
    """
    starts = run_starts(rows)
    present = rows[starts]
    rng = np.random.default_rng(0)
    want = min(k + 1, n)
    basis = np.empty((min(n, 2 * want), n))
    alpha, beta = np.empty(n), np.empty(n)
    # Each check solves an m x m eigenproblem, so checks grow apart.
    check = min(n, 2 * want)
    restarts = 0
    product = np.empty(len(vals))
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    for m in range(n):
        if m == len(basis):
            grown = np.empty((min(n, 2 * m), n))
            grown[:m] = basis
            basis = grown
        basis[m] = q
        spanned = basis[: m + 1]
        # cols come from divmod(pairs, n), so each is in range and "clip"
        # changes none; it keeps np.take off its slower buffered path.
        np.take(q, cols, out=product, mode="clip")
        np.multiply(product, vals, out=product)
        w = np.zeros(n)
        w[present] = np.add.reduceat(product, starts)
        aq_norm = np.linalg.norm(w)
        if m:
            w -= beta[m - 1] * basis[m - 1]
        alpha[m] = q @ w
        w -= alpha[m] * q
        b = beta[m] = _orthogonalise(w, spanned)
        # Aq is (numerically) in the span of the basis: the space is invariant.
        invariant = b <= 1e-12 * aq_norm
        if invariant:
            beta[m] = 0.0
        if m + 1 == n or (m + 1 >= check and not invariant):
            tridiagonal = (
                np.diag(alpha[: m + 1]) + np.diag(beta[:m], 1) + np.diag(beta[:m], -1)
            )
            theta, y = np.linalg.eigh(tridiagonal)
            top = np.argsort(-np.abs(theta), kind="stable")[:want]
            residuals = np.abs(beta[m] * y[-1, top])
            if np.all(residuals <= 1e-12 * np.abs(theta[top[0]])):
                break
            check = min(n, int(1.25 * check) + 1)
        if invariant:
            restarts += 1
            w = rng.standard_normal(n)
            b = _orthogonalise(w, spanned)
        q = w / b
    logger.debug(
        "lanczos: top %d of %d eigenpairs in %d steps, %d restarts",
        k, n, m + 1, restarts,
    )
    keep = np.sort(top[:k])
    return theta[keep], spanned.T @ y[:, keep]


def train_embeddings(
    corpus: Corpus, vocab: Vocabulary, dim: int, window: int
) -> EmbeddingTable:
    """Train token vectors: PPMI co-occurrence + the top eigenpairs of the
    symmetric PPMI matrix + row norm.

    Co-occurrence is counted between content tokens within a symmetric
    ``window`` inside each document; PMI is computed on the nonzero pairs
    only. The ``dim`` eigenvectors of largest |eigenvalue|, scaled by
    sqrt(|eigenvalue|), are the rank-``dim`` truncated SVD of the PPMI
    matrix up to column signs. Up to ``DENSE_EIGH_MAX_VOCAB`` content words
    they come from a dense eigendecomposition of the whole matrix; above
    it, from a Lanczos solve over the sparse entries that reorthogonalises
    every step and stops on a residual test, so no V x V array is formed.
    The computation is deterministic (the Lanczos start vector is seeded).
    A ``dim`` above the PPMI rank, which the vocabulary size bounds, is
    lowered to the rank (at least 2) with a log message.
    """
    n_content = vocab.content_size
    rows, cols, vals = _ppmi_entries(corpus, vocab, window)
    if n_content <= DENSE_EIGH_MAX_VOCAB:
        ppmi = np.zeros((n_content, n_content), dtype=np.float64)
        ppmi[rows, cols] = vals
        eigenvalues, eigenvectors = np.linalg.eigh(ppmi)
    else:
        eigenvalues, eigenvectors = _top_eigenpairs(n_content, rows, cols, vals, dim)
    # For the symmetric PPMI matrix the singular values are |eigenvalues|
    # and the singular vectors are the eigenvectors up to sign.
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    s = np.abs(eigenvalues[order])
    rank = int(np.sum(s > s[0] * 1e-12))
    if dim > rank:
        logger.info("clamping embedding dim %d to PPMI rank %d", dim, rank)
        dim = max(2, rank)
    factors = _fix_signs(eigenvectors[:, order[:dim]] * np.sqrt(s[:dim]))

    # Some PPMI entry is positive (else ``_ppmi_entries`` raised), so
    # s[0] > 0 and column 0 holds a nonzero entry: some row is nonzero.
    norms = np.linalg.norm(factors, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0.0
    content = np.divide(factors, norms, out=factors, where=norms > 0.0)
    # Zero rows and the specials (MASK/PAD/UNK) share one neutral vector:
    # the normalized mean of the nonzero rows.
    fallback = content[nonzero].mean(axis=0)
    fallback /= np.linalg.norm(fallback)
    content[~nonzero] = fallback
    table = np.vstack([np.tile(fallback, (FIRST_CONTENT_ID, 1)), content])
    return EmbeddingTable(table)
