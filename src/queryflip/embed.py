"""Static unit-norm token vectors trained from corpus co-occurrence.

The vectors stand in for contextual embeddings: the masker's max-pooled
token scores and the greedy-matching similarity metric only need one
vector per token and rely on the unit-norm invariant (dot product equals
cosine). Training counts co-occurring pairs over a symmetric window and
takes the eigenpairs of largest |eigenvalue| of the symmetric PPMI
matrix: from a dense eigendecomposition for small vocabularies, and from
a Lanczos solve with partial reorthogonalisation over the sparse PPMI
entries, stopped on a residual test, for larger ones. It is fully
deterministic for a given corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .text import FIRST_CONTENT_ID, Vocabulary
from .corpus import Corpus

logger = logging.getLogger(__name__)

# Vocabularies up to this many content words keep the dense
# eigendecomposition, which is faster there; above it the Lanczos solve
# wins. Medians of seven interleaved solves for dim 64 on Zipf corpora
# (2 shared vCPUs): dense 0.117 s against Lanczos 0.143 s at V 810,
# 0.139 s against 0.128 s at V 910, 0.198 s against 0.171 s at V 1,010,
# 0.311 s against 0.278 s at V 1,210, 0.372 s against 0.222 s at V 1,410,
# and 1.16 s against 0.316 s at V 2,010.
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
    window offset is one pass that keeps the pairs whose two ends share a
    document. PMI is computed on the nonzero pairs only.
    """
    n_content = vocab.content_size
    ids, docs = corpus.ids.astype(np.int64), corpus.doc_labels()
    content = ids >= FIRST_CONTENT_ID
    ids, docs = ids[content] - FIRST_CONTENT_ID, docs[content]
    keys = []
    for offset in range(1, window + 1):
        same = docs[:-offset] == docs[offset:]
        a, b = ids[:-offset][same], ids[offset:][same]
        keys += (a * n_content + b, b * n_content + a)
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    rows, cols = np.divmod(pairs, n_content)
    counts = counts.astype(np.float64)
    total = counts.sum()
    marginals = np.bincount(rows, weights=counts, minlength=n_content)
    pmi = np.log(counts * total / (marginals[rows] * marginals[cols]))
    positive = pmi > 0.0
    if not np.any(positive):
        raise ValueError("no co-occurrence signal in corpus")
    return rows[positive], cols[positive], pmi[positive]


def _orthogonalise(w: np.ndarray, basis: np.ndarray) -> None:
    """Remove from ``w``, in place, its components along the orthonormal
    rows of ``basis`` by classical Gram-Schmidt applied twice."""
    for _ in range(2):
        w -= basis.T @ (basis @ w)


# Unit roundoff, and the estimated overlap q[i] . q[j] (i != j) past which
# the Lanczos basis is reorthogonalised. Simon's sqrt(eps) keeps the Ritz
# values exact, but the Ritz vectors drift by up to about sqrt(eps) |A| /
# gap: 3.4e-10 in the projector of a 3 x 3 matrix. eps**0.75 keeps the
# projector within the 1e-10 the tests hold it to.
_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
_REORTHOGONALISE_AT = float(np.finfo(np.float64).eps) ** 0.75


def _next_overlaps(
    omega: np.ndarray, omega_prev: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Simon's estimates of ``q[m+1] . q[j]`` for j = 0 .. m + 1.

    ``omega`` holds the m + 1 estimates for ``q[m]``, ``omega_prev`` the m
    for ``q[m-1]``; ``alpha[:m+1]`` and ``beta[:m+1]`` are the recurrence
    coefficients so far. Each estimate is pushed away from zero by the
    rounding of one step, so it errs on the high side.
    """
    m = len(omega) - 1
    t = beta[:m] * omega[1:] + (alpha[:m] - alpha[m]) * omega[:m]
    if m:
        t[1:] += beta[: m - 1] * omega[: m - 1]
        t -= beta[m - 1] * omega_prev
    rounding = _ROUNDOFF * (np.abs(alpha[:m]) + beta[:m] + abs(alpha[m]) + beta[m])
    out = np.empty(m + 2)
    out[:m] = (t + np.copysign(rounding, t)) / beta[m]
    out[m:] = _ROUNDOFF, 1.0
    return out


def _top_eigenpairs(
    n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` eigenpairs of largest |eigenvalue| of the symmetric n x n
    matrix with entries ``(rows, cols, vals)``, sorted by row.

    Lanczos with partial reorthogonalisation (Simon 1984) from a seeded
    start vector. A step runs the three-term recurrence, so it costs about
    one sparse product, and Simon's recurrence estimates the overlap of the
    new vector with every earlier one. Once the largest estimate passes
    ``_REORTHOGONALISE_AT``, the new vector and the next one are
    reorthogonalised against the whole basis (classical Gram-Schmidt,
    applied twice) and the estimates drop to rounding level. Every few
    steps the Ritz pairs of the tridiagonal matrix are computed; the solve
    stops once the top ``k + 1`` of them by |theta|, from both ends of the
    spectrum, have residuals |beta * y_last| of at most 1e-12 |theta_max|,
    or once the basis spans the whole space. When the Krylov space becomes
    invariant (beta ~ 0) the recurrence continues from a fresh seeded
    vector orthogonalised against the basis, and the next step is
    reorthogonalised too; that is how further copies of a repeated
    eigenvalue are found, so a solve that converges before the first
    Krylov space is exhausted misses them. Returns the eigenvalues in
    ascending order and the unit eigenvectors as columns, as
    ``np.linalg.eigh`` orders them.
    """
    present, starts = np.unique(rows, return_index=True)
    rng = np.random.default_rng(0)
    want = min(k + 1, n)
    basis = np.empty((min(n, 2 * want), n))
    alpha, beta = np.empty(n), np.empty(n)
    # Each check solves an m x m eigenproblem, so checks grow apart.
    check = min(n, 2 * want)
    restarts = full = 0
    omega_prev, omega = np.empty(0), np.ones(1)
    forced = False  # this step completes a pair of reorthogonalisations
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
        beta[m] = np.linalg.norm(w)
        reorthogonalise = forced or beta[m] <= 1e-12 * aq_norm
        if not reorthogonalise:
            omega_next = _next_overlaps(omega, omega_prev, alpha, beta)
            drift = np.abs(omega_next[:m]).max(initial=0.0)
            reorthogonalise = drift > _REORTHOGONALISE_AT
        if reorthogonalise:
            full += 1
            _orthogonalise(w, spanned)
            beta[m] = np.linalg.norm(w)
            omega_next = np.full(m + 2, _ROUNDOFF)
            omega_next[-1] = 1.0
            forced = not forced  # the next step completes the pair
        b = beta[m]
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
            _orthogonalise(w, spanned)
            b = np.linalg.norm(w)
            forced = True
        q = w / b
        omega_prev, omega = omega, omega_next
    logger.debug(
        "lanczos: top %d of %d eigenpairs in %d steps, %d restarts, "
        "%d full reorthogonalisations",
        k, n, m + 1, restarts, full,
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
    it, from a Lanczos solve with partial reorthogonalisation over the
    sparse entries that stops on a residual test, so no V x V array is
    formed. The computation is
    deterministic (the Lanczos start vector is seeded). A ``dim`` above the
    available PPMI rank is lowered to the rank (at least 2) with a log
    message.

    Raises ValueError when ``dim`` exceeds the vocabulary size.
    """
    n_content = vocab.content_size
    if dim > n_content:
        raise ValueError(f"dim {dim} exceeds vocabulary size {n_content}")

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
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    if dim > rank:
        logger.info("clamping embedding dim %d to PPMI rank %d", dim, rank)
        dim = max(2, rank)
    factors = _fix_signs(eigenvectors[:, order[:dim]] * np.sqrt(s[:dim]))

    # Some PPMI entry is positive (else ``_ppmi_entries`` raised), so
    # s[0] > 0 and column 0 holds a nonzero entry: some row is nonzero.
    norms = np.linalg.norm(factors, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0.0
    content = np.divide(factors, norms, out=factors, where=norms > 0.0)
    fallback = content[nonzero].mean(axis=0)
    fallback /= np.linalg.norm(fallback)
    content[~nonzero] = fallback

    # Specials (MASK/PAD/UNK) share the neutral fallback: the normalized
    # mean of all trained vectors.
    unk = content.mean(axis=0)
    unk /= np.linalg.norm(unk)
    table = np.vstack([np.tile(unk, (FIRST_CONTENT_ID, 1)), content])
    return EmbeddingTable(table)
