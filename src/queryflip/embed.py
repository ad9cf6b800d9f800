"""Static unit-norm token vectors trained from corpus co-occurrence.

The vectors stand in for contextual embeddings: the masker's max-pooled
token scores and the greedy-matching similarity metric only need one
vector per token and rely on the unit-norm invariant (dot product equals
cosine). Training counts co-occurring pairs over a symmetric window and
factors them by an exact eigendecomposition of the symmetric PPMI matrix;
it is fully deterministic for a given corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .text import FIRST_CONTENT_ID, Vocabulary
from .corpus import Corpus

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmbeddingTable:
    """Token id -> unit-norm vector, for every id in the vocabulary."""

    dim: int
    vectors: np.ndarray  # shape (vocab size, dim), float64, rows unit-norm

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.vectors.shape[1] != self.dim:
            raise ValueError("vector width does not match dim")
        norms = np.linalg.norm(self.vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) < 1e-6):
            raise ValueError("all stored vectors must be unit-norm")

    def vector(self, token_id: int) -> np.ndarray:
        return self.vectors[token_id]

    def vectors_for(self, token_ids: Sequence[int]) -> np.ndarray:
        return self.vectors[np.asarray(token_ids, dtype=np.intp)]

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"embed.vectors": self.vectors}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "EmbeddingTable":
        vectors = arrays["embed.vectors"]
        return cls(vectors.shape[1], vectors)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return rows / norms


def _fix_signs(columns: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    Removes the sign ambiguity of eigenvectors so the table does not
    depend on LAPACK internals.
    """
    out = columns.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            out[:, j] = -col
    return out


def train_embeddings(
    corpus: Corpus,
    vocab: Vocabulary,
    dim: int = 64,
    window: int = 5,
) -> EmbeddingTable:
    """Train token vectors: PPMI co-occurrence + exact eigendecomposition
    of the symmetric PPMI matrix + row norm.

    Co-occurrence is counted between content tokens within a symmetric
    ``window`` inside each document, as sorted pair keys; PMI is computed
    on the nonzero pairs only. The ``dim`` eigenvectors of largest
    |eigenvalue|, scaled by sqrt(|eigenvalue|), are the rank-``dim``
    truncated SVD of the PPMI matrix up to column signs. The computation
    has no random component. A ``dim`` above the available PPMI rank is
    lowered to the rank (at least 2) with a log message.

    Raises ValueError when ``dim`` exceeds the vocabulary size.
    """
    n_content = vocab.content_size
    if corpus.n_docs == 0:
        raise ValueError("empty corpus")
    if dim > n_content:
        raise ValueError(f"dim {dim} exceeds vocabulary size {n_content}")
    if window < 1:
        raise ValueError("window must be >= 1")

    keys = []
    for doc in corpus.documents():
        ids = np.asarray(vocab.encode(doc.tokens), dtype=np.int64)
        ids = ids[ids >= FIRST_CONTENT_ID] - FIRST_CONTENT_ID
        for offset in range(1, window + 1):
            a, b = ids[:-offset], ids[offset:]
            keys += (a * n_content + b, b * n_content + a)
    pairs, counts = np.unique(np.concatenate(keys), return_counts=True)
    if pairs.size == 0:
        raise ValueError("no co-occurrence signal in corpus")
    rows, cols = np.divmod(pairs, n_content)
    counts = counts.astype(np.float64)
    total = counts.sum()
    marginals = np.bincount(rows, weights=counts, minlength=n_content)
    pmi = np.log(counts * total / (marginals[rows] * marginals[cols]))
    positive = pmi > 0.0
    ppmi = np.zeros((n_content, n_content), dtype=np.float64)
    ppmi[rows[positive], cols[positive]] = pmi[positive]

    # For the symmetric PPMI matrix the singular values are |eigenvalues|
    # and the singular vectors are the eigenvectors up to sign.
    eigenvalues, eigenvectors = np.linalg.eigh(ppmi)
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    s = np.abs(eigenvalues[order])
    rank = int(np.sum(s > s[0] * 1e-12)) if s[0] > 0 else 0
    if dim > rank:
        logger.info("clamping embedding dim %d to PPMI rank %d", dim, rank)
        dim = max(2, rank)
    factors = _fix_signs(eigenvectors[:, order[:dim]] * np.sqrt(s[:dim]))

    content = _normalize_rows(factors)
    row_norms = np.linalg.norm(factors, axis=1)
    nonzero = row_norms > 0.0
    if not np.any(nonzero):
        raise ValueError("no co-occurrence signal in corpus")
    fallback = content[nonzero].mean(axis=0)
    fallback /= np.linalg.norm(fallback)
    content[~nonzero] = fallback

    # Specials (MASK/PAD/UNK) share the neutral fallback: the normalized
    # mean of all trained vectors.
    unk = content.mean(axis=0)
    unk /= np.linalg.norm(unk)
    table = np.vstack([np.tile(unk, (FIRST_CONTENT_ID, 1)), content])
    return EmbeddingTable(dim, table)
