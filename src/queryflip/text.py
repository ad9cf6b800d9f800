"""Deterministic word-level tokenization and vocabulary management.

Every other component (index, embeddings, language model) shares this
tokenizer, so they all agree on what a token is.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

# Unicode letters and digits; underscore is excluded so it behaves like
# punctuation. Everything that does not match is a boundary and is dropped.
_WORD_RE = re.compile(r"[^\W_]+")

MASK_TOKEN = "[MASK]"
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"

MASK_ID = 0
PAD_ID = 1
UNK_ID = 2
#: First id assigned to a content (non-special) token.
FIRST_CONTENT_ID = 3

_SPECIAL_SURFACES = (MASK_TOKEN, PAD_TOKEN, UNK_TOKEN)
SPECIAL_IDS = frozenset((MASK_ID, PAD_ID, UNK_ID))


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split on unicode word boundaries.

    Punctuation is dropped: ``"Apple pie Recipe!"`` becomes
    ``["apple", "pie", "recipe"]`` and ``"state-of-the-art"`` splits into
    four tokens. Empty input yields an empty list. Pure function:
    identical input gives identical output on every run.
    """
    return _WORD_RE.findall(text.lower())


def detokenize(tokens: Sequence[str]) -> str:
    """Join tokens with single spaces (inverse of tokenize on its outputs)."""
    return " ".join(tokens)


def pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as one UTF-8 byte buffer plus ``len + 1`` offsets into it."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.cumsum([0] + [len(b) for b in encoded], dtype=np.int64)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


def unpack_strings(buffer: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of pack_strings."""
    raw = buffer.tobytes()
    bounds = offsets.tolist()
    return [raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]


class Vocabulary:
    """Immutable surface <-> id mapping with MASK/PAD/UNK specials.

    Ids 0..2 are the special tokens. Content tokens follow, ordered by
    corpus frequency (descending) and then surface (ascending), so ids are
    stable across rebuilds from the same corpus. Safe for concurrent reads.
    """

    def __init__(self, content_surfaces: Sequence[str]) -> None:
        surfaces = list(_SPECIAL_SURFACES)
        surfaces.extend(content_surfaces)
        ids: dict[str, int] = {}
        for i, surface in enumerate(surfaces):
            if not surface:
                raise ValueError("empty token surface")
            if surface in ids:
                raise ValueError(f"duplicate token surface: {surface!r}")
            ids[surface] = i
        self._surfaces: tuple[str, ...] = tuple(surfaces)
        self._ids = ids

    def __len__(self) -> int:
        return len(self._surfaces)

    def __contains__(self, surface: str) -> bool:
        return surface in self._ids

    @property
    def content_size(self) -> int:
        """Number of non-special tokens."""
        return len(self._surfaces) - FIRST_CONTENT_ID

    def content_ids(self) -> range:
        return range(FIRST_CONTENT_ID, len(self._surfaces))

    def id(self, surface: str) -> int:
        """Id for ``surface``; unknown surfaces map to UNK."""
        return self._ids.get(surface, UNK_ID)

    def surface(self, token_id: int) -> str:
        return self._surfaces[token_id]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        ids = self._ids
        return [ids.get(t, UNK_ID) for t in tokens]

    def decode(self, token_ids: Iterable[int]) -> list[str]:
        surfaces = self._surfaces
        return [surfaces[i] for i in token_ids]

    def content_surfaces(self) -> tuple[str, ...]:
        return self._surfaces[FIRST_CONTENT_ID:]

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Content surfaces in id order; the specials are implied."""
        buffer, offsets = pack_strings(self.content_surfaces())
        return {"vocab.surfaces": buffer, "vocab.offsets": offsets}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Vocabulary":
        return cls(unpack_strings(arrays["vocab.surfaces"], arrays["vocab.offsets"]))


def build_vocabulary(
    corpus_tokens: Iterable[Sequence[str]], min_count: int = 1
) -> Vocabulary:
    """Build a vocabulary from token sequences.

    Tokens with corpus frequency >= ``min_count`` are kept; everything else
    maps to UNK at lookup time. Ordering is frequency-descending with
    lexicographic tie-break, which makes the id assignment deterministic.

    Raises ValueError on an empty corpus or ``min_count < 1``.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    n_sequences = 0
    for tokens in corpus_tokens:
        n_sequences += 1
        counts.update(tokens)
    if n_sequences == 0:
        raise ValueError("empty corpus")
    kept = [s for s, c in counts.items() if c >= min_count]
    kept.sort(key=lambda s: (-counts[s], s))
    return Vocabulary(kept)
