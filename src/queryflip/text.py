"""Deterministic word-level tokenization and vocabulary management.

Every other component (index, embeddings, language model) shares this
tokenizer, so they all agree on what a token is.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

# A word (the group) is a run of unicode letters and digits; underscore is
# excluded so it behaves like punctuation. A sentence break is the
# whitespace after ., ! or ?. Everything else is a boundary and is dropped.
_WORD_OR_BREAK_RE = re.compile(r"([^\W_]+)|(?<=[.!?])\s+")

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
    return [token for token in tokenize_sentences(text) if token]


def tokenize_sentences(text: str) -> list[str]:
    """``tokenize(text)`` with an empty string at each sentence break.

    A sentence ends at the whitespace after ``.``, ``!`` or ``?``; the
    tokens between two breaks are one sentence, and a sentence without
    tokens is none. ``"Pie. Tart!"`` yields ``["pie", "", "tart"]``.
    """
    return _WORD_OR_BREAK_RE.findall(text.lower())


def pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as the UTF-8 bytes of their concatenation plus ``len + 1``
    character offsets into it."""
    offsets = np.cumsum([0] + [len(s) for s in strings], dtype=np.int64)
    return np.frombuffer("".join(strings).encode("utf-8"), dtype=np.uint8), offsets


def unpack_strings(buffer: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Inverse of pack_strings: the buffer is decoded once and sliced at
    the character offsets. A buffer that is not uint8 or not UTF-8, or
    offsets that fall or leave the decoded text raise ValueError."""
    if buffer.dtype != np.uint8:
        raise ValueError(f"string buffer must be uint8, not {buffer.dtype}")
    text = buffer.tobytes().decode("utf-8")
    n = len(text)
    if offsets.ndim != 1 or (len(offsets) and (
        offsets[0] < 0 or offsets[-1] > n or (offsets[1:] < offsets[:-1]).any()
    )):
        raise ValueError(f"string offsets must rise within [0, {n}]")
    bounds = offsets.tolist()
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


class Vocabulary:
    """Immutable surface <-> id mapping with MASK/PAD/UNK specials.

    Ids 0..2 are the specials, then content tokens by corpus frequency
    (descending) and surface (ascending): ids are stable across rebuilds.
    ``text`` writes ids out as a query. Safe for concurrent reads.
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

    def id(self, surface: str) -> int:
        """Id for ``surface``; unknown surfaces map to UNK."""
        return self._ids.get(surface, UNK_ID)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        ids = self._ids
        return [ids.get(t, UNK_ID) for t in tokens]

    def decode(self, token_ids: Iterable[int]) -> list[str]:
        surfaces = self._surfaces
        return [surfaces[i] for i in token_ids]

    def text(self, token_ids: Iterable[int]) -> str:
        """The surfaces of ``token_ids`` joined by single spaces."""
        return " ".join(self.decode(token_ids))

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
    corpus_tokens: Sequence[Sequence[str]], min_count: int
) -> Vocabulary:
    """Build a vocabulary from token sequences.

    Tokens with corpus frequency >= ``min_count`` are kept; everything else
    maps to UNK at lookup time. Ordering is frequency-descending with
    lexicographic tie-break, which makes the id assignment deterministic.
    """
    counts = Counter(chain.from_iterable(corpus_tokens))
    kept = [s for s, c in counts.items() if c >= min_count]
    kept.sort(key=lambda s: (-counts[s], s))
    return Vocabulary(kept)
