from __future__ import annotations

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryflip.corpus import build_corpus
from queryflip.text import (
    FIRST_CONTENT_ID,
    MASK_ID,
    MASK_TOKEN,
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    build_vocabulary,
    pack_strings,
    tokenize,
    tokenize_sentences,
    unpack_strings,
)


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("Apple pie Recipe!") == ["apple", "pie", "recipe"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_hyphenated_golden():
    # Golden output of the word-boundary rules on hyphenated input.
    assert tokenize("state-of-the-art") == ["state", "of", "the", "art"]


def test_tokenize_unicode_and_digits():
    assert tokenize("Café numéro 42") == ["café", "numéro", "42"]
    assert tokenize("foo_bar") == ["foo", "bar"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="aZ9_.!? \t\n\u00a0\u2028İ\u0663é")))
def test_tokenize_keeps_the_words_of_unicode_letters_and_digits(text):
    # The word rule as one regex: runs of letters and digits, lowercased.
    assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())


def test_tokenize_sentences_marks_each_stop_followed_by_whitespace():
    assert tokenize_sentences("Pie. Tart!") == ["pie", "", "tart"]
    assert tokenize_sentences("e.g.x ok...\u00a0Fine?\u2028") == [
        "e", "g", "x", "ok", "", "fine", "",
    ]
    assert tokenize_sentences("no stop _ here") == ["no", "stop", "here"]
    assert tokenize_sentences("") == []


def test_tokenize_round_trip_is_stable():
    rng = random.Random(13)
    words = ["alpha", "beta-2", "Gamma!", "DELTA", "épée", "x9"]
    for _ in range(50):
        text = " ".join(rng.choices(words, k=rng.randint(0, 8)))
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
        assert tokenize(text) == tokens  # pure function


def test_vocabulary_specials_and_ids():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_count=1)
    assert vocab.text([MASK_ID]) == MASK_TOKEN
    assert vocab.text([PAD_ID]) == PAD_TOKEN
    assert vocab.text([UNK_ID]) == UNK_TOKEN
    # frequency-descending then lexicographic: a (2) before b (1)
    assert vocab.content_surfaces() == ("a", "b")
    assert vocab.id("a") == FIRST_CONTENT_ID
    assert len(vocab) == 5


def test_vocabulary_min_count_threshold():
    vocab = build_vocabulary([["a", "b"], ["a"]], min_count=2)
    assert vocab.content_surfaces() == ("a",)
    assert vocab.id("b") == UNK_ID


def test_vocabulary_sample_corpus_has_seven_content_tokens(sample_stack):
    # Hand count over the three sample documents: apple x2, recipe x2,
    # banana, bread, orchard, pie, tree.
    assert sample_stack.vocab.content_size == 7
    assert sample_stack.vocab.content_surfaces() == (
        "apple", "recipe", "banana", "bread", "orchard", "pie", "tree",
    )


def test_vocabulary_ids_round_trip():
    vocab = build_vocabulary([["c", "b", "a", "b"]], min_count=1)
    for token_id in range(len(vocab)):
        assert vocab.id(vocab.text([token_id])) == token_id


def test_vocabulary_text_round_trips_content_ids():
    vocab = build_vocabulary([tokenize("Apple pie, épée x9. Apple tart!")], min_count=1)
    content = list(range(FIRST_CONTENT_ID, len(vocab)))
    for token_ids in (content, content[::-1], content + content[:2]):
        assert vocab.encode(tokenize(vocab.text(token_ids))) == token_ids
    assert vocab.text([MASK_ID, PAD_ID, UNK_ID]) == "[MASK] [PAD] [UNK]"
    assert vocab.text([]) == ""


def test_vocabulary_encode_decode():
    vocab = build_vocabulary([["a", "b"]], min_count=1)
    ids = vocab.encode(["a", "zzz", "b"])
    assert ids == [vocab.id("a"), UNK_ID, vocab.id("b")]
    assert vocab.decode(ids) == ["a", UNK_TOKEN, "b"]


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_corpus({}, min_count=1)


def _unpack_each(buffer, offsets):
    """Each string decoded on its own: a string of c characters is the
    next c UTF-8 sequences of the bytes, each as long as its lead byte
    says."""
    raw = buffer.tobytes()
    strings, start = [], 0
    for count in np.diff(offsets).tolist():
        end = start
        for _ in range(count):
            lead = raw[end]
            end += 1 if lead < 0x80 else 2 if lead < 0xE0 else 3 if lead < 0xF0 else 4
        strings.append(raw[start:end].decode("utf-8"))
        start = end
    assert start == len(raw)
    return strings


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(), st.text(alphabet="aé€😀\u2028"))))
def test_unpack_strings_equals_decoding_each_string(strings):
    buffer, offsets = pack_strings(strings)
    assert unpack_strings(buffer, offsets) == _unpack_each(buffer, offsets) == strings


@pytest.mark.parametrize(
    "strings, offsets, match",
    [
        (["ab", "c"], [0, 2, 1, 3], "must rise"),
        (["ab"], [0, 3], "must rise"),
        (["ab"], [-1, 2], "must rise"),
        (["é", "a€"], [0, 2, 6], r"must rise within \[0, 3\]"),
    ],
    ids=["fall", "past_end", "negative", "byte_offsets"],
)
def test_unpack_strings_rejects_bad_offsets(strings, offsets, match):
    buffer, _ = pack_strings(strings)
    with pytest.raises(ValueError, match=match):
        unpack_strings(buffer, np.array(offsets, dtype=np.int64))
