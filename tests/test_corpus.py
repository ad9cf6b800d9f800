from __future__ import annotations

import io
import json
import math
import random
import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from queryflip.corpus import (
    Corpus,
    build_corpus,
    build_index,
    count_keys,
    count_postings,
    ingest_corpus,
)
from queryflip.embed import _ppmi_entries
from queryflip.pipeline import build_stack, build_stack_from_file, load_stack, save_stack
from queryflip.text import FIRST_CONTENT_ID, SPECIAL_IDS, UNK_ID, tokenize

from conftest import SAMPLE_LINES, sample_config
from synthdata import zipf_corpus

# Hand-derived BM25 constants for the sample corpus (k1=1.2, b=0.75, the
# config defaults).
# All documents have length 3 = avgdl, so the length normalization factor
# is exactly 1 and each matching term contributes
#   idf * 1 * (k1+1) / (1 + k1) = idf.
# idf(df=2) = ln(1 + (3-2+0.5)/(2+0.5)) = ln(1.6)
# idf(df=1) = ln(1 + (3-1+0.5)/(1+0.5)) = ln(8/3)
K1, B = 1.2, 0.75
IDF_DF2 = math.log(1.6)
IDF_DF1 = math.log(8.0 / 3.0)
SCORE_APPLE_RECIPE_D1 = 0.9400072584914713  # 2 * ln(1.6)
SCORE_APPLE_RECIPE_D2 = 0.47000362924573563  # ln(1.6)


def ids(stack, text):
    from queryflip.text import tokenize

    return stack.vocab.encode(tokenize(text))


def test_ingest_sample_corpus(sample_stack):
    corpus = sample_stack.corpus
    assert corpus.n_docs == 3
    assert corpus.avgdl == 3.0
    assert sample_stack.vocab.decode(corpus["d1"].ids) == ["apple", "pie", "recipe"]
    assert corpus["d1"].length == 3


def test_ingest_collection_scale_count():
    # a collection-sized stream (the size of the smallest benchmark
    # corpus we target) ingests with an exact document count
    lines = (
        json.dumps({"id": f"doc-{i}", "text": f"passage number {i} text"})
        for i in range(5183)
    )
    assert len(ingest_corpus(lines)) == 5183


def test_ingest_missing_field_reports_line():
    lines = [SAMPLE_LINES[0], json.dumps({"id": "dX"})]
    with pytest.raises(ValueError, match=r"missing field: text @ line 2"):
        ingest_corpus(lines)


def test_ingest_malformed_json_reports_line():
    with pytest.raises(ValueError, match=r"malformed record @ line 1"):
        ingest_corpus(["{not json"])


@pytest.mark.parametrize(
    "line, cause",
    [
        ("[" * 200_000 + "]" * 200_000, RecursionError),
        ('{"id": "d9", "text": "x", "n": ' + "1" * 5000 + "}", ValueError),
    ],
    ids=["deep_nesting", "5000_digits"],
)
def test_ingest_names_the_line_the_parser_gives_up_on(line, cause):
    # Nesting past the parser's depth and an integer past Python's digit
    # limit are malformed records too, with their line.
    with pytest.raises(ValueError, match=r"^malformed record @ line 2: ") as info:
        ingest_corpus([SAMPLE_LINES[0], line])
    assert type(info.value.__cause__) is cause


def test_ingest_duplicate_id_named():
    with pytest.raises(ValueError, match=r"duplicate id: d1"):
        ingest_corpus([SAMPLE_LINES[0], SAMPLE_LINES[0]])


@pytest.mark.parametrize(
    "record, field",
    [
        ('{"id": "d1", "text": "apple pie \\ud800 recipe"}', "text"),
        ('{"id": "d\\udfff", "text": "apple pie recipe"}', "id"),
    ],
    ids=["text", "id"],
)
def test_ingest_lone_surrogate_reports_line(record, field):
    # Valid JSON, but a lone surrogate has no UTF-8 encoding.
    with pytest.raises(ValueError, match=rf"invalid field: {field} @ line 2"):
        ingest_corpus([SAMPLE_LINES[1], record])


@pytest.mark.parametrize(
    "record",
    [
        b'{"id": "d9", "text": "caf\xe9 recipe"}',
        b'{"id": "d9", "text": "cafe recipe", "title": "caf\xe9"}',
    ],
    ids=["text", "unread_field"],
)
def test_build_from_file_names_line_of_non_utf8_byte(tmp_path, record):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(SAMPLE_LINES[1].encode() + b"\n" + record + b"\n")
    with pytest.raises(ValueError, match=r"not UTF-8 @ line 2"):
        build_stack_from_file(str(path), sample_config())


def test_build_from_file_matches_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes("\r\n".join(SAMPLE_LINES).encode() + b"\r\n\r\n")
    from_file = build_stack_from_file(str(path), sample_config())
    from_lines = build_stack(ingest_corpus(SAMPLE_LINES), sample_config())
    assert from_file.corpus.records == from_lines.corpus.records
    assert from_file.fingerprint == from_lines.fingerprint


def test_bm25_no_matching_terms_scores_zero(sample_stack):
    q = ids(sample_stack, "xylophone")
    assert q == [UNK_ID]
    assert sample_stack.search.score(q, "d1") == 0.0


def test_bm25_golden_value(sample_stack):
    q = ids(sample_stack, "apple recipe")
    assert sample_stack.search.score(q, "d1") == pytest.approx(
        SCORE_APPLE_RECIPE_D1, abs=1e-9
    )
    assert sample_stack.search.score(q, "d2") == pytest.approx(
        SCORE_APPLE_RECIPE_D2, abs=1e-9
    )
    assert sample_stack.search.score(q, "d3") == pytest.approx(
        SCORE_APPLE_RECIPE_D2, abs=1e-9
    )


def test_bm25_d1_beats_both(sample_stack):
    q = ids(sample_stack, "apple recipe")
    s = sample_stack.search
    assert s.score(q, "d1") > s.score(q, "d2")
    assert s.score(q, "d1") > s.score(q, "d3")


def test_search_order_with_tie_break(sample_stack):
    # d2 and d3 tie exactly (one df=2 term each); ascending doc id wins.
    q = ids(sample_stack, "apple recipe")
    ranking = sample_stack.search.search(q, 3)
    assert [d for d, _ in ranking.entries] == ["d1", "d2", "d3"]


def test_search_k1_returns_top_only(sample_stack):
    q = ids(sample_stack, "apple recipe")
    ranking = sample_stack.search.search(q, 1)
    assert [d for d, _ in ranking.entries] == ["d1"]


def test_search_k_larger_than_corpus_truncates(sample_stack):
    q = ids(sample_stack, "banana")
    ranking = sample_stack.search.search(q, 10)
    assert len(ranking.entries) == 3
    doc_ids = [d for d, _ in ranking.entries]
    assert doc_ids[0] == "d3"
    # zero-score documents are appended in ascending id order
    assert doc_ids[1:] == ["d1", "d2"]
    assert ranking.entries[1][1] == 0.0


def test_search_scores_match_fresh_recomputation(sample_stack):
    q = ids(sample_stack, "apple banana recipe")
    ranking = sample_stack.search.search(q, 3)
    for doc_id, score in ranking.entries:
        assert score == sample_stack.search.score(q, doc_id)


def test_search_prefix_consistency(sample_stack):
    rng = random.Random(5)
    terms = ["apple", "recipe", "banana", "tree", "orchard", "pie", "bread"]
    for _ in range(25):
        q = ids(sample_stack, " ".join(rng.choices(terms, k=rng.randint(1, 4))))
        for k in (1, 2):
            shorter = sample_stack.search.search(q, k)
            longer = sample_stack.search.search(q, k + 1)
            assert shorter.entries == longer.entries[:k]


def query_representation(search, query_ids):
    """L2-normalized sparse idf*tf vector over the vocabulary, in ascending
    term order; special tokens carry no weight, and a query with no
    scoreable term gives the zero vector (an empty dict). Its squares are
    added left to right in first-occurrence order: the plain-Python
    reference ``evaluation.cos_sim_metric``'s vectorised representation
    must match bit for bit."""
    counts: dict[int, int] = {}
    for t in query_ids:
        if t not in SPECIAL_IDS:
            counts[t] = counts.get(t, 0) + 1
    weights = {t: search.idf(t) * tf for t, tf in counts.items()}
    squares = 0.0
    for w in weights.values():  # left to right; ``sum`` differs on 3.12+
        squares += w * w
    norm = math.sqrt(squares)
    if norm == 0.0:
        return {}
    return {t: w / norm for t, w in sorted(weights.items())}


def test_idf_array_holds_the_idf_of_every_id(sample_stack):
    # Specials and ids past the indexed terms get the unseen-term idf.
    search = sample_stack.search
    size = len(sample_stack.vocab) + 2
    table = search.idf_array(size)
    assert table.dtype == np.float64
    assert table.tolist() == [search.idf(t) for t in range(size)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=40))
def test_count_keys_counts_as_np_unique_does(values):
    """The distinct keys and their counts, as ``np.unique`` with
    ``return_counts`` gives them, with the empty array included; the
    keys are left sorted."""
    keys = np.array(values, dtype=np.int64)
    expected = np.unique(keys, return_counts=True)
    distinct, counts = count_keys(keys)
    assert np.array_equal(distinct, expected[0]) and np.array_equal(counts, expected[1])
    assert distinct.dtype == np.int64 and counts.dtype == expected[1].dtype
    assert keys.tolist() == sorted(values)


def test_idf_of_every_indexed_term_is_the_scalar_formula():
    """On a Zipf corpus, whose document frequencies run from 1 to nearly
    every document, each term's idf is the formula's float operations in
    its order, and an unseen term's is its value at df 0."""
    corpus, vocab = build_corpus(ingest_corpus(zipf_corpus(1, 2200, 3000)), 1)
    search = build_index(corpus, K1, B)
    terms, indptr, _, _ = count_postings(corpus)
    n = corpus.n_docs
    dfs = np.diff(indptr).tolist()
    assert min(dfs) == 1 and max(dfs) > n // 2
    for term, df in zip(terms.tolist(), dfs):
        assert search.idf(term) == math.log(1.0 + (n - df + 0.5) / (df + 0.5))
    assert search.idf(UNK_ID) == math.log(1.0 + (n + 0.5) / 0.5)


@pytest.mark.parametrize("k1, b", [(K1, 0), (K1, 1), (2, B)])
def test_integer_bm25_constants_weigh_as_their_floats(sample_stack, k1, b):
    """A config may hold ``k1`` or ``b_bm25`` as an int; the impacts are
    those of the equal float."""
    corpus = sample_stack.corpus
    exact = build_index(corpus, k1, b)
    floats = build_index(corpus, float(k1), float(b))
    assert exact.impacts.dtype == np.float64
    assert exact.impacts.tobytes() == floats.impacts.tobytes()
    assert exact._doc_impacts.tobytes() == floats._doc_impacts.tobytes()


def test_query_representation_identity_and_disjoint(sample_stack):
    s = sample_stack.search
    q = ids(sample_stack, "apple recipe")
    u = query_representation(s, q)
    v = query_representation(s, q)
    assert u == v
    assert sum(w * w for w in u.values()) == pytest.approx(1.0, abs=1e-12)
    disjoint = query_representation(s, ids(sample_stack, "tree bread"))
    assert set(u) & set(disjoint) == set()


def test_query_representation_hand_cosine(sample_stack):
    # q = "apple recipe" (both idf ln 1.6), q' = "apple orchard"
    # cos = ln(1.6)^2 / (sqrt(2)*ln(1.6) * sqrt(ln(1.6)^2 + ln(8/3)^2))
    s = sample_stack.search
    u = query_representation(s, ids(sample_stack, "apple recipe"))
    v = query_representation(s, ids(sample_stack, "apple orchard"))
    dot = sum(w * v[t] for t, w in u.items() if t in v)
    expected = (IDF_DF2 * IDF_DF2) / (
        math.sqrt(2.0) * IDF_DF2 * math.hypot(IDF_DF2, IDF_DF1)
    )
    assert dot == pytest.approx(expected, abs=1e-9)
    assert dot == pytest.approx(0.3055672420050612, abs=1e-9)


def test_query_representation_all_unk_is_zero_vector(sample_stack):
    assert query_representation(sample_stack.search, [UNK_ID, UNK_ID]) == {}


def test_search_rejects_bad_k(sample_stack):
    with pytest.raises(ValueError):
        sample_stack.search.search([3], 0)


def _okapi(corpus, vocab, k1, b, query_ids, doc_id):
    """Okapi BM25 recomputed from the corpus on every call, term by term."""
    encoded = {d.id: vocab.encode(tokenize(d.text)) for d in corpus.documents()}
    df = Counter(t for doc_ids in encoded.values() for t in set(doc_ids))
    doc_tf = Counter(encoded[doc_id])
    norm = 1.0 - b + b * corpus[doc_id].length / corpus.avgdl
    score = 0.0
    for term_id in query_ids:
        tf = 0 if term_id in SPECIAL_IDS else doc_tf[term_id]
        if tf:
            n, n_t = corpus.n_docs, df[term_id]
            idf = math.log(1.0 + (n - n_t + 0.5) / (n_t + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * norm)
    return score


def _counter_postings(corpus, vocab):
    """The CSR postings arrays, counted one document at a time with a
    Counter from its re-tokenised text, documents in corpus order."""
    rows = {}
    for position, doc in enumerate(corpus.documents()):
        for term_id, tf in Counter(vocab.encode(tokenize(doc.text))).items():
            if term_id not in SPECIAL_IDS:
                rows.setdefault(term_id, []).append((position, tf))
    terms = sorted(rows)
    return {
        "terms": np.array(terms, dtype=np.int32),
        "indptr": np.cumsum([0] + [len(rows[t]) for t in terms]),
        "docs": np.array([p for t in terms for p, _ in rows[t]], dtype=np.int32),
        "tfs": np.array([tf for t in terms for _, tf in rows[t]], dtype=np.int32),
    }


def postings(search):
    """The postings the model was built from: those its corpus counts to,
    whose ``docs`` the model keeps."""
    names = ("terms", "indptr", "docs", "tfs")
    counted = dict(zip(names, count_postings(search.corpus)))
    assert np.array_equal(search.docs, counted["docs"])
    return counted


def npz_round_trip(arrays):
    """``arrays`` written to an in-memory ``.npz`` and read back."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    buffer.seek(0)
    with np.load(buffer) as npz:
        return {name: npz[name] for name in npz.files}


def assert_same_arrays(got, expected):
    assert got.keys() == expected.keys()
    for name, array in expected.items():
        assert got[name].dtype == array.dtype, name
        assert np.array_equal(got[name], array), name


# The sentence rule as max_flip applied it to a document's text at edit
# time, before the build stored the sentences: the reference for the
# stored spans.
_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+")


def reference_sentence_ids(text, vocab):
    sentences = [s for s in _SENTENCE_RE.split(text.strip()) if s.strip()]
    tokenized = (tokenize(sentence) for sentence in sentences)
    return tuple(tuple(vocab.encode(tokens)) for tokens in tokenized if tokens)


# Words (Greek capital sigma lowers to a final or a medial sigma, dotted
# capital I to two characters), stops and runs of stops, a stop inside a
# word, and an underscore, which splits words but ends no sentence.
_FRAGMENTS = st.sampled_from([
    "w0", "w1", "W1", "w2", "ΟΔΟΣ", "ΟΔΟΣ.", "Σ", "Σ!", "İx", "é", "a_b", "_",
    ".", "!", "?", "...", "!!!", "?!", "e.g.x", "w1.", "w2?",
])
# Gaps between fragments: none, spaces, NBSP, LINE SEPARATOR, newline, tab.
_GAPS = st.sampled_from(["", " ", "  ", "\u00a0", "\u2028", "\n", "\t"])
_SENTENCE_TEXTS = st.builds(
    lambda pairs, tail: "".join(f + g for f, g in pairs) + tail,
    st.lists(st.tuples(_FRAGMENTS, _GAPS), max_size=10),
    _GAPS,
)


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(_SENTENCE_TEXTS, min_size=1, max_size=6),
       min_count=st.sampled_from([1, 2]))
@example(texts=["ΟΔΟΣ. ΑΣ!\u00a0Σ?\u2028w1... w1!!! e.g.x w2 \u2028", "", " \n"],
         min_count=2)
@example(texts=["ΑΣ.\u2028ΟΔΟΣ\u00a0ΟΔΟΣ. ", "w1 e.g.x!!!w1"], min_count=1)
def test_stored_sentences_equal_the_text_rule(texts, min_count):
    """The sentences the build stores for each document, and the ones an
    archive loads back, are those of the text rule: empty texts, trailing
    whitespace and, under min_count 2, [UNK] ids included."""
    records = {f"d{i}": text for i, text in enumerate(texts)}
    corpus, vocab = build_corpus(records, min_count)
    loaded = Corpus.from_arrays(npz_round_trip(corpus.to_arrays()))
    assert_same_arrays(loaded.to_arrays(), corpus.to_arrays())
    for doc_id, text in records.items():
        expected = reference_sentence_ids(text, vocab)
        assert tuple(corpus[doc_id].sentences()) == expected
        assert tuple(loaded[doc_id].sentences()) == expected
        assert corpus[doc_id].ids == tuple(vocab.encode(tokenize(text)))


def test_sentence_offsets_cut_the_stream_at_stops_and_documents():
    records = {"a": "Apple pie. !!! Banana? ", "b": "", "c": "e.g.x ok... Fine"}
    corpus, vocab = build_corpus(records, 1)
    # a: "apple pie" | "banana"; b: no token; c: "e g x ok" | "fine"
    assert corpus.offsets.tolist() == [0, 3, 3, 8]
    assert corpus.sentence_offsets.tolist() == [0, 2, 3, 7, 8]
    assert corpus["a"].sentence_bounds == (0, 2, 3)
    assert corpus["b"].sentences() == []
    assert corpus["c"].sentences() == [
        tuple(vocab.encode(["e", "g", "x", "ok"])), tuple(vocab.encode(["fine"]))
    ]


def test_index_of_empty_documents_has_no_postings():
    records = ingest_corpus(json.dumps({"id": f"d{i}", "text": "?!"}) for i in range(3))
    corpus, vocab = build_corpus(records, 1)
    search = build_index(corpus, K1, B)
    assert corpus.avgdl == 0.0 and len(search.docs) == 0
    assert_same_arrays(postings(search), _counter_postings(corpus, vocab))
    assert search.search([UNK_ID], 2).entries == (("d0", 0.0), ("d1", 0.0))


def test_score_equals_per_call_okapi_on_random_corpora():
    rng = random.Random(11)
    words = [f"w{i}" for i in range(30)]
    for _ in range(20):
        texts = [
            " ".join(rng.choices(words[: rng.randint(3, 30)], k=rng.randint(0, 25)))
            for _ in range(rng.randint(2, 12))
        ]
        records = {f"d{i:02d}": t for i, t in enumerate(texts)}
        corpus, vocab = build_corpus(records, rng.choice((1, 2)))
        if corpus.avgdl == 0.0:
            continue
        k1, b = rng.uniform(0.1, 3.0), rng.choice((0.0, 0.75, 1.0))
        search = build_index(corpus, k1, b)
        assert_same_arrays(postings(search), _counter_postings(corpus, vocab))
        for _ in range(10):
            # specials, ids past the vocabulary and repeated terms included
            query = rng.choices(range(len(vocab) + 3), k=rng.randint(1, 8))
            query += rng.choices(query, k=rng.randint(0, 3))
            for doc_id in corpus.doc_ids():
                expected = _okapi(corpus, vocab, k1, b, query, doc_id)
                assert search.score(query, doc_id) == expected
            ranking = search.search(query, corpus.n_docs)
            for doc_id, score in ranking.entries:
                assert score == _okapi(corpus, vocab, k1, b, query, doc_id)


_WORDS = st.sampled_from(["w0", "w1", "w2", "w3", "w4", "w5", "W1", "w1!"])
_TEXTS = st.lists(_WORDS, max_size=12).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(
    texts=st.lists(_TEXTS, min_size=1, max_size=8),
    min_count=st.sampled_from([1, 2]),
    k1=st.floats(0.1, 3.0),
    b=st.sampled_from([0.0, 0.75, 1.0]),
    queries=st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=6), max_size=5),
)
@example(texts=["w0 w1", "w1 w1 w1"], min_count=1, k1=1.0, b=0.0, queries=[])
def test_saved_corpus_loads_the_built_ids_and_index(
    tmp_path_factory, texts, min_count, k1, b, queries
):
    """Build, save and load a random corpus (empty texts and, under
    min_count 2, [UNK] ids included): the loaded documents hold the ids of
    their texts, and the index counted from them scores like the built one.
    One fixed document keeps two content words under min_count 2, which
    the n-gram model needs, and gives the embeddings a positive PPMI entry:
    no drawn text holds its words, so their pair co-occurs 3 times in a
    window of 2, each word's marginal is 5 and the total at least 10."""
    config = sample_config(
        artifacts=str(tmp_path_factory.mktemp("artifacts")),
        min_count=min_count, k1=k1, b_bm25=b,
    )
    records = {f"d{i}": text for i, text in enumerate(texts)}
    records["fixed"] = "y0 y0 y1 y1"
    built = build_stack(records, config)
    rows, cols, _ = _ppmi_entries(built.corpus, built.vocab, config.embed_window)
    y0, y1 = (built.vocab.id(w) - FIRST_CONTENT_ID for w in ("y0", "y1"))
    assert np.any((rows == y0) & (cols == y1))
    save_stack(built, config)
    loaded = load_stack(config)
    vocab, corpus = loaded.vocab, loaded.corpus
    assert corpus.doc_ids() == built.corpus.doc_ids()
    for doc in corpus.documents():
        assert doc.ids == tuple(vocab.encode(tokenize(doc.text)))
        assert doc.length == len(doc.ids)
    assert_same_arrays(postings(loaded.search), _counter_postings(corpus, vocab))
    for query in queries:
        for doc_id in corpus.doc_ids():
            expected = built.search.score(query, doc_id)
            assert loaded.search.score(query, doc_id) == expected
            if corpus.avgdl:
                assert expected == _okapi(corpus, vocab, k1, b, query, doc_id)
        assert loaded.search.search(query, 3) == built.search.search(query, 3)


def _reference_search(search, query, k):
    """Every document sorted by (-score, doc id), then cut to k:
    zero-score documents fill in ascending doc-id order."""
    scored = [(doc_id, search.score(query, doc_id)) for doc_id in search.corpus.doc_ids()]
    return tuple(sorted(scored, key=lambda e: (-e[1], e[0]))[:k])


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(_TEXTS, min_size=1, max_size=10),
    k1=st.floats(0.1, 3.0),
    b=st.sampled_from([0.0, 0.75, 1.0]),
    query=st.lists(st.integers(0, 12), min_size=1, max_size=6),
    repeats=st.integers(1, 3),
    copies=st.integers(1, 3),
)
def test_search_equals_the_sorted_reference(texts, k1, b, query, repeats, copies):
    """``search`` over the flat impact array equals the reference exactly,
    floats included, at every k up to one past the corpus size. Every
    text is stored ``copies`` times and the first once more, so scores
    tie, at the k-th place too; the queries repeat tokens, hold only
    [UNK] or match fewer than k documents."""
    records = {f"d{i}-{c}": text for i, text in enumerate(texts) for c in range(copies)}
    records["a-copy"] = texts[0]
    records["fixed"] = "w0 w0 w1 w2"
    corpus, _ = build_corpus(records, 1)
    search = build_index(corpus, k1, b)
    n = corpus.n_docs
    for q in (query, query * repeats + query[:1], [UNK_ID] * repeats):
        for top in range(1, n + 2):
            got = search.search(q, top)
            assert got.query_ids == tuple(q)
            assert got.entries == _reference_search(search, q, top)


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(_TEXTS, min_size=1, max_size=10), k1=st.floats(0.1, 3.0))
def test_postings_regrouped_by_document_equal_a_stable_sort(texts, k1):
    """The postings regrouped by document equal a stable argsort of their
    documents: each document's terms ascending, its impacts alongside."""
    corpus, _ = build_corpus({f"d{i}": text for i, text in enumerate(texts)}, 1)
    search = build_index(corpus, k1, B)
    counted = postings(search)
    docs = counted["docs"]
    by_doc = np.argsort(docs, kind="stable")
    terms = np.repeat(counted["terms"], np.diff(counted["indptr"]))
    bounds = np.cumsum(np.r_[0, np.bincount(docs, minlength=corpus.n_docs)])
    assert np.array_equal(search._doc_terms, terms[by_doc])
    assert search._doc_terms.dtype == counted["terms"].dtype
    assert np.array_equal(search._doc_impacts, search.impacts[by_doc])
    assert np.array_equal(search._doc_bounds, bounds)


def test_racing_first_accesses_share_one_document_and_score():
    """Threads that build the same Document or weight table at once all
    get the one that was stored, and the same scores."""
    records = {f"d{i}": f"w{i % 7} w{i % 3} shared" for i in range(300)}
    corpus, vocab = build_corpus(records, 1)
    search = build_index(corpus, K1, B)
    query = vocab.encode(["w1", "shared", "w2", "w1"])
    barrier = threading.Barrier(8)
    seen = []

    def work():
        barrier.wait(timeout=10)
        docs = [corpus[doc_id] for doc_id in records]
        seen.append((docs, [search.score(query, doc_id) for doc_id in records]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    stored = [corpus[doc_id] for doc_id in records]
    expected = [_okapi(corpus, vocab, K1, B, query, d) for d in records]
    for docs, scores in seen:
        assert all(doc is first for doc, first in zip(docs, stored))
        assert scores == expected


def _counter_representation(search, query_ids):
    """The representation counted with a ``Counter`` and weighted through
    ``idf``: the reference ``query_representation`` must match."""
    counts = Counter(t for t in query_ids if t not in SPECIAL_IDS)
    weights = {t: search.idf(t) * tf for t, tf in counts.items()}
    norm = math.sqrt(sum(w * w for w in weights.values()))
    if norm == 0.0:
        return {}
    return {t: w / norm for t, w in sorted(weights.items())}


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(_TEXTS, min_size=1, max_size=6),
    query=st.lists(st.integers(0, 12), min_size=1, max_size=8),
    repeats=st.integers(1, 3),
)
def test_query_representation_equals_the_counter_reference(texts, query, repeats):
    """Equal weights bit for bit, in the same key order, for queries with
    repeated terms, specials, [UNK] and ids no document holds."""
    records = {f"d{i}": text for i, text in enumerate(texts)}
    records["fixed"] = "w0 w0 w1 w2"
    corpus, _ = build_corpus(records, 1)
    search = build_index(corpus, K1, B)
    for q in (query, query * repeats + [UNK_ID], [UNK_ID] * repeats):
        expected = _counter_representation(search, q)
        got = query_representation(search, q)
        assert list(got.items()) == list(expected.items())
