from __future__ import annotations

import io
import json
import re
import zipfile
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from queryflip import corpus as corpus_module
from queryflip.config import RunConfig
from queryflip.corpus import Corpus, build_corpus, ingest_corpus
from queryflip.lm import BOS, perplexity
from queryflip.pipeline import (
    STACK_FILE,
    STACK_FORMAT,
    ArtifactError,
    build_fingerprint,
    build_stack,
    corpus_digest,
    load_stack,
    make_context,
    save_stack,
)
from queryflip.text import (
    UNK_ID,
    Vocabulary,
    pack_strings,
    unpack_strings,
)

from conftest import SAMPLE_LINES, sample_config
from test_corpus import assert_same_arrays, postings
from test_lm import (
    _REJECTED_ORDER,
    MALFORMED_TABLES,
    _order_message,
    _past,
    reference_counts,
)


def test_config_round_trips_through_json(tmp_path):
    config = RunConfig(beam=7, lam=0.25, backends={"score": {"url": "http://x"}})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = RunConfig.from_file(str(path))
    assert loaded == config
    assert loaded.to_dict() == config.to_dict()


def test_config_validation_names_field():
    with pytest.raises(ValueError, match="beam"):
        RunConfig(beam=0)
    with pytest.raises(ValueError, match="top_k"):
        RunConfig(top_k=1)
    with pytest.raises(ValueError, match="timing"):
        RunConfig(timing="cpu")
    with pytest.raises(ValueError, match="nope"):
        RunConfig.from_dict({"nope": 1})
    bad_types = [
        ({"beam": "10"}, "beam", "an integer"),
        ({"beam": True}, "beam", "an integer"),
        ({"lam": "0.5"}, "lam", "a number"),
        ({"lam": False}, "lam", "a number"),
        ({"max_masks": 2.5}, "max_masks", "an integer or null"),
        ({"workers": True}, "workers", "an integer or null"),
        ({"embed_dim": 64.0}, "embed_dim", "an integer"),
        ({"masker": ["maxsim"]}, "masker", "a string"),
        ({"corpus": 5}, "corpus", "a string"),
    ]
    for raw, name, kind in bad_types:
        with pytest.raises(ValueError, match=rf"invalid config field: {name} \(must be {kind}\)"):
            RunConfig.from_dict(raw)
    bad_ranges = [
        ({"k1": 0}, "k1"),
        ({"k1": -1.0}, "k1"),
        ({"b_bm25": 1.5}, "b_bm25"),
        ({"b_bm25": -0.5}, "b_bm25"),
        ({"min_count": 0}, "min_count"),
        ({"embed_dim": 1}, "embed_dim"),
        ({"embed_window": 0}, "embed_window"),
        ({"lm_order": 0}, "lm_order"),
        ({"lm_k": 0.0}, "lm_k"),
        ({"masker": "bert"}, "masker"),
        ({"lam": 1.5}, "lam"),
        ({"lam": -0.1}, "lam"),
        ({"max_masks": 0}, "max_masks"),
        ({"workers": 0}, "workers"),
    ]
    for raw, name in bad_ranges:
        with pytest.raises(ValueError, match=rf"invalid config field: {name} \((must|one of)"):
            RunConfig.from_dict(raw)
    for raw in (5, None, [1, 2], "abc"):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            RunConfig.from_dict(raw)
    assert RunConfig.from_dict({"lam": 1, "k1": 2, "max_masks": None}).lam == 1
    with pytest.raises(ValueError, match="invalid config field: seed"):
        RunConfig.from_dict({"seed": 0})
    url = "http://scorer"
    bad_backends = [
        ("rank", {"url": url}, "unknown backend role: rank"),
        ("score", url, "entry must be an object"),
        ("score", {}, "url must be a string"),
        ("score", {"url": 5}, "url must be a string"),
        ("score", {"url": "localhost:8080"}, "url must start with http:// or https://"),
        ("score", {"url": "http://"}, "url must name a host"),
        ("embed", {"url": url, "timeout_ms": "5"}, "timeout_ms must be an integer"),
        ("embed", {"url": url, "timeout_ms": 2.5}, "timeout_ms must be an integer"),
        ("embed", {"url": url, "timeout_ms": 0}, "timeout_ms must be > 0"),
        ("embed", {"url": url, "retries": "many"}, "retries must be an integer"),
        ("embed", {"url": url, "retries": True}, "retries must be an integer"),
        ("embed", {"url": url, "retries": -1}, "retries must be >= 0"),
        ("score", {"url": url, "timeout": 50}, "unknown field: timeout"),
        ("score", {"url": url, "token": 7}, "token must be a string"),
        ("score", {"url": url, "token": ["a"]}, "token must be a string"),
    ]
    for role, entry, message in bad_backends:
        expected = rf"invalid config field: backends\.{role} \({message}\)"
        with pytest.raises(ValueError, match=expected):
            RunConfig.from_dict({"backends": {role: entry}})
    with pytest.raises(ValueError, match=r"invalid config field: backends \(must be"):
        RunConfig.from_dict({"backends": ["score"]})


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type == "float"])
def test_config_file_rejects_a_non_finite_number(tmp_path, name, literal):
    # Python's json reads these three literals as floats.
    path = tmp_path / "config.json"
    path.write_text(f'{{"{name}": {literal}}}')
    expected = rf"config\.json: invalid config field: {name} \(must be finite\)$"
    with pytest.raises(ValueError, match=expected):
        RunConfig.from_file(str(path))


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type == "float"])
def test_config_rejects_an_integer_too_large_for_a_float(name, sign):
    # An integer is a number here, but one past the float range would
    # fail later as a bare OverflowError that names no setting.
    raw = json.loads(f'{{"{name}": {sign}1{"0" * 400}}}')
    expected = rf"invalid config field: {name} \(must be finite\)$"
    with pytest.raises(ValueError, match=expected):
        RunConfig.from_dict(raw)


# The JSON type each annotation asks for, as the error message names it.
_KIND_OF_ANNOTATION = {
    "str": "a string",
    "int": "an integer",
    "float": "a number",
    "int | None": "an integer or null",
    "dict[str, dict[str, Any]]": "an object",
}


def test_every_field_rejects_a_wrong_json_type():
    for f in fields(RunConfig):
        kind = _KIND_OF_ANNOTATION[f.type]
        wrong = [["x"], True, False, 5 if f.type == "str" else "5"]
        if f.name != "backends":
            wrong.append({"x": 1})
        if f.type in ("int", "int | None"):
            wrong.append(2.5)
        if f.type != "int | None":
            wrong.append(None)
        expected = rf"invalid config field: {f.name} \(must be {kind}\)"
        for value in wrong:
            with pytest.raises(ValueError, match=expected):
                RunConfig.from_dict({f.name: value})


def test_config_file_errors_name_the_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match=r"config\.json: config must be a JSON object"):
        RunConfig.from_file(str(path))


@pytest.mark.parametrize(
    "text, cause",
    [
        ('{"top_k": ' + "[" * 100_000 + "]" * 100_000 + "}", RecursionError),
        ('{"top_k": ' + "1" * 5000 + "}", ValueError),
    ],
    ids=["deep_nesting", "5000_digits"],
)
def test_config_file_errors_the_parser_gives_up_on_name_the_path(tmp_path, text, cause):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"config\.json: ") as info:
        RunConfig.from_file(str(path))
    assert type(info.value.__cause__) is cause


def test_config_hash_ignores_workers():
    one = RunConfig(workers=1)
    many = RunConfig(workers=8)
    assert one.config_hash() == many.config_hash()
    assert one.config_hash() != RunConfig(beam=3).config_hash()


def test_result_dict_drops_paths_and_credentials():
    config = RunConfig(
        corpus="/data/corpus.jsonl",
        artifacts="/data/artifacts",
        out_dir="/data/reports",
        backends={
            "score": {"url": "http://scorer", "token": "s3cret"},
            "embed": {"url": "http://embedder", "token": "s3cret"},
        },
    )
    meta = json.dumps(config.result_dict())
    assert "s3cret" not in meta and "/data" not in meta
    assert config.result_dict()["backends"] == ["embed", "score"]
    moved = config.with_overrides(corpus="c.jsonl", artifacts="a", out_dir="r")
    assert moved.config_hash() == config.config_hash()


def test_overrides_revalidate():
    config = RunConfig()
    assert config.with_overrides(beam=4).beam == 4
    assert config.with_overrides(beam=None).beam == config.beam
    with pytest.raises(ValueError, match="beam"):
        config.with_overrides(beam=-1)


def test_config_is_valid_from_construction_and_never_changes():
    # Every RunConfig that exists has passed validate(), so the pipeline
    # checks none again.
    with pytest.raises(ValueError, match=r"invalid config field: beam \(must be >= 1\)"):
        RunConfig(beam=0)
    with pytest.raises(ValueError, match=r"invalid config field: lam \(must be a number\)"):
        RunConfig(lam="0.5")
    config = RunConfig()
    with pytest.raises(FrozenInstanceError):
        config.beam = 0
    assert config.beam == 10


# Ids, texts and words with 1-, 2-, 3- and 4-byte UTF-8 characters.
WIDE_RECORDS = {
    "dé": "Café au lait. 中文 𠀀𠀁 pie!",
    "d中": "中文 recipe 𠀀𠀁 𠀀𠀁 café",
    "d𠀀": "pie café 中文",
}


def test_save_load_round_trip(tmp_path):
    _assert_round_trip(tmp_path / "ascii", ingest_corpus(SAMPLE_LINES), ["apple", "recipe"], "d1")
    _assert_round_trip(tmp_path / "wide", WIDE_RECORDS, ["café", "中文", "𠀀𠀁"], "d中")


def _assert_round_trip(tmp_path, records, words, doc_id):
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(records, config)
    save_stack(stack, config)
    loaded = load_stack(config)

    assert loaded.fingerprint == stack.fingerprint
    assert loaded.corpus.records == stack.corpus.records == records
    assert loaded.corpus.doc_ids() == stack.corpus.doc_ids()
    assert loaded.vocab.content_surfaces() == stack.vocab.content_surfaces()
    assert np.array_equal(loaded.table.vectors, stack.table.vectors)
    assert loaded.corpus.documents() == stack.corpus.documents()
    assert_same_arrays(postings(loaded.search), postings(stack.search))

    q = stack.vocab.encode(words)
    assert UNK_ID not in q
    assert loaded.search.score(q, doc_id) == stack.search.score(q, doc_id)
    assert perplexity(q, loaded.lm) == perplexity(q, stack.lm)
    assert_same_arrays(loaded.lm.to_arrays(), stack.lm.to_arrays())
    lm, built = loaded.lm, stack.lm
    assert (lm.order, lm.k, lm.n_candidates) == (built.order, built.k, built.n_candidates)

    # save -> load -> save writes the same arrays.
    again = config.with_overrides(artifacts=str(tmp_path / "again"))
    save_stack(loaded, again)
    with np.load(tmp_path / "artifacts" / STACK_FILE) as first, np.load(
        tmp_path / "again" / STACK_FILE
    ) as second:
        assert_same_arrays(
            {n: second[n] for n in second.files}, {n: first[n] for n in first.files}
        )


def test_documents_are_built_on_first_access_only(tmp_path, monkeypatch):
    built = []
    document = corpus_module.Document

    def counting_document(*fields):
        built.append(fields[0])
        return document(*fields)

    monkeypatch.setattr(corpus_module, "Document", counting_document)
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(ingest_corpus(reversed(SAMPLE_LINES)), config)
    save_stack(stack, config)
    loaded = load_stack(config)
    assert built == []
    corpus = loaded.corpus
    assert corpus["d2"] is corpus["d2"]
    assert built == ["d2"]
    assert [d.id for d in corpus.documents()] == corpus.doc_ids() == ["d3", "d2", "d1"]
    assert built == ["d2", "d3", "d1"]
    assert all(doc is corpus[doc.id] for doc in corpus.documents())


def test_run_index_is_built_on_first_lookup_only(tmp_path):
    """Building, saving, loading and bundling a stack leave the n-gram
    run index unbuilt; the first perplexity builds it and later lookups
    reuse it."""
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(ingest_corpus(SAMPLE_LINES), config)
    save_stack(stack, config)
    loaded = load_stack(config)
    make_context(loaded, config)
    assert stack.lm._runs is None and loaded.lm._runs is None
    q = stack.vocab.encode(["apple", "recipe"])
    assert perplexity(q, loaded.lm) == perplexity(q, stack.lm)
    runs = loaded.lm._runs
    assert runs is not None
    loaded.lm.distribution((BOS,) * (config.lm_order - 1))
    perplexity(q, loaded.lm)
    assert loaded.lm._runs is runs


def test_corpus_digest_of_the_readme_corpus_is_unchanged(sample_stack):
    # The value archives indexed before documents were built lazily hold;
    # a different one would make them fail their fingerprint check.
    assert corpus_digest(sample_stack.corpus) == "ea20727e15f6770f"


def test_load_with_other_bm25_params_scores_like_a_fresh_build(tmp_path):
    # Unequal lengths and tf > 1, so k1 and b change the scores.
    lines = [
        json.dumps({"id": "d1", "text": "apple apple pie recipe"}),
        json.dumps({"id": "d2", "text": "apple tree orchard orchard green"}),
        json.dumps({"id": "d3", "text": "banana bread recipe"}),
    ]
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    save_stack(build_stack(ingest_corpus(lines), config), config)
    retuned = config.with_overrides(k1=0.6, b_bm25=0.2)
    loaded = load_stack(retuned)
    built = build_stack(ingest_corpus(lines), retuned)
    default = load_stack(config)
    q = built.vocab.encode(["apple", "apple", "recipe", "orchard", "zzz"])
    for doc_id in built.corpus.doc_ids():
        assert loaded.search.score(q, doc_id) == built.search.score(q, doc_id)
        assert loaded.search.score(q, doc_id) != default.search.score(q, doc_id)


def test_load_missing_artifacts_instructs(tmp_path):
    config = sample_config(artifacts=str(tmp_path / "nowhere"))
    with pytest.raises(ArtifactError, match="queryflip index"):
        load_stack(config)


def test_load_with_changed_build_config_fails(tmp_path):
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(ingest_corpus(SAMPLE_LINES), config)
    save_stack(stack, config)
    changed = config.with_overrides(lm_order=2)
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_stack(changed)


def _saved(tmp_path, **overrides):
    config = sample_config(artifacts=str(tmp_path / "artifacts"), **overrides)
    save_stack(build_stack(ingest_corpus(SAMPLE_LINES), config), config)
    return config, tmp_path / "artifacts" / STACK_FILE


def _edit_arrays(path, change):
    """Rewrite ``stack.npz`` after ``change`` edits its dict of arrays."""
    with np.load(path) as npz:
        arrays = {n: npz[n] for n in npz.files}
    change(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _edit_array(path, name, change):
    """Rewrite ``stack.npz`` with array ``name`` replaced by ``change(array)``,
    or dropped when that is None."""

    def edit(arrays):
        changed = change(arrays.pop(name))
        if changed is not None:
            arrays[name] = changed

    _edit_arrays(path, edit)


def _set(array, index, value):
    array = array.copy()
    array[index] = value
    return array


def _first_seen_rows(arrays):
    """The n-gram rows in first-seen order, one Counter per context, as
    the table was written before it was kept sorted."""
    counts, _ = reference_counts(
        build_corpus(ingest_corpus(SAMPLE_LINES), 1)[0],
        Vocabulary.from_arrays(arrays),
        arrays["lm.grams"].shape[1],
    )
    rows = [(*c, t, n) for c, counter in counts.items() for t, n in counter.items()]
    assert sorted(rows) != rows
    table = np.array(rows, dtype=np.int32)
    arrays["lm.grams"], arrays["lm.counts"] = table[:, :-1], table[:, -1]


def _target_past_candidates(arrays):
    past = len(Vocabulary.from_arrays(arrays))
    arrays["lm.grams"] = _set(arrays["lm.grams"], (-1, -1), past)


def _duplicate_first_row(arrays):
    for name in ("lm.grams", "lm.counts"):
        arrays[name] = np.concatenate([arrays[name][:1], arrays[name]])


# The first context column rises, so the first row takes the smallest value
# and the last row the largest, and the rows stay sorted.
def _context_below_bos(arrays):
    arrays["lm.grams"] = _set(arrays["lm.grams"], (0, 0), BOS - 1)


def _context_past_vocabulary(arrays):
    past = len(Vocabulary.from_arrays(arrays))
    arrays["lm.grams"] = _set(arrays["lm.grams"], (-1, 0), past)


def _token_id_past_vocabulary(arrays):
    past = len(Vocabulary.from_arrays(arrays))
    arrays["corpus.token_ids"] = _set(arrays["corpus.token_ids"], -1, past)


def _empty_row_added(arrays):
    offsets = arrays["corpus.token_offsets"]
    arrays["corpus.token_offsets"] = np.append(offsets, offsets[-1])


def _no_content_surfaces(arrays):
    # The fingerprint covers neither vocabulary table.
    arrays["vocab.surfaces"], arrays["vocab.offsets"] = pack_strings([])


def _no_documents(arrays):
    empty, start = pack_strings([])
    for name in ("ids", "texts"):
        arrays[f"corpus.{name}"], arrays[f"corpus.{name[:-1]}_offsets"] = empty, start
    arrays["corpus.token_ids"] = arrays["corpus.token_ids"][:0]
    arrays["corpus.token_offsets"] = arrays["corpus.sentence_offsets"] = start


def _swap(array, i, j):
    array = array.copy()
    array[[i, j]] = array[[j, i]]
    return array


def test_load_with_changed_corpus_fails(tmp_path):
    config, path = _saved(tmp_path)
    tampered = np.frombuffer(b"tampered", dtype=np.uint8)
    _edit_array(path, "corpus.texts", lambda t: np.concatenate([tampered, t[8:]]))
    with pytest.raises(ArtifactError, match="fingerprint"):
        load_stack(config)


@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda p: p.write_bytes(p.read_bytes()[:-100]), "truncated or not an npz"),
        (lambda p: p.write_text("not a zip"), "truncated or not an npz"),
        (lambda p: _edit_array(p, "lm.grams", lambda a: None), "missing array"),
        (lambda p: _edit_array(p, "embed.vectors", lambda a: a[:-1]), "vector rows"),
        (lambda p: _edit_array(p, "embed.vectors", lambda a: a.astype(np.float32)),
         "vectors must be a 2-d float64 array, not 2-d float32"),
        (lambda p: _edit_array(p, "lm.counts", lambda a: a[:-1]), "rows but counts"),
        (lambda p: _edit_array(p, "lm.grams", lambda a: a[:, 1:]), "order-1"),
        (lambda p: _edit_arrays(p, _first_seen_rows), "sorted strictly"),
        (lambda p: _edit_arrays(p, _duplicate_first_row), "sorted strictly"),
        (lambda p: _edit_arrays(p, _target_past_candidates), "outside the candidate ids"),
        (lambda p: _edit_array(p, "lm.grams", lambda a: _set(a, (0, -1), UNK_ID)), "outside"),
        (lambda p: _edit_array(p, "lm.counts", lambda a: _set(a, 0, 0)), "counts must be"),
        (lambda p: _edit_arrays(p, _context_below_bos), "context outside the vocabulary"),
        (lambda p: _edit_arrays(p, _context_past_vocabulary), "context outside the vocabulary"),
        (lambda p: _edit_array(p, "corpus.token_ids", lambda a: None), "missing array"),
        (lambda p: _edit_array(p, "corpus.token_ids", lambda a: a.astype(float)), "integer"),
        (lambda p: _edit_array(p, "corpus.token_offsets", lambda a: a[None]), "1-d"),
        (lambda p: _edit_array(p, "corpus.token_ids", lambda a: _set(a, 0, 1)), r"\[2, 10\)"),
        (lambda p: _edit_arrays(p, _token_id_past_vocabulary), r"\[2, 10\)"),
        (lambda p: _edit_array(p, "corpus.token_ids", lambda a: np.append(a, a[0])), "offsets"),
        (lambda p: _edit_array(p, "corpus.token_offsets", lambda a: _set(a, 0, 1)), "offsets"),
        (lambda p: _edit_array(p, "corpus.token_offsets", lambda a: _swap(a, 1, 2)), "offsets"),
        (lambda p: _edit_array(p, "corpus.token_ids", lambda a: a[:-1]), "offsets"),
        (lambda p: _edit_arrays(p, _empty_row_added), "4 rows of token ids for 3"),
        (lambda p: _edit_array(p, "corpus.sentence_offsets", lambda a: None),
         "missing array 'corpus.sentence_offsets'; re-run `queryflip index`"),
        (lambda p: _edit_array(p, "corpus.sentence_offsets", lambda a: a.astype(float)),
         "integer"),
        (lambda p: _edit_array(p, "corpus.sentence_offsets", lambda a: _swap(a, 1, 2)),
         "sentence offsets must rise"),
        (lambda p: _edit_array(p, "corpus.sentence_offsets", lambda a: np.delete(a, 1)),
         "every document bound"),
        (lambda p: _edit_array(p, "corpus.sentence_offsets", lambda a: np.append(a, 10)),
         "sentence offsets must rise strictly from 0 to 9"),
        (lambda p: _edit_array(p, "corpus.sentence_offsets", lambda a: a[:-1]),
         "sentence offsets must rise strictly from 0 to 9"),
        (lambda p: _edit_array(p, "lm.counts", lambda a: _set(a.astype(float), 0, 1.5)),
         "integer arrays"),
        (lambda p: _edit_array(p, "lm.grams", lambda a: _set(a.astype(float), (0, 0), 2.5)),
         "integer arrays"),
        (lambda p: _edit_array(p, "lm.grams", lambda a: _set(a.astype(float), (0, -1), 2.5)),
         "integer arrays"),
        (lambda p: _edit_array(p, "vocab.surfaces", lambda a: a.astype(np.int64)),
         "string buffer must be uint8, not int64"),
        (lambda p: _edit_array(p, "corpus.texts", lambda a: _set(a, 0, 0xFF)),
         "malformed .*'utf-8' codec can't decode byte 0xff"),
        (lambda p: _edit_array(p, "embed.vectors", lambda a: a * 2),
         "malformed .*: all stored vectors must be unit-norm$"),
        (lambda p: _edit_array(p, "embed.vectors", lambda a: np.ones((len(a), 1))),
         "malformed .*: dim must be >= 2$"),
        (lambda p: _edit_arrays(p, _no_content_surfaces),
         "malformed .*: candidate vocabulary is empty$"),
        (lambda p: _edit_arrays(p, _no_documents), "malformed .*: empty corpus$"),
    ],
    ids=[
        "truncated", "not_zip", "missing_array", "vector_rows", "embed_vectors_float32",
        "lm_counts_length", "lm_context_width",
        "lm_first_seen_order", "lm_duplicate_row", "lm_target_past_candidates",
        "lm_target_special", "lm_zero_count", "lm_context_below_bos",
        "lm_context_past_vocabulary", "token_ids_missing",
        "token_ids_float", "token_offsets_2d", "token_id_special",
        "token_id_past_vocabulary", "token_ids_past_offsets",
        "token_offsets_start_above_zero", "token_offsets_fall",
        "token_offsets_past_ids", "token_rows_past_documents",
        "sentence_offsets_missing", "sentence_offsets_float", "sentence_offsets_fall",
        "sentence_offsets_skip_document_bound", "sentence_offsets_past_end",
        "sentence_offsets_short_of_end", "lm_counts_float", "lm_contexts_float",
        "lm_targets_float",
        "vocab_surfaces_int64", "corpus_texts_not_utf8", "embed_vectors_not_unit_norm",
        "embed_vectors_one_column", "vocab_no_content_surfaces", "corpus_no_documents",
    ],
)
def test_load_rejects_bad_artifact(tmp_path, damage, match):
    config, path = _saved(tmp_path)
    damage(path)
    with pytest.raises(ArtifactError, match=match):
        load_stack(config)


def _declare_shape(path, name, shape):
    """Rewrite member ``name`` of ``stack.npz`` with its header declaring
    ``shape``; its data stays as saved."""
    with zipfile.ZipFile(path) as archive:
        members = {n: archive.read(n) for n in archive.namelist()}
    member = io.BytesIO(members[name])
    assert np.lib.format.read_magic(member) == (1, 0)
    _, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header,
        {"shape": shape, "fortran_order": fortran_order,
         "descr": np.lib.format.dtype_to_descr(dtype)},
    )
    members[name] = header.getvalue() + member.read()
    with zipfile.ZipFile(path, "w") as archive:
        for n, data in members.items():
            archive.writestr(n, data)


def test_load_rejects_a_declared_shape_past_memory(tmp_path):
    """A member whose header declares 256 TiB, past a 47-bit address space
    even where memory is overcommitted, fails where the archive is read,
    before numpy reaches its data."""
    config, path = _saved(tmp_path)
    _declare_shape(path, "lm.counts.npy", (2**46,))
    with pytest.raises(ArtifactError, match=r"^malformed .*: Unable to allocate 256\. TiB"):
        load_stack(config)


@pytest.mark.parametrize("name", list(MALFORMED_TABLES))
def test_load_rejects_each_malformed_table_with_its_message(tmp_path, name):
    """Each table NgramLM rejects fails the load as ArtifactError, with
    NgramLM's own message."""
    damage, message = MALFORMED_TABLES[name]
    config, path = _saved(tmp_path)

    def edit(arrays):
        n = Vocabulary.from_arrays(arrays).content_size
        arrays["lm.grams"], arrays["lm.counts"] = damage(
            arrays["lm.grams"], arrays["lm.counts"], n
        )

    _edit_arrays(path, edit)
    with pytest.raises(ArtifactError, match=f"^malformed .*: {re.escape(message)}$"):
        load_stack(config)


@pytest.mark.parametrize(
    "name", ["last_context_column_below_bos", "last_context_column_past_vocabulary"]
)
def test_load_rejects_a_context_id_out_of_range_past_int64_keys(tmp_path, name):
    """An archive whose fingerprint names an order past int64 keys fails
    the load as ArtifactError with the order's own message, before its
    table, here with a context id out of range, is read."""
    damage, _ = MALFORMED_TABLES[name]
    config, path = _saved(tmp_path)
    vocab = load_stack(config).vocab
    rejected = config.with_overrides(lm_order=_REJECTED_ORDER)

    def edit(arrays):
        arrays["lm.grams"], arrays["lm.counts"] = damage(
            arrays["lm.grams"], arrays["lm.counts"], vocab.content_size
        )
        corpus = Corpus.from_arrays(arrays)
        arrays["fingerprint"] = np.array(build_fingerprint(rejected, corpus))

    _edit_arrays(path, edit)
    message = _order_message(_REJECTED_ORDER, len(vocab), _past(vocab) - 1)
    with pytest.raises(ArtifactError, match=f"^malformed .*: {re.escape(message)}$"):
        load_stack(rejected)


@pytest.mark.parametrize("duplicate", [False, True], ids=["empty_surface", "duplicate_surface"])
def test_load_rejects_each_malformed_vocabulary_with_its_message(tmp_path, duplicate):
    """A vocabulary ``Vocabulary`` rejects fails the load as ArtifactError,
    with the vocabulary's own message."""
    config, path = _saved(tmp_path)
    with np.load(path) as npz:
        surfaces = unpack_strings(npz["vocab.surfaces"], npz["vocab.offsets"])
    first = surfaces[0]
    surfaces[1] = first if duplicate else ""
    message = f"duplicate token surface: {first!r}" if duplicate else "empty token surface"

    def edit(arrays):
        arrays["vocab.surfaces"], arrays["vocab.offsets"] = pack_strings(surfaces)

    _edit_arrays(path, edit)
    with pytest.raises(ArtifactError, match=f"^malformed .*: {re.escape(message)}$"):
        load_stack(config)


@pytest.mark.parametrize(
    "change, found",
    [
        (lambda a: a + 1, STACK_FORMAT + 1),
        (lambda a: a - 1, STACK_FORMAT - 1),
        (lambda a: None, "none"),
    ],
    ids=["wrong_number", "previous_number", "missing_number"],
)
def test_load_checks_the_archive_format_first(tmp_path, change, found):
    config, path = _saved(tmp_path)
    # An array is missing too: the format number is checked before it.
    _edit_array(path, "corpus.sentence_offsets", lambda a: None)
    _edit_array(path, "format", change)
    with pytest.raises(ArtifactError) as excinfo:
        load_stack(config)
    assert str(excinfo.value) == (
        f"{STACK_FILE} archive format {found}, this build reads {STACK_FORMAT}; "
        "run `queryflip index`"
    )


# Each string buffer of the archive, by the name of its offsets.
STRING_BUFFERS = {
    "corpus.id_offsets": "corpus.ids",
    "corpus.text_offsets": "corpus.texts",
    "vocab.offsets": "vocab.surfaces",
}


@pytest.mark.parametrize("offsets", list(STRING_BUFFERS))
def test_load_rejects_byte_offsets_over_non_ascii_text(tmp_path, offsets):
    """Format 1 cut its string buffers at byte offsets. Over text with a
    multi-byte character they end past the decoded text, so such a member
    fails whatever the archive's format number says."""
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    save_stack(build_stack(WIDE_RECORDS, config), config)

    def to_byte_offsets(arrays):
        strings = unpack_strings(arrays[STRING_BUFFERS[offsets]], arrays[offsets])
        widths = [len(s.encode("utf-8")) for s in strings]
        assert widths != [len(s) for s in strings]
        arrays[offsets] = np.cumsum([0] + widths, dtype=np.int64)

    _edit_arrays(tmp_path / "artifacts" / STACK_FILE, to_byte_offsets)
    with pytest.raises(ArtifactError, match="string offsets must rise within"):
        load_stack(config)


def test_beam_and_query_time_params_do_not_invalidate_artifacts(tmp_path):
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(ingest_corpus(SAMPLE_LINES), config)
    save_stack(stack, config)
    retuned = config.with_overrides(beam=20, lam=0.9, k1=0.9)
    loaded = load_stack(retuned)
    assert loaded.fingerprint == stack.fingerprint
