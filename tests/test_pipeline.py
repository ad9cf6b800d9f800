from __future__ import annotations

import numpy as np
import pytest

from queryflip.config import RunConfig
from queryflip.corpus import ingest_corpus
from queryflip.lm import perplexity
from queryflip.pipeline import (
    STACK_FILE,
    ArtifactError,
    build_stack,
    load_stack,
    save_stack,
)

from conftest import SAMPLE_LINES, sample_config


def test_config_round_trips_through_json(tmp_path):
    config = RunConfig(beam=7, lam=0.25, backends={"score": {"url": "http://x"}})
    path = tmp_path / "config.json"
    config.save(str(path))
    loaded = RunConfig.from_file(str(path))
    assert loaded == config
    assert loaded.to_dict() == config.to_dict()


def test_config_validation_names_field():
    with pytest.raises(ValueError, match="beam"):
        RunConfig(beam=0).validate()
    with pytest.raises(ValueError, match="top_k"):
        RunConfig(top_k=1).validate()
    with pytest.raises(ValueError, match="timing"):
        RunConfig(timing="cpu").validate()
    with pytest.raises(ValueError, match="nope"):
        RunConfig.from_dict({"nope": 1})


def test_config_hash_ignores_workers():
    one = RunConfig(workers=1)
    many = RunConfig(workers=8)
    assert one.config_hash() == many.config_hash()
    assert one.config_hash() != RunConfig(beam=3).config_hash()


def test_overrides_revalidate():
    config = RunConfig()
    assert config.with_overrides(beam=4).beam == 4
    assert config.with_overrides(beam=None).beam == config.beam
    with pytest.raises(ValueError, match="beam"):
        config.with_overrides(beam=-1)


def test_save_load_round_trip(tmp_path):
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(ingest_corpus(SAMPLE_LINES), config)
    save_stack(stack, config)
    loaded = load_stack(config)

    assert loaded.fingerprint == stack.fingerprint
    assert loaded.corpus.doc_ids() == stack.corpus.doc_ids()
    assert loaded.vocab.content_surfaces() == stack.vocab.content_surfaces()
    assert np.array_equal(loaded.table.vectors, stack.table.vectors)
    assert loaded.index.postings == stack.index.postings

    q = stack.vocab.encode(["apple", "recipe"])
    assert loaded.search.score(q, "d1") == stack.search.score(q, "d1")
    assert perplexity(q, loaded.lm) == perplexity(q, stack.lm)
    saved, read = stack.lm.to_arrays(), loaded.lm.to_arrays()
    assert all(np.array_equal(saved[name], read[name]) for name in saved)


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


def _saved(tmp_path):
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    save_stack(build_stack(ingest_corpus(SAMPLE_LINES), config), config)
    return config, tmp_path / "artifacts" / STACK_FILE


def _edit_array(path, name, change):
    """Rewrite ``stack.npz`` with array ``name`` replaced by ``change(array)``,
    or dropped when that is None."""
    with np.load(path) as npz:
        arrays = {n: npz[n] for n in npz.files}
    changed = change(arrays.pop(name))
    if changed is not None:
        arrays[name] = changed
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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
        (lambda p: _edit_array(p, "lm.targets", lambda a: None), "missing array"),
        (lambda p: _edit_array(p, "embed.vectors", lambda a: a[:-1]), "vector rows"),
        (lambda p: _edit_array(p, "lm.n_candidates", lambda a: a + 1), "candidates"),
    ],
    ids=["truncated", "not_zip", "missing_array", "vector_rows", "lm_candidates"],
)
def test_load_rejects_bad_artifact(tmp_path, damage, match):
    config, path = _saved(tmp_path)
    damage(path)
    with pytest.raises(ArtifactError, match=match):
        load_stack(config)


def test_beam_and_query_time_params_do_not_invalidate_artifacts(tmp_path):
    config = sample_config(artifacts=str(tmp_path / "artifacts"))
    stack = build_stack(ingest_corpus(SAMPLE_LINES), config)
    save_stack(stack, config)
    retuned = config.with_overrides(beam=20, lam=0.9, k1=0.9)
    loaded = load_stack(retuned)
    assert loaded.fingerprint == stack.fingerprint
