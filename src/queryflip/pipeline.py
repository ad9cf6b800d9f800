"""Build, persist, and load the full model stack; wire up eval contexts.

The stack bundles everything derived from one corpus: the corpus with its
token ids, vocabulary, BM25 model, embedding table, and n-gram LM.
The persisted stack embeds the build fingerprint of the config and
corpus that produced it; loading with a different config is an error.
"""

from __future__ import annotations

import hashlib
import logging
import os
import zipfile
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping

import numpy as np

from .config import BackendEndpoint, RunConfig, short_hash
from .corpus import (
    Bm25SearchModel,
    Corpus,
    Document,
    build_corpus,
    build_index,
    ingest_corpus,
    open_lines,
)
from .embed import EmbeddingTable, train_embeddings
from .evaluation import EvalContext
from .lm import LocalPerplexity, NgramLM, NgramPredictor, train_ngram
from .remote import (
    RemoteEmbedder,
    RemotePerplexity,
    RemotePredictor,
    RemoteScorer,
)
from .text import UNK_ID, Vocabulary

logger = logging.getLogger(__name__)

STACK_FILE = "stack.npz"
# The layout of the arrays in STACK_FILE. A change to the arrays a build
# writes or a load reads bumps it, so an older archive fails on this number.
STACK_FORMAT = 2


class ArtifactError(RuntimeError):
    pass


@dataclass
class Stack:
    corpus: Corpus
    vocab: Vocabulary
    search: Bm25SearchModel
    table: EmbeddingTable
    lm: NgramLM
    fingerprint: str


def corpus_digest(corpus: Corpus) -> str:
    """sha256 of every ``id NUL text SOH`` in record order, UTF-8 encoded,
    cut to 16 hex digits."""
    records = corpus.records
    fields = zip(records, repeat("\x00"), records.values(), repeat("\x01"))
    packed = "".join(chain.from_iterable(fields)).encode("utf-8")
    return hashlib.sha256(packed).hexdigest()[:16]


def build_fingerprint(config: RunConfig, corpus: Corpus) -> str:
    """sha256 of the config fields that determine artifact contents and
    the corpus digest, as canonical JSON, cut to 16 hex digits."""
    build = {
        "min_count": config.min_count,
        "embed_dim": config.embed_dim,
        "embed_window": config.embed_window,
        "lm_order": config.lm_order,
        "lm_k": config.lm_k,
    }
    return short_hash({"build": build, "corpus": corpus_digest(corpus)})


def build_stack(records: Mapping[str, str], config: RunConfig) -> Stack:
    """Derive every model artifact from ingested ``{id: text}`` records.

    ``train_embeddings`` lowers ``config.embed_dim`` to the co-occurrence
    rank, so small corpora still index cleanly.
    """
    corpus, vocab = build_corpus(records, config.min_count)
    search = build_index(corpus, config.k1, config.b_bm25)
    table = train_embeddings(corpus, vocab, config.embed_dim, config.embed_window)
    lm = train_ngram(corpus, vocab, order=config.lm_order, k=config.lm_k)
    return Stack(corpus, vocab, search, table, lm, build_fingerprint(config, corpus))


def build_stack_from_file(path: str, config: RunConfig) -> Stack:
    with open_lines(path) as fh:
        return build_stack(ingest_corpus(fh), config)


# ---------------------------------------------------------------------------
# Persistence
#
# The whole stack lives in one uncompressed ``.npz``: its format number, one
# build fingerprint and the arrays each component writes with ``to_arrays``
# and reads back with ``from_arrays``. The BM25 postings are not stored:
# load counts them from the corpus's token ids with the ``build_index`` the
# build uses, and their idf and impacts follow k1 and b, which the
# fingerprint leaves out. The n-gram settings are not stored either: the
# fingerprint holds ``lm_order`` and ``lm_k``, so the config's values are
# the build's, and the candidates are the vocabulary's content tokens. The
# loader checks the format number first, then what one component cannot:
# vector rows and the corpus's token ids against the vocabulary.


def save_stack(stack: Stack, config: RunConfig) -> None:
    """Write the stack atomically: a reader sees the old file or the new one."""
    os.makedirs(config.artifacts, exist_ok=True)
    path = os.path.join(config.artifacts, STACK_FILE)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        # Keyword arguments, so two components writing one name is a TypeError.
        np.savez(
            fh,
            format=np.array(STACK_FORMAT),
            fingerprint=np.array(stack.fingerprint),
            **stack.corpus.to_arrays(),
            **stack.vocab.to_arrays(),
            **stack.table.to_arrays(),
            **stack.lm.to_arrays(),
        )
    os.replace(tmp, path)
    logger.info("saved %s (fingerprint %s)", path, stack.fingerprint)


def load_stack(config: RunConfig) -> Stack:
    """Load the stack, verifying its fingerprint against the current config.

    A missing, unreadable or inconsistent file raises ArtifactError.
    """
    path = os.path.join(config.artifacts, STACK_FILE)
    if not os.path.exists(path):
        raise ArtifactError(
            f"missing artifact {STACK_FILE} in {config.artifacts}; "
            "run `queryflip index` first"
        )
    if not zipfile.is_zipfile(path):
        raise ArtifactError(f"{path} is truncated or not an npz archive")
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        found = str(arrays["format"]) if "format" in arrays else "none"
        if found != str(STACK_FORMAT):
            raise ArtifactError(
                f"{STACK_FILE} archive format {found}, this build reads "
                f"{STACK_FORMAT}; run `queryflip index`"
            )
        corpus = Corpus.from_arrays(arrays)
        expected = build_fingerprint(config, corpus)
        stored = str(arrays["fingerprint"])
        if stored != expected:
            raise ArtifactError(
                f"{STACK_FILE} fingerprint {stored} does not match current "
                f"config ({expected}); re-run `queryflip index`"
            )
        vocab = Vocabulary.from_arrays(arrays)
        table = EmbeddingTable.from_arrays(arrays)
        lm = NgramLM.from_arrays(
            arrays, config.lm_order, config.lm_k, vocab.content_size
        )
    except KeyError as exc:
        raise ArtifactError(
            f"{STACK_FILE} is missing array {exc}; re-run `queryflip index`"
        ) from exc
    except (EOFError, IndexError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"malformed {path}: {exc}") from exc
    if len(table.vectors) != len(vocab):
        raise ArtifactError(
            f"{STACK_FILE} has {len(table.vectors)} vector rows for a "
            f"vocabulary of {len(vocab)}"
        )
    token_ids = corpus.ids
    if len(token_ids) and (token_ids.min() < UNK_ID or token_ids.max() >= len(vocab)):
        raise ArtifactError(
            f"{STACK_FILE} holds corpus token ids outside [{UNK_ID}, {len(vocab)})"
        )
    search = build_index(corpus, config.k1, config.b_bm25)
    return Stack(corpus, vocab, search, table, lm, expected)


# ---------------------------------------------------------------------------
# Context assembly


def make_context(stack: Stack, config: RunConfig) -> EvalContext:
    """Bundle the stack for eval. A role that ``config.backends`` names is
    served by its remote adapter on that endpoint, any other role by the
    stack's own component."""
    endpoints = {
        role: BackendEndpoint.from_dict(role, raw)
        for role, raw in config.backends.items()
    }

    def serve(role: str, adapter, local):
        endpoint = endpoints.get(role)
        return local if endpoint is None else adapter(endpoint, stack.vocab)

    lm, predict_endpoint = stack.lm, endpoints.get("predict")

    def predictor_factory(doc: Document):
        if predict_endpoint is None:
            return NgramPredictor(lm, doc.ids, config.lam)
        return RemotePredictor(predict_endpoint, stack.vocab, doc.text)

    return EvalContext(
        vocab=stack.vocab,
        search=stack.search,
        scorer=serve("score", RemoteScorer, stack.search),
        embedder=serve("embed", RemoteEmbedder, stack.table),
        ppl_fn=serve("perplexity", RemotePerplexity, LocalPerplexity(lm, stack.corpus)),
        predictor_factory=predictor_factory,
        masker=config.masker,
        max_masks=config.max_masks,
    )
