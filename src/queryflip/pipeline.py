"""Build, persist, and load the full model stack; wire up eval contexts.

The stack bundles everything derived from one corpus: the corpus store,
vocabulary, inverted index, BM25 model, embedding table, and n-gram LM.
The persisted stack embeds the build fingerprint of the config and
corpus that produced it; loading with a different config is an error.
"""

from __future__ import annotations

import hashlib
import logging
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, build_fingerprint
from .corpus import (
    Bm25Params,
    Bm25SearchModel,
    Corpus,
    Document,
    InvertedIndex,
    build_index,
    ingest_corpus,
)
from .embed import EmbeddingTable, train_embeddings
from .evaluation import EvalContext
from .lm import NgramLM, NgramPredictor, perplexity, train_ngram
from .remote import (
    BackendEndpoint,
    RemoteEmbedder,
    RemotePerplexity,
    RemotePredictor,
    RemoteScorer,
)
from .text import (
    Vocabulary,
    build_vocabulary,
    pack_strings,
    tokenize,
    unpack_strings,
)

logger = logging.getLogger(__name__)

STACK_FILE = "stack.npz"


class ArtifactError(RuntimeError):
    pass


@dataclass
class Stack:
    corpus: Corpus
    vocab: Vocabulary
    index: InvertedIndex
    search: Bm25SearchModel
    table: EmbeddingTable
    lm: NgramLM
    fingerprint: str


def corpus_digest(corpus: Corpus) -> str:
    hasher = hashlib.sha256()
    for doc_id in corpus.doc_ids():
        doc = corpus[doc_id]
        hasher.update(doc.id.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(doc.text.encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()[:16]


def build_stack(corpus: Corpus, config: RunConfig) -> Stack:
    """Derive every model artifact from an ingested corpus.

    The embedding dimension is clamped to what the vocabulary and the
    co-occurrence rank can support, so small corpora still index cleanly.
    """
    config.validate()
    vocab = build_vocabulary(
        (doc.tokens for doc in corpus.documents()), config.min_count
    )
    index = build_index(corpus, vocab)
    search = Bm25SearchModel(corpus, index, Bm25Params(config.k1, config.b_bm25))
    dim = min(config.embed_dim, max(2, vocab.content_size))
    table = train_embeddings(corpus, vocab, dim=dim, window=config.embed_window)
    lm = train_ngram(corpus, vocab, order=config.lm_order, k=config.lm_k)
    fingerprint = build_fingerprint(config.build_params(), corpus_digest(corpus))
    return Stack(corpus, vocab, index, search, table, lm, fingerprint)


def build_stack_from_file(path: str, config: RunConfig) -> Stack:
    with open(path, encoding="utf-8") as fh:
        return build_stack(ingest_corpus(fh), config)


# ---------------------------------------------------------------------------
# Persistence
#
# The whole stack lives in one uncompressed ``.npz``: the corpus (ids and
# texts as UTF-8 buffers with offsets), one build fingerprint, and the
# arrays each component writes with ``to_arrays`` and reads back with
# ``from_arrays``. The BM25 model is cheap to rebuild and is not stored.


def save_stack(stack: Stack, config: RunConfig) -> None:
    """Write the stack atomically: a reader sees the old file or the new one."""
    os.makedirs(config.artifacts, exist_ok=True)
    ids, id_offsets = pack_strings(stack.corpus.doc_ids())
    texts, text_offsets = pack_strings(
        [doc.text for doc in stack.corpus.documents()]
    )
    corpus_arrays = {
        "corpus.ids": ids,
        "corpus.id_offsets": id_offsets,
        "corpus.texts": texts,
        "corpus.text_offsets": text_offsets,
    }
    path = os.path.join(config.artifacts, STACK_FILE)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        # Keyword arguments, so two components writing one name is a TypeError.
        np.savez(
            fh,
            fingerprint=np.array(stack.fingerprint),
            **corpus_arrays,
            **stack.vocab.to_arrays(),
            **stack.index.to_arrays(),
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
        ids = unpack_strings(arrays["corpus.ids"], arrays["corpus.id_offsets"])
        texts = unpack_strings(arrays["corpus.texts"], arrays["corpus.text_offsets"])
        corpus = Corpus(
            [Document(i, t, tuple(tokenize(t))) for i, t in zip(ids, texts)]
        )
        expected = build_fingerprint(config.build_params(), corpus_digest(corpus))
        stored = str(arrays["fingerprint"])
        if stored != expected:
            raise ArtifactError(
                f"{STACK_FILE} fingerprint {stored} does not match current "
                f"config ({expected}); re-run `queryflip index`"
            )
        vocab = Vocabulary.from_arrays(arrays)
        index = InvertedIndex.from_arrays(arrays, corpus)
        table = EmbeddingTable.from_arrays(arrays)
        lm = NgramLM.from_arrays(arrays)
    except KeyError as exc:
        raise ArtifactError(f"{STACK_FILE} is missing array {exc}") from exc
    except (EOFError, IndexError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"malformed {path}: {exc}") from exc
    if len(table.vectors) != len(vocab):
        raise ArtifactError(
            f"{STACK_FILE} has {len(table.vectors)} vector rows for a "
            f"vocabulary of {len(vocab)}"
        )
    if lm.n_candidates != vocab.content_size:
        raise ArtifactError(
            f"{STACK_FILE} n-gram model has {lm.n_candidates} candidates for "
            f"{vocab.content_size} content tokens"
        )
    search = Bm25SearchModel(corpus, index, Bm25Params(config.k1, config.b_bm25))
    return Stack(corpus, vocab, index, search, table, lm, expected)


# ---------------------------------------------------------------------------
# Context assembly


def make_context(stack: Stack, config: RunConfig) -> EvalContext:
    """Bundle the stack (plus any configured remote backends) for eval."""
    config.validate()
    endpoints = {
        role: BackendEndpoint.from_dict(role, raw)
        for role, raw in config.backends.items()
    }

    scorer = stack.search
    if "score" in endpoints:
        scorer = RemoteScorer(endpoints["score"], stack.vocab)

    embedder = stack.table
    if "embed" in endpoints:
        embedder = RemoteEmbedder(endpoints["embed"], stack.vocab)

    if "perplexity" in endpoints:
        ppl_fn = RemotePerplexity(endpoints["perplexity"], stack.vocab)
    else:
        lm = stack.lm
        ppl_fn = lambda ids: perplexity(ids, lm)  # noqa: E731

    if "predict" in endpoints:
        predict_endpoint = endpoints["predict"]

        def predictor_factory(doc: Document):
            return RemotePredictor(predict_endpoint, stack.vocab, doc.text)

    else:

        def predictor_factory(doc: Document):
            return NgramPredictor(
                stack.lm, stack.vocab.encode(doc.tokens), config.lam
            )

    return EvalContext(
        vocab=stack.vocab,
        search=stack.search,
        scorer=scorer,
        embedder=embedder,
        ppl_fn=ppl_fn,
        predictor_factory=predictor_factory,
        masker=config.masker,
    )
