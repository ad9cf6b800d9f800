"""Span recorder for the traced benchmark run.

The tracer wraps public functions of the ``queryflip`` modules from the
outside: each wrapped name is replaced in every ``queryflip`` module that
holds it (``check_flip`` lives in both ``editor`` and ``evaluation``),
and methods are replaced on their class. Nothing under ``src/`` knows it
is being traced.

A span records its id, parent span id, edit id, name, start, end and
whether it returned normally. Parents are tracked per thread, because
evaluation may run edits on worker threads. ``evaluation.run_method``
starts a new edit; spans on the same thread after it (the metric calls)
keep its edit id, and ``evaluation.evaluate`` belongs to no edit. Very
hot, very cheap functions (``idf``, ``tokenize``, ``distribution``) are
counted instead of spanned, so that the trace stays small enough to keep
in memory.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np

from queryflip import corpus, editor, embed, evaluation, lm, masker, pipeline, remote, text

# (owner, attribute, span name); owner is a module or a class.
SPANNED = (
    (text, "build_vocabulary", "text.build_vocabulary"),
    (corpus, "ingest_corpus", "corpus.ingest_corpus"),
    (corpus, "build_index", "corpus.build_index"),
    (corpus.Bm25SearchModel, "score", "corpus.score"),
    (embed, "train_embeddings", "embed.train_embeddings"),
    (embed.EmbeddingTable, "vectors_for", "embed.vectors_for"),
    (lm, "train_ngram", "lm.train_ngram"),
    (lm, "perplexity", "lm.perplexity"),
    (lm.NgramPredictor, "predict", "lm.predict"),
    (masker, "maxsim_importance", "masker.maxsim_importance"),
    (masker, "occlusion_importance", "masker.occlusion_importance"),
    (editor, "edit", "editor.edit"),
    (editor, "select_final", "editor.select_final"),
    (evaluation, "cos_sim_metric", "evaluation.cos_sim_metric"),
    (evaluation, "bertscore_f1", "evaluation.bertscore_f1"),
    (evaluation, "fluency_metric", "evaluation.fluency_metric"),
    (pipeline, "build_stack", "pipeline.build_stack"),
    (pipeline, "save_stack", "pipeline.save_stack"),
    (pipeline, "load_stack", "pipeline.load_stack"),
    (pipeline, "make_context", "pipeline.make_context"),
)

COUNTED = (
    (text, "tokenize", "text.tokenize"),
    (corpus.Bm25SearchModel, "idf", "corpus.idf"),
)

METRIC_SPANS = (
    "evaluation.cos_sim_metric",
    "evaluation.bertscore_f1",
    "evaluation.fluency_metric",
)


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float, bool]] = []
        self._ids = itertools.count()
        self._edits = itertools.count()
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._contexts: dict = {}

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.edit = -1
            local.counts = Counter()
            self._thread_counts.append(local.counts)  # list.append is atomic
        return local

    def add(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    @property
    def counts(self) -> Counter:
        total: Counter = Counter()
        for counts in self._thread_counts:
            total.update(counts)
        return total

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str | Callable[..., str], fn, edit: str = "inherit"):
        """Wrap ``fn`` in a span.

        ``edit="new"`` starts an edit, ``edit="none"`` marks a span outside
        any edit; other spans take the thread's current edit.
        """
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._state()
            if edit == "new":
                local.edit = next(self._edits)
            elif edit == "none":
                local.edit = -1
            edit_id = local.edit
            label = name(*args) if callable(name) else name
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, edit_id, label, start, end, ok))

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def _distribution(self, fn):
        """Count calls and the ones whose context was already seen."""
        seen = self._contexts

        @functools.wraps(fn)
        def distribution(model, context):
            mine = object()
            # dict.setdefault is one atomic step under the interpreter lock.
            if seen.setdefault(context, mine) is not mine:
                self.add("lm.distribution.repeats")
            self.add("lm.distribution.calls")
            return fn(model, context)

        return distribution

    def _expand_beam(self, fn):
        @functools.wraps(fn)
        def expand_beam(beam, distributions):
            out = fn(beam, distributions)
            self.add("editor.beam_candidates", len(out.candidates))
            return out

        return self.span("editor.expand_beam", expand_beam)

    def _check_flip(self, fn):
        @functools.wraps(fn)
        def check_flip(candidate_ids, triplet, scorer):
            flipped = fn(candidate_ids, triplet, scorer)
            if flipped:
                self.add("editor.check_flip.flips")
            return flipped

        return self.span("editor.check_flip", check_flip)

    def _call_backend(self, fn):
        return self.span(lambda endpoint, request: f"remote.{endpoint.role}", fn)

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        patches: list[tuple[object, str, object]] = []
        self._contexts.clear()  # each pass starts on a freshly loaded stack

        def patch(owner, attr, make) -> None:
            original = vars(owner)[attr]
            wrapped = make(original)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                return
            for module in _queryflip_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, original))
                        setattr(module, key, wrapped)

        for owner, attr, name in SPANNED:
            patch(owner, attr, lambda fn, name=name: self.span(name, fn))
        for owner, attr, name in COUNTED:
            patch(owner, attr, lambda fn, name=name: self.counted(name, fn))
        patch(evaluation, "evaluate",
              lambda fn: self.span("evaluation.evaluate", fn, edit="none"))
        patch(evaluation, "run_method",
              lambda fn: self.span("evaluation.run_method", fn, edit="new"))
        patch(lm.NgramLM, "distribution", self._distribution)
        patch(editor, "expand_beam", self._expand_beam)
        patch(editor, "check_flip", self._check_flip)
        patch(remote, "call_backend", self._call_backend)
        patches.append((remote, "requests", remote.requests))
        remote.requests = _CountingRequests(self, remote.requests)
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end, _ in self.spans:
            out[name] += end - start - child[sid]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, _, n, start, end, _ in self.spans if n == name]

    def nesting_violations(self) -> int:
        """Spans not inside their parent's interval or edit."""
        by_id = {s[0]: s for s in self.spans}
        bad = 0
        for _, parent, edit_id, _, start, end, _ in self.spans:
            if parent < 0:
                continue
            p = by_id.get(parent)
            if p is None or not p[4] <= start <= end <= p[5]:
                bad += 1
            elif p[2] >= 0 and p[2] != edit_id:
                bad += 1
        return bad

    def failed(self, prefix: str) -> int:
        return sum(1 for s in self.spans if s[3].startswith(prefix) and not s[6])

    def save(self, path: str) -> None:
        """Write every span as columns of one ``.npz`` file."""
        names = sorted({s[3] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) or [()] * 7
        np.savez_compressed(
            path,
            span_id=np.array(cols[0], dtype=np.int64),
            parent=np.array(cols[1], dtype=np.int64),
            edit=np.array(cols[2], dtype=np.int64),
            name=np.array([code[n] for n in cols[3]], dtype=np.int32),
            start=np.array(cols[4], dtype=np.float64),
            end=np.array(cols[5], dtype=np.float64),
            ok=np.array(cols[6], dtype=bool),
            names=np.array(names),
        )


class _CountingRequests:
    """Stands in for ``requests`` inside ``queryflip.remote``; counts posts."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def post(self, *args, **kwargs):
        self._tracer.add("remote.http_attempts")
        return self._real.post(*args, **kwargs)


def _queryflip_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "queryflip" or n.startswith("queryflip."))]

