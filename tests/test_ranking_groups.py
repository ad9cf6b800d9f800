"""Shared work in evaluation: the work of each ranking (query, top
document) and of each target document is done once, and sharing never
changes a record.

``build_triplets`` emits one ranking as a run of triplets with the same
query and top document. ``beam_sweep`` (and so ``evaluate``) computes the
importance, ppl(q) and q's vectors once per ranking, and d''s predictor
once per target document, wherever their triplets stand in the input; the
tests below count those calls with wrapped components and compare the
records with those of evaluating every triplet alone.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queryflip import evaluation
from queryflip import lm as lm_module
from queryflip.config import RunConfig
from queryflip.corpus import ingest_corpus
from queryflip.evaluation import (
    METHODS,
    beam_sweep,
    bertscore_f1,
    build_triplets,
    cos_sim_metric,
    evaluate,
    fluency_metric,
    reports_to_json,
)
from queryflip.lm import LocalPerplexity
from queryflip.pipeline import build_stack, make_context
from queryflip.text import MASK_ID, tokenize

from stub_backend import StubBackendServer
from synthdata import synthetic_corpus, synthetic_queries

N_QUERIES = 8


@pytest.fixture(scope="module")
def synth_small():
    """The acceptance corpus with its first queries: top-5 rankings, so
    each query gives a run of up to four triplets."""
    config = RunConfig(embed_dim=48, timing="off")
    stack = build_stack(ingest_corpus(synthetic_corpus()), config)
    ctx = make_context(stack, config)
    triplets = []
    for query in synthetic_queries()[:N_QUERIES]:
        ranking = stack.search.search(stack.vocab.encode(tokenize(query)), config.top_k)
        triplets.extend(build_triplets(ranking, stack.corpus))
    return stack, ctx, triplets


class CountingPpl:
    """Counts calls per sequence and the threads that made them; with
    ``delay_s``, each call sleeps first, so worker threads overlap."""

    def __init__(self, ppl_fn, delay_s=0.0):
        self.ppl_fn = ppl_fn
        self.delay_s = delay_s
        self.calls: Counter = Counter()
        self.threads: set[int] = set()
        self._lock = threading.Lock()

    def __call__(self, ids):
        with self._lock:
            self.calls[tuple(ids)] += 1
            self.threads.add(threading.get_ident())
        time.sleep(self.delay_s)
        return self.ppl_fn(ids)


class CountingEmbedder:
    def __init__(self, embedder, delay_s=0.0):
        self.embedder = embedder
        self.delay_s = delay_s
        self.calls: Counter = Counter()
        self._lock = threading.Lock()

    def vectors_for(self, ids):
        with self._lock:
            self.calls[tuple(ids)] += 1
        time.sleep(self.delay_s)
        return self.embedder.vectors_for(ids)


def _counting(ctx, masker="maxsim", delay_s=0.0):
    return dataclasses.replace(
        ctx,
        ppl_fn=CountingPpl(ctx.ppl_fn, delay_s),
        embedder=CountingEmbedder(ctx.embedder, delay_s),
        masker=masker,
    )


@pytest.fixture()
def importance_calls(monkeypatch):
    """Count every importance computation, whichever masker runs."""
    calls: Counter = Counter()
    lock = threading.Lock()
    for name in ("maxsim_importance", "occlusion_importance"):
        original = getattr(evaluation, name)

        def counted(query_ids, *args, _original=original, **kwargs):
            with lock:
                calls[tuple(query_ids)] += 1
            return _original(query_ids, *args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    return calls


def ranking_runs(triplets):
    """Maximal runs of consecutive triplets with equal query and top
    document, as ``(input index, triplet)`` pairs."""
    return [
        list(run)
        for _, run in groupby(
            enumerate(triplets), key=lambda item: (item[1].query_ids, item[1].d.id)
        )
    ]


def _alone(records):
    """Records as evaluating each triplet alone gives them: index 0."""
    return [dataclasses.replace(r, index=0, elapsed=0.0) for r in records]


def _per_triplet(triplets, method, ctx):
    return [evaluate([t], method, ctx, beam_width=5, timing="off").records[0]
            for t in triplets]


@pytest.mark.parametrize("masker", ["maxsim", "occlusion"])
@pytest.mark.parametrize("method", ["cfe2", "mask_only"])
def test_importance_runs_once_per_ranking_group(
    synth_small, importance_calls, method, masker
):
    _, ctx, triplets = synth_small
    ctx = _counting(ctx, masker)
    evaluate(triplets, method, ctx, beam_width=5, timing="off")
    assert sum(importance_calls.values()) == len(ranking_runs(triplets))


@pytest.mark.parametrize("method", METHODS)
def test_each_group_asks_each_perplexity_once(synth_small, method):
    _, ctx, triplets = synth_small
    for group in ranking_runs(triplets):
        counting = _counting(ctx)
        report = evaluate([t for _, t in group], method, counting,
                          beam_width=5, timing="off")
        calls = counting.ppl_fn.calls
        assert not calls or max(calls.values()) == 1, calls
        solved = any(r.outcome is not None for r in report.records)
        assert calls[group[0][1].query_ids] == (1 if solved else 0)


@pytest.mark.parametrize("method", METHODS)
def test_sweep_pays_at_each_size_what_evaluate_pays(
    synth_small, importance_calls, method
):
    # Each size is charged its own shared work, so a sweep's runtime per
    # size measures what an evaluate at that size costs.
    _, ctx, triplets = synth_small
    sizes = [3, 5, 8]
    swept = _counting(ctx)
    beam_sweep(triplets, sizes, swept, workers=1, timing="off", method=method)
    swept_importance = +importance_calls
    importance_calls.clear()
    ppl: Counter = Counter()
    vectors: Counter = Counter()
    for size in sizes:
        alone = _counting(ctx)
        evaluate(triplets, method, alone, beam_width=size, timing="off")
        ppl += alone.ppl_fn.calls
        vectors += alone.embedder.calls
    assert swept.ppl_fn.calls == ppl
    assert swept.embedder.calls == vectors
    assert swept_importance == importance_calls


@pytest.mark.parametrize("method", METHODS)
def test_workers_share_one_group_without_asking_twice(
    synth_small, importance_calls, method
):
    # Slow backends and a short switch interval make the worker threads
    # (more than there are cores) overlap inside one group: the triplets
    # still run in parallel, and each shared value is still computed
    # once, by whichever thread asks first.
    _, ctx, triplets = synth_small
    group = [t for _, t in max(ranking_runs(triplets), key=len)]
    counting = _counting(ctx, delay_s=0.002)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            report = runner.submit(
                evaluate, group, method, counting, beam_width=5, timing="off",
                workers=len(group),
            ).result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert max(counting.ppl_fn.calls.values()) == 1, counting.ppl_fn.calls
    assert max(counting.embedder.calls.values(), default=1) == 1
    assert sum(importance_calls.values()) == (0 if method == "max_flip" else 1)
    assert len(counting.ppl_fn.threads) > 1
    assert report.records == evaluate(group, method, ctx, beam_width=5,
                                      timing="off").records


def test_query_and_document_vectors_asked_once_per_group(synth_small):
    stack, ctx, triplets = synth_small
    for group in ranking_runs(triplets):
        counting = _counting(ctx)
        evaluate([t for _, t in group], "cfe2", counting, beam_width=5, timing="off")
        first = group[0][1]
        calls = counting.embedder.calls
        assert calls[first.query_ids] == 1
        assert calls[first.d.ids] == 1


@pytest.mark.parametrize("method", METHODS)
def test_grouped_records_match_per_triplet_records(synth_small, method):
    _, ctx, triplets = synth_small
    report = evaluate(triplets, method, ctx, beam_width=5, timing="off")
    assert [r.index for r in report.records] == list(range(len(triplets)))
    assert _alone(report.records) == _alone(_per_triplet(triplets, method, ctx))


def test_split_ranking_shares_one_work(synth_small, importance_calls):
    # A ranking split across the input still shares one work: importance
    # is computed once per distinct (q, d).
    _, ctx, triplets = synth_small
    first, second = (
        [t for _, t in group] for group in ranking_runs(triplets)[:2]
    )
    interleaved = [first[0], second[0], *first[1:], *second[1:]]
    runs = ranking_runs(interleaved)
    assert [len(g) for g in runs] == [1, 1, len(first) - 1, len(second) - 1]
    report = evaluate(interleaved, "cfe2", ctx, beam_width=5, timing="off")
    assert importance_calls == Counter(
        {first[0].query_ids: 1, second[0].query_ids: 1}
    )
    assert _alone(report.records) == _alone(_per_triplet(interleaved, "cfe2", ctx))


@pytest.fixture(scope="module")
def alone_records():
    """(method, triplet position) -> that triplet's record evaluated alone."""
    return {}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_order_gives_per_triplet_records_at_any_worker_count(
    synth_small, alone_records, data
):
    _, ctx, triplets = synth_small
    method = data.draw(st.sampled_from(METHODS), label="method")
    # Runs of consecutive triplets (part of one ranking or spanning two),
    # in any order, repeats allowed: so groups get split, interleaved and
    # repeated.
    segments = data.draw(
        st.lists(st.tuples(st.integers(0, len(triplets) - 1), st.integers(1, 4)),
                 min_size=1, max_size=6),
        label="segments",
    )
    order = [i for start, length in segments
             for i in range(start, min(start + length, len(triplets)))]
    ordered = [triplets[i] for i in order]
    for i in set(order):
        if (method, i) not in alone_records:
            alone_records[method, i] = _per_triplet([triplets[i]], method, ctx)[0]
    expected = [alone_records[method, i] for i in order]
    # At any worker count, importance is computed once per distinct (q, d)
    # and a predictor built once per distinct d', when the method uses them.
    rankings = Counter({(t.query_ids, t.d.ids): 1 for t in ordered})
    targets = Counter({t.d_prime.id: 1 for t in ordered})
    serial, importance, built = _counted_evaluate(ordered, method, ctx, 1)
    assert importance == (Counter() if method == "max_flip" else rankings)
    assert built == (targets if method == "cfe2" else Counter())
    parallel, importance, built = _counted_evaluate(ordered, method, ctx, 4)
    assert importance == (Counter() if method == "max_flip" else rankings)
    assert built == (targets if method == "cfe2" else Counter())
    assert serial.records == parallel.records
    assert _alone(serial.records) == expected


def _counted_evaluate(triplets, method, ctx, workers):
    """The report of ``evaluate`` at beam 5, the importance computations
    per (q, d) ids and the predictors built per d' id."""
    importance: Counter = Counter()
    built: Counter = Counter()
    lock = threading.Lock()
    maxsim, factory = evaluation.maxsim_importance, ctx.predictor_factory

    def counting_maxsim(query_ids, doc_ids, embedder):
        with lock:
            importance[tuple(query_ids), tuple(doc_ids)] += 1
        return maxsim(query_ids, doc_ids, embedder)

    def counting_factory(doc):
        with lock:
            built[doc.id] += 1
        return factory(doc)

    ctx = dataclasses.replace(ctx, predictor_factory=counting_factory)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "maxsim_importance", counting_maxsim)
        report = evaluate(triplets, method, ctx, beam_width=5, timing="off",
                          workers=workers)
    return report, importance, built


@pytest.mark.parametrize("method", ["cfe2", "max_flip"])
def test_target_work_is_freed_after_its_last_triplet(synth_small, monkeypatch, method):
    # With the cycle collector off, only reference counts free shared work:
    # the works of a ranking (q, d) and of a target d' must be gone once the
    # key's last triplet is done, so nothing that outlives them (the
    # context included) refers to them, and they are in no cycle.
    _, ctx, triplets = synth_small
    sizes = [3, 5]
    last: dict = {}
    for i, t in enumerate(triplets):
        last[t.query_ids, t.d.id] = last[t.d_prime.id] = i
    made: dict = {}  # key -> {id: weakref} of its works
    freed_early: set = set()
    record_for = evaluation._record_for

    def checked(index, triplet, method, result, work, target, elapsed):
        keys = ((triplet.query_ids, triplet.d.id), triplet.d_prime.id)
        for key, shared in zip(keys, (work, target)):
            made.setdefault(key, {})[id(shared)] = weakref.ref(shared)
        for key, refs in made.items():
            if last[key] < index:
                assert all(ref() is None for ref in refs.values()), key
                freed_early.add(key)
        return record_for(index, triplet, method, result, work, target, elapsed)

    monkeypatch.setattr(evaluation, "_record_for", checked)
    gc.disable()
    try:
        beam_sweep(triplets, sizes, ctx, workers=1, timing="off", method=method)
    finally:
        gc.enable()
    assert set(made) == set(last)
    assert all(len(refs) == len(sizes) for refs in made.values())
    rankings = {key for key in last if isinstance(key, tuple)}
    assert len(rankings) == N_QUERIES
    assert len(rankings & freed_early) == N_QUERIES - 1
    assert len(freed_early - rankings) > (len(last) - N_QUERIES) // 2
    gc.collect()
    assert all(ref() is None for refs in made.values() for ref in refs.values())


def test_each_target_document_gets_one_predictor(synth_small, monkeypatch):
    _, ctx, triplets = synth_small
    built: Counter = Counter()
    factory = ctx.predictor_factory

    def counting(doc):
        built[doc.id] += 1
        return factory(doc)

    ctx = dataclasses.replace(ctx, predictor_factory=counting)
    evaluate(triplets, "cfe2", ctx, beam_width=5, timing="off")
    assert built == Counter({t.d_prime.id: 1 for t in triplets})


@pytest.mark.parametrize("method", ["cfe2", "max_flip"])
def test_workers_share_one_target_without_asking_twice(synth_small, method):
    # Triplets of different rankings with one d', on more threads than
    # cores, with slow backends and a short switch interval: d''s
    # predictor is built once and each perplexity is asked once.
    stack, ctx, _ = synth_small
    triplets = []
    for query in synthetic_queries():
        ranking = stack.search.search(stack.vocab.encode(tokenize(query)), 10)
        triplets.extend(build_triplets(ranking, stack.corpus))
    target, _ = Counter(t.d_prime.id for t in triplets).most_common(1)[0]
    shared = [t for t in triplets if t.d_prime.id == target]
    assert len(ranking_runs(shared)) == len(shared) > 2
    built: Counter = Counter()
    factory = ctx.predictor_factory

    def slow_factory(doc):
        built[doc.id] += 1
        time.sleep(0.002)
        return factory(doc)

    counting = dataclasses.replace(_counting(ctx, delay_s=0.002),
                                   predictor_factory=slow_factory)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            report = runner.submit(
                evaluate, shared, method, counting, beam_width=5, timing="off",
                workers=len(shared),
            ).result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    if method == "max_flip":
        # Each outcome is a sentence of d', owned by d''s work: its vectors
        # are asked once across the rankings that share d', although
        # several of them end on the same sentence.
        outcomes = [r.outcome for r in report.records if r.outcome is not None]
        assert len(set(outcomes)) < len(outcomes)
        for outcome in outcomes:
            ids = tuple(stack.vocab.encode(outcome.split(" ")))
            assert counting.embedder.calls[ids] == 1, outcome
    assert max(counting.ppl_fn.calls.values()) == 1, counting.ppl_fn.calls
    assert built == (Counter({target: 1}) if method == "cfe2" else Counter())
    assert len(counting.ppl_fn.threads) > 1
    assert report.records == evaluate(shared, method, ctx, beam_width=5,
                                      timing="off").records


def test_remote_predictor_is_asked_on_every_predict(synth_small):
    # A remote model may read the query to the right of the slot, so
    # its answers are never reused: each predict is one request.
    stack, _, triplets = synth_small
    with StubBackendServer(stack, lam=0.5) as stub:
        config = RunConfig(embed_dim=48, timing="off",
                           backends={"predict": {"url": stub.base_url}})
        target = evaluation.SharedWork(make_context(stack, config))
        d_prime = triplets[0].d_prime
        predictor = target.predictor(d_prime)
        query = (MASK_ID, *triplets[0].query_ids[1:])
        answers = [predictor.predict(query, 0, 5) for _ in range(3)]
        assert target.predictor(d_prime) is predictor
        assert stub.calls == ["predict"] * 3
    assert answers[0] == answers[1] == answers[2]


def test_remote_perplexity_is_asked_once_per_sentence_per_target(synth_small):
    # A remote backend has no batch: ranking each target asks every
    # distinct sentence once, as a local ppl_fn without one does. The
    # count is pinned, so any change in what the remote role is asked
    # shows.
    stack, ctx, triplets = synth_small
    with StubBackendServer(stack, lam=0.5) as stub:
        config = RunConfig(embed_dim=48, timing="off",
                           backends={"perplexity": {"url": stub.base_url}})
        report = evaluate(triplets, "max_flip", make_context(stack, config),
                          beam_width=5, timing="off")
        asked = list(stub.calls)
    counting = _counting(ctx)
    evaluate(triplets, "max_flip", counting, beam_width=5, timing="off")
    assert asked == ["perplexity"] * 137
    assert sum(counting.ppl_fn.calls.values()) == 137
    assert report.records == evaluate(triplets, "max_flip", ctx, beam_width=5,
                                      timing="off").records


@pytest.mark.parametrize("workers", [1, 8])
def test_local_max_flip_scores_every_target_sentence_in_one_batch(
    synth_small, monkeypatch, workers
):
    # One batch per size holds the perplexity of every sentence of the
    # targets, also when worker threads (more than there are cores) ask
    # for it at once; the scalar perplexity is asked only of the queries,
    # for the fluency of an outcome. The records are those of asking per
    # sentence.
    _, ctx, triplets = synth_small
    sizes = [3, 5]
    asked, batches = Counter(), []
    scalar, batch = lm_module.perplexity, LocalPerplexity.batch

    def counted_scalar(ids, lm):
        asked[tuple(ids)] += 1
        return scalar(ids, lm)

    def counted_batch(role, doc_ids):
        batches.append(list(doc_ids))
        time.sleep(0.002)
        return batch(role, doc_ids)

    monkeypatch.setattr(lm_module, "perplexity", counted_scalar)
    monkeypatch.setattr(LocalPerplexity, "batch", counted_batch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            reports = runner.submit(
                beam_sweep, triplets, sizes, ctx, workers=workers, timing="off",
                method="max_flip",
            ).result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.undo()
    targets = list(dict.fromkeys(t.d_prime.id for t in triplets))
    assert batches == [targets] * len(sizes)
    assert asked and set(asked) <= {t.query_ids for t in triplets}
    per_sentence = _counting(ctx)
    assert reports == beam_sweep(triplets, sizes, per_sentence, workers=1,
                                 timing="off", method="max_flip")
    assert per_sentence.ppl_fn.calls.keys() > asked.keys()


@pytest.mark.parametrize("method", METHODS)
def test_records_do_not_depend_on_where_blocks_are_cut(synth_small, monkeypatch, method):
    # A block computes the metrics of its own rows' pairs, so a ranking cut
    # across blocks has its pairs computed in each, to the same floats.
    _, ctx, triplets = synth_small
    written = set()
    for rows in (1, 3, evaluation._BLOCK_ROWS):
        monkeypatch.setattr(evaluation, "_BLOCK_ROWS", rows)
        reports = beam_sweep(triplets, [5, 10], ctx, workers=1, timing="off",
                             method=method)
        written.add(tuple(reports_to_json([report]) for report in reports))
    assert len(written) == 1


def test_memoized_vectors_are_read_only(synth_small):
    # Every caller of a sequence gets the same array, so a write into it
    # would change every later metric and importance that reads it.
    _, ctx, triplets = synth_small
    work = evaluation.SharedWork(ctx)
    vectors = work.vectors_for(triplets[0].query_ids)
    assert work.vectors_for(list(triplets[0].query_ids)) is vectors
    with pytest.raises(ValueError):
        vectors[0, 0] = 1.0


@pytest.fixture(scope="module")
def synth_eval_chunk():
    """The first 125 queries of the ``synth-eval`` benchmark workload
    (seed 1, top 10): about 1,100 triplets."""
    config = RunConfig(top_k=10, timing="off")
    stack = build_stack(ingest_corpus(synthetic_corpus()), config)
    ctx = make_context(stack, config)
    triplets = []
    for query in synthetic_queries(1000, seed=1)[:125]:
        ids = stack.vocab.encode(tokenize(query))
        ranking = stack.search.search(ids, config.top_k)
        triplets.extend(build_triplets(ranking, stack.corpus))
    return stack, ctx, triplets


@pytest.mark.parametrize("method", METHODS)
def test_memoized_metrics_equal_direct_calls(synth_eval_chunk, monkeypatch, method):
    # Each record's metrics are those of calling the three functions on the
    # stack's own models with its pair alone, and in one block holding every
    # row, each kernel is handed each distinct (q, outcome) exactly once.
    stack, ctx, triplets = synth_eval_chunk
    sizes = [5, 10]
    calls = {kernel: Counter() for kernel in (cos_sim_metric, bertscore_f1)}

    def counted(kernel):
        def call(queries, edits, *rest):
            calls[kernel].update(zip(map(tuple, queries), map(tuple, edits)))
            return kernel(queries, edits, *rest)
        return call

    monkeypatch.setattr(evaluation, "_BLOCK_ROWS", len(triplets) + 1)
    monkeypatch.setattr(evaluation, "cos_sim_metric", counted(cos_sim_metric))
    monkeypatch.setattr(evaluation, "bertscore_f1", counted(bertscore_f1))
    reports = beam_sweep(triplets, sizes, ctx, workers=1, timing="off", method=method)
    monkeypatch.undo()
    idf = stack.search.idf_array(len(stack.vocab))
    distinct = set()
    for report in reports:
        for record in report.records:
            if record.outcome is None:
                continue
            q = triplets[record.index].query_ids
            outcome = tuple(stack.vocab.encode(record.outcome.split(" ")))
            distinct.add((q, outcome))
            vectors = [stack.table.vectors_for(q)], [stack.table.vectors_for(outcome)]
            assert [record.cos_sim] == cos_sim_metric([q], [outcome], idf)
            assert [record.bertscore] == bertscore_f1([q], [outcome], *vectors)
            assert record.fluency == fluency_metric(q, outcome, ctx.ppl_fn, ctx.ppl_fn)
    assert distinct
    for counter in calls.values():
        assert counter == Counter(dict.fromkeys(distinct, 1))
