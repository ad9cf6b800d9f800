"""The queryflip benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload synth-eval --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--workload all`` runs every workload, each in its own process. A run
prints its input shape and every metric with its unit and sample count,
then, as its last line, one JSON object ``{correct, attempted, failed,
metrics}``, holding the metrics ``BENCHMARK.json`` lists. With
``--trace 0`` they are the end-to-end ones, taken with nothing wrapped;
timings are given in seconds (printed) and in reference units (see
``reference_seconds``). With ``--trace 1`` they are the per-layer ones
from a traced run (see ``tracer.py``). ``README.md`` lists every metric,
what it should move, and why ``BENCHMARK.json`` gates only two workloads.

Each run calls the same ``pipeline``/``evaluation`` functions as the CLI.
Every measured pass starts from a freshly saved and loaded stack, so it
pays the cold n-gram cache a CLI invocation pays. Outputs are checked:
every non-null outcome must strictly flip its pair under the loaded
stack's BM25 model and hold no special token, and every violation counts
as a failed edit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

from queryflip import corpus, evaluation, pipeline, remote  # noqa: E402
from queryflip.config import RunConfig  # noqa: E402
from queryflip.text import MASK_TOKEN, PAD_TOKEN, UNK_TOKEN, tokenize  # noqa: E402
from synthdata import synthetic_corpus, synthetic_queries  # noqa: E402

from inputs import ZipfCorpus  # noqa: E402
from tracer import METRIC_SPANS, Tracer  # noqa: E402

METHODS = evaluation.METHODS
BEAM = 10
# One evaluation thread. With two, per-edit times mostly measured which
# thread held the interpreter lock: the synth-eval median edit time jumped
# between 0.4 and 0.8 ms from run to run, and remote-stub ran no faster
# while its run-to-run spread tripled.
WORKERS = 1
STUB_START_TIMEOUT_S = 60.0
# The known-defect probe: this many queries, each with a word that no
# workload's corpus holds.
OOV_PROBE_QUERIES = 10
OOV_WORD = "qxjw"
# Iterations of the reference loop, about 30 ms on a 2-vCPU x86 VM.
REF_LOOPS = 500_000


@dataclass(frozen=True)
class Workload:
    name: str
    queries: int
    top_k: int
    masker: str
    chunk: int  # queries per eval invocation
    setups: int  # build_stack runs per run
    # Nominal seconds one cycle (every chunk once) measures; ``--seconds``
    # divided by it, rounded, is the number of cycles a run makes.
    cycle_s: float
    zipf_words: int = 0  # 0 selects the synthetic acceptance corpus
    zipf_docs: int = 0
    min_vocab: int = 0
    remote: bool = False
    # Traced runs also trace one remote-stub invocation on the same seed,
    # so the remote layer is measured by a workload steady enough to gate.
    remote_probe: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # A build takes well under 0.1 s, so it is repeated for a steady median.
        Workload("synth-eval", queries=1000, chunk=125, top_k=10,
                 masker="maxsim", setups=9, cycle_s=10.0, remote_probe=True),
        # One build of this corpus takes 20-40 s, so it is built once,
        # which keeps a run near a minute even on a slow host. Saving and
        # loading take 3-5 s, so the whole query set is one chunk.
        Workload("zipf-4k", queries=1000, chunk=1000, top_k=5,
                 masker="occlusion", setups=1, cycle_s=10.0, zipf_words=4040,
                 zipf_docs=4000, min_vocab=4000),
        # A cfe2 edit makes about 34 round trips (~75 ms), so a chunk of
        # 5 queries (~20 triplets, all three methods) takes about 3 s.
        Workload("remote-stub", queries=40, chunk=5, top_k=5,
                 masker="maxsim", setups=4, cycle_s=24.0, remote=True),
    )
}


def make_inputs(wl: Workload, seed: int) -> tuple[list[str], list[str]]:
    """Corpus JSONL lines and query texts, a pure function of the seed."""
    if wl.zipf_words:
        gen = ZipfCorpus(wl.zipf_words, wl.zipf_docs, seed)
        return gen.corpus_lines(), gen.queries(wl.queries)
    return synthetic_corpus(), synthetic_queries(wl.queries, seed=seed)


@contextlib.contextmanager
def stub_backends(corpus_path: str):
    """Serve every backend role from a child process; yield the config.

    The child builds its own stack before it reports ready, so that
    build is outside every timing. It is always shut down and waited for.
    """
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "stub_child.py"), corpus_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([child.stdout], [], [], STUB_START_TIMEOUT_S)
        line = child.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError(f"stub backend did not start: {line!r}")
        url = line.split()[1]
        yield {role: {"url": url} for role in remote.ROLES}
    finally:
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


def percentile(values: list[float], q: int) -> float:
    """Inclusive ``q``-th percentile; 0.0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def outcome_violations(report: evaluation.EvalReport, stack: pipeline.Stack) -> int:
    """Records whose outcome does not strictly flip or holds a special token.

    ``mask_only`` drops tokens by writing ``[PAD]``, so only there is
    ``[PAD]`` allowed.
    """
    forbidden = {MASK_TOKEN, UNK_TOKEN}
    if report.method != "mask_only":
        forbidden.add(PAD_TOKEN)
    bad = 0
    for rec in report.records:
        if rec.outcome is None:
            bad += rec.flipped
            continue
        tokens = rec.outcome.split(" ")
        ids = stack.vocab.encode(tokens)
        score = stack.search.score
        if (not rec.flipped or forbidden.intersection(tokens)
                or not score(ids, rec.counter_doc_id) > score(ids, rec.doc_id)):
            bad += 1
    return bad


def report_digest(reports: list[evaluation.EvalReport]) -> str:
    """sha256 of the reports as ``timing: "off"`` would write them."""
    payload = {}
    for report in reports:
        d = report.to_dict()
        payload[report.method] = {
            **d,
            "meta": {**d["meta"], "timing": "off"},
            "aggregates": {**d["aggregates"], "mean_runtime_s": 0.0},
            "by_rank": {r: {**a, "mean_runtime_s": 0.0} for r, a in d["by_rank"].items()},
            "records": [{**rec, "elapsed": 0.0} for rec in d["records"]],
        }
    text = evaluation.canonical_json(payload)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs the kind
    of interpreter-bound work the edit loop does, right now.

    On a shared host this speed moves by a third within minutes, and every
    timing of the program moves with it. A step's time divided by the
    mean of the reference times taken just before and just after it is
    its time in reference units (ru), which holds still while the host's
    speed moves.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return time.perf_counter() - start


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(path) for name in names
    )


class Bench:
    """One workload run: its samples, operation counts and checks."""

    def __init__(self, wl: Workload, seed: int, config: RunConfig,
                 lines: list[str], queries: list[str]) -> None:
        self.wl = wl
        self.seed = seed
        self.config = config
        self.lines = lines
        self.queries = queries
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.chunks = [queries[i : i + wl.chunk] for i in range(0, len(queries), wl.chunk)]
        self.digests: dict[int, str] = {}  # chunk -> digest of its reports
        self.per_chunk: dict[int, tuple[int, int, int]] = {}  # triplets, flips, masks
        self.shape: dict[str, float] = {}
        self.stack: pipeline.Stack | None = None
        self.ref = 0.0  # the latest reference time
        self.traced_edits: Counter = Counter()
        self.traced_passes: Counter = Counter()
        self.busy: Counter = Counter()  # method -> summed per-edit elapsed
        self.walls: Counter = Counter()  # method -> summed pass wall time

    # -- steps --------------------------------------------------------------

    def _step(self, name: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        out = fn(*args)
        self.samples[name].append(time.perf_counter() - start)
        return out

    def build(self) -> pipeline.Stack:
        self.stack = None  # let the previous stack go before the next build
        stack = self._step(
            "setup_s",
            lambda: pipeline.build_stack(corpus.ingest_corpus(self.lines), self.config),
        )
        vocab = stack.vocab.content_size
        if vocab < self.wl.min_vocab:
            raise RuntimeError(f"vocabulary {vocab} is below {self.wl.min_vocab}")
        self.shape.update(
            docs=stack.corpus.n_docs,
            tokens=sum(d.length for d in stack.corpus.documents()),
            V=vocab,
        )
        self.stack = stack
        return stack

    def _ref_mean(self) -> float:
        """Take a reference time; return its mean with the one before."""
        before, self.ref = self.ref, reference_seconds()
        return (before + self.ref) / 2

    def save(self, stack: pipeline.Stack) -> None:
        self._step("save_s", pipeline.save_stack, stack, self.config)

    def load(self) -> pipeline.Stack:
        return self._step("load_s", pipeline.load_stack, self.config)

    def save_and_load(self) -> pipeline.Stack:
        """Save the built stack and load it back, timing each step in
        seconds and in reference units."""
        self.ref = reference_seconds()
        self.save(self.stack)
        self.samples["save_ru"].append(self.samples["save_s"][-1] / self._ref_mean())
        stack = self.load()
        self.samples["load_ru"].append(self.samples["load_s"][-1] / self._ref_mean())
        return stack

    def triplets(self, stack: pipeline.Stack, queries: list[str]) -> list:
        out = []
        for query in queries:
            ids = tuple(stack.vocab.encode(tokenize(query)))
            if ids:
                ranking = stack.search.search(ids, self.config.top_k)
                out.extend(evaluation.build_triplets(ranking, stack.corpus))
        return out

    def invocation(self, chunk: int, tracers: dict[str, Tracer] | None = None
                   ) -> float:
        """One CLI-sized cycle: save and load the artifacts, then every
        method on one query chunk.

        Saving and loading here, not in a burst before measuring, spreads
        their samples over the run. Returns the summed wall time of the
        three passes.
        """
        stack = self.save_and_load()
        ctx = pipeline.make_context(stack, self.config)
        triplets = self.triplets(stack, self.chunks[chunk])
        reports = []
        total = 0.0
        for method in METHODS:
            self.attempted += len(triplets)
            traced = tracers[method].installed() if tracers else contextlib.nullcontext()
            try:
                with traced:
                    start = time.perf_counter()
                    report = evaluation.evaluate(
                        triplets, method, ctx, beam_width=BEAM, workers=WORKERS
                    )
                    wall = time.perf_counter() - start
                ref = self._ref_mean()
            except Exception:  # the pass is lost, the run goes on
                traceback.print_exc()
                self.failed += len(triplets)
                self.problems.append(f"{method} pass raised")
                continue
            total += wall
            bad = outcome_violations(report, stack)
            if bad:
                self.failed += bad
                self.problems.append(f"{method}: {bad} outcomes failed the checks")
            self.samples[f"{method}.edits_per_s"].append(len(triplets) / wall)
            self.samples[f"{method}.edits_per_ru"].append(len(triplets) * ref / wall)
            self.samples["reference_s"].append(ref)
            if method == "cfe2":
                self.samples["cfe2.elapsed_ms"].extend(r.elapsed * 1000.0 for r in report.records)
                self.samples["cfe2.elapsed_ru"].extend(r.elapsed / ref for r in report.records)
                self.per_chunk[chunk] = (
                    len(triplets), report.aggregates["flips"],
                    sum(r.masks_used for r in report.records))
            if tracers:
                self.traced_edits[method] += len(triplets)
                self.traced_passes[method] += 1
                self.busy[method] += sum(r.elapsed for r in report.records)
                self.walls[method] += wall
            reports.append(report)
        if len(reports) == len(METHODS):
            digest = report_digest(reports)
            if self.digests.setdefault(chunk, digest) != digest:
                self.problems.append(f"chunk {chunk} reports differ between repeats")
        return total

    def measure(self, cycles: int, tracers=None, chunks=None) -> list[float]:
        """Invoke every chunk (or only ``chunks``) once per cycle, in order."""
        walls = [
            self.invocation(chunk, tracers)
            for _ in range(cycles)
            for chunk in (range(len(self.chunks)) if chunks is None else chunks)
        ]
        if self.per_chunk:
            triplets, flips, masks = (sum(c) for c in zip(*self.per_chunk.values()))
            self.shape.update(chunks=len(self.per_chunk), triplets=triplets,
                              flips=flips, mean_masks=masks / triplets)
        return walls

    def oov_probe(self) -> float:
        """Known defect, kept visible: cfe2 keeps an out-of-vocabulary query
        word, which comes back as ``[UNK]`` in q'.

        The first ``OOV_PROBE_QUERIES`` queries, each with a word the
        corpus lacks, are evaluated once, untimed and outside ``attempted``
        and ``failed``. Returns the share of their non-null outcomes that
        hold ``[UNK]``.
        """
        stack = self.stack
        if OOV_WORD in stack.vocab:
            raise RuntimeError(f"{OOV_WORD!r} is in the vocabulary")
        queries = [f"{q} {OOV_WORD}" for q in self.queries[:OOV_PROBE_QUERIES]]
        report = evaluation.evaluate(
            self.triplets(stack, queries), "cfe2",
            pipeline.make_context(stack, self.config), beam_width=BEAM, workers=WORKERS,
        )
        outcomes = [r.outcome for r in report.records if r.outcome is not None]
        unk = sum(UNK_TOKEN in o.split(" ") for o in outcomes)
        frac = unk / len(outcomes) if outcomes else 0.0
        self.notes.append(
            f"known defect: {unk} of {len(outcomes)} cfe2 outcomes of "
            f"out-of-vocabulary queries hold {UNK_TOKEN} (not counted as failed)")
        return frac

    # -- runs ---------------------------------------------------------------

    def untraced(self, seconds: float) -> dict[str, tuple[float, str, int]]:
        # A fixed amount of work, so every run of a workload evaluates the
        # same triplets however fast the host is. The cycles are spread
        # over the builds, so the samples cover the whole run.
        cycles, setups = max(1, round(seconds / self.wl.cycle_s)), self.wl.setups
        for b in range(setups):
            self.build()
            self.measure(cycles * (b + 1) // setups - cycles * b // setups)
        self.oov_probe()
        s = self.samples
        out = {}
        for name, unit in (("setup_s", "s"), ("save_s", "s"), ("save_ru", "ru"),
                           ("load_s", "s"), ("load_ru", "ru"), ("reference_s", "s")):
            out[name] = (statistics.median(s[name]), unit, len(s[name]))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["peak_rss_mb"] = (rss_mb, "MB", 1)
        for method in METHODS:
            for name, unit in (("edits_per_s", "1/s"), ("edits_per_ru", "1/ru")):
                values = s[f"{method}.{name}"]
                out[f"{method}.{name}"] = (statistics.median(values), unit, len(values))
        for name, unit in (("ms", "ms"), ("ru", "ru")):
            values = s[f"cfe2.elapsed_{name}"]
            for q in (50, 90, 99):
                out[f"cfe2.edit_{name}_p{q}"] = (percentile(values, q), unit, len(values))
        return out

    def traced(self) -> dict[str, tuple[float, str, int]]:
        phases = {name: Tracer() for name in ("build", "load", *METHODS)}
        with phases["build"].installed():
            self.save(self.build())
        artifact_bytes = dir_bytes(self.config.artifacts)
        with phases["load"].installed():
            self.load()
        # One cycle traced, then the same cycle untraced for the overhead.
        traced = self.measure(1, {m: phases[m] for m in METHODS})
        plain = self.measure(1)
        overhead = sum(traced) / sum(plain)

        self.check_and_save(phases)
        out = self.layer_metrics(phases, artifact_bytes, overhead)
        out["cfe2.oov_unk_outcome_frac"] = (self.oov_probe(), "ratio", OOV_PROBE_QUERIES)
        out.update(self.remote_probe() if self.wl.remote_probe
                   else self.remote_metrics(phases))
        self.shape["round_trips_per_edit"] = out["cfe2.remote.round_trips_per_edit"][0]
        return out

    def check_and_save(self, phases: dict[str, Tracer], prefix: str = "") -> None:
        nesting = sum(t.nesting_violations() for t in phases.values())
        if nesting:
            self.problems.append(f"{nesting} spans lie outside their parent")
        os.makedirs(os.path.join(WORK_DIR, "spans"), exist_ok=True)
        for phase, tracer in phases.items():
            name = f"{self.wl.name}-{prefix}{phase}.npz"
            tracer.save(os.path.join(WORK_DIR, "spans", name))

    def remote_probe(self) -> dict[str, tuple[float, str, int]]:
        """Remote-layer metrics from one traced remote-stub invocation."""
        with open_bench(WORKLOADS["remote-stub"], self.seed) as probe:
            probe.build()
            phases = {m: Tracer() for m in METHODS}
            probe.measure(1, phases, chunks=[0])
        self.attempted += probe.attempted
        self.failed += probe.failed
        self.problems += [f"remote probe: {p}" for p in probe.problems]
        self.check_and_save(phases, prefix="remote-")
        return probe.remote_metrics(phases)

    def remote_metrics(self, phases: dict[str, Tracer]) -> dict[str, tuple[float, str, int]]:
        out: dict[str, tuple[float, str, int]] = {}
        total = attempts = failed = 0
        for method in METHODS:
            tracer = phases[method]
            edits = self.traced_edits[method]
            calls = {r: tracer.durations(f"remote.{r}") for r in remote.ROLES}
            n = sum(len(c) for c in calls.values())
            out[f"{method}.remote.round_trips_per_edit"] = (n / edits, "1/edit", edits)
            if method == "cfe2":
                for role, durations in calls.items():
                    p = f"cfe2.remote.{role}"
                    out[f"{p}.calls_per_edit"] = (len(durations) / edits, "1/edit", edits)
                    ms = [d * 1000.0 for d in durations]
                    for q in (50, 99):
                        out[f"{p}.ms_p{q}"] = (percentile(ms, q), "ms", len(ms))
            total += n
            attempts += tracer.counts["remote.http_attempts"]
            failed += tracer.failed("remote.")
        out["remote.calls"] = (total, "count", 1)
        out["remote.http_attempts"] = (attempts, "count", 1)
        out["remote.failed"] = (failed, "count", 1)
        return out

    def layer_metrics(self, phases: dict[str, Tracer], artifact_bytes: int,
                      overhead: float) -> dict[str, tuple[float, str, int]]:
        out: dict[str, tuple[float, str, int]] = {}

        def total(tracer: Tracer, name: str) -> float:
            return sum(tracer.durations(name))

        build, load = phases["build"], phases["load"]
        for name in ("corpus.ingest_corpus", "text.build_vocabulary",
                     "corpus.build_index", "embed.train_embeddings", "lm.train_ngram"):
            out[f"{name}.s"] = (total(build, name), "s", 1)
        out["pipeline.artifact_bytes"] = (artifact_bytes, "B", 1)
        out["load.text.tokenize.calls"] = (load.counts["text.tokenize"], "count", 1)
        out["load.text.build_vocabulary.s"] = (
            total(load, "text.build_vocabulary"), "s", 1)

        for method in METHODS:
            tracer = phases[method]
            edits = self.traced_edits[method]
            passes = self.traced_passes[method]
            calls = Counter(span[3] for span in tracer.spans)
            counts = tracer.counts
            self_s = tracer.self_times()
            p = f"{method}."

            def per_edit(name: str, n: float) -> None:
                out[p + name] = (n / edits if edits else 0.0, "1/edit", edits)

            def self_time(name: str, span_names=None) -> None:
                secs = sum(self_s.get(n, 0.0) for n in span_names or (name,))
                out[f"{p}{name}.self_s"] = (secs / passes, "s", passes)

            per_edit("corpus.score.calls_per_edit", calls["corpus.score"])
            self_time("corpus.score")
            per_edit("corpus.idf.calls_per_edit", counts["corpus.idf"])
            per_edit("embed.vectors_for.calls_per_edit", calls["embed.vectors_for"])
            self_time("embed.vectors_for")
            per_edit("lm.perplexity.calls_per_edit", calls["lm.perplexity"])
            self_time("lm.perplexity")
            per_edit("editor.check_flip.calls_per_edit", calls["editor.check_flip"])
            self_time("editor.check_flip")
            checks = calls["editor.check_flip"]
            out[p + "editor.flip_yield"] = (
                counts["editor.check_flip.flips"] / checks if checks else 0.0,
                "ratio", checks)
            self_time("evaluation.metrics", METRIC_SPANS)
            self_time("evaluation.run_method")
            out[p + "evaluation.worker_busy_frac"] = (
                self.busy[method] / (self.walls[method] * WORKERS),
                "ratio", passes)
            if method != "max_flip":
                self_time("masker.maxsim_importance")
                self_time("masker.occlusion_importance")
            if method == "cfe2":
                per_edit("lm.predict.calls_per_edit", calls["lm.predict"])
                self_time("lm.predict")
                dist_calls = counts["lm.distribution.calls"]
                out[p + "lm.distribution.calls"] = (dist_calls / passes, "count", passes)
                out[p + "lm.distribution.repeat_frac"] = (
                    counts["lm.distribution.repeats"] / dist_calls if dist_calls else 0.0,
                    "ratio", dist_calls)
                out[p + "editor.iterations_per_edit"] = (
                    self.shape["mean_masks"], "1/edit", self.shape["triplets"])
                per_edit("editor.expand_beam.calls_per_edit", calls["editor.expand_beam"])
                self_time("editor.expand_beam")
                per_edit("editor.beam_candidates_per_edit", counts["editor.beam_candidates"])
                self_time("editor.select_final")
        out["trace.overhead_ratio"] = (overhead, "ratio", 1)
        return out


@contextlib.contextmanager
def open_bench(wl: Workload, seed: int):
    """A Bench for ``wl`` with its own artifact directory and backends."""
    lines, queries = make_inputs(wl, seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_DIR)
    try:
        with contextlib.ExitStack() as stack:
            backends = {}
            if wl.remote:
                corpus_path = os.path.join(workdir, "corpus.jsonl")
                with open(corpus_path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
                backends = stack.enter_context(stub_backends(corpus_path))
            config = RunConfig(
                artifacts=os.path.join(workdir, "artifacts"), top_k=wl.top_k,
                masker=wl.masker, beam=BEAM, workers=WORKERS, backends=backends,
            )
            yield Bench(wl, seed, config, lines, queries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object."""
    with open_bench(wl, seed) as bench:
        metrics = bench.traced() if trace else bench.untraced(seconds)
    return summarize(bench, seed, metrics)


def summarize(bench: Bench, seed: int, metrics: dict) -> dict:
    wl = bench.wl
    print(f"workload {wl.name} seed {seed}: "
          + ", ".join(f"{k} {_fmt(v)}" for k, v in bench.shape.items()))
    failed_frac = bench.failed / bench.attempted
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} ratio       "
          f"n={bench.attempted}")
    named = _benchmark_metrics()
    for name, (value, unit, n) in metrics.items():
        mark = "" if name in named else "  (printed only)"
        print(f"  {name:<44} {value:>14.6g} {unit:<11} n={n}{mark}")
    for note in bench.notes:
        print(f"  {note}")

    recorded = _recorded_digests().get(wl.name, {}).get(str(seed), {})
    verdicts = Counter(
        "not recorded" if str(chunk) not in recorded
        else "unchanged" if recorded[str(chunk)] == digest
        else "CHANGED"
        for chunk, digest in bench.digests.items()
    )
    print("  report sha256 per chunk: "
          + ", ".join(f"{n} {verdict}" for verdict, n in sorted(verdicts.items())))
    for problem in bench.problems:
        print(f"  problem: {problem}")
    return {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u, _) in metrics.items() if name in named},
        "digests": bench.digests,
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _benchmark_metrics() -> set[str]:
    """Names of every metric ``BENCHMARK.json`` lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]}


def _recorded_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_digests(workload: str, seed: int, digests: dict[int, str]) -> None:
    recorded = _recorded_digests()
    by_chunk = recorded.setdefault(workload, {}).setdefault(str(seed), {})
    by_chunk.update({str(chunk): digest for chunk, digest in digests.items()})
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's report digest in digests.json")
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [
            subprocess.call([
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ])
            for name in WORKLOADS
        ]
        return max(codes)

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    digests = result.pop("digests")
    if args.record_digest and result["correct"]:
        record_digests(args.workload, args.seed, digests)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
