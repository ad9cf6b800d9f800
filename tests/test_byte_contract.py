"""The bytes the CLI writes on the synthetic corpus, pinned by sha256.

Criterion 10 checks that runs agree with each other; these tests check
that they agree with the pinned values, so a change that moves a report,
edit or archive byte fails here: ``eval``'s JSON and markdown reports,
``sweep-beam``'s reports at beam sizes 5 and 10, ``edit --triplets``'s
lines and the ``index`` archive. Inputs: the synthetic corpus and its 60 queries,
a config of ``embed_dim`` 48 and ``timing`` off with paths relative to
the run directory, and for ``edit`` 240 triplet lines, each query's top
document paired with ranks 2-5 of its top-5 ranking. One more test runs
``eval`` on the stored stack under other BLAS kernels and without numpy's
AVX512 loops, and expects the same ``report.json``. A second run directory
takes the sparse path (a Zipf corpus above ``DENSE_EIGH_MAX_VOCAB``, the
occlusion masker) and pins its archive, ``eval`` and ``edit`` bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from queryflip import corpus as corpus_module, evaluation
from queryflip.cli import main
from queryflip.config import RunConfig
from queryflip.corpus import ingest_corpus
from queryflip.embed import DENSE_EIGH_MAX_VOCAB
from queryflip.evaluation import canonical_json
from queryflip.pipeline import build_stack, load_stack
from queryflip.text import tokenize

from synthdata import synthetic_corpus, synthetic_queries, zipf_corpus

# Evaluating a stored stack uses no BLAS, so for a given stack the JSON
# reports hold on any BLAS kernel and CPU (see the cross-kernel test). A
# fresh build's embedding table still comes from an eigendecomposition
# whose last bits depend on the kernel, so these pins hold per kernel,
# as taken on the SkylakeX OpenBLAS kernel.
REPORT_SHA256 = "2f833beb9a69a0a2f9a0d583a2beb35a2f863384ba011860b5b1ea7b03eafc09"
REPORT_MD_SHA256 = "e49b6d3e54377c0afec703445a29b9e6f84e3a6682fb4882acf8ae829d5b5718"
SWEEP_SHA256 = {
    "sweep_b5.json": "db792bacf67ceac394dedc1ceadbd1a8708c3c8c695a2a747ede4f35ea6d1914",
    "sweep_b5.md": "80379c5269fc7f8b267d02b9aa2d845d8928529507d691c78637b15a28d85ed1",
    "sweep_b10.json": "59895df469758fe771f905423decfae527ba74feb1fe5d8b2c8c2b2d24aec5e4",
    "sweep_b10.md": "9301e99ca5601107aa24f29dec5cab36f7b43f639d706ead10ad86d71bd7f37b",
}
EDITS_SHA256 = "d201fb7b1e276cf164623c6d7afda8e730ec2e825626e55980d5b198567ac1a2"

# Every member of the ``index`` archive, in archive order, with its dtype.
STACK_DTYPES = {
    "format": "<i8",
    "fingerprint": "<U16",
    "corpus.ids": "|u1",
    "corpus.id_offsets": "<i8",
    "corpus.texts": "|u1",
    "corpus.text_offsets": "<i8",
    "corpus.token_ids": "<i4",
    "corpus.token_offsets": "<i8",
    "corpus.sentence_offsets": "<i8",
    "vocab.surfaces": "|u1",
    "vocab.offsets": "<i8",
    "embed.vectors": "<f8",
    "lm.grams": "<i4",
    "lm.counts": "<i4",
}
# sha256 of each member's array bytes, but ``embed.vectors``: its last
# bits come from an eigendecomposition and depend on the BLAS kernel.
STACK_SHA256 = {
    "format": "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    "fingerprint": "043b9bde4e7906943ecf20131958a7afa38d47d3fc02569e553ee3955bdc6806",
    "corpus.ids": "97a12082a65282122c23610e87e10b86fe803e9d80f2833c21c42e1ccbe3b041",
    "corpus.id_offsets": "2dc7ac20242eae10eadbc685bca39d39ccd6f81f4fbffc6a1a03774caa3237fd",
    "corpus.texts": "b0af9f87672d85814fc702a75e17eb06df50d623244c0a30eb693a564b7f9a14",
    "corpus.text_offsets": "5160219972538bde129c560fcc3b6f40c8d43c0b1a80b105d71db1820c7bee07",
    "corpus.token_ids": "750986ed6c706dd8029b5f03630707267f69dee788d94128892ea0139882d8ee",
    "corpus.token_offsets": "3ceb326d382d0818d78913a9fe33f7639c6f919cccb4598d07189de9970b294f",
    "corpus.sentence_offsets": "1b83584b8c0d7aaa80e18b2b935726e40de1e1b6d4df46106990c739f649ea07",
    "vocab.surfaces": "bc111f2863303d987139ed63a5a964f53b13294b7e2d3543eb11b06dbd7e94af",
    "vocab.offsets": "58827b4bb9ad1a183b39d523d7923c8c7d801dec2dac5ef12d7e0bed0ebc3183",
    "lm.grams": "59818d8b55e90b13015f35843fc6b7968dcaf028e2834facd24e56857edd652b",
    "lm.counts": "9cc40f65e0cfb3260842c0ce38bcf1b9874a4ca32d82bdd6ac7b4fe86888aa1e",
}

SRC = Path(__file__).resolve().parents[1] / "src"


def _cli(run_dir: Path, *argv: str, env: dict[str, str] | None = None) -> None:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "queryflip.cli", *argv],
        cwd=run_dir,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        check=True,
        capture_output=True,
    )


def _assert_sha256(path: Path, pinned: str) -> None:
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    assert actual == pinned, (
        f"{path.name} sha256 is {actual}, pinned {pinned}. A change that "
        "moves it must say why in CHANGES.md, and pin the new value here."
    )


def _make_run(run: Path, corpus: list[str], queries: list[str], **settings) -> Path:
    """A run directory holding ``corpus``, ``queries``, a config of
    ``embed_dim`` 48, ``timing`` off and ``settings``, and the triplet
    lines of each query's top-5 ranking; ``index`` is run in it."""
    (run / "corpus.jsonl").write_text("\n".join(corpus) + "\n")
    (run / "queries.txt").write_text("\n".join(queries) + "\n")
    config = {"corpus": "corpus.jsonl", "artifacts": "artifacts",
              "out_dir": "reports", "embed_dim": 48, "timing": "off", **settings}
    (run / "config.json").write_text(json.dumps(config))
    stack = build_stack(ingest_corpus(corpus),
                        RunConfig(embed_dim=48, timing="off", **settings))
    lines = []
    for query in queries:
        ranking = stack.search.search(stack.vocab.encode(tokenize(query)), 5)
        top = ranking.entries[0][0]
        lines += [
            json.dumps({"query": query, "doc_id": top, "counter_doc_id": doc_id})
            for doc_id, _ in ranking.entries[1:]
        ]
    assert len(lines) == 240
    (run / "triplets.jsonl").write_text("\n".join(lines) + "\n")
    _cli(run, "index", "--config", "config.json")
    return run


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    return _make_run(tmp_path_factory.mktemp("byte-contract"), synthetic_corpus(),
                     synthetic_queries())


def test_eval_report_bytes_are_pinned(run_dir):
    _cli(run_dir, "eval", "--config", "config.json", "--queries", "queries.txt",
         "--workers", "1")
    _assert_sha256(run_dir / "reports" / "report.json", REPORT_SHA256)
    _assert_sha256(run_dir / "reports" / "report.md", REPORT_MD_SHA256)


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel at run
    time, so that ``OPENBLAS_CORETYPE`` selects another one."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


# Disables numpy's AVX512 dispatch: numpy 1.x and 2.x feature names; a
# name numpy does not know is ignored.
NO_AVX512 = " ".join([
    "AVX512F", "AVX512CD", "AVX512_SKX", "AVX512_CLX", "AVX512_CNL", "AVX512_ICL",
    "AVX512_SPR", "X86_V4",
])


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                           "OPENBLAS_CORETYPE cannot select another kernel")
def test_eval_report_bytes_hold_on_every_kernel(run_dir):
    """The stored stack's eval writes the same ``report.json`` under the
    default kernel, the Haswell and Prescott OpenBLAS kernels and without
    numpy's AVX512 loops: evaluation uses no BLAS, and its numpy
    reductions add in a fixed order. (The stack itself is built once, on
    the default kernel.)"""
    settings = {
        "default": {},
        "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "no-avx512": {"NPY_DISABLE_CPU_FEATURES": NO_AVX512},
    }
    for name, env in settings.items():
        _cli(run_dir, "eval", "--config", "config.json", "--queries", "queries.txt",
             "--workers", "1", "--out-dir", f"reports-{name}", env=env)
    default = hashlib.sha256((run_dir / "reports-default" / "report.json").read_bytes())
    for name in settings:
        _assert_sha256(run_dir / f"reports-{name}" / "report.json", default.hexdigest())


def test_sweep_beam_report_bytes_are_pinned(run_dir):
    _cli(run_dir, "sweep-beam", "--config", "config.json", "--queries", "queries.txt",
         "--sizes", "5,10", "--workers", "1")
    for name, pinned in SWEEP_SHA256.items():
        _assert_sha256(run_dir / "reports" / name, pinned)


def _compensated_sum(iterable, start=0):
    """Python 3.12's builtin ``sum`` on ints and floats: ints add exactly
    until the first float, and from it on each addition's rounding error
    is kept (Neumaier's summation) and added in at the end."""
    total, error, floats = start, 0.0, False
    for x in iterable:
        if not floats:
            total += x
            floats = isinstance(total, float)
            continue
        t = total + x
        error += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + error if floats and error and math.isfinite(error) else total


def test_eval_report_bytes_hold_under_compensated_sum(run_dir, monkeypatch):
    """The report path adds its floats left to right, so the pinned eval,
    run in-process with 3.12's ``sum`` in the report modules, writes the
    pinned bytes on any Python version."""
    for module in (corpus_module, evaluation):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    monkeypatch.chdir(run_dir)
    assert main(["eval", "--config", "config.json", "--queries", "queries.txt",
                 "--workers", "1", "--out-dir", "reports-3.12-sum"]) == 0
    _assert_sha256(run_dir / "reports-3.12-sum" / "report.json", REPORT_SHA256)


def _edit(run_dir: Path, workers: str) -> Path:
    out = run_dir / f"edits-{workers}.jsonl"
    _cli(run_dir, "edit", "--config", "config.json", "--triplets", "triplets.jsonl",
         "--timing", "off", "--workers", workers, "--out", out.name)
    return out


@pytest.mark.parametrize("workers", ["1", "4"])
def test_edit_triplets_bytes_are_pinned(run_dir, workers):
    _assert_sha256(_edit(run_dir, workers), EDITS_SHA256)


def _archive_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of each member of the run's archive but ``embed.vectors``,
    after checking the members' names, order and dtypes."""
    with np.load(run_dir / "artifacts" / "stack.npz", allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    dtypes = [(name, array.dtype.str) for name, array in arrays.items()]
    assert dtypes == list(STACK_DTYPES.items())
    return {
        name: hashlib.sha256(array.tobytes()).hexdigest()
        for name, array in arrays.items()
        if name != "embed.vectors"
    }


def test_stack_archive_bytes_are_pinned(run_dir):
    assert _archive_digests(run_dir) == STACK_SHA256


# ---------------------------------------------------------------------------
# The sparse path: a Zipf corpus of more than DENSE_EIGH_MAX_VOCAB content
# words, so the table comes from the Lanczos solve, and the occlusion masker.
# Its 60 queries are the last three words of its first 60 documents.
#
# With the occlusion masker only BERTScore reads the embedding table, whose
# last bits a fresh build takes from the BLAS kernel (ROADMAP item 10). So
# ``report.json`` is pinned with every BERTScore value set to null, and
# these pins hold on every kernel. ``report.md`` shows BERTScore's means
# rounded to four places.
SPARSE_STACK_SHA256 = {
    "format": "d86e8112f3c4c4442126f8e9f44f16867da487f29052bf91b810457db34209a4",
    "fingerprint": "351f4ae0807e871f47116c69ecb1a926e0ffd749edbcba21bdcd537bf7e72529",
    "corpus.ids": "3266ef8dc0c65b1665099c3bbc69d96cd5b10b0f6bfd9fecc6b973b25c9d4766",
    "corpus.id_offsets": "d0f7ca6893b959ab58db3cb83b6ff30a0a27775c8d6bd2caae751b96561d1881",
    "corpus.texts": "a63df373540008f6903130c3df986ed7d795b2f0cca4b3b1441ba64bda4cf9a0",
    "corpus.text_offsets": "b16c1989712b67f5edad52abf476112a36af5f51e90bce5f4b54b32f0065aba2",
    "corpus.token_ids": "7cfafef72a01d9e3114175b83d527e5aee592e6fa7877de9ffd467187daeeccb",
    "corpus.token_offsets": "ae8673cbd28757a6ae823b42056bd89784edab0457e9349c4f9c9de315ccd256",
    "corpus.sentence_offsets": "ae8673cbd28757a6ae823b42056bd89784edab0457e9349c4f9c9de315ccd256",
    "vocab.surfaces": "6ad66abce3d989d1a4b1d00f16233ee21069d8b13eab21e0fd0b0a5a6b51e483",
    "vocab.offsets": "2b0aa3c57fdf1e5ad0610494a80f5c682b0a4048e102658b6bf8cfe8fab7d357",
    "lm.grams": "cd2d363603dc19a9fe0a480667592b703acaf7272b6155aec9ba0eaee6ca4315",
    "lm.counts": "b54bceced2dd93e0cec0fd42b64a23bd8ccdd52f3d846726da7f2b8d79b93f13",
}
SPARSE_REPORT_SHA256 = "e139e145b1f0effa74df120226e341242e521f545c18e95ffcd7e49a93f3f3f0"
SPARSE_REPORT_MD_SHA256 = "af19969259b5def2757452a30d10babb1f4df8db344e8593632364c0fd31d40c"
SPARSE_EDITS_SHA256 = "ee3ac45337cbb5ef2a5bcebe98b3e14af5316098721ea6f48a2f3e459bb1d935"


@pytest.fixture(scope="module")
def sparse_run_dir(tmp_path_factory) -> Path:
    corpus = zipf_corpus(2, n_words=2000, n_docs=500)
    queries = [" ".join(json.loads(line)["text"].split()[-3:]) for line in corpus[:60]]
    return _make_run(tmp_path_factory.mktemp("byte-contract-sparse"), corpus, queries,
                     masker="occlusion")


def _without_bertscore(value):
    if isinstance(value, dict):
        return {k: None if k in ("bertscore", "mean_bertscore_f1") else
                _without_bertscore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_without_bertscore(v) for v in value]
    return value


def test_sparse_stack_archive_bytes_are_pinned(sparse_run_dir):
    config = RunConfig(artifacts=str(sparse_run_dir / "artifacts"), embed_dim=48,
                       masker="occlusion")
    assert load_stack(config).vocab.content_size > DENSE_EIGH_MAX_VOCAB
    assert _archive_digests(sparse_run_dir) == SPARSE_STACK_SHA256


def test_sparse_eval_report_bytes_are_pinned(sparse_run_dir):
    _cli(sparse_run_dir, "eval", "--config", "config.json", "--queries", "queries.txt",
         "--workers", "1")
    reports = sparse_run_dir / "reports"
    _assert_sha256(reports / "report.md", SPARSE_REPORT_MD_SHA256)
    payload = _without_bertscore(json.loads((reports / "report.json").read_text()))
    stripped = reports / "report-without-bertscore.json"
    stripped.write_text(canonical_json(payload))
    _assert_sha256(stripped, SPARSE_REPORT_SHA256)


@pytest.mark.parametrize("workers", ["1", "4"])
def test_sparse_edit_triplets_bytes_are_pinned(sparse_run_dir, workers):
    _assert_sha256(_edit(sparse_run_dir, workers), SPARSE_EDITS_SHA256)
