from __future__ import annotations

import json
import logging
import threading
import time
from collections import Counter
from dataclasses import fields

import pytest

from queryflip import cli, evaluation, pipeline
from queryflip.cli import build_parser, main
from queryflip.config import RunConfig

from conftest import SAMPLE_LINES


def _write_inputs(run_dir):
    """The sample corpus plus a config with absolute paths into ``run_dir``."""
    corpus = run_dir / "corpus.jsonl"
    corpus.write_text("\n".join(SAMPLE_LINES) + "\n")
    config = run_dir / "config.json"
    config.write_text(json.dumps({
        "corpus": str(corpus),
        "artifacts": str(run_dir / "artifacts"),
        "out_dir": str(run_dir / "reports"),
        "embed_dim": 4,
        "embed_window": 2,
        "timing": "off",
    }))
    return config


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path, _write_inputs(tmp_path)


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_index_then_search_truncates(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    assert [p.name for p in (tmp / "artifacts").iterdir()] == ["stack.npz"]
    capsys.readouterr()
    assert _run("search", "--config", config, "apple recipe", "--k", "5") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # corpus smaller than k
    assert lines[0].split("\t")[1] == "d1"


def test_search_before_index_instructs(workdir, capsys):
    tmp, config = workdir
    assert _run("search", "--config", config, "apple") == 1
    err = capsys.readouterr().err
    assert "queryflip index" in err


def test_search_without_tokens_fails_like_edit(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    capsys.readouterr()
    assert _run("search", "--config", config, "!!!") == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: empty query\n")
    assert _run("edit", "--config", config, "--query", "!!!",
                "--doc", "d1", "--counter", "d3") == 1
    assert capsys.readouterr().err == "error: empty query\n"
    # Out-of-vocabulary words encode as [UNK] and still search.
    assert _run("search", "--config", config, "qxjw zzvq", "--k", "2") == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_edit_single_triplet(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    capsys.readouterr()
    code = _run(
        "edit", "--config", config,
        "--query", "apple recipe", "--doc", "d1", "--counter", "d3",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["q_prime"] == "banana recipe"
    assert payload["masks_used"] == 1
    assert payload["iterations"][0]["beam"]


def test_edit_rejects_non_counterfactual_pair(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    capsys.readouterr()
    code = _run(
        "edit", "--config", config,
        "--query", "apple recipe", "--doc", "d3", "--counter", "d1",
    )
    assert code == 1
    assert "not a valid counterfactual target" in capsys.readouterr().err


def test_edit_batch_triplets_file(workdir, tmp_path, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    triplets = tmp / "triplets.jsonl"
    triplets.write_text(json.dumps({
        "query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3",
    }) + "\n")
    out = tmp / "edits.jsonl"
    capsys.readouterr()
    assert _run("edit", "--config", config, "--triplets", triplets, "--out", out) == 0
    record = json.loads(out.read_text().strip())
    assert record["q_prime"] == "banana recipe"


@pytest.mark.parametrize("timing", ["off", "wall"])
def test_edit_elapsed_follows_timing(workdir, capsys, timing):
    tmp, config = workdir
    settings = json.loads(config.read_text())
    config.write_text(json.dumps({**settings, "timing": timing}))
    assert _run("index", "--config", config) == 0
    capsys.readouterr()
    code = _run(
        "edit", "--config", config,
        "--query", "apple recipe", "--doc", "d1", "--counter", "d3",
    )
    assert code == 0
    elapsed = json.loads(capsys.readouterr().out.strip())["elapsed_s"]
    assert (elapsed == 0.0) == (timing == "off")


def test_edit_timing_flag_without_config_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(SAMPLE_LINES) + "\n")
    paths = ("--corpus", corpus, "--artifacts", tmp_path / "artifacts")
    assert _run("index", *paths) == 0
    capsys.readouterr()
    code = _run(
        "edit", *paths, "--timing", "off",
        "--query", "apple recipe", "--doc", "d1", "--counter", "d3",
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out.strip())["elapsed_s"] == 0.0


def test_log_level_flag_sets_verbosity(tmp_path, caplog):
    # Window 1 over "a b" and "c d e" gives a PPMI matrix of rank 4 < dim 5,
    # so indexing logs the dim clamp at INFO.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "d0", "text": "a b"}\n{"id": "d1", "text": "c d e"}\n')
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(corpus), "artifacts": str(tmp_path / "artifacts"),
        "embed_dim": 5, "embed_window": 1,
    }))
    try:
        assert _run("--log-level", "WARNING", "index", "--config", config) == 0
        assert "clamping embedding dim" not in caplog.text
        assert _run("index", "--config", config) == 0
        assert "clamping embedding dim 5 to PPMI rank 4" in caplog.text
    finally:
        logging.getLogger("queryflip").setLevel(logging.NOTSET)


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (b"{not json", "malformed record @ line 2: "),
        (b"[1]", "malformed record @ line 2: not an object"),
        (
            b'{"query": 5, "doc_id": "d1", "counter_doc_id": "d3"}',
            "invalid field: query @ line 2",
        ),
        (
            b'{"query": "apple recipe", "doc_id": ["d1"], "counter_doc_id": "d3"}',
            "invalid field: doc_id @ line 2",
        ),
        (
            b'{"doc_id": "d1", "counter_doc_id": "d3"}',
            "missing field: query @ line 2",
        ),
        (
            b'{"query": "caf\xe9 recipe", "doc_id": "d1", "counter_doc_id": "d3"}',
            "not UTF-8 @ line 2",
        ),
        (
            b'{"query": "apple \\ud800 recipe", "doc_id": "d1", "counter_doc_id": "d3"}',
            "invalid field: query @ line 2",
        ),
        (
            b'{"query": "apple recipe", "doc_id": "d9", "counter_doc_id": "d3"}',
            "unknown document id: d9 @ line 2",
        ),
        (
            b'{"query": "?!", "doc_id": "d1", "counter_doc_id": "d3"}',
            "empty query @ line 2",
        ),
    ],
    ids=[
        "malformed", "not_object", "query_not_string", "doc_id_not_string",
        "missing_query", "not_utf8", "lone_surrogate", "unknown_doc_id",
        "punctuation_query",
    ],
)
def test_edit_bad_triplets_line_names_line(workdir, capsys, bad_line, message):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    triplets = tmp / "triplets.jsonl"
    good = {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"}
    triplets.write_bytes(json.dumps(good).encode() + b"\n" + bad_line + b"\n")
    capsys.readouterr()
    assert _run("edit", "--config", config, "--triplets", triplets) == 1
    assert message in capsys.readouterr().err


def test_eval_queries_line_not_utf8_names_line(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    queries = tmp / "queries.txt"
    queries.write_bytes(b"apple recipe\ncaf\xe9 recipe\n")
    capsys.readouterr()
    assert _run("eval", "--config", config, "--queries", queries) == 1
    assert "not UTF-8 @ line 2" in capsys.readouterr().err


def test_eval_writes_json_and_markdown(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    queries = tmp / "queries.txt"
    queries.write_text("apple recipe\nbanana bread\n")
    code = _run(
        "eval", "--config", config, "--queries", queries,
        "--methods", "cfe2,mask_only,max_flip", "--top-k", "3",
    )
    assert code == 0
    report_path = tmp / "reports" / "report.json"
    markdown_path = tmp / "reports" / "report.md"
    assert report_path.exists() and markdown_path.exists()
    payload = json.loads(report_path.read_text())
    assert set(payload) == {"cfe2", "mask_only", "max_flip"}
    markdown = markdown_path.read_text()
    assert "| Flip Rate |" in markdown
    assert "## By target-document rank: cfe2" in markdown


def test_eval_skips_a_query_without_tokens(workdir, caplog):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    queries = tmp / "queries.txt"
    counts = []
    for text in ("apple recipe\n", "apple recipe\n?!\n"):
        queries.write_text(text)
        assert _run("eval", "--config", config, "--queries", queries) == 0
        report = json.loads((tmp / "reports" / "report.json").read_text())
        counts.append(report["cfe2"]["aggregates"]["triplets"])
    assert counts[0] == counts[1] > 0
    assert "skipping empty query '?!'" in caplog.text


def test_eval_without_any_triplet_fails(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    # No tokens, and only [UNK]: every document ties the top one at 0.
    queries = tmp / "queries.txt"
    queries.write_text("?!\nqxjw zzvq\n")
    capsys.readouterr()
    assert _run("eval", "--config", config, "--queries", queries) == 1
    assert capsys.readouterr().err == "error: no triplets to evaluate\n"


def test_eval_triplets_report_has_no_rank_breakdown(workdir):
    # A triplets file names d' directly, so no record has a target rank.
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    triplets = tmp / "triplets.jsonl"
    triplets.write_text(json.dumps({
        "query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3",
    }) + "\n")
    assert _run("eval", "--config", config, "--triplets", triplets,
                "--methods", "cfe2,mask_only") == 0
    payload = json.loads((tmp / "reports" / "report.json").read_text())
    assert [payload[m]["by_rank"] for m in ("cfe2", "mask_only")] == [{}, {}]
    assert "By target-document rank" not in (tmp / "reports" / "report.md").read_text()


@pytest.mark.parametrize("max_masks, masks_used", [(None, 2), (1, 1)])
def test_eval_reads_the_mask_budget_from_the_config_file(workdir, max_masks, masks_used):
    # On the README corpus "apple pie" flips d1 against d2 only with both
    # tokens masked, so a budget of one mask leaves cfe2 without an outcome.
    tmp, config = workdir
    settings = {**json.loads(config.read_text()), "max_masks": max_masks}
    config.write_text(json.dumps(settings))
    assert _run("index", "--config", config) == 0
    triplets = tmp / "triplets.jsonl"
    triplets.write_text(json.dumps({
        "query": "apple pie", "doc_id": "d1", "counter_doc_id": "d2",
    }) + "\n")
    assert _run("eval", "--config", config, "--triplets", triplets) == 0
    payload = json.loads((tmp / "reports" / "report.json").read_text())
    [record] = payload["cfe2"]["records"]
    assert record["masks_used"] == masks_used
    assert (record["outcome"] is None) == (max_masks == 1)


def test_eval_without_inputs_fails_cleanly(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    capsys.readouterr()
    assert _run("eval", "--config", config) == 1
    assert "provide --queries or --triplets" in capsys.readouterr().err


def test_eval_unknown_method_fails(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    queries = tmp / "queries.txt"
    queries.write_text("apple recipe\n")
    assert _run("eval", "--config", config, "--queries", queries,
                "--methods", "bogus") == 1
    assert "unknown method" in capsys.readouterr().err


def test_sweep_beam_writes_one_report_per_size(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    queries = tmp / "queries.txt"
    queries.write_text("apple recipe\n")
    code = _run(
        "sweep-beam", "--config", config, "--queries", queries,
        "--sizes", "1,3",
    )
    assert code == 0
    assert (tmp / "reports" / "sweep_b1.json").exists()
    assert (tmp / "reports" / "sweep_b3.json").exists()


def test_eval_report_identical_across_run_directories(tmp_path):
    reports = []
    for name in ("one", "two"):
        run = tmp_path / name
        run.mkdir()
        config = _write_inputs(run)
        queries = run / "queries.txt"
        queries.write_text("apple recipe\nbanana bread\n")
        assert _run("index", "--config", config) == 0
        assert _run("eval", "--config", config, "--queries", queries,
                    "--top-k", "3") == 0
        reports.append((run / "reports" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert str(tmp_path).encode() not in reports[0]


def test_edit_triplets_echo_each_query_as_given(workdir, capsys):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    triplets = tmp / "triplets.jsonl"
    lines = [
        {"query": "Apple Recipe, qxjw!", "doc_id": "d1", "counter_doc_id": "d3"},
        {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"},
    ]
    triplets.write_text("".join(json.dumps(line) + "\n" for line in lines))
    capsys.readouterr()
    assert _run("edit", "--config", config, "--triplets", triplets) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(row)["query"] for row in out] == [
        "Apple Recipe, qxjw!", "apple recipe",
    ]


def test_edit_triplets_share_work_per_ranking_and_target(workdir, monkeypatch, capsys):
    # Lines of one ranking share its importance, wherever they stand;
    # lines with one target document share its predictor. Each line still
    # prints what editing it alone prints.
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    lines = [
        {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"},
        {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d2"},
        {"query": "apple pie", "doc_id": "d1", "counter_doc_id": "d3"},
        {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"},
    ]
    alone = []
    for i, line in enumerate(lines):
        path = tmp / f"line{i}.jsonl"
        path.write_text(json.dumps(line) + "\n")
        capsys.readouterr()
        assert _run("edit", "--config", config, "--triplets", path) == 0
        alone.append(capsys.readouterr().out)

    importance: Counter = Counter()
    maxsim = evaluation.maxsim_importance

    def counting_maxsim(query_ids, *args):
        importance[tuple(query_ids)] += 1
        return maxsim(query_ids, *args)

    predictors: Counter = Counter()
    predictor = pipeline.NgramPredictor

    def counting_predictor(lm, doc_ids, lam):
        predictors[doc_ids] += 1
        return predictor(lm, doc_ids, lam)

    monkeypatch.setattr(evaluation, "maxsim_importance", counting_maxsim)
    monkeypatch.setattr(pipeline, "NgramPredictor", counting_predictor)
    triplets = tmp / "triplets.jsonl"
    triplets.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert _run("edit", "--config", config, "--triplets", triplets) == 0
    assert capsys.readouterr().out == "".join(alone)
    # Two rankings: lines 1, 2 and 4 share one, line 3 is the other.
    assert sorted(importance.values()) == [1, 1]
    assert sorted(predictors.values()) == [1, 1]  # d3 and d2


def test_edit_triplets_run_on_the_configured_workers(workdir, monkeypatch):
    # A "workers" value in the config file spreads edit's lines over that
    # many threads; the lines still come out in input order, byte for byte.
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    lines = [
        {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"},
        {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d2"},
        {"query": "apple pie", "doc_id": "d1", "counter_doc_id": "d3"},
    ] * 3
    triplets = tmp / "triplets.jsonl"
    triplets.write_text("".join(json.dumps(line) + "\n" for line in lines))
    threads: set[int] = set()
    run_method = evaluation.run_method

    def recording_run_method(*args):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # gives every worker time to take a line
        return run_method(*args)

    monkeypatch.setattr(evaluation, "run_method", recording_run_method)
    settings = json.loads(config.read_text())
    written, used = {}, {}
    for workers in (1, 3):
        config.write_text(json.dumps({**settings, "workers": workers}))
        out = tmp / f"edits-{workers}.jsonl"
        threads.clear()
        assert _run("edit", "--config", config, "--triplets", triplets,
                    "--out", out) == 0
        written[workers], used[workers] = out.read_bytes(), len(threads)
    assert used[1] == 1 and used[3] > 1
    assert written[3] == written[1]
    assert len(written[1].splitlines()) == len(lines)


def test_eval_empty_methods_fails_before_loading(workdir, capsys):
    # No index: the stack would fail to load, so the flag must be checked first.
    tmp, config = workdir
    queries = tmp / "queries.txt"
    queries.write_text("apple recipe\n")
    assert _run("eval", "--config", config, "--queries", queries,
                "--methods", ",") == 1
    assert "--methods needs at least one method" in capsys.readouterr().err
    assert not (tmp / "reports").exists()


def test_eval_duplicate_method_fails_before_loading(workdir, capsys):
    # One report per method name: a repeated method would write its
    # report.json entry once but its report.md column twice.
    tmp, config = workdir
    queries = tmp / "queries.txt"
    queries.write_text("apple recipe\n")
    assert _run("eval", "--config", config, "--queries", queries,
                "--methods", "cfe2,mask_only,cfe2") == 1
    err = capsys.readouterr().err
    assert "duplicate method: cfe2" in err
    assert "artifact" not in err
    assert not (tmp / "reports").exists()


@pytest.mark.parametrize("argv, message", [
    (["eval"], "provide --queries or --triplets"),
    (["sweep-beam"], "provide --queries or --triplets"),
    (["edit"], "edit needs --query/--doc/--counter or --triplets"),
    (["edit", "--query", "apple", "--doc", "d1"],
     "edit needs --query/--doc/--counter or --triplets"),
])
def test_missing_triplet_input_fails_before_loading(workdir, capsys, argv, message):
    # No index: the stack would fail to load, so the input flags must be
    # checked first.
    tmp, config = workdir
    assert _run(*argv, "--config", config) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "artifact" not in err
    assert not (tmp / "reports").exists()


def test_workers_default_to_one_when_every_role_is_local(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
    assert cli._sweep_options(RunConfig())["workers"] == 1
    assert cli._sweep_options(RunConfig(workers=3))["workers"] == 3


def test_workers_default_to_available_parallelism_with_a_remote_role(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 6)
    remote = RunConfig(backends={"score": {"url": "http://127.0.0.1:9"}})
    assert cli._sweep_options(remote)["workers"] == 6
    assert cli._sweep_options(remote.with_overrides(workers=2))["workers"] == 2
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._sweep_options(remote)["workers"] == 1


def test_sweep_beam_non_integer_size_fails_before_loading(workdir, capsys):
    tmp, config = workdir
    queries = tmp / "queries.txt"
    queries.write_text("apple recipe\n")
    assert _run("sweep-beam", "--config", config, "--queries", queries,
                "--sizes", "5,x") == 1
    assert "--sizes must be comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, message", [
    (",", "no beam sizes"),
    ("0", "beam sizes must be >= 1"),
    ("-3", "beam sizes must be >= 1"),
    ("5,10,5", "duplicate beam size: 5"),
])
def test_sweep_beam_bad_sizes_fail_before_loading(tmp_path, capsys, sizes, message):
    # The artifacts directory does not exist, so loading would raise
    # ArtifactError; the sizes error must come first.
    queries = tmp_path / "queries.txt"
    queries.write_text("apple recipe\n")
    assert _run("sweep-beam", "--artifacts", tmp_path / "missing",
                "--queries", queries, f"--sizes={sizes}") == 1
    err = capsys.readouterr().err
    assert message in err
    assert "artifact" not in err


# Each subcommand's setting flags, and the values and types they parse to.
_PATHS = {"corpus": "x.jsonl", "artifacts": "a"}
_SETTING_FLAGS = {
    "index": {},
    "search": {},
    "edit": {"beam": 7, "lam": 0.25, "masker": "occlusion", "max_masks": 2,
             "workers": 3, "timing": "off"},
    "eval": {"out_dir": "r", "beam": 7, "lam": 0.25, "masker": "occlusion",
             "top_k": 4, "workers": 3, "timing": "off"},
    "sweep-beam": {"out_dir": "r", "workers": 3, "timing": "off"},
}


@pytest.mark.parametrize("command", sorted(_SETTING_FLAGS))
def test_setting_flags_are_config_fields(command):
    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    field_names = {f.name for f in fields(RunConfig)}
    settings = {
        a.dest: a for a in sub._actions
        if a.option_strings and a.dest in field_names
    }
    expected = {**_PATHS, **_SETTING_FLAGS[command]}
    assert set(settings) == set(expected)
    assert settings["corpus"].help == "corpus JSONL path"
    assert settings["artifacts"].help == "artifact directory"
    assert all(a.help is None for n, a in settings.items() if n not in _PATHS)
    declared = {f.name: f.metadata.get("choices") for f in fields(RunConfig)}
    assert declared["masker"] == ("maxsim", "occlusion")
    assert declared["timing"] == ("wall", "off")
    assert all(a.choices == declared[n] for n, a in settings.items())
    argv = [command, *(["q"] if command == "search" else [])]
    for name, value in expected.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    parsed = vars(parser.parse_args(argv))
    for name, value in expected.items():
        assert parsed[name] == value and type(parsed[name]) is type(value), name


def test_masker_outside_its_choices_fails_at_parse_and_at_config_load(tmp_path, capsys):
    edit = ["edit", "--query", "apple", "--doc", "d1", "--counter", "d2"]
    with pytest.raises(SystemExit) as exc:
        _run(*edit, "--masker", "bert")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # Newer Pythons list the choices without quotes.
    assert "--masker: invalid choice: 'bert'" in err
    assert "maxsim" in err and "occlusion" in err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"masker": "bert"}))
    assert _run(*edit, "--config", config) == 1
    message = "invalid config field: masker (one of ('maxsim', 'occlusion'))"
    assert message in capsys.readouterr().err
