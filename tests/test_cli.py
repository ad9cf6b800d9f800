from __future__ import annotations

import json

import pytest

from queryflip.cli import main

from conftest import SAMPLE_LINES


@pytest.fixture()
def workdir(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(SAMPLE_LINES) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": str(corpus),
        "artifacts": str(tmp_path / "artifacts"),
        "out_dir": str(tmp_path / "reports"),
        "embed_dim": 4,
        "embed_window": 2,
        "timing": "off",
    }))
    return tmp_path, config


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


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("{not json", "triplets file line 2: "),
        ("[1]", "triplets file line 2: not a JSON object"),
    ],
    ids=["malformed", "not_object"],
)
def test_edit_bad_triplets_line_names_line(workdir, capsys, bad_line, message):
    tmp, config = workdir
    assert _run("index", "--config", config) == 0
    triplets = tmp / "triplets.jsonl"
    good = {"query": "apple recipe", "doc_id": "d1", "counter_doc_id": "d3"}
    triplets.write_text(json.dumps(good) + "\n" + bad_line + "\n")
    capsys.readouterr()
    assert _run("edit", "--config", config, "--triplets", triplets) == 1
    assert message in capsys.readouterr().err


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
    assert "| Flip Rate |" in markdown_path.read_text()


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
