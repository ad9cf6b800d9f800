from __future__ import annotations

import json

import pytest

from queryflip.config import RunConfig
from queryflip.corpus import ingest_corpus
from queryflip.pipeline import Stack, build_stack, make_context

# Three tiny documents used by the golden-value tests throughout the
# suite. All lengths are 3, so avgdl is exactly 3.0 and the BM25 length
# normalization factor is exactly 1.
SAMPLE_RECORDS = [
    {"id": "d1", "text": "apple pie recipe"},
    {"id": "d2", "text": "apple tree orchard"},
    {"id": "d3", "text": "banana bread recipe"},
]

SAMPLE_LINES = [json.dumps(r) for r in SAMPLE_RECORDS]


def sample_config(**overrides) -> RunConfig:
    base = {"embed_dim": 4, "embed_window": 2, "timing": "off"}
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def sample_stack() -> Stack:
    return build_stack(ingest_corpus(SAMPLE_LINES), sample_config())


@pytest.fixture(scope="session")
def sample_ctx(sample_stack):
    return make_context(sample_stack, sample_config())


# ---------------------------------------------------------------------------
# One visible pass/fail line per acceptance criterion

_criterion_results: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.name.startswith("test_criterion_"):
        _criterion_results[item.name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_criterion_results):
        status = "PASS" if _criterion_results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {status}  {name}")
