"""Serve the backend wire protocol from its own process.

Usage: ``python3 perfbench/stub_child.py CORPUS_JSONL``

Builds a model stack from the corpus with the default build settings,
serves it through ``tests/stub_backend.StubBackendServer`` on a free
loopback port, prints ``READY <base url>`` on standard output, and
shuts down when standard input is closed (so the server also goes away
if the benchmark process dies).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(corpus_path: str) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from queryflip.config import RunConfig
    from queryflip.pipeline import build_stack_from_file
    from stub_backend import StubBackendServer

    config = RunConfig()
    stack = build_stack_from_file(corpus_path, config)
    with StubBackendServer(stack, lam=config.lam) as stub:
        print(f"READY {stub.base_url}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
