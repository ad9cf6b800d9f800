"""Local HTTP stub implementing the backend wire protocol for tests.

The default handler wraps a built-in model stack, so a client pointed at
the stub must reproduce in-process results exactly. Misbehaving variants
(slow, wrong schema, non-finite numbers) support the error-path tests.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from queryflip.lm import NgramPredictor, perplexity
from queryflip.pipeline import Stack
from queryflip.text import tokenize


class StubBackendServer:
    """Serves /score, /embed, /predict and /perplexity from a Stack."""

    def __init__(self, stack: Stack, lam: float = 0.5):
        self.stack = stack
        self.lam = lam
        self.calls: list[str] = []
        # knobs for misbehaviour tests
        self.sleep_s = 0.0
        self.fail_next = 0          # respond 500 to this many requests
        self.override: dict | None = None  # raw response body override

        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # keep test output quiet
                pass

            def do_POST(self):
                try:
                    self._respond()
                except BrokenPipeError:
                    pass  # client timed out while we were sleeping

            def _respond(self):
                length = int(self.headers.get("Content-Length", "0"))
                request = json.loads(self.rfile.read(length) or b"{}")
                role = self.path.strip("/")
                server.calls.append(role)
                if server.sleep_s:
                    time.sleep(server.sleep_s)
                if server.fail_next > 0:
                    server.fail_next -= 1
                    self.send_response(500)
                    self.end_headers()
                    return
                if server.override is not None:
                    body = server.override
                else:
                    body = server.handle(role, request)
                payload = json.dumps(body).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    def handle(self, role: str, request: dict) -> dict:
        stack = self.stack
        if role == "score":
            ids = stack.vocab.encode(tokenize(request["query"]))
            return {"score": stack.search.score(ids, request["doc_id"])}
        if role == "embed":
            ids = [stack.vocab.id(s) for s in request["tokens"]]
            return {"vectors": stack.table.vectors_for(ids).tolist()}
        if role == "predict":
            masked = [stack.vocab.id(s) for s in request["masked_query"]]
            d_prime = stack.vocab.encode(tokenize(request["doc"]))
            dist = NgramPredictor(stack.lm, d_prime, self.lam).predict(
                masked, request["position"], request["top"]
            )
            return {
                "tokens": stack.vocab.decode(t for t, _ in dist.entries),
                "probs": [p for _, p in dist.entries],
            }
        if role == "perplexity":
            ids = [stack.vocab.id(s) for s in request["tokens"]]
            return {"ppl": perplexity(ids, stack.lm)}
        raise ValueError(f"unknown role {role}")

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubBackendServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
