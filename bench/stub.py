"""Loopback stub annotator for the remote_annotate workload.

A stdlib ThreadingHTTPServer on 127.0.0.1 that speaks segscore's remote
wire format.  Faults are deterministic: within one visit (set by
``new_visit``) the first attempt for about one text in ``fault_one_in``
(chosen by a seeded hash of the text) answers 503, and while ``outage``
is set every request answers 503.  The stub counts requests and its own
service time so the traced run can split client time into server time
and transport plus backoff.
"""

from __future__ import annotations

import json
import re
import threading
import time
from hashlib import sha256
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_WORD = re.compile(r"[^\W_]+")
# Terms the stub recognises; the query and profile terms among them score.
TOPICS = ("crawl", "engines", "index", "python", "ranking", "search", "semantic", "web")


def entities_for(text: str) -> list[dict]:
    present = set(_WORD.findall(text.lower()))
    return [{"type": "Topic", "name": t, "relevance": 0.5} for t in TOPICS if t in present]


class StubAnnotator:
    """In-process annotation server; use as a context manager."""

    def __init__(self, seed: int, delay_s: float, fault_one_in: int):
        self._salt = f"stub:{seed}:".encode()
        self._delay = delay_s
        self._fault_one_in = fault_one_in
        self._lock = threading.Lock()
        self._attempts: dict[bytes, int] = {}
        self.outage = False
        self.requests = 0
        self.service_s = 0.0
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._server.daemon_threads = False  # server_close joins request threads
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/annotate"

    def __enter__(self) -> "StubAnnotator":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def new_visit(self, outage: bool = False) -> None:
        """Start a page visit: first attempts fault again, outage as given."""
        with self._lock:
            self._attempts.clear()
            self.outage = outage

    def counters(self) -> tuple[int, float]:
        with self._lock:
            return self.requests, self.service_s

    def _respond(self, body: bytes) -> tuple[int, bytes]:
        key = sha256(self._salt + body).digest()
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            outage = self.outage
        time.sleep(self._delay)
        if outage or (attempt == 0 and key[0] % self._fault_one_in == 0):
            return 503, b""
        text = body.decode("utf-8")
        return 200, json.dumps({"entities": entities_for(text)}).encode("utf-8")

    def _handler_class(self):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server naming)
                started = time.perf_counter()
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, payload = stub._respond(body)
                if status == 200:
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                else:
                    self.send_error(status)
                elapsed = time.perf_counter() - started
                with stub._lock:
                    stub.requests += 1
                    stub.service_s += elapsed

            def log_message(self, format, *args):  # keep the benchmark's stdout clean
                pass

        return Handler
