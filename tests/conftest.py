"""Shared fixtures: data paths, standard query/profile/gazetteer inputs."""

from __future__ import annotations

import http.server
import json
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from segscore import Gazetteer, GazetteerProvider, Profile, Query

# Property runs must not flake on slow CI filesystems.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
TINY_DIR = DATA_DIR / "tiny"

QUERY_RAW = "web search engines"
PROFILE_TERMS = {"semantic": 0.8, "ranking": 0.5, "python": 0.3}
GAZETTEER_PHRASES = {
    "Topic": ["semantic ranking", "web search"],
    "Organization": ["acme labs"],
}

# Query terms add 1.0 on top of any profile weight for the same term.
FUSED_TERMS = {
    "web": 1.0, "search": 1.0, "engines": 1.0,
    "semantic": 0.8, "ranking": 0.5, "python": 0.3,
}

# Reference per-session statistics: (session_id, msc, msss, mcas).
REFERENCE_ROWS = [
    ("1", 23.21, 6.32, 4.74), ("2", 17.16, 7.25, 5.44), ("3", 16.45, 8.35, 6.26),
    ("4", 12.77, 9.34, 7.01), ("5", 18.31, 12.51, 9.38), ("6", 12.45, 10.26, 7.7),
    ("7", 22.35, 11.33, 8.5), ("8", 23.12, 12.55, 9.41), ("9", 17.54, 13.12, 9.84),
    ("10", 20.32, 15.13, 11.35), ("11", 18.35, 13.21, 9.91),
    ("12", 19.65, 14.32, 10.74), ("13", 18.35, 15.51, 11.63),
    ("14", 17.11, 14.34, 10.76), ("15", 13.45, 14.65, 10.99),
]


@pytest.fixture(scope="session")
def corpus_paths() -> list[Path]:
    paths = sorted(CORPUS_DIR.glob("*.html"))
    assert paths, "corpus fixtures missing"
    return paths


@pytest.fixture(scope="session")
def tiny_paths() -> list[Path]:
    paths = sorted(TINY_DIR.glob("*.html"))
    assert paths, "tiny fixtures missing"
    return paths


@pytest.fixture()
def query() -> Query:
    return Query.parse(QUERY_RAW)


@pytest.fixture()
def profile() -> Profile:
    return Profile(owner_id="u1", terms=dict(PROFILE_TERMS))


@pytest.fixture()
def gazetteer() -> Gazetteer:
    return Gazetteer(GAZETTEER_PHRASES)


@pytest.fixture()
def gazetteer_provider(gazetteer) -> GazetteerProvider:
    return GazetteerProvider(gazetteer)


class _FanOutHandler(http.server.BaseHTTPRequestHandler):
    """Annotation endpoint that counts the requests open at once.

    A text containing "missing" gets a 404.  With ``fail_first`` the first
    request for each text gets a 503.  Otherwise the reply is one Topic
    entity named after the whole text.  Until ``hold`` requests have been
    open at once, each request waits (up to ``hold_s``) for that to happen,
    so a client that can keep that many in flight is seen doing so.
    """

    def do_POST(self):
        server = self.server
        text = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
        with server.cond:
            server.seen[text] += 1
            first = server.seen[text] == 1
            server.open += 1
            server.max_open = max(server.max_open, server.open)
            server.cond.notify_all()
            server.cond.wait_for(lambda: server.max_open >= server.hold, timeout=server.hold_s)
            # closed before the reply goes out, so the client's next request
            # can never overlap this one in the count
            server.open -= 1
        if "missing" in text:
            status, payload = 404, b"no such text"
        elif first and server.fail_first:
            status, payload = 503, b"later"
        else:
            status = 200
            payload = json.dumps({"entities": [{"type": "Topic", "name": text}]}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture()
def fanout_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FanOutHandler)
    server.daemon_threads = True
    server.cond = threading.Condition()
    server.seen = Counter()
    server.open = server.max_open = 0
    server.hold, server.hold_s = 1, 2.0
    server.fail_first = False
    server.endpoint = f"http://127.0.0.1:{server.server_address[1]}/annotate"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
