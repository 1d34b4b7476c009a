"""Entity annotation: pluggable providers plus the annotation score.

Three interchangeable providers share one duck-typed surface
(``provider_id`` attribute and an ``annotate(text) -> list[Entity]``
method): a remote HTTP service, a local gazetteer, and a replay provider
that serves recorded responses for offline runs.  A provider may also
offer ``annotate_tokens(tokens)``, which must equal
``annotate(text)`` for ``tokens == tokenize(text)``; ``annotate_texts``
then hands it tokens already made instead of the text.  Provider outages
and protocol violations raise distinct errors so callers can degrade
deliberately instead of silently.
"""

from __future__ import annotations

import queue
import re
import socket
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from .errors import ProviderProtocol, ProviderUnavailable, checked, decode_json, finite
from .terms import WeightedTermSet, match_score, tokenize

__all__ = [
    "Entity",
    "AnnotationSet",
    "CategoryWeights",
    "Gazetteer",
    "GazetteerProvider",
    "ReplayProvider",
    "RemoteProvider",
    "annotate",
    "annotate_texts",
    "annotation_score",
    "text_key",
]


@dataclass(frozen=True)
class Entity:
    """One annotated entity: category label, surface name, relevance."""

    category: str
    name: str
    relevance: float = 1.0

    def __post_init__(self) -> None:
        if not self.category or not self.name:
            raise ValueError("entity category and name must be non-empty")
        if not 0.0 <= self.relevance <= 1.0:
            raise ValueError(f"entity relevance must be in [0, 1], got {self.relevance}")


@dataclass
class AnnotationSet:
    """Entities one provider produced for one segment's text."""

    entities: list[Entity]
    provider_id: str
    segment_id: int = 0


@dataclass(frozen=True)
class CategoryWeights:
    """Category -> annotation score weight, set in code; unlisted categories weigh 1.0."""

    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for category, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"category weight for {category!r} must be >= 0")

    def weight(self, category: str) -> float:
        return self.weights.get(category, 1.0)


# ── gazetteer ───────────────────────────────────────────────────────


class Gazetteer:
    """Category -> phrase list; lookup is case-insensitive on token boundaries.

    Entries sort by category, then file order.  Lookup walks the text's
    tokens once and tests only the phrases that start with each token, so
    its cost grows with the text, not with the number of phrases; tokens
    that start no phrase at all are settled by one set test.
    """

    def __init__(self, phrases: Mapping[str, Sequence[str]]):
        entries: list[tuple[str, str, list[str]]] = []
        for category in sorted(phrases):
            if not isinstance(category, str) or not category:
                raise ValueError(f"gazetteer category {category!r} must be a non-empty name")
            listed = phrases[category]
            if not isinstance(listed, (list, tuple)):
                raise ValueError(f"gazetteer category {category!r} must map to a list "
                                 f"of strings, not {type(listed).__name__}")
            for phrase in listed:
                try:
                    phrase_tokens = tokenize(phrase)
                except (AttributeError, TypeError):  # tokenize takes only str
                    raise ValueError(f"gazetteer phrase {phrase!r} in category "
                                     f"{category!r} is not a string") from None
                if not phrase_tokens:
                    raise ValueError(f"gazetteer phrase {phrase!r} has no tokens")
                entries.append((category, phrase, phrase_tokens))
        if not entries:
            raise ValueError("gazetteer has no phrases")
        self._entries = entries
        # First token -> (entry index, phrase tokens), built by the first
        # lookup: an eager build would charge every gazetteer at load time.
        # Concurrent first lookups may each build it; the builds are equal.
        self._by_first_token: dict[str, list[tuple[int, list[str]]]] | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "Gazetteer":
        data = decode_json(Path(path).read_text("utf-8"), path)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: gazetteer file must map categories to phrase lists")
        return cls(data)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, tokens: Sequence[str]) -> list[tuple[str, str, list[str]]]:
        """Entries whose phrase occurs contiguously in ``tokens``, in entry order.

        Every matching entry is returned once, however often its phrase
        occurs; a phrase listed twice is two entries.
        """
        index = self._by_first_token
        if index is None:
            index = {}
            for position, (_, _, phrase_tokens) in enumerate(self._entries):
                index.setdefault(phrase_tokens[0], []).append((position, phrase_tokens))
            self._by_first_token = index
        if not isinstance(tokens, list):
            tokens = list(tokens)  # slices must be lists to equal the phrase tokens
        if index.keys().isdisjoint(tokens):
            return []  # no token starts a phrase
        hits: set[int] = set()
        for start, token in enumerate(tokens):
            for position, phrase_tokens in index.get(token, ()):
                if tokens[start:start + len(phrase_tokens)] == phrase_tokens:
                    hits.add(position)
        return [self._entries[position] for position in sorted(hits)]


class GazetteerProvider:
    """Annotates with every gazetteer phrase found in the text.

    One entity per matching (category, phrase), relevance 1.0, emitted in
    gazetteer order, so output is fully deterministic.
    """

    provider_id = "gazetteer"

    def __init__(self, gazetteer: Gazetteer):
        self._gazetteer = gazetteer

    def annotate(self, text: str) -> list[Entity]:
        return self.annotate_tokens(tokenize(text))

    def annotate_tokens(self, tokens: Sequence[str]) -> list[Entity]:
        """``annotate(text)`` for ``tokens == tokenize(text)``."""
        return [Entity(category=category, name=phrase, relevance=1.0)
                for category, phrase, _ in self._gazetteer.lookup(tokens)]


# ── wire payload shared by replay and remote ────────────────────────


def _parse_entities(payload: object, origin: str) -> list[Entity]:
    """Validate a ``{"entities": [{"type", "name", "relevance"?}]}`` payload."""
    if isinstance(payload, (bytes, str)):
        try:
            payload = decode_json(payload, origin)
        except ValueError as exc:
            raise ProviderProtocol(f"{origin}: response is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or "entities" not in payload:
        raise ProviderProtocol(f"{origin}: response lacks an 'entities' list")
    raw_entities = payload["entities"]
    if not isinstance(raw_entities, list):
        raise ProviderProtocol(f"{origin}: 'entities' is not a list")
    entities: list[Entity] = []
    for item in raw_entities:
        if not isinstance(item, dict):
            raise ProviderProtocol(f"{origin}: entity entry is not an object")
        try:
            entities.append(Entity(
                category=checked(item["type"], str, "type"),
                name=checked(item["name"], str, "name"),
                relevance=finite(item.get("relevance", 1.0), "relevance"),
            ))
        except (KeyError, ValueError) as exc:
            raise ProviderProtocol(f"{origin}: bad entity entry {item!r}: {exc}") from exc
    return entities


def text_key(text: str) -> str:
    """Hash key identifying a text in replay fixture files."""
    return sha256(text.encode("utf-8")).hexdigest()


class ReplayProvider:
    """Serves recorded responses keyed by text hash; byte-stable by design."""

    provider_id = "replay"

    def __init__(self, fixtures: Mapping[str, object]):
        self._fixtures = dict(fixtures)

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayProvider":
        data = decode_json(Path(path).read_text("utf-8"), path)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: replay fixtures must map text keys to responses")
        return cls(data)

    def annotate(self, text: str) -> list[Entity]:
        key = text_key(text)
        if key not in self._fixtures:
            raise ProviderUnavailable(f"no recorded response for text key {key}")
        return _parse_entities(self._fixtures[key], origin="replay fixture")


# Client errors that can clear up on their own: request timeout, rate limit.
_RETRIED_CLIENT_ERRORS = frozenset({408, 429})
_DEFAULT_PORTS = {"http": 80, "https": 443}
# A reply's head ends at its first empty line; bare LF line ends count too.
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS = re.compile("[1-9][0-9][0-9]")
_CONTENT_LENGTH = re.compile(rb"\ncontent-length:([^\r\n]*)", re.IGNORECASE)


def _parse_reply(reply: bytes, origin: str) -> tuple[int, str, bytes]:
    """``(status, reason, body)`` of one HTTP/1.0 reply read to EOF.

    A reply that is empty, ends in its head or is shorter than its
    ``Content-Length`` was cut off in transit: ConnectionError.  One
    whose status line cannot be read is ProviderProtocol.
    """
    if not reply:
        raise ConnectionResetError("Remote end closed connection without response")
    end = _HEAD_END.search(reply)
    head = reply[:end.start()] if end else reply
    fields = head.split(b"\n", 1)[0].decode("latin-1").split(None, 2)
    if len(fields) < 2 or not fields[0].startswith("HTTP/") or not _STATUS.fullmatch(fields[1]):
        raise ProviderProtocol(f"{origin}: reply has no HTTP status line: {reply[:80]!r}")
    if end is None:
        raise ConnectionError("Remote end closed connection inside the reply head")
    body = reply[end.end():]
    declared = _CONTENT_LENGTH.search(head)
    if declared:
        try:
            length = int(declared.group(1))
        except ValueError:  # unreadable: the body runs to EOF, as without one
            length = -1
        if length > len(body):
            raise ConnectionError(f"reply body ended after {len(body)} of its {length} bytes")
        if length >= 0:
            body = body[:length]
    return int(fields[1]), fields[2].strip() if len(fields) > 2 else "", body


class RemoteProvider:
    """POSTs raw UTF-8 text to an annotation endpoint and parses the reply.

    Each attempt is one HTTP/1.0 exchange on a connection of its own:
    the request goes out in one write and the reply is read to EOF.
    Proxy environment variables are not consulted, and an https endpoint
    is checked against the system's trusted certificates.  The endpoint
    must be an http or https URL with a host, without user info, whose
    path and query are printable ASCII without spaces; any other is a
    ValueError here.

    Transient failures (transport errors, a reply cut short, HTTP 5xx,
    408 and 429) are retried with exponential backoff before giving up
    with ProviderUnavailable; a redirect (3xx) or any other HTTP 4xx
    gives up after one attempt, and a reply without an HTTP status line
    or that does not follow the wire schema raises ProviderProtocol
    immediately.  A gate of ``in_flight`` tokens keeps at most that many
    requests in flight across all threads.  ``annotate_texts`` overlaps
    requests on the provider's pool of ``in_flight`` threads, one task
    per text; the pool is started by the first call that overlaps
    requests and reused by every later one.
    """

    provider_id = "remote"

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.5,
        in_flight: int = 4,
    ):
        if retries < 1:
            raise ValueError("retries must be >= 1")
        if in_flight < 1:
            raise ValueError("in_flight must be >= 1")
        try:
            parts = urlsplit(endpoint)
            hostname, port = parts.hostname, parts.port
        except ValueError as exc:
            raise ValueError(f"endpoint {endpoint!r} is not a valid URL: {exc}") from None
        if parts.scheme not in _DEFAULT_PORTS:
            raise ValueError(f"endpoint {endpoint!r} must be an http or https URL")
        if not hostname:
            raise ValueError(f"endpoint {endpoint!r} has no host")
        if "@" in parts.netloc:
            raise ValueError(f"endpoint {endpoint!r} must not carry user info")
        if port == 0:
            raise ValueError(f"endpoint {endpoint!r} has port 0")
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        host = parts.netloc
        if not host.isascii():
            host = host.encode("idna").decode("ascii")  # UnicodeError is a ValueError
        for what, value in (("host", host), ("path and query", target)):
            if not (value.isascii() and value.isprintable()) or " " in value:
                raise ValueError(f"endpoint {endpoint!r} must have its {what} in "
                                 "printable ASCII without spaces")
        self.in_flight = in_flight
        self._endpoint = endpoint
        self._address = (hostname, port or _DEFAULT_PORTS[parts.scheme])
        self._https = parts.scheme == "https"
        self._head = (f"POST {target} HTTP/1.0\r\nHost: {host}\r\n"
                      "Content-Type: text/plain; charset=utf-8\r\n"
                      "Content-Length: ").encode("ascii")
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff
        # in_flight tokens: each attempt takes one and puts it back
        self._gate: queue.SimpleQueue[None] = queue.SimpleQueue()
        for _ in range(in_flight):
            self._gate.put(None)
        self._lazy = threading.Lock()  # guards the first build of the two below
        self._tls_context = None
        self._pool: ThreadPoolExecutor | None = None

    def annotate(self, text: str) -> list[Entity]:
        body = text.encode("utf-8")
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        last_error: object = None
        for attempt in range(self._retries):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            self._gate.get()
            try:
                status, reason, payload = _parse_reply(self._exchange(request), self._endpoint)
            except OSError as exc:  # urllib.error.URLError included
                last_error = exc
                continue
            finally:
                self._gate.put(None)
            if 200 <= status < 300:
                return _parse_entities(payload, origin=self._endpoint)
            if 300 <= status < 500 and status not in _RETRIED_CLIENT_ERRORS:
                raise ProviderUnavailable(
                    f"{self._endpoint} refused the request: HTTP {status} {reason}")
            last_error = f"HTTP Error {status}: {reason}"
        raise ProviderUnavailable(
            f"{self._endpoint} unreachable after {self._retries} attempts: {last_error}"
        )

    def _exchange(self, request: bytes) -> bytes:
        """Send ``request`` on a new connection and read the reply to EOF.

        An OSError while connecting or sending comes wrapped in URLError,
        as urllib wraps it, so flags read as they did with urllib; one
        while reading is raised as it is.
        """
        try:
            sock = socket.create_connection(self._address, self._timeout)
        except OSError as exc:
            raise urllib.error.URLError(exc) from exc
        try:
            try:
                if self._https:
                    sock = self._tls().wrap_socket(sock, server_hostname=self._address[0])
                sock.sendall(request)
            except OSError as exc:
                raise urllib.error.URLError(exc) from exc
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        finally:
            sock.close()
        return b"".join(chunks)

    def _tls(self):
        """The one TLS context of an https endpoint, built at first use."""
        if self._tls_context is None:
            import ssl
            with self._lazy:
                if self._tls_context is None:
                    self._tls_context = ssl.create_default_context()
        return self._tls_context

    def _executor(self) -> ThreadPoolExecutor:
        """The ``in_flight`` threads ``annotate_texts`` overlaps requests on, built at first use."""
        if self._pool is None:
            with self._lazy:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(self.in_flight,
                                                    thread_name_prefix="segscore-annotate")
        return self._pool


def annotate(text: str, provider, segment_id: int = 0) -> AnnotationSet:
    """Run one provider over one segment's text."""
    entities = provider.annotate(text)
    return AnnotationSet(entities=entities, provider_id=provider.provider_id,
                         segment_id=segment_id)


def annotate_texts(
    provider,
    texts: Sequence[str],
    tokens: Sequence[Sequence[str]] | None = None,
) -> list:
    """Each text's entities or provider error, in input order.

    ``tokens``, when given, holds ``tokenize(text)`` for each text; a
    provider with ``annotate_tokens`` is then handed those instead of
    the texts, and any other provider still gets the texts.  Only a
    RemoteProvider overlaps requests: each text is one task on the
    provider's pool of ``in_flight`` threads, and the calling thread
    waits for all of them.  A provider error keeps only its class and
    message.  Any other exception propagates; when requests overlap, it
    is raised after every text has run, and of several, the earliest
    text's is raised.
    """
    call, items = provider.annotate, texts
    if tokens is not None:
        if len(tokens) != len(texts):
            raise ValueError(f"{len(tokens)} token lists for {len(texts)} texts")
        if hasattr(provider, "annotate_tokens"):
            call, items = provider.annotate_tokens, tokens

    def one(item):
        try:
            return call(item)
        except (ProviderUnavailable, ProviderProtocol) as exc:
            return type(exc)(str(exc))

    if not isinstance(provider, RemoteProvider) or min(provider.in_flight, len(texts)) < 2:
        return [one(item) for item in items]
    pool = provider._executor()
    futures = [pool.submit(one, item) for item in items]
    wait(futures)  # every text runs before the earliest failure is raised
    return [future.result() for future in futures]


def annotation_score(
    ann: AnnotationSet,
    fused: WeightedTermSet,
    category_weights: CategoryWeights,
) -> float:
    """Weighted fused-term mass of the annotated entity names.

    Each entity contributes category weight x relevance x the fused
    match of its tokenized name; entities whose names share no fused
    term contribute nothing.
    """
    total = 0.0
    for entity in ann.entities:
        total += (
            category_weights.weight(entity.category)
            * entity.relevance
            * match_score(tokenize(entity.name), fused)
        )
    return total
