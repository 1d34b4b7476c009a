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

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ProviderProtocol, ProviderUnavailable
from .scoring import read_weight_table
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
    """Category -> weight used by the annotation score; unlisted = 1.0."""

    weights: dict[str, float] = field(default_factory=dict)
    default: float = 1.0

    def __post_init__(self) -> None:
        if self.default < 0:
            raise ValueError("default category weight must be >= 0")
        for category, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"category weight for {category!r} must be >= 0")

    def weight(self, category: str) -> float:
        return self.weights.get(category, self.default)

    @classmethod
    def from_file(cls, path: str | Path) -> "CategoryWeights":
        return cls(weights=read_weight_table(path, "category weights"))


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
        data = json.loads(Path(path).read_text("utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"{path}: gazetteer file must map categories to phrase lists")
        return cls(data)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[tuple[str, str, list[str]]]:
        return list(self._entries)

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
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
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
                category=item["type"],
                name=item["name"],
                relevance=float(item.get("relevance", 1.0)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
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
        data = json.loads(Path(path).read_text("utf-8"))
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


class RemoteProvider:
    """POSTs raw UTF-8 text to an annotation endpoint and parses the reply.

    Transient failures (transport errors, HTTP 5xx, 408 and 429) are
    retried with exponential backoff before giving up with
    ProviderUnavailable; any other HTTP 4xx gives up after one attempt,
    and a reply that does not follow the wire schema raises
    ProviderProtocol immediately.  At most ``in_flight`` requests run
    concurrently; ``annotate_texts`` overlaps that many.
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
        self.in_flight = in_flight
        self._endpoint = endpoint
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff
        self._gate = threading.Semaphore(in_flight)

    def annotate(self, text: str) -> list[Entity]:
        body = text.encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self._retries):
            if attempt:
                time.sleep(self._backoff * (2 ** (attempt - 1)))
            try:
                raw = self._post(body)
            except urllib.error.HTTPError as exc:
                exc.close()  # the error holds the response and its socket
                if 400 <= exc.code < 500 and exc.code not in _RETRIED_CLIENT_ERRORS:
                    raise ProviderUnavailable(
                        f"{self._endpoint} refused the request: HTTP {exc.code} {exc.reason}"
                    ) from exc
                last_error = exc
                continue
            except (urllib.error.URLError, OSError) as exc:
                last_error = exc
                continue
            return _parse_entities(raw, origin=self._endpoint)
        raise ProviderUnavailable(
            f"{self._endpoint} unreachable after {self._retries} attempts: {last_error}"
        )

    def _post(self, body: bytes) -> bytes:
        request = urllib.request.Request(
            self._endpoint,
            data=body,
            headers={"Content-Type": "text/plain; charset=utf-8"},
            method="POST",
        )
        with self._gate:
            with urllib.request.urlopen(request, timeout=self._timeout) as response:
                return response.read()


def annotate(text: str, provider, segment_id: int = 0) -> AnnotationSet:
    """Run one provider over one segment's text."""
    entities = provider.annotate(text)
    return AnnotationSet(entities=entities, provider_id=provider.provider_id,
                         segment_id=segment_id)


def annotate_texts(
    provider,
    texts: Sequence[str],
    workers: int | None = None,
    tokens: Sequence[Sequence[str]] | None = None,
) -> list:
    """Each text's entities or provider error, in input order.

    ``tokens``, when given, holds ``tokenize(text)`` for each text; a
    provider with ``annotate_tokens`` is then handed those instead of
    the texts, and any other provider still gets the texts.  Only a
    RemoteProvider overlaps requests: up to ``workers``, which its
    ``in_flight`` caps and replaces when None.  An error keeps only its
    class and message; any other exception propagates.
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

    threads = (min(workers or provider.in_flight, provider.in_flight, len(texts))
               if isinstance(provider, RemoteProvider) else 1)
    if threads <= 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, items))


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
