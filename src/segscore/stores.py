"""Persistent stores: user profiles and page snapshots.

Profiles are small versioned JSON files mapping terms to weights in
[0, 1].  Snapshots keep one directory per URL (named by URL hash) with
one JSON file per capture, written atomically via a temp file rename,
so a crashed writer can never leave a half-written snapshot behind.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from hashlib import sha256
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import MalformedProfile, MissingFile, StorageFailure, decode_json
from .segmenter import Segment
from .terms import tokenize

__all__ = [
    "Profile",
    "load_profile",
    "SnapshotSegment",
    "SnapshotRecord",
    "SnapshotStore",
    "match_prior_segment",
]


@dataclass(frozen=True)
class Profile:
    """A user's weighted interest terms.

    Terms must be single normalized tokens (what tokenize() would give
    back unchanged) and weights must lie in [0, 1].
    """

    owner_id: str = ""
    terms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for term, weight in self.terms.items():
            if tokenize(term) != [term]:
                raise MalformedProfile(f"profile term {term!r} is not a single normalized token")
            if (isinstance(weight, bool) or not isinstance(weight, (int, float))
                    or not 0.0 <= weight <= 1.0):
                raise MalformedProfile(f"weight for {term!r} must be in [0, 1], got {weight!r}")


def load_profile(path: str | Path) -> Profile:
    """Read a profile file.

    Accepts the versioned object form ``{"v": 1, "owner_id": ..., "terms":
    [...]}``, a bare JSON list of {term, weight} entries, or an empty file
    (zero terms).  Each term must be a string.
    """
    p = Path(path)
    try:
        raw = p.read_text("utf-8")
    except FileNotFoundError:
        raise MissingFile(f"profile file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedProfile(f"cannot read profile file {p}: {exc}") from exc
    if not raw.strip():
        return Profile()
    try:
        data = decode_json(raw, p)
    except ValueError as exc:
        raise MalformedProfile(f"{p}: not valid JSON: {exc}") from exc

    owner_id = ""
    if isinstance(data, list):
        items = data
    elif isinstance(data, dict):
        owner_id = str(data.get("owner_id", ""))
        items = data.get("terms", [])
        if not isinstance(items, list):
            raise MalformedProfile(f"{p}: 'terms' must be a list")
    else:
        raise MalformedProfile(f"{p}: profile must be a JSON object or list")

    terms: dict[str, float] = {}
    for item in items:
        if not isinstance(item, dict) or "term" not in item or "weight" not in item:
            raise MalformedProfile(f"{p}: each entry needs 'term' and 'weight', got {item!r}")
        term = item["term"]
        if not isinstance(term, str):
            raise MalformedProfile(f"{p}: profile term {term!r} is not a string")
        if term in terms:
            raise MalformedProfile(f"{p}: duplicate term {term!r}")
        terms[term] = item["weight"]
    return Profile(owner_id=owner_id, terms=terms)


# ── snapshots ───────────────────────────────────────────────────────


@dataclass(frozen=True)
class SnapshotSegment:
    """What freshness needs from a past segment: fingerprint and tokens."""

    fingerprint: int
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class SnapshotRecord:
    url: str
    captured_at: datetime  # timezone-aware
    segments: tuple[SnapshotSegment, ...]

    def __post_init__(self) -> None:
        if self.captured_at.tzinfo is None:
            raise ValueError("captured_at must be timezone-aware")

    @classmethod
    def for_segments(cls, url: str, captured_at: datetime,
                     segments: list[Segment]) -> "SnapshotRecord":
        return cls(
            url=url,
            captured_at=captured_at,
            segments=tuple(
                SnapshotSegment(seg.fingerprint, tuple(seg.tokens)) for seg in segments
            ),
        )


class SnapshotStore:
    """Directory-per-URL snapshot storage with atomic writes.

    Paths are plain strings: every visit lists and reads the URL's
    directory, and pathlib would parse (and intern) each file name.
    """

    def __init__(self, root: str | Path):
        self._root = os.fspath(root)

    def _dir_for(self, url: str) -> str:
        return os.path.join(self._root, sha256(url.encode("utf-8")).hexdigest()[:16])

    def _latest_name(self, directory: str, url: str) -> str | None:
        """Newest visible snapshot file name in the directory, or None."""
        try:
            names = [name for name in os.listdir(directory)
                     if name.endswith(".json") and not name.startswith(".")]
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageFailure(f"cannot list snapshots for {url}: {exc}") from exc
        return max(names) if names else None  # names sort by UTC capture time

    def put_snapshot(self, record: SnapshotRecord) -> Path:
        """Persist one capture; timestamps must strictly increase per URL."""
        return Path(self._put(record))

    def _put(self, record: SnapshotRecord) -> str:
        """put_snapshot returning the path as a string, which score_page
        uses: a Path would parse, and intern, every new file name."""
        directory = self._dir_for(record.url)
        try:
            utc = record.captured_at.astimezone(timezone.utc)
        except OverflowError as exc:
            raise StorageFailure(
                f"snapshot time {record.captured_at.isoformat()} has no UTC equivalent: {exc}"
            ) from exc
        # %Y does not pad years below 1000, which would break name order
        name = f"{utc.year:04d}{utc:%m%dT%H%M%S_%f}.json"
        latest = self._latest_name(directory, record.url)
        if latest is not None and name <= latest:
            prior = _read_record(os.path.join(directory, latest), record.url)
            raise StorageFailure(
                f"snapshot timestamps must increase: {record.captured_at.isoformat()} "
                f"is not after {prior.captured_at.isoformat()}"
            )
        final = os.path.join(directory, name)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(_snapshot_json(record))
                os.replace(tmp_name, final)  # atomic on POSIX
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except FileNotFoundError:
                    pass
                raise
        except OSError as exc:
            raise StorageFailure(f"cannot write snapshot for {record.url}: {exc}") from exc
        return final

    def latest_snapshot(self, url: str) -> SnapshotRecord | None:
        """Most recent capture of the URL, or None on first visit."""
        directory = self._dir_for(url)
        latest = self._latest_name(directory, url)
        return None if latest is None else _read_record(os.path.join(directory, latest), url)


def _snapshot_json(record: SnapshotRecord) -> str:
    """The snapshot file text, byte for byte ``json.dumps(payload, indent=2,
    sort_keys=True)`` for the payload ``{"v": 1, "url": ..., "captured_at":
    ..., "segments": [{"fingerprint": "<decimal>", "tokens": [...]}, ...]}``.

    json.dumps falls back to its pure-Python encoder whenever an indent is
    given; here only the layout is Python and every string goes through
    the C escaper json.dumps itself uses.
    """
    enc = encode_basestring_ascii
    segments = []
    for seg in record.segments:
        if seg.tokens:
            tokens = "[\n        " + ",\n        ".join(map(enc, seg.tokens)) + "\n      ]"
        else:
            tokens = "[]"
        segments.append('{\n      "fingerprint": ' + enc(str(seg.fingerprint))
                        + ',\n      "tokens": ' + tokens + "\n    }")
    listing = "[\n    " + ",\n    ".join(segments) + "\n  ]" if segments else "[]"
    return ('{\n  "captured_at": ' + enc(record.captured_at.isoformat())
            + ',\n  "segments": ' + listing
            + ',\n  "url": ' + enc(record.url)
            + ',\n  "v": 1\n}')


def _read_record(path: str, url: str) -> SnapshotRecord:
    """Load one snapshot file, which must be a capture of url: directories
    are named by a 64-bit hash prefix, so two URLs may share one."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = decode_json(handle.read(), path)
        if data["url"] != url:
            raise StorageFailure(f"snapshot {path} is of {data['url']!r}, not of {url!r}")
        return SnapshotRecord(
            url=data["url"],
            captured_at=datetime.fromisoformat(data["captured_at"]),
            segments=tuple(
                SnapshotSegment(int(seg["fingerprint"]), tuple(seg["tokens"]))
                for seg in data["segments"]
            ),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StorageFailure(f"corrupt snapshot {path}: {exc}") from exc


class _MatchIndex:
    """Lookup tables over a snapshot's segments, built once per record."""

    __slots__ = ("by_fingerprint", "by_token", "sizes", "empty")

    def __init__(self, segments: tuple[SnapshotSegment, ...]):
        self.by_fingerprint: dict[int, list[int]] = {}
        self.by_token: dict[str, list[int]] = {}
        self.sizes: list[int] = []
        self.empty: list[int] = []
        for index, prior in enumerate(segments):
            self.by_fingerprint.setdefault(prior.fingerprint, []).append(index)
            distinct = set(prior.tokens)
            for token in distinct:
                self.by_token.setdefault(token, []).append(index)
            self.sizes.append(len(distinct))
            if not distinct:
                self.empty.append(index)


def match_prior_segment(segment: Segment, snap: SnapshotRecord) -> SnapshotSegment | None:
    """Find the snapshot segment this segment descends from, if any.

    Exact fingerprint matches win; otherwise the positionally nearest
    prior segment with token Jaccard >= 0.5; None when nothing clears
    the threshold (the segment is new to the page).  Ties go to the
    earlier prior segment, keeping the choice deterministic.

    The first call on a record builds a fingerprint table and an
    inverted token index and keeps them on the record, outside its
    fields, so later calls cost per shared token instead of per prior
    segment.  Threads racing on that first call build equal indexes.
    """
    index = getattr(snap, "_match_index", None)
    if index is None:
        index = _MatchIndex(snap.segments)
        object.__setattr__(snap, "_match_index", index)

    candidates = index.by_fingerprint.get(segment.fingerprint)
    if candidates is None:
        current = set(segment.tokens)
        if current:
            n, sizes, by_token = len(current), index.sizes, index.by_token
            overlaps = Counter(chain.from_iterable([by_token.get(t, ()) for t in current]))
            # Jaccard |a & b| / |a | b| of the token sets, from integer counts
            candidates = [i for i, k in overlaps.items() if k / (n + sizes[i] - k) >= 0.5]
        else:
            candidates = index.empty  # two empty sets count as equal
    if not candidates:
        return None
    target = segment.id
    return snap.segments[min(candidates, key=lambda i: (abs(i - target), i))]
