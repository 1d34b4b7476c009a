"""Exception types shared across the package, and the checks every JSON
input goes through: each rejects what it refuses with a one-line ValueError."""

import json
import math


class SegscoreError(Exception):
    """Base class for every error raised by this package."""


class MalformedInput(SegscoreError):
    """Page input was not a decodable HTML byte stream."""


class EmptyPage(SegscoreError):
    """The parsed page body holds no visible text."""


class ProviderUnavailable(SegscoreError):
    """An annotation provider could not be reached or has no answer."""


class ProviderProtocol(SegscoreError):
    """An annotation provider answered with a malformed payload."""


class MissingFile(SegscoreError):
    """A required input file does not exist."""


class MalformedProfile(SegscoreError):
    """Profile data violates the profile schema."""


class StorageFailure(SegscoreError):
    """A snapshot or profile write/read failed at the storage layer."""


class EmptySession(SegscoreError):
    """Session statistics were requested for zero page reports."""


# ── JSON input checks shared by every loader ────────────────────────


def decode_json(text: str | bytes, origin: object) -> object:
    """``json.loads(text)``; text that is not JSON, not UTF-8, nested too
    deeply or holds an integer past the digit limit raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{origin}: JSON nested too deeply to decode") from None


def checked(value: object, kind: type, what: str):
    """``value`` if it is a JSON ``kind``, else ValueError; a bool is no JSON integer."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")


def finite(value: object, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else ValueError; a
    bool is no JSON number, and an integer too large for a float is not finite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a finite number, got {value!r}")
