"""Structural scoring: six per-segment dimensions and their weighted sum.

Link, image, visual and freshness dimensions match against the fused
query+profile term set; the profile dimension matches against the
profile alone; the theme dimension only looks at the page title.  The
structural score is the coefficient-weighted sum of all six.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter, mul
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .errors import decode_json, finite
from .terms import TermVector, WeightedTermSet, match_score

if TYPE_CHECKING:  # Segment is only needed for annotations
    from .segmenter import Segment

__all__ = [
    "DEFAULT_VMWT",
    "DIMENSIONS",
    "Vmwt",
    "DimensionScores",
    "DimensionCoefficients",
    "score_links",
    "score_images",
    "score_theme",
    "score_visual",
    "score_freshness",
    "score_profile",
    "structural_score",
]

DEFAULT_VMWT: dict[str, float] = {
    "h1": 3.0, "h2": 2.5, "h3": 2.0, "h4": 1.5, "h5": 1.5, "h6": 1.5,
    "strong": 1.5, "b": 1.5, "em": 1.2, "i": 1.2, "u": 1.1,
}

DIMENSIONS = ("link", "image", "theme", "visual", "freshness", "profile")

# the six values of a DimensionScores or DimensionCoefficients, in DIMENSIONS order
_dimension_values = attrgetter(*DIMENSIONS)


def read_weight_table(path: str | Path, what: str) -> dict[str, float]:
    """Read a flat JSON object whose values are all finite numbers, as floats."""
    data = decode_json(Path(path).read_text("utf-8"), path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: {what} file must be a flat JSON object")
    return {key: finite(value, f"{path}: {what} value for {key!r}")
            for key, value in data.items()}


@dataclass(frozen=True)
class Vmwt:
    """Visual markup weight table: emphasis tag -> weight, 0.0 when absent."""

    tag_weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_VMWT))

    def __post_init__(self) -> None:
        for tag, weight in self.tag_weights.items():
            if weight < 0:
                raise ValueError(f"vmwt weight for {tag!r} must be >= 0, got {weight}")

    def weight(self, tag: str) -> float:
        return self.tag_weights.get(tag, 0.0)

    @classmethod
    def from_file(cls, path: str | Path) -> "Vmwt":
        return cls(tag_weights=read_weight_table(path, "vmwt"))


@dataclass(frozen=True)
class DimensionScores:
    link: float
    image: float
    theme: float
    visual: float
    freshness: float
    profile: float

    def as_dict(self) -> dict[str, float]:
        return dict(zip(DIMENSIONS, _dimension_values(self)))


@dataclass(frozen=True)
class DimensionCoefficients:
    """Per-dimension multipliers applied in the structural sum."""

    link: float = 1.0
    image: float = 1.0
    theme: float = 1.0
    visual: float = 1.0
    freshness: float = 1.0
    profile: float = 1.0

    def __post_init__(self) -> None:
        for name in DIMENSIONS:
            if getattr(self, name) < 0:
                raise ValueError(f"coefficient {name} must be >= 0")

    @classmethod
    def from_file(cls, path: str | Path) -> "DimensionCoefficients":
        data = read_weight_table(path, "coefficients")
        unknown = set(data) - set(DIMENSIONS)
        if unknown:
            raise ValueError(f"{path}: unknown coefficient names {sorted(unknown)}")
        return cls(**data)


# ── dimension scorers ───────────────────────────────────────────────


def score_links(segment: "Segment", fused: WeightedTermSet) -> float:
    """Fused-term mass of every link's anchor text and href path/query."""
    total = 0.0
    for anchor, href in segment.links:
        total += match_score(anchor + href, fused)
    return total


def score_images(segment: "Segment", fused: WeightedTermSet) -> float:
    """Fused-term mass of every image's alt, title and source filename."""
    total = 0.0
    for alt, title, src in segment.images:
        total += match_score(alt + title + src, fused)
    return total


def score_theme(segment: "Segment", title_tokens: TermVector) -> float:
    """Count of distinct title tokens that occur in the segment."""
    if not title_tokens:
        return 0.0
    present = set(segment.tokens)
    return float(len(set(title_tokens) & present))


def score_visual(segment: "Segment", fused: WeightedTermSet, vmwt: Vmwt) -> float:
    """Tag-weighted fused-term mass of the emphasised spans."""
    total = 0.0
    for tag, span_tokens in segment.visual_spans:
        total += vmwt.weight(tag) * match_score(span_tokens, fused)
    return total


def score_freshness(
    segment: "Segment",
    prior_tokens: TermVector | None,
    fused: WeightedTermSet,
) -> float:
    """Fused-term mass of tokens new since the prior snapshot.

    ``prior_tokens`` is the matched prior segment's token list; None
    means no snapshot of the page exists, which scores 0.0.  A present
    but empty prior means the whole segment counts as fresh.  The diff
    is a multiset difference, so added occurrences of an existing term
    count too.
    """
    if prior_tokens is None or prior_tokens == segment.tokens:
        return 0.0  # an unchanged segment has an empty diff
    fresh = Counter(segment.tokens) - Counter(prior_tokens)
    total = 0.0
    for tok, count in fresh.items():
        total += fused.get(tok, 0.0) * count
    return total


def score_profile(segment: "Segment", profile_terms: Mapping[str, float]) -> float:
    """Profile-term mass of the segment body, query-independent."""
    return match_score(segment.tokens, profile_terms)


def structural_score(
    segment: "Segment",
    fused: WeightedTermSet,
    profile_terms: Mapping[str, float],
    title_tokens: TermVector,
    vmwt: Vmwt,
    prior_tokens: TermVector | None,
    coeffs: DimensionCoefficients,
) -> tuple[DimensionScores, float]:
    """All six dimension scores plus their coefficient-weighted sum."""
    dims = DimensionScores(
        link=score_links(segment, fused),
        image=score_images(segment, fused),
        theme=score_theme(segment, title_tokens),
        visual=score_visual(segment, fused, vmwt),
        freshness=score_freshness(segment, prior_tokens, fused),
        profile=score_profile(segment, profile_terms),
    )
    # left to right from the first product: a sum started from 0.0 would
    # turn a -0.0 sum into 0.0
    delta = reduce(add, map(mul, _dimension_values(coeffs), _dimension_values(dims)))
    return dims, delta
