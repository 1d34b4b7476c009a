"""Tokenization and weighted term matching.

Every scorer in the package matches text against the same vocabulary, so
tokenization is fixed here once: maximal runs of Unicode alphanumerics,
lowercase folded, no stemming, no stop-word removal.  Keeping the rules
this small makes every downstream score reproducible by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "TermVector",
    "WeightedTermSet",
    "Query",
    "tokenize",
    "fuse_terms",
    "match_score",
]

# A term vector is an ordered token list; counts are derivable as a
# multiset view.  A weighted term set maps distinct terms to weights >= 0.
TermVector = list[str]
WeightedTermSet = dict[str, float]

# \w minus underscore == Unicode alphanumerics; underscore separates.
_TOKEN_RE = re.compile(r"[^\W_]+")
# The same runs on lowercase ASCII text, where the class is exactly [a-z0-9].
_ASCII_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> TermVector:
    """Split text into lowercase alphanumeric tokens, order preserved.

    Any maximal run of non-alphanumeric characters separates tokens, so
    punctuation, dashes, apostrophes and underscores all split:
    ``"don't 3GHz"`` → ``["don", "t", "3ghz"]``.
    """
    # isascii() after lower(): non-ASCII text can lower to ASCII (the
    # Kelvin sign to "k"), and both patterns must see the same string
    lowered = text.lower()
    if lowered.isascii():
        return _ASCII_TOKEN_RE.findall(lowered)
    return _TOKEN_RE.findall(lowered)


@dataclass(frozen=True)
class Query:
    """A raw query string together with its tokenized terms."""

    raw: str
    terms: tuple[str, ...]

    @classmethod
    def parse(cls, raw: str) -> "Query":
        return cls(raw=raw, terms=tuple(tokenize(raw)))


def fuse_terms(query: Query, profile_terms: Mapping[str, float]) -> WeightedTermSet:
    """Merge query terms with weighted profile terms into one matching set.

    Each distinct query term contributes weight 1.0 on top of whatever
    profile weight the term already carries, so a term in both ends up at
    1.0 + profile weight.  Repeating a term inside the query does not
    stack.  The inputs are never mutated.
    """
    fused: WeightedTermSet = dict(profile_terms)
    for term in dict.fromkeys(query.terms):
        fused[term] = fused.get(term, 0.0) + 1.0
    return fused


def match_score(tv: TermVector, wts: Mapping[str, float]) -> float:
    """Sum of weights over token occurrences.

    Multiple occurrences of a term count multiply; tokens without a weight
    contribute nothing.  Empty input on either side scores 0.0.
    """
    if not wts or wts.keys().isdisjoint(tv):
        return 0.0  # what the loop returns: it adds nothing to 0.0
    total = 0.0
    for tok in tv:
        total += wts.get(tok, 0.0)
    return total
