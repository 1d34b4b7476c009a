"""Tokenization, query parsing, term fusion and weighted matching."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segscore import Query, fuse_terms, match_score, tokenize

token_lists = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
    max_size=20,
)
weight_maps = st.dictionaries(
    st.sampled_from(["web", "search", "semantic", "ranking", "python", "zz"]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_size=6,
)


class TestTokenize:
    def test_splits_on_punctuation_and_case_folds(self):
        assert tokenize("Hello, World! it's FINE") == [
            "hello", "world", "it", "s", "fine"]

    def test_underscore_separates(self):
        assert tokenize("under_score") == ["under", "score"]

    def test_digits_and_mixed_runs_survive(self):
        assert tokenize("don't 3GHz x86") == ["don", "t", "3ghz", "x86"]

    def test_unicode_words_kept_whole(self):
        assert tokenize("naïve façade 日本語 text") == ["naïve", "façade", "日本語", "text"]

    def test_empty_and_symbol_only_input(self):
        assert tokenize("") == []
        assert tokenize("___ --- !!! \t\r\n") == []

    def test_whitespace_variants_separate(self):
        assert tokenize("a\tb\r\nc  d") == ["a", "b", "c", "d"]


class TestQuery:
    def test_parse_keeps_raw_and_tokenizes(self):
        q = Query.parse("Web  SEARCH engines")
        assert q.raw == "Web  SEARCH engines"
        assert q.terms == ("web", "search", "engines")

    def test_parse_preserves_duplicate_terms(self):
        assert Query.parse("web web site").terms == ("web", "web", "site")

    def test_empty_query_has_no_terms(self):
        assert Query.parse("  !! ").terms == ()


class TestFuseTerms:
    def test_distinct_query_terms_add_one(self):
        fused = fuse_terms(Query.parse("web search engines web"),
                           {"web": 0.4, "semantic": 0.8})
        assert fused == {"web": 1.4, "search": 1.0, "engines": 1.0, "semantic": 0.8}

    def test_repeating_a_query_term_does_not_stack(self):
        fused = fuse_terms(Query.parse("web web web"), {})
        assert fused == {"web": 1.0}

    def test_inputs_are_not_mutated(self):
        prof = {"web": 0.4}
        q = Query.parse("web")
        fuse_terms(q, prof)
        assert prof == {"web": 0.4}
        assert q.terms == ("web",)

    def test_empty_query_copies_profile(self):
        prof = {"semantic": 0.8}
        fused = fuse_terms(Query.parse(""), prof)
        assert fused == prof
        assert fused is not prof


class TestMatchScore:
    def test_occurrences_count_multiply(self):
        assert match_score(["web", "web", "search", "zzz"],
                           {"web": 1.0, "search": 0.5}) == pytest.approx(2.5)

    def test_empty_inputs_score_zero(self):
        assert match_score([], {"web": 1.0}) == 0.0
        assert match_score(["web"], {}) == 0.0


class TestTermProperties:
    @given(st.text())
    def test_tokenize_is_idempotent(self, text: str):
        """Re-tokenizing the joined tokens changes nothing."""
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text())
    def test_tokens_are_lowercase_and_non_empty(self, text: str):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()

    @given(token_lists, token_lists, weight_maps)
    def test_match_score_adds_over_concatenation(self, a, b, weights):
        assert match_score(a + b, weights) == pytest.approx(
            match_score(a, weights) + match_score(b, weights))

    @given(token_lists, weight_maps)
    def test_match_score_scales_with_weights(self, tv, weights):
        doubled = {term: 2.0 * w for term, w in weights.items()}
        assert match_score(tv, doubled) == pytest.approx(2.0 * match_score(tv, weights))

    @given(st.text(alphabet="abcdefghij ", max_size=40), weight_maps)
    def test_fused_weights_stay_within_bounds(self, raw, profile_terms):
        """With profile weights in [0, 1], no fused weight can exceed 2.0."""
        fused = fuse_terms(Query.parse(raw), profile_terms)
        for term in set(tokenize(raw)):
            assert fused[term] >= 1.0
        for term, weight in fused.items():
            assert 0.0 <= weight <= 2.0


# ── references for the fast paths ───────────────────────────────────
# tokenize once ran the Unicode pattern on every text, and match_score
# once summed over every token; both stay here as the references.

_REFERENCE_TOKEN_RE = re.compile(r"[^\W_]+")


def reference_tokenize(text: str) -> list[str]:
    return _REFERENCE_TOKEN_RE.findall(text.lower())


def reference_match_score(tv: list[str], wts: dict[str, float]) -> float:
    if not wts:
        return 0.0
    total = 0.0
    for tok in tv:
        total += wts.get(tok, 0.0)
    return total


# ASCII letters of both cases, digits, separators, and characters that
# lower to ASCII (the Kelvin sign), lower to two code points (dotted
# capital I) or are letters, digits or marks outside ASCII.
_mixed_text = st.text(alphabet=st.sampled_from(
    list("aZk09 _-.\t\n'") + ["\u212a", "\u0130", "\u00e9", "\u00df", "\u0301",
                              "\u0663", "\u65e5", "\u03a3", "\u00b2", "\u2160"]))


def same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestFastPathsAgainstReferences:
    @given(st.one_of(st.text(), _mixed_text))
    def test_tokenize_equals_the_unicode_pattern(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @pytest.mark.parametrize("text, tokens", [
        ("\u212aelvin", ["kelvin"]),        # lowers to ASCII, read as ASCII
        ("\u0130stanbul", ["i", "stanbul"]),  # lowers to "i" and a combining dot
        ("snake_case_2", ["snake", "case", "2"]),
        ("x\u00b2 \u2160", ["x\u00b2", "\u2170"]),
    ])
    def test_tokenize_fixed_cases(self, text, tokens):
        assert tokenize(text) == tokens == reference_tokenize(text)

    @given(st.lists(st.sampled_from(["web", "search", "zz", "other", "x"]), max_size=12),
           st.dictionaries(
               st.sampled_from(["web", "search", "semantic", "zz"]),
               st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e-300, -2.5, 1e308]) | st.floats(
                   allow_nan=False, allow_infinity=False),
               max_size=4))
    def test_match_score_equals_the_plain_loop(self, tv, wts):
        assert same_float(match_score(tv, wts), reference_match_score(tv, wts))

    def test_disjoint_and_negative_zero_cases(self):
        for tv in (["web", "x"], ["x", "web"], ["web"]):
            assert same_float(match_score(tv, {"web": 0.5, "zz": 1.0}), 0.5)
        assert same_float(match_score(["a", "b"], {"c": -0.0}), 0.0)
        assert same_float(match_score(["c"], {"c": -0.0}), 0.0 + -0.0)
        assert same_float(match_score(["c", "c"], {"c": -1.0}), -2.0)
