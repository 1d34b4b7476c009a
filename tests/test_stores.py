"""Profile files and the snapshot store behind freshness scoring."""

from __future__ import annotations

import json
import random
import sys
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segscore import (
    MalformedProfile,
    MissingFile,
    Profile,
    Segment,
    SnapshotRecord,
    SnapshotSegment,
    SnapshotStore,
    StorageFailure,
    load_profile,
    match_prior_segment,
    token_fingerprint,
)
from segscore.stores import _snapshot_json

from conftest import DATA_DIR

T0 = datetime(2026, 1, 1, 12, 0, 0, tzinfo=timezone.utc)


class TestProfileValidation:
    def test_accepts_normalized_single_tokens(self):
        Profile(owner_id="u", terms={"web": 0.0, "search": 1.0, "a3": 0.5})

    def test_rejects_unnormalized_terms(self):
        for term in ("New", "two words", "", "under_score", "tab\t"):
            with pytest.raises(MalformedProfile):
                Profile(terms={term: 0.5})

    def test_rejects_out_of_range_weights(self):
        for weight in (1.1, -0.1, "0.5", None):
            with pytest.raises(MalformedProfile):
                Profile(terms={"web": weight})

    def test_rejects_bool_weights(self):
        for weight in (True, False):
            with pytest.raises(MalformedProfile, match="must be in"):
                Profile(terms={"web": weight})


class TestProfileFiles:
    def test_loads_versioned_fixture(self):
        profile = load_profile(DATA_DIR / "profile.json")
        assert profile.owner_id == "u1"
        assert profile.terms == {"python": 0.3, "ranking": 0.5, "semantic": 0.8}

    def test_loads_bare_list_form(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('[{"term": "web", "weight": 0.5}]', "utf-8")
        profile = load_profile(path)
        assert profile.owner_id == ""
        assert profile.terms == {"web": 0.5}

    def test_empty_file_means_empty_profile(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("  \n", "utf-8")
        assert load_profile(path) == Profile()

    def test_missing_file_is_its_own_error(self, tmp_path):
        with pytest.raises(MissingFile):
            load_profile(tmp_path / "nope.json")

    def test_malformed_files_are_rejected(self, tmp_path):
        cases = [
            "{ not json",
            '"just a string"',
            '{"terms": {"web": 0.5}}',                       # terms not a list
            '[{"term": "web"}]',                             # weight missing
            '[{"weight": 0.5}]',                             # term missing
            '[{"term": "web", "weight": 0.5}, {"term": "web", "weight": 0.1}]',
            '[{"term": "two words", "weight": 0.5}]',
            '[{"term": "web", "weight": 7}]',
        ]
        for i, content in enumerate(cases):
            path = tmp_path / f"p{i}.json"
            path.write_text(content, "utf-8")
            with pytest.raises(MalformedProfile):
                load_profile(path)

    @pytest.mark.parametrize("content", [
        b'[{"term": 5, "weight": 0.5}]',
        b'{"terms": [{"term": ["a"], "weight": 0.5}]}',
        b'[{"term": null, "weight": 0.5}]',
        pytest.param(b"\xff\xfe[]", id="not_utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested_too_deeply"),
        pytest.param(b'[{"term": "web", "weight": 1' + b"0" * 5000 + b"}]",
                     id="past_the_digit_limit"),
    ])
    def test_non_string_terms_and_undecodable_files_are_malformed(self, tmp_path, content):
        path = tmp_path / "p.json"
        path.write_bytes(content)
        with pytest.raises(MalformedProfile) as excinfo:
            load_profile(path)
        assert "\n" not in str(excinfo.value)


def seg(sid: int, tokens: list[str]) -> Segment:
    return Segment(id=sid, dom_path=(1, sid), text=" ".join(tokens),
                   tokens=tokens, fingerprint=token_fingerprint(tokens))


def record(url: str, at: datetime, token_lists: list[list[str]]) -> SnapshotRecord:
    return SnapshotRecord.for_segments(
        url, at, [seg(i, toks) for i, toks in enumerate(token_lists)])


class TestSnapshotRecord:
    def test_naive_timestamp_rejected(self):
        with pytest.raises(ValueError):
            SnapshotRecord(url="u", captured_at=datetime(2026, 1, 1), segments=())

    def test_for_segments_copies_fingerprints_and_tokens(self):
        snap = record("u", T0, [["web", "search"]])
        assert snap.segments == (
            SnapshotSegment(token_fingerprint(["web", "search"]), ("web", "search")),)


class TestSnapshotStore:
    def test_first_visit_has_no_snapshot(self, tmp_path):
        assert SnapshotStore(tmp_path).latest_snapshot("http://a/") is None

    def test_put_then_latest_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = record("http://a/", T0, [["web"], ["search", "data"]])
        store.put_snapshot(snap)
        assert store.latest_snapshot("http://a/") == snap

    def test_latest_returns_newest_capture(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        newer = record("http://a/", T0 + timedelta(seconds=1), [["search"]])
        store.put_snapshot(newer)
        assert store.latest_snapshot("http://a/") == newer

    def test_timestamps_must_strictly_increase(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        with pytest.raises(StorageFailure):
            store.put_snapshot(record("http://a/", T0, [["web"]]))
        with pytest.raises(StorageFailure):
            store.put_snapshot(record("http://a/", T0 - timedelta(seconds=1), [["web"]]))

    def test_files_are_named_and_ordered_by_utc_capture_time(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        # 08:00-05:00 is 13:00 UTC: a later capture, though its local clock reads earlier
        later = record("http://a/", datetime(2026, 1, 1, 8, 0, 0,
                                             tzinfo=timezone(timedelta(hours=-5))), [["data"]])
        assert store.put_snapshot(later).name == "20260101T130000_000000.json"
        assert store.latest_snapshot("http://a/") == later
        with pytest.raises(StorageFailure, match="is not after 2026-01-01T08:00:00-05:00"):
            store.put_snapshot(record("http://a/", T0 + timedelta(minutes=30), [["web"]]))
        assert store.latest_snapshot("http://a/") == later

    def test_snapshot_file_bytes_are_pinned(self, tmp_path):
        snap = SnapshotRecord(url="http://a/", captured_at=T0,
                              segments=(SnapshotSegment(7, ("web", "search")),))
        written = SnapshotStore(tmp_path).put_snapshot(snap)
        assert written.read_bytes() == (
            b'{\n  "captured_at": "2026-01-01T12:00:00+00:00",\n  "segments": [\n'
            b'    {\n      "fingerprint": "7",\n      "tokens": [\n        "web",\n'
            b'        "search"\n      ]\n    }\n  ],\n  "url": "http://a/",\n  "v": 1\n}'
        )

    def test_years_below_1000_are_zero_padded_and_sort_first(self, tmp_path):
        store = SnapshotStore(tmp_path)
        ancient = record("http://a/", datetime(999, 1, 1, tzinfo=timezone.utc), [["web"]])
        assert store.put_snapshot(ancient).name == "09990101T000000_000000.json"
        assert store.latest_snapshot("http://a/") == ancient
        later = record("http://a/", T0, [["data"]])
        store.put_snapshot(later)
        assert store.latest_snapshot("http://a/") == later
        with pytest.raises(StorageFailure, match="must increase"):
            store.put_snapshot(record("http://a/", datetime(998, 1, 1, tzinfo=timezone.utc),
                                      [["web"]]))

    @pytest.mark.parametrize("at, name", [
        (datetime(1000, 1, 1, tzinfo=timezone.utc), "10000101T000000_000000.json"),
        (datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
         "99991231T235959_999999.json"),
        (datetime(2026, 1, 1, 8, 0, 0, 5, tzinfo=timezone(timedelta(hours=-5))),
         "20260101T130000_000005.json"),
    ])
    def test_names_of_four_digit_years_are_unchanged(self, tmp_path, at, name):
        assert SnapshotStore(tmp_path).put_snapshot(record("http://a/", at, [])).name == name
        assert name == at.astimezone(timezone.utc).strftime("%Y%m%dT%H%M%S_%f") + ".json"

    @pytest.mark.parametrize("at", [
        datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1))),
        datetime(9999, 12, 31, 23, 30, tzinfo=timezone(timedelta(hours=-1))),
    ])
    def test_time_outside_the_utc_range_is_a_storage_failure(self, tmp_path, at):
        with pytest.raises(StorageFailure) as failure:
            SnapshotStore(tmp_path).put_snapshot(record("http://a/", at, [["web"]]))
        assert "\n" not in str(failure.value)
        assert not list(tmp_path.iterdir())

    def test_urls_are_isolated(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        assert store.latest_snapshot("http://b/") is None
        store.put_snapshot(record("http://b/", T0, [["data"]]))  # same time is fine
        assert store.latest_snapshot("http://a/").segments[0].tokens == ("web",)

    def test_no_temp_files_survive_a_write(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_put_returns_the_written_path(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        snap = record("http://a/", T0, [["web"]])
        written = store.put_snapshot(snap)
        assert isinstance(written, Path)
        assert written.parent.parent == tmp_path
        assert written.name == "20260101T120000_000000.json"
        assert json.loads(written.read_text("utf-8"))["url"] == "http://a/"

    def test_only_visible_json_files_are_snapshots(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = record("http://a/", T0, [["web"]])
        written = store.put_snapshot(snap)
        directory = written.parent
        (directory / "99999999T999999_999999.tmp").write_text("{ partial", "utf-8")
        (directory / ".99999999T999999_999999.json").write_text("{ hidden", "utf-8")
        (directory / "notes.txt").write_text("not a snapshot", "utf-8")
        assert store.latest_snapshot("http://a/") == snap
        written.unlink()
        assert store.latest_snapshot("http://a/") is None

    def test_unlistable_directory_is_a_storage_failure(self, tmp_path):
        store = SnapshotStore(tmp_path)
        directory = store.put_snapshot(record("http://a/", T0, [["web"]])).parent
        for child in directory.iterdir():
            child.unlink()
        directory.rmdir()
        directory.write_text("a file where the URL's directory belongs", "utf-8")
        with pytest.raises(StorageFailure, match="cannot list"):
            store.latest_snapshot("http://a/")

    @pytest.mark.parametrize("body", [
        pytest.param(b"{ broken", id="not_json"),
        pytest.param(b"[" * 5000 + b"]" * 5000, id="nested_too_deeply"),
        pytest.param(b"\xff[]", id="not_utf8")])
    def test_corrupt_latest_snapshot_is_reported(self, tmp_path, body):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        directory = next(p for p in tmp_path.iterdir() if p.is_dir())
        (directory / "99999999T999999_999999.json").write_bytes(body)
        with pytest.raises(StorageFailure):
            store.latest_snapshot("http://a/")

    def test_another_urls_record_in_the_directory_is_a_storage_failure(self, tmp_path):
        # directories are named by a 64-bit hash prefix, so a colliding URL
        # lands in the same one; its record must not pass for this URL's
        store = SnapshotStore(tmp_path)
        directory = store.put_snapshot(record("http://a/", T0, [["web"]])).parent
        planted = record("http://b/", T0 + timedelta(seconds=1), [["data"]])
        (directory / "20260101T120001_000000.json").write_text(_snapshot_json(planted), "utf-8")
        with pytest.raises(StorageFailure, match="http://b/") as failure:
            store.latest_snapshot("http://a/")
        assert "\n" not in str(failure.value)
        with pytest.raises(StorageFailure, match="http://b/"):
            store.put_snapshot(record("http://a/", T0, [["web"]]))


def token_jaccard(a: set[str], b: set[str]) -> float:
    """Jaccard similarity of two token sets; two empty sets count as equal."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


class TestTokenJaccard:
    def test_reference_values(self):
        assert token_jaccard(set(), set()) == 1.0
        assert token_jaccard({"a"}, {"a"}) == 1.0
        assert token_jaccard({"a"}, {"b"}) == 0.0
        assert token_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)


class TestMatchPriorSegment:
    def test_exact_fingerprint_wins(self):
        snap = record("u", T0, [["web"], ["search"], ["web"]])
        current = seg(2, ["web"])
        # indices 0 and 2 both match; 2 is positionally nearer
        assert match_prior_segment(current, snap) is snap.segments[2]

    def test_fingerprint_tie_goes_to_the_earlier_prior(self):
        snap = record("u", T0, [["web"], ["search"], ["web"]])
        current = seg(1, ["web"])
        assert match_prior_segment(current, snap) is snap.segments[0]

    def test_jaccard_fallback_at_half_overlap(self):
        snap = record("u", T0, [["a", "b", "c"], ["x", "y"]])
        current = seg(0, ["b", "c", "d"])  # jaccard 2/4 = 0.5 with prior 0
        assert match_prior_segment(current, snap) is snap.segments[0]

    def test_below_threshold_matches_nothing(self):
        snap = record("u", T0, [["a", "b", "c", "d"]])
        current = seg(0, ["a", "x", "y", "z"])  # jaccard 1/7
        assert match_prior_segment(current, snap) is None

    def test_fingerprint_beats_nearer_jaccard_candidate(self):
        snap = record("u", T0, [["web", "data"], ["web", "data", "x"]])
        current = seg(1, ["web", "data"])
        # index 1 is nearer but only similar; index 0 is exact
        assert match_prior_segment(current, snap) is snap.segments[0]

    def test_jaccard_tie_goes_to_the_earlier_prior(self):
        snap = record("u", T0, [["a", "b", "x"], ["q"], ["a", "b", "y"]])
        current = seg(1, ["a", "b"])  # 2/3 with priors 0 and 2, both one index away
        assert match_prior_segment(current, snap) is snap.segments[0]

    def test_empty_segment_matches_an_empty_prior_by_jaccard(self):
        snap = SnapshotRecord(url="u", captured_at=T0, segments=(
            SnapshotSegment(11, ("web",)), SnapshotSegment(12, ())))
        current = Segment(id=0, dom_path=(1, 0), text="", tokens=[], fingerprint=99)
        assert match_prior_segment(current, snap) is snap.segments[1]

    def test_repeated_tokens_compare_as_sets(self):
        snap = record("u", T0, [["a", "a", "a", "b"]])
        current = seg(0, ["a", "b", "b", "c"])  # {a, b} vs {a, b, c}: 2/3
        assert match_prior_segment(current, snap) is snap.segments[0]
        assert match_prior_segment(seg(0, ["a", "c", "c", "d"]), snap) is None  # 1/4

    def test_one_snapshot_serves_many_segments(self):
        lists = [["a", "b"], ["b", "c"], [], ["c", "d", "e"], ["a", "b"], ["e"]]
        snap = record("u", T0, lists)
        currents = [seg(i, toks) for i, toks in enumerate(
            [["b", "c", "d"], [], ["a", "b"], ["e", "f"], ["x"], ["c", "d"], ["d", "e"]])]
        for _ in range(2):
            assert [match_prior_segment(c, snap) for c in currents] == \
                   [_brute_match(c, snap) for c in currents]

    def test_matching_leaves_equality_repr_and_hash_alone(self):
        a = record("u", T0, [["web", "data"], ["search"]])
        b = record("u", T0, [["web", "data"], ["search"]])
        match_prior_segment(seg(0, ["web", "data", "x"]), a)
        assert a == b
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)


def _brute_match(segment: Segment, snap: SnapshotRecord) -> SnapshotSegment | None:
    """Reference matcher: two full scans, fingerprint then Jaccard."""
    best: tuple[tuple[int, int], SnapshotSegment] | None = None
    for index, prior in enumerate(snap.segments):
        if prior.fingerprint == segment.fingerprint:
            key = (abs(index - segment.id), index)
            if best is None or key < best[0]:
                best = (key, prior)
    if best is not None:
        return best[1]

    current = set(segment.tokens)
    for index, prior in enumerate(snap.segments):
        if token_jaccard(current, set(prior.tokens)) >= 0.5:
            key = (abs(index - segment.id), index)
            if best is None or key < best[0]:
                best = (key, prior)
    return best[1] if best else None


# A small vocabulary makes overlaps common; a fingerprint drawn from a
# small pool instead of the tokens makes it collide or disagree with them.
_tokens = st.lists(st.sampled_from("abcdefgh"), max_size=6)
_fingerprint = st.one_of(st.none(), st.integers(0, 3))


def _fingerprint_for(tokens: list[str], drawn: int | None) -> int:
    return token_fingerprint(tokens) if drawn is None else drawn


class TestMatchIndexOracle:
    @given(st.lists(st.tuples(_tokens, _fingerprint), max_size=8),
           st.lists(st.tuples(st.integers(0, 9), _tokens, _fingerprint), min_size=1, max_size=6))
    def test_index_agrees_with_brute_force_scan(self, priors, currents):
        snap = SnapshotRecord(url="u", captured_at=T0, segments=tuple(
            SnapshotSegment(_fingerprint_for(toks, fp), tuple(toks)) for toks, fp in priors))
        for sid, toks, fp in currents:
            current = Segment(id=sid, dom_path=(1, sid), text=" ".join(toks), tokens=toks,
                              fingerprint=_fingerprint_for(toks, fp))
            assert match_prior_segment(current, snap) is _brute_match(current, snap)

    def test_threads_racing_on_the_first_match_agree_with_the_scan(self):
        rng = random.Random(3)
        lists = [[rng.choice("abcdefgh") for _ in range(rng.randint(0, 5))] for _ in range(60)]
        currents = [seg(i, [rng.choice("abcdefgh") for _ in range(rng.randint(0, 5))])
                    for i in range(60)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                snap = record("u", T0, lists)  # fresh record: no index yet
                results: list = [None] * 8

                def work(slot: int) -> None:
                    results[slot] = [match_prior_segment(c, snap) for c in currents]

                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                expected = [_brute_match(c, snap) for c in currents]
                for got in results:
                    assert got is not None
                    assert all(a is b for a, b in zip(got, expected, strict=True))
        finally:
            sys.setswitchinterval(previous)


# Any code point, lone surrogates and controls included: the file text
# must still be exactly what json.dumps would have written.
_any_text = st.text(st.characters(exclude_categories=()), max_size=12)


@st.composite
def snapshot_records(draw) -> SnapshotRecord:
    offset = draw(st.integers(-23 * 60, 23 * 60))
    at = draw(st.datetimes(min_value=datetime(1000, 1, 2), max_value=datetime(9999, 12, 30)))
    return SnapshotRecord(
        url=draw(st.one_of(_any_text, st.sampled_from(
            ["", "http://a/", 'http://x/"q"?a=\\b#\u00e9', "file:///p%20q\x00\x7f.html"]))),
        captured_at=at.replace(tzinfo=timezone(timedelta(minutes=offset))),
        segments=tuple(
            SnapshotSegment(fp, tuple(tokens)) for fp, tokens in draw(st.lists(
                st.tuples(st.integers(-2**70, 2**70), st.lists(_any_text, max_size=5)),
                max_size=5))
        ),
    )


class TestSnapshotFormatter:
    @given(snapshot_records())
    def test_text_equals_json_dumps_with_indent(self, snap):
        payload = {
            "v": 1,
            "url": snap.url,
            "captured_at": snap.captured_at.isoformat(),
            "segments": [
                {"fingerprint": str(seg.fingerprint), "tokens": list(seg.tokens)}
                for seg in snap.segments
            ],
        }
        assert _snapshot_json(snap) == json.dumps(payload, indent=2, sort_keys=True)

    def test_empty_segments_and_empty_token_lists(self):
        snap = SnapshotRecord(url="u", captured_at=T0, segments=(
            SnapshotSegment(0, ()), SnapshotSegment(1, ("\ud800", '"', "\x1f"))))
        assert _snapshot_json(snap) == (
            '{\n  "captured_at": "2026-01-01T12:00:00+00:00",\n  "segments": [\n'
            '    {\n      "fingerprint": "0",\n      "tokens": []\n    },\n'
            '    {\n      "fingerprint": "1",\n      "tokens": [\n'
            '        "\\ud800",\n        "\\"",\n        "\\u001f"\n      ]\n    }\n'
            '  ],\n  "url": "u",\n  "v": 1\n}')
        bare = SnapshotRecord(url="u", captured_at=T0, segments=())
        assert _snapshot_json(bare) == (
            '{\n  "captured_at": "2026-01-01T12:00:00+00:00",\n  "segments": [],\n'
            '  "url": "u",\n  "v": 1\n}')
