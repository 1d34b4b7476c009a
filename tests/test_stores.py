"""Profile files and the snapshot store behind freshness scoring."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

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
    save_profile,
    token_fingerprint,
)
from segscore.stores import token_jaccard

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

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "p.json"
        original = Profile(owner_id="u9", terms={"web": 0.25, "ranking": 1.0})
        save_profile(original, path)
        assert load_profile(path) == original

    def test_save_is_byte_stable_under_term_order(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_profile(Profile(terms={"web": 0.5, "ranking": 0.1}), a)
        save_profile(Profile(terms={"ranking": 0.1, "web": 0.5}), b)
        assert a.read_bytes() == b.read_bytes()


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

    def test_corrupt_latest_snapshot_is_reported(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(record("http://a/", T0, [["web"]]))
        directory = next(p for p in tmp_path.iterdir() if p.is_dir())
        (directory / "99999999T999999_999999.json").write_text("{ broken", "utf-8")
        with pytest.raises(StorageFailure):
            store.latest_snapshot("http://a/")


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
