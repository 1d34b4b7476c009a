"""End-to-end page scoring, degradation flags and session statistics."""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

import segscore.stores
from segscore import (
    DimensionScores,
    EmptyPage,
    EmptySession,
    Profile,
    Query,
    RemoteProvider,
    ReplayProvider,
    ScoreConfig,
    SegmentScoreRecord,
    SessionStats,
    SnapshotStore,
    compute_session_stats,
    reference_table_checks,
    score_page,
    parse_html,
    segment_page,
    session_stats_csv,
    text_key,
    tokenize,
)
from segscore.pipeline import PageReport, page_report_from_json

from conftest import DATA_DIR, REFERENCE_ROWS

# Hand-scored two-block page: every dimension of both segments is known.
TWO_BLOCK = (
    "<html><head><title>Web Rankings</title></head><body>"
    '<div>Browse the web search listings and <a href="/web/search?q=web">search'
    ' here</a> for pages <img src="web-web.png" alt="web chart"> charted by'
    " hand.</div>"
    "<div><h2>Semantic ranking</h2> explained: semantic ranking and python notes"
    " for study groups this term.</div>"
    "</body></html>"
)


class TestScorePage:
    def test_hand_scored_page_matches_exactly(self, query, profile, gazetteer_provider):
        report = score_page(TWO_BLOCK, "http://x/", query, profile,
                            ScoreConfig(provider=gazetteer_provider))
        assert report.flags == []
        assert report.url == "http://x/"
        assert report.query == query.raw
        first, second = report.segment_records

        assert first.dimensions.as_dict() == pytest.approx({
            "link": 4.0, "image": 3.0, "theme": 1.0,
            "visual": 0.0, "freshness": 0.0, "profile": 0.0})
        assert first.delta == pytest.approx(8.0)
        assert first.annotation == pytest.approx(2.0)
        assert first.total == pytest.approx(10.0)
        assert [e.name for e in first.entities] == ["web search"]

        assert second.dimensions.as_dict() == pytest.approx({
            "link": 0.0, "image": 0.0, "theme": 0.0,
            "visual": 3.25, "freshness": 0.0, "profile": 2.9})
        assert second.delta == pytest.approx(6.15)
        assert second.annotation == pytest.approx(1.3)
        assert second.total == pytest.approx(7.45)

        assert report.page_score == pytest.approx(17.45)

    def test_page_score_is_the_sum_of_segment_totals(self, query, profile,
                                                     gazetteer_provider):
        report = score_page(TWO_BLOCK, "http://x/", query, profile,
                            ScoreConfig(provider=gazetteer_provider))
        assert report.page_score == pytest.approx(
            sum(rec.total for rec in report.segment_records), abs=1e-12)

    def test_no_provider_disables_annotations_with_a_flag(self, query, profile):
        report = score_page(TWO_BLOCK, "http://x/", query, profile, ScoreConfig())
        assert report.flags == ["annotations disabled: no provider configured"]
        assert all(rec.annotation == 0.0 for rec in report.segment_records)
        assert report.page_score == pytest.approx(8.0 + 6.15)

    def test_empty_page_raises(self, query, profile):
        with pytest.raises(EmptyPage):
            score_page((DATA_DIR / "empty.html").read_bytes(), "u", query,
                       profile, ScoreConfig())

    def test_default_config_is_used_when_none_given(self, query, profile):
        report = score_page(TWO_BLOCK, "u", query, profile)
        assert report.flags == ["annotations disabled: no provider configured"]

    def test_gazetteer_annotates_from_the_segment_tokens(self, query, profile,
                                                         gazetteer_provider, monkeypatch):
        calls = []
        monkeypatch.setattr("segscore.annotations.tokenize",
                            lambda text: calls.append(text) or tokenize(text))
        report = score_page(TWO_BLOCK, "u", query, profile,
                            ScoreConfig(provider=gazetteer_provider, keep_segments=True))
        # only entity names are tokenized, by the annotation score
        names = [e.name for rec in report.segment_records for e in rec.entities]
        assert names and Counter(calls) == Counter(names)
        assert not {segment.text for segment in report.segments} & set(calls)


class TestRemoteAnnotation:
    PAGE = ("<html><head><title>Notes</title></head><body>"
            + "".join(f"<div>web search notes block {i} on semantic ranking</div>"
                      for i in range(6))
            + "<div> </div></body></html>")

    def test_retried_requests_give_the_same_report_at_any_in_flight(
            self, fanout_server, query, profile):
        fanout_server.fail_first = True  # every text: one 503, then 200
        reports = []
        for in_flight in (1, 4):
            fanout_server.seen.clear()
            provider = RemoteProvider(fanout_server.endpoint, backoff=0.001, in_flight=in_flight)
            reports.append(score_page(self.PAGE, "u", query, profile,
                                      ScoreConfig(provider=provider)))
        serial, fanned = reports
        assert serial.to_json_dict() == fanned.to_json_dict()
        assert serial.flags == []
        assert all(rec.annotation > 0 for rec in serial.segment_records)
        assert [rec.entities for rec in serial.segment_records] == [
            rec.entities for rec in fanned.segment_records]

    def test_refused_segments_are_flagged_in_segment_order(self, fanout_server, query,
                                                          profile):
        page = ("<html><body>" + "".join(
            f"<div>{word} block {i} holding ten plain filler tokens in here</div>"
            for i, word in enumerate(["web", "missing", "web", "missing"]))
            + "</body></html>")
        provider = RemoteProvider(fanout_server.endpoint, in_flight=4)
        report = score_page(page, "u", query, profile, ScoreConfig(provider=provider))
        assert [flag.split(":")[0] for flag in report.flags] == [
            "annotation provider unavailable for segment 1",
            "annotation provider unavailable for segment 3"]
        assert [rec.annotation > 0 for rec in report.segment_records] == [
            True, False, True, False]

    def test_unexpected_provider_errors_propagate(self, query, profile):
        class Broken:
            provider_id = "broken"

            def annotate(self, text):
                raise RuntimeError("provider bug")

        with pytest.raises(RuntimeError, match="provider bug"):
            score_page(TWO_BLOCK, "u", query, profile, ScoreConfig(provider=Broken()))


class TestKeptSegments:
    def test_segments_are_kept_only_on_request(self, query, profile):
        plain = score_page(TWO_BLOCK, "u", query, profile)
        kept = score_page(TWO_BLOCK, "u", query, profile, ScoreConfig(keep_segments=True))
        assert plain.segments == []
        assert kept.segments == segment_page(parse_html(TWO_BLOCK), ScoreConfig().segmentation)
        assert [seg.id for seg in kept.segments] == [
            rec.segment_id for rec in kept.segment_records]
        # neither compared, shown nor serialized
        assert kept == plain
        assert repr(kept) == repr(plain)
        assert kept.to_json_dict() == plain.to_json_dict()


class TestDegradation:
    def test_unavailable_provider_zeroes_annotations_and_flags(self, query, profile):
        report = score_page(TWO_BLOCK, "u", query, profile,
                            ScoreConfig(provider=ReplayProvider({})))
        assert all(rec.annotation == 0.0 for rec in report.segment_records)
        assert len(report.flags) == 2
        assert all("annotation provider unavailable for segment" in flag
                   for flag in report.flags)
        assert report.page_score == pytest.approx(8.0 + 6.15)

    def test_protocol_error_zeroes_annotations_and_flags(self, query, profile):
        text = "plain first block with ten ordinary filler tokens right here"
        html = f"<html><head><title>Notes</title></head><body><div>{text}</div></body></html>"
        provider = ReplayProvider({text_key(text): {"entities": "bad"}})
        report = score_page(html, "u", query, profile, ScoreConfig(provider=provider))
        rec, = report.segment_records
        assert rec.annotation == 0.0
        assert len(report.flags) == 1
        assert "annotation provider protocol error for segment 0" in report.flags[0]


FIRST_DIV = "plain first block with ten ordinary filler tokens right here"
SECOND_DIV = "another plain block holding eleven ordinary filler tokens in a row"


def stable_page(second_extra: str = "") -> str:
    return (
        "<html><head><title>Notes</title></head><body>"
        f"<div>{FIRST_DIV}</div>"
        f"<div>{SECOND_DIV}{second_extra}</div>"
        "</body></html>"
    )


class TestFreshnessAcrossVisits:
    def freshness_of(self, report):
        return [rec.dimensions.freshness for rec in report.segment_records]

    def test_lifecycle(self, tmp_path, query, profile):
        cfg = ScoreConfig(snapshot_store=SnapshotStore(tmp_path))
        url = "http://site/page"

        first = score_page(stable_page(), url, query, profile, cfg)
        assert self.freshness_of(first) == [0.0, 0.0]  # no snapshot yet

        second = score_page(stable_page(), url, query, profile, cfg)
        assert self.freshness_of(second) == [0.0, 0.0]  # identical content

        third = score_page(stable_page(" web"), url, query, profile, cfg)
        assert self.freshness_of(third) == [0.0, 1.0]  # one injected fused token

    def test_unmatched_segment_is_wholly_fresh(self, tmp_path, query, profile):
        cfg = ScoreConfig(snapshot_store=SnapshotStore(tmp_path))
        url = "http://site/page"
        score_page(stable_page(), url, query, profile, cfg)
        replaced = ("<html><head><title>Notes</title></head><body>"
                    "<div>web web web web web web web web web web</div>"
                    "</body></html>")
        report = score_page(replaced, url, query, profile, cfg)
        assert self.freshness_of(report) == [10.0]

    def test_scoring_writes_snapshots_without_building_paths(self, tmp_path, query,
                                                            profile, monkeypatch):
        def no_path(*args):
            raise AssertionError("score_page built a pathlib.Path")

        monkeypatch.setattr(segscore.stores, "Path", no_path)
        cfg = ScoreConfig(snapshot_store=SnapshotStore(str(tmp_path)))
        score_page(stable_page(), "http://site/page", query, profile, cfg)
        report = score_page(stable_page(" web"), "http://site/page", query, profile, cfg)
        assert self.freshness_of(report) == [0.0, 1.0]
        directory, = os.listdir(tmp_path)
        assert len(os.listdir(tmp_path / directory)) == 2

    def test_write_can_be_disabled(self, tmp_path, query, profile):
        cfg = ScoreConfig(snapshot_store=SnapshotStore(tmp_path),
                          write_snapshot=False)
        score_page(stable_page(), "u", query, profile, cfg)
        assert not any(tmp_path.iterdir())


class TestReportSerialization:
    def test_round_trip_preserves_everything(self, query, profile, gazetteer_provider):
        report = score_page(TWO_BLOCK, "http://x/", query, profile,
                            ScoreConfig(provider=gazetteer_provider))
        data = json.loads(json.dumps(report.to_json_dict(), sort_keys=True))
        rebuilt = page_report_from_json(data)
        assert rebuilt.to_json_dict() == report.to_json_dict()

    def test_schema_essentials(self, query, profile):
        data = score_page(TWO_BLOCK, "u", query, profile).to_json_dict()
        assert data["v"] == 1
        assert set(data) == {"v", "url", "query", "segments", "page_score", "flags"}
        for entry in data["segments"]:
            assert set(entry) == {"segment_id", "dimensions", "delta",
                                  "annotation", "total"}

    def test_not_a_report_is_rejected(self):
        with pytest.raises(ValueError):
            page_report_from_json({"nope": 1})

    def test_integral_scores_are_read_as_floats(self, query, profile):
        data = score_page(TWO_BLOCK, "u", query, profile).to_json_dict()
        data["page_score"] = 3
        data["segments"][0]["dimensions"]["link"] = 2
        rebuilt = page_report_from_json(data)
        assert rebuilt.page_score == 3.0 and type(rebuilt.page_score) is float
        assert type(rebuilt.segment_records[0].dimensions.link) is float

    @pytest.mark.parametrize("edit", [
        lambda data: data.update(page_score=10 ** 400),
        lambda data: data["segments"][0].update(total=float("inf")),
        lambda data: data["segments"][0].update(dimensions=[1, 2]),
        lambda data: data["segments"][0]["dimensions"].update(extra=1.0),
        lambda data: data["segments"][0]["dimensions"].pop("theme"),
    ])
    def test_bad_scores_are_rejected(self, query, profile, edit):
        data = score_page(TWO_BLOCK, "u", query, profile).to_json_dict()
        edit(data)
        with pytest.raises(ValueError, match="not a page report"):
            page_report_from_json(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.update(url=5), "url must be str"),
        (lambda data: data.update(query=None), "query must be str"),
        (lambda data: data.update(flags="abc"), "flags must be list"),
        (lambda data: data.update(flags=["ok", 3]), "each flag must be str"),
        (lambda data: data["segments"][0].update(segment_id="x"), "segment_id must be int"),
        (lambda data: data["segments"][0].update(segment_id=True), "segment_id must be int"),
        (lambda data: data["segments"][0].update(segment_id=1.0), "segment_id must be int"),
    ])
    def test_mistyped_fields_are_rejected(self, query, profile, edit, message):
        data = score_page(TWO_BLOCK, "u", query, profile).to_json_dict()
        edit(data)
        with pytest.raises(ValueError, match=f"not a page report: {message}"):
            page_report_from_json(data)

    def test_missing_flags_read_as_empty(self, query, profile):
        data = score_page(TWO_BLOCK, "u", query, profile).to_json_dict()
        del data["flags"]
        assert page_report_from_json(data).flags == []


def rec(delta: float, annotation: float) -> SegmentScoreRecord:
    return SegmentScoreRecord(
        segment_id=0,
        dimensions=DimensionScores(0, 0, 0, 0, 0, 0),
        delta=delta,
        annotation=annotation,
        total=delta + annotation,
    )


def report_with(*recs: SegmentScoreRecord) -> PageReport:
    return PageReport(url="u", query="q", segment_records=list(recs),
                      page_score=sum(r.total for r in recs))


class TestSessionStats:
    def test_means_over_all_session_segments(self):
        stats = compute_session_stats(
            [report_with(rec(1, 2), rec(3, 4)), report_with(rec(5, 6))], "s1")
        assert stats == SessionStats(session_id="s1", msc=1.5, msss=3.0, mcas=4.0)

    def test_zero_segment_session_is_all_zero(self):
        stats = compute_session_stats([PageReport("u", "q", [], 0.0)])
        assert (stats.msc, stats.msss, stats.mcas) == (0.0, 0.0, 0.0)

    def test_empty_session_raises(self):
        with pytest.raises(EmptySession):
            compute_session_stats([])

    def test_sums_run_left_to_right_on_every_interpreter(self):
        # left to right these sums are 0.9999999999999999 and 0.0; the
        # compensated builtin sum() of Python 3.12+ gives 1.0 and 1.0
        tenths = compute_session_stats([report_with(*[rec(0.1, 0.1)] * 10)])
        assert tenths.msss == 0.9999999999999999 / 10
        assert tenths.mcas == 0.9999999999999999 / 10
        cancelled = compute_session_stats([report_with(rec(1e16, 0.0), rec(1.0, 0.0)),
                                           report_with(rec(-1e16, 0.0))])
        assert cancelled.msss == 0.0

    def test_csv_shape(self):
        text = session_stats_csv([SessionStats("s1", 1.5, 3.0, 4.0)])
        assert text == "session_id,msc,msss,mcas\ns1,1.5,3.0,4.0\n"


def reference_stats() -> list[SessionStats]:
    return [SessionStats(sid, msc, msss, mcas)
            for sid, msc, msss, mcas in REFERENCE_ROWS]


class TestReferenceChecks:
    def test_reference_rows_pass_all_checks(self):
        checks = reference_table_checks(reference_stats())
        assert checks.means_ok
        assert checks.ok
        assert checks.ratio_failures == ()
        assert len(checks.ratios) == len(REFERENCE_ROWS)
        assert all(line.endswith("ok") for line in checks.lines())

    def test_perturbed_mean_fails(self):
        stats = reference_stats()
        stats[0] = SessionStats(stats[0].session_id, stats[0].msc,
                                stats[0].msss + 1.0, stats[0].mcas)
        checks = reference_table_checks(stats)
        assert not checks.means_ok

    def test_out_of_band_ratio_names_the_session(self):
        stats = reference_stats()
        stats[2] = SessionStats("3", stats[2].msc, stats[2].msss,
                                stats[2].msss * 0.9)
        checks = reference_table_checks(stats)
        assert "3" in checks.ratio_failures
        assert not checks.ok

    def test_zero_msss_cannot_pass_the_ratio_check(self):
        checks = reference_table_checks([SessionStats("z", 1.0, 0.0, 0.0)])
        assert checks.ratio_failures == ("z",)

    def test_no_stats_raises(self):
        with pytest.raises(EmptySession):
            reference_table_checks([])

    def test_means_sum_left_to_right_on_every_interpreter(self):
        checks = reference_table_checks(
            [SessionStats(str(i), 1.0, 0.1, 0.075) for i in range(10)])
        assert checks.msss_mean == 0.9999999999999999 / 10
        assert checks.mcas_mean == 0.7499999999999999 / 10  # compensated: 0.75 / 10
