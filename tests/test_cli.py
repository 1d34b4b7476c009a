"""Command line behavior, exit codes and output formats, all in-process."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segscore.pipeline
from segscore import (
    Query,
    ScoreConfig,
    SegmentationConfig,
    Vmwt,
    load_profile,
    parse_html,
    score_page,
    score_report_html,
    segment_page,
    text_key,
)
from segscore.cli import ENDPOINT_ENV, EXIT_FAILURE, EXIT_OK, main
from segscore.scoring import DIMENSIONS

from conftest import CORPUS_DIR, DATA_DIR, TINY_DIR
from genhtml import random_document

T1 = str(TINY_DIR / "t1_links.html")
T3 = str(TINY_DIR / "t3_visual.html")
T4 = str(TINY_DIR / "t4_entities.html")
EMPTY = str(DATA_DIR / "empty.html")
PROFILE = str(DATA_DIR / "profile.json")
GAZETTEER = str(DATA_DIR / "gazetteer.json")
VMWT = str(DATA_DIR / "vmwt.json")
COEFFS = str(DATA_DIR / "coeffs.json")
REFERENCE = str(DATA_DIR / "reference_sessions.csv")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


class TestSegmentCommand:
    def test_json_payload(self, capsys):
        payload = run_json(capsys, "segment", T1)
        assert payload["v"] == 1
        assert payload["url"] == T1
        assert [s["id"] for s in payload["segments"]] == [0, 1]
        assert [len(s["tokens"]) for s in payload["segments"]] == [12, 13]

    def test_out_writes_the_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "segments.json"
        code, out, err = run(capsys, "segment", T1, "--out", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text("utf-8"))["url"] == T1

    def test_html_format_marks_boundaries(self, capsys):
        code, out, err = run(capsys, "segment", T1, "--format", "html")
        assert code == EXIT_OK
        assert out.startswith("<!doctype html>")
        assert 'seg-mark data-seg="0"' in out

    def test_empty_page_warns_but_succeeds(self, capsys):
        code, out, err = run(capsys, "segment", EMPTY)
        assert code == EXIT_OK
        assert json.loads(out)["segments"] == []
        assert "no visible text" in err

    def test_missing_input_fails(self, capsys):
        code, out, err = run(capsys, "segment", "no/such/file.html")
        assert code == EXIT_FAILURE
        assert err.startswith("segscore: cannot read")

    def test_fetches_http_urls(self, capsys):
        page = (TINY_DIR / "t1_links.html").read_bytes()

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.end_headers()
                self.wfile.write(page)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/page.html"
            payload = run_json(capsys, "segment", url)
            assert payload["url"] == url
            assert len(payload["segments"]) == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    @pytest.mark.parametrize("chunked", [False, True])
    def test_http_body_over_the_byte_cap_fails(self, capsys, monkeypatch, chunked):
        page = (TINY_DIR / "t1_links.html").read_bytes()

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                if chunked:  # no Content-Length: only the cap stops the read
                    self.send_header("Transfer-Encoding", "chunked")
                    self.end_headers()
                    for i in range(0, len(page), 64):
                        piece = page[i:i + 64]
                        self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
                    self.wfile.write(b"0\r\n\r\n")
                else:
                    self.send_header("Content-Length", str(len(page)))
                    self.end_headers()
                    self.wfile.write(page)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/page.html"
            monkeypatch.setattr("segscore.cli.FETCH_MAX_BYTES", len(page))
            assert len(run_json(capsys, "segment", url)["segments"]) == 2
            monkeypatch.setattr("segscore.cli.FETCH_MAX_BYTES", len(page) - 1)
            code, out, err = run(capsys, "segment", url)
            assert code == EXIT_FAILURE and out == ""
            assert err.startswith("segscore: cannot fetch")
            assert f"exceeds {len(page) - 1} bytes" in err
            assert err.count("\n") == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_unreachable_url_fails(self, capsys):
        code, out, err = run(capsys, "segment", "http://127.0.0.1:1/x.html")
        assert code == EXIT_FAILURE
        assert err.startswith("segscore: cannot fetch")


class TestScoreCommand:
    def test_plain_run_scores_the_anchor_block(self, capsys):
        payload = run_json(capsys, "score", T1, "--query", "web search engines")
        assert payload["flags"] == ["annotations disabled: no provider configured"]
        first, second = payload["segments"]
        assert first["dimensions"]["link"] == pytest.approx(4.0)
        assert first["dimensions"]["theme"] == pytest.approx(1.0)
        assert first["total"] == pytest.approx(5.0)
        assert second["total"] == pytest.approx(0.0)
        assert payload["page_score"] == pytest.approx(5.0)

    def test_coefficients_rescale_dimensions(self, capsys):
        payload = run_json(capsys, "score", T1, "--query", "web search engines",
                           "--coeffs", COEFFS)
        assert payload["page_score"] == pytest.approx(9.0)

    def test_custom_weight_table_drives_visual_scores(self, capsys):
        payload = run_json(capsys, "score", T3, "--query", "web search engines",
                           "--profile", PROFILE, "--vmwt", VMWT)
        dims = [s["dimensions"]["visual"] for s in payload["segments"]]
        assert dims == pytest.approx([4.6, 1.6])

    def test_full_run_with_profile_and_gazetteer(self, capsys):
        payload = run_json(capsys, "score", T4, "--query", "web search engines",
                           "--profile", PROFILE,
                           "--provider", "gazetteer", "--gazetteer", GAZETTEER)
        assert payload["flags"] == []
        assert all(s["annotation"] > 0 for s in payload["segments"])
        assert payload["page_score"] == pytest.approx(
            sum(s["total"] for s in payload["segments"]))

    def test_html_report_format(self, capsys):
        code, out, err = run(capsys, "score", T1, "--query", "web search engines",
                             "--format", "html")
        assert code == EXIT_OK
        assert out.startswith("<!doctype html>")
        assert "Page score" in out

    def test_html_report_segments_the_page_once(self, capsys, monkeypatch):
        calls = []

        def counting_segment_page(dom, config):
            calls.append(config)
            return segment_page(dom, config)

        monkeypatch.setattr(segscore.pipeline, "segment_page", counting_segment_page)
        code, out, err = run(capsys, "score", T3, "--query", "web search engines",
                             "--profile", PROFILE, "--vmwt", VMWT, "--format", "html")
        assert code == EXIT_OK, err
        assert len(calls) == 1
        vmwt = Vmwt.from_file(VMWT)
        html = (TINY_DIR / "t3_visual.html").read_bytes()
        report = score_page(html, T3, Query.parse("web search engines"),
                            load_profile(PROFILE), ScoreConfig(vmwt=vmwt))
        segments = segment_page(parse_html(html),
                                SegmentationConfig(visual_tags=frozenset(vmwt.tag_weights)))
        assert out == score_report_html(report, segments)

    def test_snapshot_store_round_trip(self, capsys, tmp_path):
        store = tmp_path / "snaps"
        for _ in range(2):
            payload = run_json(capsys, "score", T1, "--query", "web search engines",
                               "--snapshots", str(store))
            fresh = [s["dimensions"]["freshness"] for s in payload["segments"]]
            assert fresh == [0.0, 0.0]
        assert any(store.rglob("*.json"))

    def test_blank_query_fails(self, capsys):
        code, out, err = run(capsys, "score", T1, "--query", "   ")
        assert code == EXIT_FAILURE
        assert err == "segscore: --query must not be empty\n"

    def test_empty_page_yields_an_empty_flagged_report(self, capsys):
        code, out, err = run(capsys, "score", EMPTY, "--query", "web")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["segments"] == []
        assert payload["page_score"] == 0.0
        assert payload["flags"] == ["empty page: no visible body text"]
        assert "report is empty" in err

    def test_gazetteer_provider_needs_a_file(self, capsys):
        code, out, err = run(capsys, "score", T1, "--query", "web",
                             "--provider", "gazetteer")
        assert code == EXIT_FAILURE
        assert "--gazetteer" in err

    def test_remote_provider_needs_an_endpoint(self, capsys, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        code, out, err = run(capsys, "score", T1, "--query", "web",
                             "--provider", "remote")
        assert code == EXIT_FAILURE
        assert ENDPOINT_ENV in err

    @pytest.mark.parametrize("endpoint", [
        "notaurl", "http://[::1/x", "ftp://127.0.0.1/x", "http://127.0.0.1:99999/x",
        "http://user@127.0.0.1/x", "http://127.0.0.1/a b"])
    @pytest.mark.parametrize("command", ["score", "annotate"])
    def test_malformed_endpoint_fails_with_one_line(self, capsys, monkeypatch,
                                                    command, endpoint):
        monkeypatch.delenv(ENDPOINT_ENV, raising=False)
        query = ["--query", "web"] if command == "score" else []
        code, out, err = run(capsys, command, T1, *query,
                             "--provider", "remote", "--endpoint", endpoint)
        assert code == EXIT_FAILURE and out == ""
        assert err.startswith(f"segscore: endpoint {endpoint!r} ")
        assert err.count("\n") == 1

    def test_remote_endpoint_from_environment_degrades_gracefully(
            self, capsys, monkeypatch, tmp_path):
        page = tmp_path / "one.html"
        page.write_text("<html><head><title>t</title></head><body>"
                        "<div>just ten plain filler tokens sitting here in a"
                        " row</div></body></html>", "utf-8")
        monkeypatch.setenv(ENDPOINT_ENV, "http://127.0.0.1:1/annotate")
        payload = run_json(capsys, "score", str(page), "--query", "web",
                           "--provider", "remote")
        assert [s["annotation"] for s in payload["segments"]] == [0.0]
        assert len(payload["flags"]) == 1
        assert "annotation provider unavailable" in payload["flags"][0]

    def test_missing_profile_fails(self, capsys, tmp_path):
        code, out, err = run(capsys, "score", T1, "--query", "web",
                             "--profile", str(tmp_path / "nope.json"))
        assert code == EXIT_FAILURE and err.startswith("segscore:")

    def test_bool_profile_weight_fails(self, capsys, tmp_path):
        bad = tmp_path / "profile.json"
        bad.write_text('[{"term": "web", "weight": true}]', "utf-8")
        code, out, err = run(capsys, "score", T1, "--query", "web", "--profile", str(bad))
        assert code == EXIT_FAILURE and out == ""
        assert err.startswith("segscore:") and "got True" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("term", ["5", '["a"]', "null"])
    def test_non_string_profile_term_fails(self, capsys, tmp_path, term):
        bad = tmp_path / "profile.json"
        bad.write_text(f'{{"terms": [{{"term": {term}, "weight": 0.5}}]}}', "utf-8")
        code, out, err = run(capsys, "score", T1, "--query", "web", "--profile", str(bad))
        assert code == EXIT_FAILURE and out == ""
        assert err.startswith("segscore:") and "is not a string" in err
        assert err.count("\n") == 1

    def test_bad_coefficients_file_fails(self, capsys, tmp_path):
        bad = tmp_path / "coeffs.json"
        bad.write_text('{"link": -1}', "utf-8")
        code, out, err = run(capsys, "score", T1, "--query", "web",
                             "--coeffs", str(bad))
        assert code == EXIT_FAILURE
        assert "cannot load coefficients" in err

    @pytest.mark.parametrize("flag, body, what", [
        ("--vmwt", '{"h1": [1]}', "visual markup weights"),
        ("--vmwt", '{"h1": "2"}', "visual markup weights"),
        ("--coeffs", '{"link": NaN}', "coefficients"),
        ("--coeffs", '{"link": -Infinity}', "coefficients"),
    ])
    def test_non_numeric_or_non_finite_config_fails(self, capsys, tmp_path,
                                                    flag, body, what):
        bad = tmp_path / "config.json"
        bad.write_text(body, "utf-8")
        code, out, err = run(capsys, "score", T1, "--query", "web", flag, str(bad))
        assert code == EXIT_FAILURE and out == ""
        assert f"cannot load {what}" in err and "finite number" in err
        assert err.count("\n") == 1

    def test_overflowing_score_fails_instead_of_writing_infinity(self, capsys, tmp_path):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text('{"link": 1e308}', "utf-8")
        code, out, err = run(capsys, "score", T1, "--query", "web", "--coeffs", str(coeffs))
        assert code == EXIT_FAILURE and out == ""
        assert "cannot write JSON output" in err


class TestAnnotateCommand:
    def test_gazetteer_annotations_per_segment(self, capsys):
        payload = run_json(capsys, "annotate", T4, "--gazetteer", GAZETTEER)
        assert payload["v"] == 1
        assert payload["provider"] == "gazetteer"
        first, second = payload["annotations"]
        assert first["entities"] == [
            {"category": "Organization", "name": "acme labs", "relevance": 1.0},
            {"category": "Topic", "name": "web search", "relevance": 1.0},
        ]
        assert second["entities"] == [
            {"category": "Topic", "name": "semantic ranking", "relevance": 1.0},
        ]

    @pytest.mark.parametrize("body", ['{"Topic": [3]}', '{"Topic": [["web"]]}',
                                      '{"Topic": "web"}'])
    def test_malformed_gazetteer_fails(self, capsys, tmp_path, body):
        bad = tmp_path / "gazetteer.json"
        bad.write_text(body, "utf-8")
        code, out, err = run(capsys, "annotate", T4, "--gazetteer", str(bad))
        assert code == EXIT_FAILURE and out == ""
        assert "cannot load gazetteer" in err
        assert err.count("\n") == 1

    def test_none_provider_is_rejected(self, capsys):
        code, out, err = run(capsys, "annotate", T4, "--provider", "none")
        assert code == EXIT_FAILURE
        assert "not --provider none" in err

    def test_default_provider_requires_gazetteer_file(self, capsys):
        code, out, err = run(capsys, "annotate", T4)
        assert code == EXIT_FAILURE
        assert "--gazetteer" in err

    def test_replay_gaps_become_per_segment_errors(self, capsys, tmp_path):
        fixtures = tmp_path / "fixtures.json"
        fixtures.write_text("{}", "utf-8")
        payload = run_json(capsys, "annotate", T4, "--provider", "replay",
                           "--fixtures", str(fixtures))
        for entry in payload["annotations"]:
            assert entry["entities"] == []
            assert "error" in entry


class TestSessionStatsCommand:
    def make_reports(self, capsys, directory):
        directory.mkdir()
        jobs = [("s1__a.json", T1), ("s1__b.json", T1), ("s2__c.json", T4)]
        for name, page in jobs:
            code, out, err = run(capsys, "score", page,
                                 "--query", "web search engines",
                                 "--out", str(directory / name))
            assert code == EXIT_OK

    def test_csv_aggregation_by_session(self, capsys, tmp_path):
        reports = tmp_path / "reports"
        self.make_reports(capsys, reports)
        code, out, err = run(capsys, "session-stats", str(reports))
        assert code == EXIT_OK
        assert out == ("session_id,msc,msss,mcas\n"
                       "s1,2.0,2.5,0.0\n"
                       "s2,2.0,1.0,0.0\n")

    def test_reference_check_reports_three_lines(self, capsys):
        code, out, err = run(capsys, "session-stats", "--reference", REFERENCE)
        assert code == EXIT_OK
        lines = err.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("ok") for line in lines)

    def test_table1_is_an_alias_for_reference(self, capsys):
        code, out, err = run(capsys, "session-stats", "--table1", REFERENCE)
        assert code == EXIT_OK
        assert len(err.strip().splitlines()) == 3

    def test_reports_and_reference_can_combine(self, capsys, tmp_path):
        reports = tmp_path / "reports"
        self.make_reports(capsys, reports)
        code, out, err = run(capsys, "session-stats", str(reports),
                             "--reference", REFERENCE)
        assert code == EXIT_OK
        assert out.startswith("session_id,msc,msss,mcas\n")
        assert len(err.strip().splitlines()) == 3

    def test_no_inputs_is_an_error(self, capsys):
        code, out, err = run(capsys, "session-stats")
        assert code == EXIT_FAILURE
        assert "reports directory" in err

    def test_empty_directory_is_an_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "session-stats", str(tmp_path))
        assert code == EXIT_FAILURE
        assert "no page report files" in err

    def test_bad_reference_header_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "ref.csv"
        bad.write_text("a,b\n1,2\n", "utf-8")
        code, out, err = run(capsys, "session-stats", "--reference", str(bad))
        assert code == EXIT_FAILURE
        assert "expected CSV header" in err

    def test_reference_that_is_not_utf8_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "ref.csv"
        bad.write_bytes(b"session_id,msc,msss,mcas\n\xff,1,2,3\n")
        code, out, err = run(capsys, "session-stats", "--reference", str(bad))
        assert code == EXIT_FAILURE
        assert err.startswith(f"segscore: cannot read {bad}") and err.count("\n") == 1

    @pytest.mark.parametrize("rows, message", [
        pytest.param("s1,nan,inf,nan", "row: msc must be a finite number, got nan", id="nan"),
        pytest.param("s1,1,inf,1", "row: msss must be a finite number, got inf", id="inf"),
        pytest.param("s1,1,2,-1e999", "row: mcas must be a finite number, got -inf",
                     id="past_float"),
        pytest.param("s1,1,1e308,1\ns2,1,1e308,1", "msss mean must be a finite number, got inf",
                     id="mean_past_float"),
    ])
    def test_non_finite_reference_statistic_is_an_error(self, capsys, tmp_path, rows, message):
        bad = tmp_path / "ref.csv"
        bad.write_text(f"session_id,msc,msss,mcas\n{rows}\n", "utf-8")
        code, out, err = run(capsys, "session-stats", "--reference", str(bad))
        assert code == EXIT_FAILURE
        assert message in err and err.count("\n") == 1

    def test_corrupt_report_file_is_an_error(self, capsys, tmp_path):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "s1__a.json").write_text("{]", "utf-8")
        code, out, err = run(capsys, "session-stats", str(reports))
        assert code == EXIT_FAILURE
        assert "cannot load page report" in err

    @pytest.mark.parametrize("field", ["delta", "link", "page_score"])
    @pytest.mark.parametrize("value", ["x", None, True, float("nan")])
    def test_mistyped_score_is_an_error(self, capsys, tmp_path, field, value):
        reports = tmp_path / "reports"
        self.make_reports(capsys, reports)
        target = reports / "s1__a.json"
        data = json.loads(target.read_text("utf-8"))
        if field == "page_score":
            data[field] = value
        elif field == "link":
            data["segments"][0]["dimensions"][field] = value
        else:
            data["segments"][0][field] = value
        target.write_text(json.dumps(data), "utf-8")
        code, out, err = run(capsys, "session-stats", str(reports))
        assert code == EXIT_FAILURE
        assert out == ""
        assert f"cannot load page report {target}: not a page report: {field} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["delta", "annotation"])
    def test_statistic_that_overflows_is_an_error(self, capsys, tmp_path, field):
        reports = tmp_path / "reports"
        self.make_reports(capsys, reports)
        target = reports / "s1__a.json"
        data = json.loads(target.read_text("utf-8"))
        for segment in data["segments"][:2]:
            segment[field] = 1e308  # each finite, their sum is not
        target.write_text(json.dumps(data), "utf-8")
        code, out, err = run(capsys, "session-stats", str(reports))
        assert code == EXIT_FAILURE
        assert out == ""
        name = {"delta": "msss", "annotation": "mcas"}[field]
        assert err == (f"segscore: cannot write session stats: {name} of session s1 "
                       "must be a finite number, got inf\n")

    @pytest.mark.parametrize("field, value, message", [
        ("url", 5, "url must be str"),
        ("query", None, "query must be str"),
        ("flags", "abc", "flags must be list"),
        ("flags", [1], "each flag must be str"),
        ("segment_id", "x", "segment_id must be int"),
        ("segment_id", False, "segment_id must be int"),
    ])
    def test_mistyped_field_is_an_error(self, capsys, tmp_path, field, value, message):
        reports = tmp_path / "reports"
        self.make_reports(capsys, reports)
        target = reports / "s1__a.json"
        data = json.loads(target.read_text("utf-8"))
        if field == "segment_id":
            data["segments"][0][field] = value
        else:
            data[field] = value
        target.write_text(json.dumps(data), "utf-8")
        code, out, err = run(capsys, "session-stats", str(reports))
        assert code == EXIT_FAILURE
        assert out == ""
        assert f"cannot load page report {target}: not a page report: {message}" in err
        assert err.count("\n") == 1


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == EXIT_FAILURE

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_FAILURE

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "segment" in capsys.readouterr().out


# ── the CLI contract over drawn input files ─────────────────────────

T4_FIRST_TEXT = segment_page(parse_html(Path(T4).read_bytes()))[0].text

# One well-formed file of each kind the CLI reads.
WELL_FORMED = {
    "vmwt": {"h1": 4.0, "strong": 2},
    "coeffs": {"link": 2.0, "image": 0.5},
    "profile": {"v": 1, "owner_id": "u1", "terms": [{"term": "web", "weight": 0.5},
                                                    {"term": "ranking", "weight": 1}]},
    "gazetteer": {"Topic": ["web search", "semantic ranking"], "Organization": ["acme labs"]},
    "fixtures": {text_key(T4_FIRST_TEXT): {"entities": [
        {"type": "Topic", "name": "web search", "relevance": 0.9}, {"type": "Org", "name": "acme"}]}},
    "report": {"v": 1, "url": "u", "query": "web", "page_score": 3.5, "flags": ["f"],
               "segments": [{"segment_id": 0, "dimensions": dict.fromkeys(DIMENSIONS, 0.5),
                             "delta": 3.0, "annotation": 0.5, "total": 3.5}]},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0, 1e308, 10**400, True,
                            None, "", "Two Words", "web", [], {}])
NOT_JSON = st.sampled_from([b"", b"{", b"\xff\xfe[]", b"[" * 5000 + b"]" * 5000,
                            b"[1" + b"0" * 5000 + b"]"])
# Byte edits to a generated page: openers of markup the scanner leaves to
# html.parser, NUL, bytes that are not UTF-8, and (None) a deletion.
PAGE_EDITS = st.sampled_from([b"<![", b"<?", b"<script>", b"</", b"\x00", b"\xff\xfe", None])
# A well-formed reference CSV, and what one of its cells may become.
REFERENCE_ROWS = [["session_id", "msc", "msss", "mcas"], ["s1", "12", "11.87", "8.91"],
                  ["s2", "9", "11.87", "8.91"]]
REFERENCE_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e308", "1e999", "-1", "0", "",
                                   "x", " 2 ", "1_0"])


def _paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root's first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, prefix + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def page_files(draw) -> bytes:
    """A tests/genhtml.py page with 0 to 8 byte edits."""
    page = random_document(random.Random(draw(st.integers(0, 2**16)))).encode()
    for _ in range(draw(st.integers(0, 8))):
        at = draw(st.integers(0, len(page)))
        edit = draw(PAGE_EDITS)
        end = at + draw(st.integers(1, 40)) if edit is None else at
        page = page[:at] + (edit or b"") + page[end:]
    return page


@st.composite
def reference_files(draw) -> bytes:
    """The reference CSV with 0 to 3 of its cells each replaced by 0 to 2 cells."""
    rows = [list(row) for row in REFERENCE_ROWS]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        if row:
            at = draw(st.integers(0, len(row) - 1))
            row[at:at + 1] = draw(st.lists(REFERENCE_CELLS, max_size=2))
    return "".join(",".join(row) + "\n" for row in rows).encode()


@st.composite
def input_files(draw):
    """(kind, command variant, file bytes): a well-formed file of that kind,
    or one mutated in shape, in the type or value of one part, or in its bytes;
    or an edited page, or an edited reference CSV."""
    kind = draw(st.sampled_from(sorted([*WELL_FORMED, "page", "reference"])))
    if kind == "page":
        return kind, draw(st.integers(0, 4)), draw(page_files())
    if kind == "reference":
        return kind, 0, draw(reference_files())
    value = WELL_FORMED[kind]
    mutation = draw(st.sampled_from(["none", "shape", "type", "value", "bytes"]))
    if mutation == "bytes":
        return kind, draw(st.integers(0, 1)), draw(NOT_JSON)
    if mutation == "shape":
        value = draw(st.sampled_from([[value], list(value.values())]) | JSON_VALUES)
    elif mutation != "none":
        path = draw(st.sampled_from(list(_paths(value))[1:]))
        value = _replaced(value, path, draw(JSON_VALUES if mutation == "type" else EXTREMES))
    return kind, draw(st.integers(0, 1)), json.dumps(value).encode()


def _argv(kind: str, variant: int, path: str) -> list[str]:
    score = ["score", T4, "--query", "web search acme"]
    scored = ["score", path, "--query", "web search acme", "--provider", "gazetteer",
              "--gazetteer", GAZETTEER, "--snapshots", str(Path(path).parent / "snapshots")]
    choices = {
        "page": [["segment", path], ["segment", path, "--format", "html"], scored,
                 scored + ["--format", "html"], ["annotate", path, "--gazetteer", GAZETTEER]],
        "reference": [["session-stats", "--reference", path]],
        "vmwt": [["segment", T4, "--vmwt", path], score + ["--vmwt", path]],
        "coeffs": [score + ["--coeffs", path]],
        "profile": [score + ["--profile", path]],
        "gazetteer": [["annotate", T4, "--gazetteer", path],
                      score + ["--provider", "gazetteer", "--gazetteer", path]],
        "fixtures": [["annotate", T4, "--provider", "replay", "--fixtures", path],
                     score + ["--provider", "replay", "--fixtures", path]],
        "report": [["session-stats", str(Path(path).parent)]],
    }[kind]
    return choices[variant % len(choices)]


def _no_constant(name: str):
    raise AssertionError(f"stdout holds {name}, which is not JSON")


class TestCliContract:
    @settings(max_examples=200, deadline=None)
    @given(case=input_files())
    @example(case=("profile", 0, b'{"terms": [{"term": 5, "weight": 0.5}]}'))
    @example(case=("profile", 0, b'[{"term": ["a"], "weight": 0.5}]'))
    @example(case=("report", 0, b"[]"))
    @example(case=("fixtures", 1, json.dumps({text_key(T4_FIRST_TEXT): {
        "entities": [{"type": "Topic", "name": 5}]}}).encode()))
    @example(case=("page", 0, b"<p>hi</p><![Cx[y"))
    @example(case=("page", 3, b"<p>a</p><![ x>b<p>c</p>"))
    @example(case=("reference", 0, b"session_id,msc,msss,mcas\ns1,nan,inf,nan\n"))
    def test_every_input_file_ends_in_exit_0_or_a_one_line_exit_2(self, case):
        """Exit 0 writes JSON without NaN or Infinity (a whole HTML document
        for --format html, CSV of finite numbers for session-stats, and three
        check lines with finite means for --reference); exit 2 writes exactly
        one line to stderr; nothing else."""
        kind, variant, body = case
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "s1__input.json"
            path.write_bytes(body)
            argv = _argv(kind, variant, str(path))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (EXIT_OK, EXIT_FAILURE), err.getvalue()
        if code == EXIT_FAILURE:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        elif kind == "report":
            _, *rows = out.getvalue().splitlines()
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(",")[1:])
        elif kind == "reference":
            lines = err.getvalue().splitlines()
            assert len(lines) == 3
            assert all(math.isfinite(float(line.split()[2])) for line in lines[:2]), lines
        elif "html" in argv:
            assert out.getvalue().startswith("<!doctype html>")
            assert out.getvalue().endswith("</html>")
        else:
            json.loads(out.getvalue(), parse_constant=_no_constant)
