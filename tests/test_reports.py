"""HTML rendering: serialization round-trips and the two report pages."""

from __future__ import annotations

import pytest

from segscore import (
    DimensionScores,
    Gazetteer,
    GazetteerProvider,
    PageReport,
    ScoreConfig,
    SegmentScoreRecord,
    body_of,
    parse_html,
    score_page,
    score_report_html,
    segment_boundary_html,
    segment_page,
    serialize_html,
    visible_text,
)
from segscore.reports import resolve_path

from conftest import CORPUS_DIR


def body_text(html: str | bytes) -> str:
    return visible_text(body_of(parse_html(html)))


class TestResolvePath:
    def test_empty_path_is_the_root(self):
        dom = parse_html("<html><body><p>hi</p></body></html>")
        assert resolve_path(dom, ()) is dom

    def test_follows_child_indexes(self):
        dom = parse_html("<html><head></head><body><p>a</p><p>b</p></body></html>")
        body = body_of(dom)
        assert resolve_path(dom, (1, 1)) is body.children[1]


class TestSerializeHtml:
    @pytest.mark.parametrize("html", [
        '<html><head><title>T</title></head><body>'
        '<p>first &amp; second</p><div>a <em>b</em> c</div>'
        '</body></html>',
        # raw text is serialized as written, and nothing follows <plaintext>
        "<xmp>a &amp; <b>x</b></xmp>", "<p>a</p><plaintext>b &amp; <i>c",
    ], ids=["page", "xmp", "plaintext"])
    def test_visible_text_round_trips(self, html):
        dom = parse_html(html)
        again = parse_html(serialize_html(dom))
        assert visible_text(body_of(again)) == visible_text(body_of(dom))

    def test_special_characters_are_escaped_in_text(self):
        dom = parse_html("<html><body><p>a &lt; b &amp; c</p></body></html>")
        out = serialize_html(dom)
        assert "a &lt; b &amp; c" in out
        assert body_text(out) == "a < b & c"

    def test_attribute_quotes_are_escaped(self):
        dom = parse_html('<html><body><a href=\'x?a="1"\'>t e x t here</a></body></html>')
        out = serialize_html(dom)
        assert 'href="x?a=&quot;1&quot;"' in out

    def test_void_tags_have_no_closer(self):
        dom = parse_html('<html><body><div><img src="x.png" alt="y"></div></body></html>')
        out = serialize_html(dom)
        assert '<img src="x.png" alt="y">' in out
        assert "</img>" not in out

    def test_parsed_script_content_is_dropped_not_leaked(self):
        dom = parse_html("<html><body><script>if (a<b && c) go();</script>"
                         "<p>visible words</p></body></html>")
        out = serialize_html(dom)
        assert "<script></script>" in out
        assert "go()" not in out

    def test_hand_built_style_text_is_emitted_verbatim(self):
        from segscore import DomNode
        style = DomNode("style", children=[DomNode("#text", text="a < b { x: 'y&z' }")])
        assert serialize_html(style) == "<style>a < b { x: 'y&z' }</style>"

    def test_corpus_pages_round_trip(self):
        for path in sorted(CORPUS_DIR.glob("*.html")):
            dom = parse_html(path.read_bytes())
            again = parse_html(serialize_html(dom))
            assert visible_text(body_of(again)) == visible_text(body_of(dom)), path.name


PAGE = ("<html><head><title>T</title></head><body>"
        "<div>first block carrying ten plain tokens for the marker test</div>"
        "<div>second block carrying ten plain tokens for the marker test</div>"
        "</body></html>")


class TestBoundaryReport:
    def test_is_a_complete_marked_up_page(self):
        dom = parse_html(PAGE)
        segments = segment_page(dom)
        out = segment_boundary_html(dom, segments)
        assert out.startswith("<!doctype html>")
        assert '<seg-mark data-seg="0">' in out
        assert '<seg-mark data-seg="1">' in out
        assert "seg-mark::before" in out  # marker label css shipped inline

    def test_visible_text_is_preserved(self):
        dom = parse_html(PAGE)
        out = segment_boundary_html(dom, segment_page(dom))
        assert body_text(out) == visible_text(body_of(dom))

    def test_tree_is_restored_afterwards(self):
        dom = parse_html(PAGE)
        before = serialize_html(dom)
        segment_boundary_html(dom, segment_page(dom))
        assert serialize_html(dom) == before

    def test_merged_segments_mark_every_member_node(self):
        html = ("<html><head><title>T</title></head><body>"
                "<div>one two three four five six seven eight nine ten more</div>"
                "<div>tiny bit</div>"
                "</body></html>")
        dom = parse_html(html)
        segments = segment_page(dom)
        assert len(segments) == 1 and len(segments[0].node_paths) == 2
        out = segment_boundary_html(dom, segments)
        assert out.count('<seg-mark data-seg="0">') == 2


class TestScoreReport:
    def make(self, query, profile, flags_page=False):
        html = ("<html><head><title>Web Rankings</title></head><body>"
                "<div>the web search corner links semantic ranking notes here"
                " today</div>"
                "<div>plain second block holding eleven ordinary filler tokens"
                " in rows</div>"
                "</body></html>")
        provider = None if flags_page else GazetteerProvider(
            Gazetteer({"Topic": ["semantic ranking"]}))
        dom = parse_html(html)
        report = score_page(html, "http://x/?q=<1&b=2>", query, profile,
                            ScoreConfig(provider=provider))
        return report, segment_page(dom)

    def test_contains_scores_and_entities(self, query, profile):
        report, segments = self.make(query, profile)
        out = score_report_html(report, segments)
        assert out.startswith("<!doctype html>")
        assert f"Page score {report.page_score:.4f}" in out
        assert "<th>freshness</th>" in out
        assert "Topic / semantic ranking (relevance 1.00)" in out
        assert "plain second block holding" in out  # excerpt shown

    def test_quantile_classes_split_low_from_high(self, query, profile):
        report, segments = self.make(query, profile)
        out = score_report_html(report, segments)
        totals = [rec.total for rec in report.segment_records]
        assert totals[0] > totals[1]
        assert 'class="segment q4"' in out
        assert 'class="segment q2"' in out

    def test_url_and_flags_are_escaped(self, query, profile):
        report, segments = self.make(query, profile, flags_page=True)
        report.flags.append('bad <b>&"markup"</b> flag')
        out = score_report_html(report, segments)
        assert "url: http://x/?q=&lt;1&amp;b=2&gt;" in out
        assert "bad &lt;b&gt;&amp;" in out
        assert "<b>&" not in out

    def test_disabled_annotations_flag_is_rendered(self, query, profile):
        report, segments = self.make(query, profile, flags_page=True)
        out = score_report_html(report, segments)
        assert "annotations disabled: no provider configured" in out

    def test_table_bytes_are_pinned(self):
        dims = DimensionScores(link=1.0, image=2.0, theme=3.0, visual=4.0,
                               freshness=5.0, profile=6.25)
        rec = SegmentScoreRecord(segment_id=0, dimensions=dims, delta=21.25,
                                 annotation=0.5, total=21.75)
        report = PageReport(url="u", query="q", segment_records=[rec], page_score=21.75)
        out = score_report_html(report, [])
        assert ("<table><tr><th>link</th><th>image</th><th>theme</th><th>visual</th>"
                "<th>freshness</th><th>profile</th><th>structural</th><th>annotation</th></tr>"
                "<tr><td>1.0000</td><td>2.0000</td><td>3.0000</td><td>4.0000</td>"
                "<td>5.0000</td><td>6.2500</td><td>21.2500</td><td>0.5000</td></tr></table>"
                ) in out
