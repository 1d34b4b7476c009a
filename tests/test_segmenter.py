"""Page partitioning: candidates, merging, recursion, features, fingerprints."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segscore import (
    EmptyPage,
    SegmentationConfig,
    body_of,
    parse_html,
    segment_page,
    segments_to_json,
    text_density,
    token_fingerprint,
    tokenize,
    visible_text,
)
from segscore.reports import resolve_path
from segscore.scoring import DEFAULT_VMWT
from segscore.segmenter import DEFAULT_BLOCK_TAGS, DEFAULT_VISUAL_TAGS

from conftest import DATA_DIR
from genhtml import VOCAB, random_document


def page(body: str, title: str = "t") -> str:
    return f"<html><head><title>{title}</title></head><body>{body}</body></html>"


def segment_counts(html: str) -> list[int]:
    segs = segment_page(parse_html(html))
    return [len(s.tokens) for s in segs]


TWELVE = "one two three four five six seven eight nine ten eleven twelve"
ELEVEN = "alpha beta gamma delta epsilon zeta eta theta iota kappa lam"


class TestFlatPartition:
    def test_one_segment_per_flat_block(self):
        segs = segment_page(parse_html(page(
            f"<div>{TWELVE}</div><div>{ELEVEN}</div><div>{TWELVE}</div>")))
        assert [s.id for s in segs] == [0, 1, 2]
        assert [len(s.tokens) for s in segs] == [12, 11, 12]

    def test_dom_path_resolves_to_the_first_node(self):
        dom = parse_html(page(f"<div>{TWELVE}</div><div>{ELEVEN}</div>"))
        segs = segment_page(dom)
        body = body_of(dom)
        assert resolve_path(dom, segs[0].dom_path) is body.children[0]
        assert resolve_path(dom, segs[1].dom_path) is body.children[1]

    def test_segmentation_is_deterministic(self):
        html = page(f"<div>{TWELVE}</div><p>{ELEVEN}</p>")
        assert segment_page(parse_html(html)) == segment_page(parse_html(html))


class TestMerging:
    def test_short_middle_block_joins_predecessor(self):
        counts = segment_counts(page(
            f"<div>{TWELVE}</div><div>tiny wee bit here</div><div>{ELEVEN}</div>"))
        assert counts == [16, 11]

    def test_short_trailing_block_joins_predecessor(self):
        counts = segment_counts(page(f"<div>{TWELVE}</div><div>x y z</div>"))
        assert counts == [15]

    def test_short_leading_block_stands_alone(self):
        # nothing before it to merge into
        counts = segment_counts(page(f"<div>x y z</div><div>{TWELVE}</div>"))
        assert counts == [3, 12]

    def test_merged_segment_keeps_all_node_paths(self):
        dom = parse_html(page(f"<div>{TWELVE}</div><div>x y z</div>"))
        segs = segment_page(dom)
        assert len(segs) == 1
        assert len(segs[0].node_paths) == 2
        assert segs[0].node_paths[0] == segs[0].dom_path


class TestLooseText:
    def test_loose_runs_form_their_own_segments(self):
        html = page(
            f"lead words sit here before any block at all my friend <p>{TWELVE}</p> "
            f"middle run text keeps ten tokens by itself just fine <p>{ELEVEN}</p>")
        counts = segment_counts(html)
        assert counts == [11, 12, 10, 11]

    def test_inline_markup_stays_inside_its_run(self):
        html = page(f"start of run <em>emphatic words</em> end of run now ok <p>{TWELVE}</p>")
        segs = segment_page(parse_html(html))
        assert len(segs) == 2
        assert "emphatic" in segs[0].tokens


class TestRecursion:
    def test_oversized_mixed_density_block_splits(self):
        dense = " ".join(["we rank web data fast and well each day"] * 26)
        sparse = " ".join(["internationalization"] * 180)
        html = page(f"<div><p>{dense}</p><p>{sparse}</p></div>")
        counts = segment_counts(html)
        assert counts == [234, 180]

    def test_uniform_density_block_stays_whole(self):
        half = " ".join(["alpha beta gamma delta"] * 60)
        html = page(f"<div><p>{half}</p><p>{half}</p></div>")
        assert segment_counts(html) == [480]

    def test_single_sub_block_cannot_split(self):
        inner = " ".join(["alpha beta gamma delta"] * 110)
        html = page(f"<div><p>{inner}</p></div>")
        assert segment_counts(html) == [440]

    def test_wrappers_between_body_and_blocks_are_descended(self):
        html = page(f"<main><span><p>{TWELVE}</p><p>{ELEVEN}</p></span></main>")
        assert segment_counts(html) == [12, 11]


class TestFeatures:
    def test_links_images_and_spans_are_collected(self):
        html = page(
            '<div>alpha <a href="/x/y?z=1">beta gamma</a>'
            ' <img src="/i/p-q.png" alt="Delta E" title="F G">'
            ' <strong>hi there</strong> rest words here now</div>')
        seg, = segment_page(parse_html(html))
        assert seg.links == [(["beta", "gamma"], ["x", "y", "z", "1"])]
        assert seg.images == [(["delta", "e"], ["f", "g"], ["p", "q", "png"])]
        assert seg.visual_spans == [("strong", ["hi", "there"])]

    def test_heading_block_is_its_own_visual_span(self):
        html = page(f"<h2>{TWELVE}</h2>")
        seg, = segment_page(parse_html(html))
        assert seg.visual_spans == [("h2", seg.tokens)]

    def test_configured_visual_tags_override_defaults(self):
        html = page(f"<div><strong>loud</strong> <em>soft</em> {TWELVE}</div>")
        cfg = SegmentationConfig(visual_tags=frozenset({"em"}))
        seg, = segment_page(parse_html(html), cfg)
        assert seg.visual_spans == [("em", ["soft"])]


class TestEmptyAndConfig:
    def test_blank_body_raises(self):
        dom = parse_html(page("  <!-- c --> <script>var x;</script>  "))
        with pytest.raises(EmptyPage):
            segment_page(dom)

    def test_empty_page_fixture_raises(self):
        dom = parse_html((DATA_DIR / "empty.html").read_bytes())
        with pytest.raises(EmptyPage):
            segment_page(dom)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(min_tokens=0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_tokens=10, max_tokens=10)
        with pytest.raises(ValueError):
            SegmentationConfig(block_tags=frozenset())
        with pytest.raises(ValueError):
            SegmentationConfig(density_floor=-0.1)

    def test_config_from_file_merges_overrides(self):
        cfg = SegmentationConfig.from_file(DATA_DIR / "segconfig.json")
        assert cfg.min_tokens == 5
        assert cfg.max_tokens == 300
        assert cfg.density_floor == 1.5
        assert cfg.block_tags == DEFAULT_BLOCK_TAGS

    @pytest.mark.parametrize("body", [
        '{"min_tokens": "x"}',
        '{"min_tokens": 5.0}',
        '{"max_tokens": true}',
        '{"max_tokens": 1e400}',
        '{"density_floor": null}',
        '{"density_floor": "2"}',
        '{"density_floor": false}',
        '{"density_floor": NaN}',
        '{"density_floor": -Infinity}',
        '{"block_tags": "div"}',
        '{"block_tags": ["div", 3]}',
        '{"visual_tags": {"em": 1}}',
        '{"visual_tags": null}',
    ])
    def test_config_from_file_rejects_mistyped_values(self, tmp_path, body):
        path = tmp_path / "seg.json"
        path.write_text(body, "utf-8")
        with pytest.raises(ValueError) as excinfo:
            SegmentationConfig.from_file(path)
        assert "\n" not in str(excinfo.value)

    def test_config_from_file_accepts_tag_lists_and_integral_floor(self, tmp_path):
        path = tmp_path / "seg.json"
        path.write_text('{"block_tags": ["div", "p"], "visual_tags": [], "density_floor": 3}',
                        "utf-8")
        cfg = SegmentationConfig.from_file(path)
        assert cfg.block_tags == frozenset({"div", "p"})
        assert cfg.visual_tags == frozenset()
        assert cfg.density_floor == 3

    def test_default_visual_tags_track_the_weight_table(self):
        assert DEFAULT_VISUAL_TAGS == frozenset(DEFAULT_VMWT)


class TestDensity:
    def test_ten_short_tokens_on_one_line(self):
        dom = parse_html(page("<p>a b c d e f g h i j</p>"))
        p = body_of(dom).children[0]
        assert text_density(p) == pytest.approx(10.0)

    def test_thirty_tokens_across_three_lines(self):
        text = " ".join(["abcdef"] * 30)  # 209 chars -> 3 wrap lines
        dom = parse_html(page(f"<p>{text}</p>"))
        assert text_density(body_of(dom).children[0]) == pytest.approx(10.0)

    def test_one_giant_token_spans_lines(self):
        dom = parse_html(page(f"<p>{'x' * 200}</p>"))
        assert text_density(body_of(dom).children[0]) == pytest.approx(1 / 3)

    def test_no_tokens_means_zero_density(self):
        dom = parse_html(page("<p>!!! --- ???</p>"))
        assert text_density(body_of(dom).children[0]) == 0.0


class TestFingerprint:
    def test_frozen_reference_values(self):
        assert token_fingerprint([]) == 16476032584258269876
        assert token_fingerprint(["web"]) == 859522573087636365
        assert token_fingerprint(["web", "search"]) == 5371248851083972648

    def test_boundaries_matter(self):
        assert token_fingerprint(["ab", "c"]) == 1173460964039789312
        assert token_fingerprint(["a", "bc"]) == 12832136894644170616
        assert token_fingerprint(["ab", "c"]) != token_fingerprint(["a", "bc"])

    def test_no_collisions_across_a_thousand_lists(self):
        rng = random.Random(7)
        seen: dict[int, tuple[str, ...]] = {}
        for i in range(1000):
            tokens = [f"t{i}"] + [rng.choice(VOCAB) for _ in range(rng.randint(0, 5))]
            fp = token_fingerprint(tokens)
            assert fp not in seen, (tokens, seen[fp])
            seen[fp] = tuple(tokens)


class TestSerialization:
    def test_segment_pool_schema(self):
        segs = segment_page(parse_html(page(f"<div>{TWELVE}</div><p>{ELEVEN}</p>")))
        pool = segments_to_json("file.html", segs)
        assert pool["v"] == 1 and pool["url"] == "file.html"
        assert [entry["id"] for entry in pool["segments"]] == [0, 1]
        for entry in pool["segments"]:
            assert set(entry) == {"id", "dom_path", "text", "tokens", "links",
                                  "images", "visual_spans", "fingerprint"}
            assert entry["fingerprint"].isdigit()
            assert entry["tokens"] == tokenize(entry["text"])


def assert_partition(html: str) -> None:
    dom = parse_html(html)
    body = body_of(dom)
    expected = Counter(tokenize(visible_text(body)))
    if not expected:
        with pytest.raises(EmptyPage):
            segment_page(dom)
        return
    got: Counter = Counter()
    for seg in segment_page(dom):
        got.update(seg.tokens)
    assert got == expected


class TestPartitionProperty:
    """Segment tokens must form an exact partition of the body tokens."""

    def test_corpus_pages_partition_exactly(self, corpus_paths):
        for path in corpus_paths:
            assert_partition(path.read_text("utf-8"))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_documents_partition_exactly(self, seed: int):
        assert_partition(random_document(random.Random(seed)))
