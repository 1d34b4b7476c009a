"""Page partitioning: candidates, merging, recursion, features, fingerprints."""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from hashlib import blake2b
from unittest.mock import patch
from urllib.parse import urlsplit

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
    token_fingerprint,
    tokenize,
    visible_text,
)
from segscore import segmenter
from segscore.dom import RAW_TEXT_TAGS, TEXT_TAG, DomNode
from segscore.reports import resolve_path
from segscore.scoring import DEFAULT_VMWT
from segscore.segmenter import (
    DEFAULT_VISUAL_TAGS,
    LINE_WIDTH,
    Segment,
    _group_candidates,
    _href_tokens,
    _src_filename_tokens,
)

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

    def test_character_references_in_link_and_image_attributes(self):
        # HTML5's attribute rule, on every interpreter: "&copy=" and "&amp="
        # stay as written, since a "=" follows the entity name
        html = page('<div>alpha <a href="/q?a=1&copy=2">beta</a>'
                    ' <img src="/p.png" alt="a&amp=b"> rest words here now</div>')
        seg, = segment_page(parse_html(html))
        assert seg.links == [(["beta"], ["q", "a", "1", "copy", "2"])]
        assert [alt for alt, _, _ in seg.images] == [["a", "amp", "b"]]

    def test_heading_block_is_its_own_visual_span(self):
        html = page(f"<h2>{TWELVE}</h2>")
        seg, = segment_page(parse_html(html))
        assert seg.visual_spans == [("h2", seg.tokens)]

    def test_configured_visual_tags_override_defaults(self):
        html = page(f"<div><strong>loud</strong> <em>soft</em> {TWELVE}</div>")
        cfg = SegmentationConfig(visual_tags=frozenset({"em"}))
        seg, = segment_page(parse_html(html), cfg)
        assert seg.visual_spans == [("em", ["soft"])]

    def test_each_text_node_is_tokenized_once(self):
        html = page(
            f'<p>lead <a href="/docs/guide?v=2">read <b>the <i>fine</i> guide</b></a> now'
            f' <img src="/i/cat.png" alt="a cat" title="kitty"> {TWELVE}</p>'
            f"<script>skip()</script><h2>{ELEVEN} <em>soft</em></h2>")
        dom = parse_html(html)
        texts = []
        stack = [body_of(dom)]
        while stack:
            cur = stack.pop()
            if cur.is_text:
                texts.append(cur.text)
            elif cur.tag not in RAW_TEXT_TAGS:
                stack.extend(cur.children)
        calls = []

        def recording_tokenize(text):
            calls.append(text)
            return tokenize(text)

        with patch.object(segmenter, "tokenize", recording_tokenize):
            first, second = segment_page(dom)
        attrs = ["/docs/guide v=2", "a cat", "kitty", "cat.png"]
        assert Counter(calls) == Counter(texts + attrs)
        assert first.links == [(["read", "the", "fine", "guide"], ["docs", "guide", "v", "2"])]
        assert first.visual_spans == [("b", ["the", "fine", "guide"]), ("i", ["fine"])]
        assert second.visual_spans == [("h2", second.tokens), ("em", ["soft"])]


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

    def test_default_visual_tags_track_the_weight_table(self):
        assert DEFAULT_VISUAL_TAGS == frozenset(DEFAULT_VMWT)


def text_density(node: DomNode) -> float:
    """Tokens per 80-character wrap line of the subtree's visible text."""
    text = visible_text(node)
    return segmenter._density_of(text, tokenize(text))


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


# ── reference segmenter ─────────────────────────────────────────────
# The walk-per-use segmenter that the cached-text segmenter replaced.
# It re-walks and re-tokenizes each candidate wherever it needs the text,
# and re-walks every <a> and visual element for its own text.  The
# candidate grouping it shares is imported unchanged.


def _ref_subtree_texts(node, out: list[str]) -> None:
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.is_text:
            out.append(cur.text)
        elif cur.tag not in RAW_TEXT_TAGS:
            stack.extend(reversed(cur.children))


def _ref_cand_text(cand) -> str:
    pieces: list[str] = []
    for _, node in cand.nodes:
        _ref_subtree_texts(node, pieces)
    return "\n".join(pieces)


def _ref_density_of(text: str) -> float:
    tokens = tokenize(text)
    if not tokens:
        return 0.0
    chars = len(" ".join(text.split()))
    lines = max(1, math.ceil(chars / LINE_WIDTH))
    return len(tokens) / lines


def _ref_fingerprint(tokens) -> int:
    h = blake2b(digest_size=8)
    for tok in tokens:
        h.update(tok.encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def _ref_split(cand, cfg):
    if not cand.is_block:
        return None
    path, elem = cand.nodes[0]
    if len(tokenize(_ref_cand_text(cand))) <= cfg.max_tokens:
        return None
    subs = _group_candidates(elem, path, cfg.block_tags, {}, DEFAULT_VISUAL_TAGS)
    if len(subs) < 2 or not any(s.is_block for s in subs):
        return None
    densities = [_ref_density_of(_ref_cand_text(s)) for s in subs]
    if max(densities) - min(densities) <= cfg.density_floor:
        return None
    return subs


def _ref_partitioned(cands, cfg):
    out = []
    stack = list(reversed(cands))
    while stack:
        cand = stack.pop()
        subs = _ref_split(cand, cfg)
        if subs is None:
            out.append(cand)
        else:
            stack.extend(reversed(subs))
    return out


def _ref_collect_features(node, links, images, spans, visual_tags) -> None:
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.is_text or cur.tag in RAW_TEXT_TAGS:
            continue
        if cur.tag == "a":
            links.append((tokenize(visible_text(cur)), _href_tokens(cur.attrs.get("href", ""))))
        if cur.tag == "img":
            images.append((
                tokenize(cur.attrs.get("alt", "")),
                tokenize(cur.attrs.get("title", "")),
                _src_filename_tokens(cur.attrs.get("src", "")),
            ))
        if cur.tag in visual_tags:
            spans.append((cur.tag, tokenize(visible_text(cur))))
        stack.extend(reversed(cur.children))


def _ref_build_segment(seg_id, nodes, visual_tags) -> Segment:
    pieces: list[str] = []
    links: list = []
    images: list = []
    spans: list = []
    for _, node in nodes:
        _ref_subtree_texts(node, pieces)
        _ref_collect_features(node, links, images, spans, visual_tags)
    text = "\n".join(pieces)
    tokens = tokenize(text)
    return Segment(
        id=seg_id, dom_path=nodes[0][0], text=text, tokens=tokens, links=links,
        images=images, visual_spans=spans, fingerprint=_ref_fingerprint(tokens),
        node_paths=tuple(path for path, _ in nodes),
    )


def reference_segment_page(dom, cfg: SegmentationConfig | None = None) -> list[Segment]:
    cfg = cfg or SegmentationConfig()
    body = body_of(dom)
    if not visible_text(body).strip():
        raise EmptyPage("page body has no visible text")
    bpath = () if body is dom else (dom.children.index(body),)
    flat = _ref_partitioned(_group_candidates(body, bpath, cfg.block_tags, {}, DEFAULT_VISUAL_TAGS),
                            cfg)
    groups: list[list] = []
    for cand in flat:
        if groups and len(tokenize(_ref_cand_text(cand))) < cfg.min_tokens:
            groups[-1].extend(cand.nodes)
        else:
            groups.append(list(cand.nodes))
    visual = cfg.visual_tags if cfg.visual_tags is not None else DEFAULT_VISUAL_TAGS
    return [_ref_build_segment(i, nodes, visual) for i, nodes in enumerate(groups)]


def assert_same_as_reference(dom, cfg: SegmentationConfig | None = None) -> list[Segment]:
    try:
        expected = reference_segment_page(dom, cfg)
    except EmptyPage:
        with pytest.raises(EmptyPage):
            segment_page(dom, cfg)
        return []
    got = segment_page(dom, cfg)
    assert got == expected
    return got


@st.composite
def segmentation_configs(draw) -> SegmentationConfig:
    min_tokens = draw(st.integers(min_value=1, max_value=15))
    return SegmentationConfig(
        min_tokens=min_tokens,
        max_tokens=draw(st.integers(min_value=min_tokens + 1, max_value=60)),
        density_floor=draw(st.sampled_from([0.0, 0.5, 2.0, 6.0])),
        visual_tags=draw(st.none() | st.frozensets(st.sampled_from(
            ["a", "b", "em", "strong", "span", "code", "li", "img", "p", "div", "script"]))),
    )


class TestCachedTextOracle:
    """segment_page equals the walk-per-use reference, segment for segment."""

    @given(st.integers(min_value=0, max_value=10_000), segmentation_configs())
    def test_generated_documents_match_the_reference(self, seed, cfg):
        assert_same_as_reference(parse_html(random_document(random.Random(seed))), cfg)

    def test_corpus_pages_match_the_reference(self, corpus_paths):
        for path in corpus_paths:
            assert_same_as_reference(parse_html(path.read_text("utf-8")))

    def test_nested_links_inside_emphasis_inside_a_link(self):
        html = page('<p>lead <a href="/outer">out <b>bold <a href="/inner">in'
                    ' <i>deep</i></a> tail</b> end</a> after</p>')
        cfg = SegmentationConfig(visual_tags=frozenset({"a", "b", "i"}))
        seg, = assert_same_as_reference(parse_html(html), cfg)
        assert seg.links == [(["out", "bold", "in", "deep", "tail", "end"], ["outer"]),
                             (["in", "deep"], ["inner"])]
        assert [tag for tag, _ in seg.visual_spans] == ["a", "b", "a", "i"]
        assert seg.visual_spans[1] == ("b", ["bold", "in", "deep", "tail"])

    def test_image_only_run_merges_into_its_predecessor(self):
        html = page(f'<p>{TWELVE}</p><img src="/x/cat.png" alt="a cat"><p>{ELEVEN}</p>')
        first, second = assert_same_as_reference(parse_html(html))
        assert first.text == TWELVE and len(first.node_paths) == 2
        assert first.images == [(["a", "cat"], [], ["cat", "png"])]
        assert second.text == ELEVEN

    def test_block_without_text_merges_into_its_predecessor(self):
        html = page(f"<div>{TWELVE}</div><div><img src='a.png'><script>x()</script></div>"
                    f"<div>{ELEVEN}</div>")
        first, _ = assert_same_as_reference(parse_html(html))
        assert first.text == TWELVE and len(first.node_paths) == 2

    def test_empty_text_node_is_kept_in_the_join(self):
        # parse_html never makes one, but a built tree can hold one
        body = DomNode("body", children=[
            DomNode("p", children=[DomNode(TEXT_TAG, text=TWELVE)]),
            DomNode("p", children=[DomNode(TEXT_TAG, text="")]),
            DomNode("p", children=[DomNode(TEXT_TAG, text="x")]),
        ])
        seg, = assert_same_as_reference(DomNode("html", children=[DomNode("head"), body]))
        assert seg.text == TWELVE + "\n\nx"

    def test_non_ascii_and_final_sigma_text(self):
        html = page(f"<p>ΟΔΟΣ<b>ΣΑΣ</b>Σ Straße İstanbul {TWELVE}</p>"
                    f"<p>ΑΣ</p><div>Σ日本語 ΌΣΟΣ café</div>")
        cfg = SegmentationConfig(min_tokens=3)
        segs = assert_same_as_reference(parse_html(html), cfg)
        assert segs[0].tokens[:3] == ["οδος", "σας", "σ"]
        assert "ας" in segs[0].tokens

    def test_blank_body_raises_like_the_reference(self):
        for body in ["", "   \n  ", "<p> </p><script>var a = 1;</script>", "<img src='a.png'>"]:
            assert_same_as_reference(parse_html(page(body)))

    def test_body_without_tokens_is_not_empty(self):
        seg, = assert_same_as_reference(parse_html(page("<p>!!! ---</p> <i>?</i>")))
        assert seg.tokens == [] and seg.text == "!!! ---\n \n?"

    def test_nested_emphasis_matches_the_reference(self):
        opens = "".join(f"<b>w{i} x{i} " for i in range(200))
        seg, = assert_same_as_reference(parse_html(page(f"<p>{opens}{'</b>' * 200}</p>")))
        assert len(seg.visual_spans) == 200
        assert seg.visual_spans[-1] == ("b", ["w199", "x199"])

    def test_split_block_with_features_and_a_merged_tail(self):
        dense = " ".join(f"w{i}" for i in range(24))
        sparse = " ".join(f"{word}ification" * 3 for word in ("alpha", "beta", "gamma"))
        html = page(
            f'<div><p>{dense} <a href="/go/x">link <b>bold <i>deep</i></b></a></p>'
            f'<p>{sparse} <img src="/img/cat.png" alt="a cat"> <em>far <b>out</b></em></p>'
            f' tail <a href="/t">fin</a></div>')
        cfg = SegmentationConfig(min_tokens=5, max_tokens=30)
        first, second = assert_same_as_reference(parse_html(html), cfg)
        assert first.links == [(["link", "bold", "deep"], ["go", "x"])]
        assert first.visual_spans == [("b", ["bold", "deep"]), ("i", ["deep"])]
        # the loose tail, a text node and a link, joined the sparse block
        assert len(second.node_paths) == 3 and "tail" in second.tokens
        assert second.images == [(["a", "cat"], [], ["cat", "png"])]
        assert second.links == [(["fin"], ["t"])]
        assert second.visual_spans == [("em", ["far", "out"]), ("b", ["out"])]


# ── reference unit walk ─────────────────────────────────────────────
# The unit walk before "contains a block" was memoized per page: it asks
# again at every level of nested inline wrappers, rescanning the same
# subtree each time, and builds a path tuple for every child it passes.


def _ref_contains_block(elem, block_tags) -> bool:
    stack = list(elem.children)
    while stack:
        node = stack.pop()
        if node.is_text:
            continue
        if node.tag in block_tags:
            return True
        if node.tag not in RAW_TEXT_TAGS:
            stack.extend(node.children)
    return False


def _ref_iter_units(elem, path, block_tags, memo=None):
    stack = [(elem, path, 0)]
    while stack:
        parent, ppath, i = stack.pop()
        while i < len(parent.children):
            child = parent.children[i]
            cpath = ppath + (i,)
            i += 1
            if not child.is_text and child.tag in block_tags:
                yield ("block", cpath, child)
            elif (
                not child.is_text
                and child.tag not in RAW_TEXT_TAGS
                and _ref_contains_block(child, block_tags)
            ):
                stack.append((parent, ppath, i))
                stack.append((child, cpath, 0))
                break
            else:
                yield ("loose", cpath, child)


def assert_same_units_as_reference(dom, cfg: SegmentationConfig | None = None) -> None:
    cfg = cfg or SegmentationConfig()
    body = body_of(dom)
    got = list(segmenter._iter_units(body, (1,), cfg.block_tags, {}))
    expected = list(_ref_iter_units(body, (1,), cfg.block_tags))
    assert [(kind, path) for kind, path, _ in got] == [(kind, path) for kind, path, _ in expected]
    assert all(a is b for (_, _, a), (_, _, b) in zip(got, expected))
    with patch.object(segmenter, "_iter_units", _ref_iter_units):
        try:
            want = segment_page(dom, cfg)
        except EmptyPage:
            want = EmptyPage
    if want is EmptyPage:
        with pytest.raises(EmptyPage):
            segment_page(dom, cfg)
    else:
        assert segment_page(dom, cfg) == want


_WRAPPER_TAGS = ["span", "a", "b", "center", "div", "p", "section", "script", "#text"]


@st.composite
def wrapper_bodies(draw, depth: int = 0) -> str:
    """Bodies of inline wrappers nested around blocks, text and scripts."""
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        tag = draw(st.sampled_from(_WRAPPER_TAGS))
        if tag == "#text":
            parts.append(draw(st.sampled_from(VOCAB)) + " ")
        elif tag == "script":
            parts.append("<script>x</script>")
        elif depth < 5:
            inner = draw(wrapper_bodies(depth + 1))
            parts.append(f"<{tag}>{inner}</{tag}>")
    return "".join(parts)


class TestUnitWalkOracle:
    """The memoized unit walk yields what the rescanning walk yields."""

    @given(st.integers(min_value=0, max_value=10_000), segmentation_configs())
    def test_generated_documents_match_the_reference(self, seed, cfg):
        assert_same_units_as_reference(parse_html(random_document(random.Random(seed))), cfg)

    @given(wrapper_bodies(), st.integers(min_value=0, max_value=40))
    def test_nested_wrappers_match_the_reference(self, body, depth):
        html = page("<span>" * depth + body + "<div>run</div>" + "</span>" * depth + body)
        assert_same_units_as_reference(parse_html(html), SegmentationConfig(min_tokens=1))

    def test_corpus_pages_match_the_reference(self, corpus_paths):
        for path in corpus_paths:
            assert_same_units_as_reference(parse_html(path.read_text("utf-8")))

    def test_deep_wrappers_match_the_reference(self):
        html = page("<span>" * 300 + f"<div>{TWELVE}</div><b>{ELEVEN}</b>" + "</span>" * 300)
        assert_same_units_as_reference(parse_html(html))

    def test_deep_wrappers_around_one_block_take_linear_time(self):
        # the rescanning walk took about 0.8 s here at 2,000 levels
        # (CPython 3.11, one core) and grows fourfold per doubling
        dom = parse_html(page("<span>" * 2000 + f"<div>{TWELVE}</div>" + "</span>" * 2000))
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            seg, = segment_page(dom)
            best = min(best, time.perf_counter() - start)
        assert seg.tokens == TWELVE.split()
        assert best < 0.1


# ── reference URL reading ───────────────────────────────────────────
# _href_tokens and _src_filename_tokens once sent every URL through
# urlsplit.  These give the string that version passed to tokenize.


def reference_href_text(href: str) -> str:
    try:
        parts = urlsplit(href)
    except ValueError:
        return href
    return parts.path + " " + parts.query


def reference_src_filename_text(src: str) -> str:
    try:
        path = urlsplit(src).path
    except ValueError:
        path = src
    return path.rsplit("/", 1)[-1]


_URL_CASES = [
    "", "/a/b?c=1", "page.html", "?q=1", "/a?b?c", "a/b/", "/x y?z", "caf\u00e9/p\u00e4ge.png",
    " /a", "\x00/a", "\x1f/a", "/a\tb", "/a\rb?c\nd", "//host/p?q", "/a#frag", "#top",
    "http://x.org/y/z.png?w=1", "mailto:a@b", "a:b", "1a:b/c", "//[bad/p", "http://[::1/x",
    "\u00e9:x", "/a/[b]?c",
]
_url_text = st.lists(st.sampled_from(
    list("ab09/?#:.=&_- []%") + ["\t", "\r", "\n", "\x00", "\x1f", "\u00e9", "//", "http:"]),
    max_size=20).map("".join)


def recorded(function, url: str) -> tuple[list[str], list[str]]:
    calls = []

    def recording_tokenize(text):
        calls.append(text)
        return tokenize(text)

    with patch.object(segmenter, "tokenize", recording_tokenize):
        tokens = function(url)
    return tokens, calls


class TestUrlFastPathOracle:
    """Plain relative URLs skip urlsplit; the string tokenized is unchanged."""

    @pytest.mark.parametrize("url", _URL_CASES)
    def test_fixed_urls(self, url):
        self.check(url)

    @given(st.one_of(_url_text, st.text()))
    def test_generated_urls(self, url):
        self.check(url)

    @staticmethod
    def check(url: str) -> None:
        for function, reference in ((_href_tokens, reference_href_text),
                                    (_src_filename_tokens, reference_src_filename_text)):
            tokens, calls = recorded(function, url)
            assert calls == [reference(url)]
            assert tokens == tokenize(reference(url))

    @pytest.mark.parametrize("url, plain", [
        ("/a/b?c=1", True), ("img/x.png", True), ("?q", True),
        ("", False), (" /a", False), ("//host/a", False), ("http://x/a", False),
        ("/a#b", False), ("/a\tb", False), ("/a\nb", False), ("/a\rb", False),
    ])
    def test_which_urls_take_the_fast_path(self, url, plain):
        assert segmenter._plain_relative(url) is plain
