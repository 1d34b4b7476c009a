"""Error-tolerant HTML parsing: recovery rules, text extraction, helpers."""

from __future__ import annotations

import random
import re
from html.parser import HTMLParser

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segscore import MalformedInput, body_of, page_title_tokens, parse_html, visible_text
from segscore.dom import (
    _RAW_CONTENT,
    _RAW_TEXT,
    _RAW_TEXT_START,
    _TOKEN,
    _attr_list,
    _parse_with_htmlparser,
    _scan,
    find_first,
)

from conftest import CORPUS_DIR
from genhtml import random_document


def tags_of(node):
    return [child.tag for child in node.children if not child.is_text]


class TestSkeleton:
    def test_bare_text_gets_html_head_body(self):
        root = parse_html("hello")
        assert root.tag == "html"
        assert tags_of(root) == ["head", "body"]
        assert visible_text(body_of(root)) == "hello"

    def test_existing_structure_is_kept(self):
        root = parse_html("<html><head><title>t</title></head><body><p>x</p></body></html>")
        assert tags_of(root) == ["head", "body"]
        assert find_first(root, "title") is not None

    def test_head_only_tags_move_to_head(self):
        root = parse_html('<meta charset="utf-8"><p>x</p>')
        head, body = root.children[0], root.children[1]
        assert "meta" in tags_of(head)
        assert "meta" not in tags_of(body)

    def test_title_text_feeds_title_tokens(self):
        root = parse_html("<title>My  Search Page</title><p>x</p>")
        assert page_title_tokens(root) == ["my", "search", "page"]

    def test_missing_title_gives_no_tokens(self):
        assert page_title_tokens(parse_html("<p>x</p>")) == []


class TestRecovery:
    def test_unclosed_paragraphs_become_siblings(self):
        body = body_of(parse_html("<p>a<p>b"))
        assert tags_of(body) == ["p", "p"]
        assert visible_text(body) == "a\nb"

    def test_unclosed_list_items_become_siblings(self):
        body = body_of(parse_html("<ul><li>x<li>y</ul>"))
        ul = body.children[0]
        assert tags_of(ul) == ["li", "li"]

    def test_unclosed_table_cells_become_siblings(self):
        body = body_of(parse_html("<table><tr><td>a<td>b</table>"))
        table = body.children[0]
        tr = next(c for c in table.children if c.tag == "tr")
        assert tags_of(tr) == ["td", "td"]

    def test_heading_closes_open_heading(self):
        body = body_of(parse_html("<h1>x<h2>y"))
        assert tags_of(body) == ["h1", "h2"]

    def test_anchor_closes_open_anchor(self):
        body = body_of(parse_html('<a href="/1">x<a href="/2">y'))
        assert tags_of(body) == ["a", "a"]

    def test_stray_end_tags_are_ignored(self):
        body = body_of(parse_html("<p>a</div></span></p>"))
        assert visible_text(body) == "a"

    def test_block_close_closes_inner_paragraph(self):
        body = body_of(parse_html("<div><p>a</div>b"))
        assert tags_of(body) == ["div"]
        assert visible_text(body) == "a\nb"


class TestAttributes:
    def test_first_duplicate_attribute_wins(self):
        body = body_of(parse_html('<div id="a" id="b">x</div>'))
        assert body.children[0].attrs["id"] == "a"

    def test_valueless_attributes_become_empty_strings(self):
        body = body_of(parse_html("<div hidden>x</div>"))
        assert body.children[0].attrs["hidden"] == ""


class TestVoids:
    def test_void_elements_have_no_children(self):
        body = body_of(parse_html('<p>a<br>b<img src="x.png">c</p>'))
        p = body.children[0]
        img = next(c for c in p.children if c.tag == "img")
        br = next(c for c in p.children if c.tag == "br")
        assert img.children == [] and br.children == []
        assert visible_text(body) == "a\nb\nc"

    def test_self_closing_syntax_is_equivalent(self):
        body = body_of(parse_html('<p>a<img src="x.png"/>b</p>'))
        assert visible_text(body) == "a\nb"

    def test_explicit_void_end_tag_is_ignored(self):
        body = body_of(parse_html("<p>a<br></br>b</p>"))
        assert visible_text(body) == "a\nb"


class TestInvisibleContent:
    def test_script_and_style_text_is_not_visible(self):
        root = parse_html(
            "<style>p { color: red; }</style>"
            "<script>var secret = 'leak';</script><p>hi</p>")
        assert visible_text(body_of(root)) == "hi"

    def test_comments_doctype_and_pi_are_dropped(self):
        root = parse_html("<!DOCTYPE html><!-- note --><?pi data?><p>t</p>")
        assert visible_text(body_of(root)) == "t"

    def test_nested_comment_inside_block(self):
        body = body_of(parse_html("<div><!-- hidden -->seen</div>"))
        assert visible_text(body) == "seen"

    @pytest.mark.parametrize("text, texts", [
        ("<p>hi</p><![Cx[y]]>tail<p>after</p>", ["hi", "tail", "after"]),
        ("<p>a</p><![ x>b<p>c</p>", ["a", "b", "c"]),
        ("<p>hi</p><![Cx[y", ["hi"]),
    ])
    def test_unnamed_marked_section_is_dropped_up_to_the_next_gt(self, text, texts):
        assert visible_text(body_of(parse_html(text))).split("\n") == texts


class TestTextHandling:
    def test_entities_decode_and_text_coalesces(self):
        body = body_of(parse_html("<p>a&amp;b caf&#233;</p>"))
        p = body.children[0]
        assert len(p.children) == 1 and p.children[0].is_text
        assert p.children[0].text == "a&b café"

    def test_visible_text_joins_blocks_with_newline(self):
        assert visible_text(body_of(parse_html("<p>a</p><p>b</p>"))) == "a\nb"

    def test_nbsp_decodes_to_space_character(self):
        body = body_of(parse_html("<p>a&nbsp;b</p>"))
        assert body.children[0].children[0].text == "a\xa0b"


class TestBytesInput:
    def test_utf8_bom_is_stripped(self):
        body = body_of(parse_html(b"\xef\xbb\xbf<p>hi</p>"))
        assert visible_text(body) == "hi"

    def test_invalid_utf8_is_replaced_not_fatal(self):
        body = body_of(parse_html(b"<p>caf\xe9</p>"))
        assert visible_text(body).startswith("caf")

    def test_non_text_input_is_rejected(self):
        with pytest.raises(MalformedInput):
            parse_html(123)
        with pytest.raises(MalformedInput):
            parse_html(None)


class TestHelpers:
    def test_body_of_accepts_body_rooted_tree(self):
        root = parse_html("<p>x</p>")
        body = body_of(root)
        assert body_of(body) is body

    def test_find_first_document_order(self):
        root = parse_html("<div><p>a</p></div><p>b</p>")
        first = find_first(root, "p")
        assert visible_text(first) == "a"


# ── the one-pass scanner against html.parser ────────────────────────
# _scan must build exactly the tree the html.parser path builds, or give
# the document up (None) so that parse_html falls back to html.parser.


def tree_events(root) -> list:
    """The tree as a flat event list, so deep trees compare without recursion."""
    out: list = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            out.append("end")
        elif node.is_text:
            out.append(("text", node.text))
        else:
            out.append(("start", node.tag, list(node.attrs.items())))
            stack.append(None)
            stack.extend(reversed(node.children))
    return out


def assert_same_tree(text: str) -> bool:
    """Both paths agree on text; True when the scanner took it."""
    expected = tree_events(_parse_with_htmlparser(text))
    fast = _scan(text)
    if fast is not None:
        assert tree_events(fast) == expected
    assert tree_events(parse_html(text)) == expected
    return fast is not None


_TAG_NAMES = ["div", "DiV", "p", "P", "a", "span", "b", "br", "BR", "img", "li", "ul",
              "td", "tr", "table", "h1", "H2", "html", "head", "body", "meta", "x-y", "o:p",
              "title", "TEXTAREA", "titles"]
_ATTR_NAMES = ["id", "ID", "class", "href", "data-x", "a:b", "_", "@click", "hidden"]
_ATTR_VALUES = ["", "=x", '="a &amp; b"', "='q\"q'", '=""', "=a&lt;b", ' = "sp"', "=a/",
                "=/x/", "=?q=1&r=2", "='&#x41;'", '="1 > 0"', "=&copy", '="\xa0"',
                "=/&ltimg", "=?a=1&lt=2", '="&notit;"', "=&amp=b", "='&#65x&#x41='"]
_TEXTS = ["a b", " ", "\n", "a &amp; b", "&lt;", "&copy", "&#169;", "x&y", "&", "&amp",
          "&unknown;", "café", "\xa0", "x > y"]
_INSERTS = ["<", "&", "&amp;", "&lt", "&#39;", "&#", '"', "'", "/>", "</", "</p>", "</ div>",
            "</DIV >", "<!--", "-->", "<!-->", "<!", "<?", "=", " ", ">", "<P>", "<br/>",
            "<a href=x/>", "\xa0", "\x0b", "\x00", "<!doctype html>", "<script>", "--",
            "<b", "<1", "< b>", "<a\xa0b>", "<a b==c>"]


@st.composite
def start_tags(draw) -> str:
    attrs = "".join(
        draw(st.sampled_from([" ", "\n", "\t  "])) + draw(st.sampled_from(_ATTR_NAMES))
        + draw(st.sampled_from(_ATTR_VALUES))
        for _ in range(draw(st.integers(min_value=0, max_value=3))))
    name = draw(st.sampled_from(_TAG_NAMES))
    return f"<{name}{attrs}{draw(st.sampled_from(['>', '/>', ' />', ' >']))}"


@st.composite
def tag_soup(draw) -> str:
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(["start", "end", "text", "comment"]))
        name = draw(st.sampled_from(_TAG_NAMES))
        if kind == "start":
            parts.append(draw(start_tags()))
        elif kind == "end":
            parts.append(f"</{name}{draw(st.sampled_from(['>', ' >', chr(10) + '>']))}")
        elif kind == "text":
            parts.append(draw(st.sampled_from(_TEXTS)))
        else:
            parts.append(draw(st.sampled_from(["<!-- c -->", "<!---->", "<!DOCTYPE html>"])))
    return "".join(parts)


@st.composite
def mutated(draw, base: str) -> str:
    """base with byte-level damage: insertions, then maybe a truncation."""
    text = base
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(min_value=0, max_value=len(text)))]
    return text


_SCRIPT_OR_STYLE = re.compile(r"<(script|style)\b.*?</\1\s*>", re.IGNORECASE | re.DOTALL)


def without_raw_text(text: str) -> str:
    """text with its script and style elements cut out, so that the scan
    runs on the rest of the page on every release."""
    return _SCRIPT_OR_STYLE.sub("", text)


def _corpus_texts() -> list[str]:
    texts = [path.read_text("utf-8") for path in sorted(CORPUS_DIR.glob("*.html"))]
    return texts + [without_raw_text(text) for text in texts if _RAW_TEXT_START.search(text)]


class _StartTagRecorder(HTMLParser):
    def handle_starttag(self, tag, attrs):
        self.event = ("start", tag, attrs)

    def handle_startendtag(self, tag, attrs):
        self.event = ("startend", tag, attrs)


class TestScannerMatchesHtmlParser:
    @given(start_tags())
    def test_start_tags_carry_html_parsers_arguments(self, source):
        # valueless attributes pass None, empty ones "", and names are lowercased
        recorder = _StartTagRecorder()
        recorder.feed(source)
        recorder.close()
        (_, _, _, _, tag, attrs, slash, _, _), = _TOKEN.findall(source)
        kind = "startend" if slash else "start"
        assert (kind, tag.lower(), _attr_list(attrs)) == recorder.event

    def test_corpus_pages(self, corpus_paths):
        texts = [path.read_text("utf-8") for path in corpus_paths]
        taken = [assert_same_tree(text) for text in texts]
        # every release scans all pages but the one with a <script> and,
        # where title is RCDATA, the one whose title holds an entity
        assert sum(taken) >= len(texts) - 2
        stripped = [assert_same_tree(without_raw_text(text)) for text in texts]
        assert sum(stripped) >= len(texts) - 1

    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_documents(self, seed):
        assert_same_tree(random_document(random.Random(seed)))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_documents_without_scripts_take_the_fast_path(self, seed):
        # about a third of generated documents hold a <script>; without it
        # every one is scanned, plain <title> included, on every release
        assert assert_same_tree(without_raw_text(random_document(random.Random(seed))))

    @given(tag_soup())
    def test_tag_soup(self, text):
        assert_same_tree(text)

    @given(st.data())
    def test_mutated_tag_soup(self, data):
        assert_same_tree(data.draw(mutated(data.draw(tag_soup()))))

    @given(st.data(), st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_mutated_generated_documents(self, data, seed, strip):
        text = random_document(random.Random(seed))
        assert_same_tree(data.draw(mutated(without_raw_text(text) if strip else text)))

    @given(st.data(), st.sampled_from(_corpus_texts()))
    def test_mutated_corpus_pages(self, data, page_text):
        assert_same_tree(data.draw(mutated(page_text)))

    def test_modelled_constructs_take_the_fast_path(self):
        for text in [
            "", "plain text", "<P CLASS=x ID='y' hidden>a &amp; b</P >",
            '<div id="a" id="b" data-x="&lt;&copy" e="">x</div>',
            "<br/><br /><img src=a.png/><a href=/x?q=1&r=2>l</a>",
            "<!DOCTYPE html><!-- note --><!----><p>t</p>",
            "<ul><li>x<li>y</ul><table><tr><td>a<td>b</table>",
            "<a\nhref = 'x'\tclass=\"y\">z</a\n>",
            "<title>t</title><p>x</p>", "<TITLE lang=en>t u</Title >", "<title></title>",
            "<p><textarea rows=2>a > b</textarea></p>", "<title>t</title><title>u</title>",
            # releases differ on references in values; the scan follows the running one
            '<img src="/&ltimg" alt="a&amp=b" title=&notit; data-x="&#65x&lt;">',
        ]:
            assert _scan(text) is not None, text
            assert_same_tree(text)

    @pytest.mark.parametrize("construct", [
        "<?pi data?>", "<![CDATA[x]]>", "<!ELEMENT x>", "<!-->", "<!--->", "<!-->x-->",
        "<!--->x-->", "<!-- a -- b -->",
        "<!-- a --!>", "<!-- never closed", "a < b", "1 <2", "tail <", "</>", "</ p>",
        "</1>", "<div", '<div class="x>', "<div class=x", "<div/ class=x>", "<a b==c>",
        "<a =b>", "<a b='x'c>", "<a\xa0b>", "<a b\xa0c>", "<a b=c\xa0d>", "<a\x0bb>",
        "<a\x00b>", "<a<b>", "<p/x>",
    ])
    def test_unmodelled_constructs_take_the_fallback(self, construct):
        text = f"<p>before</p>{construct}"
        assert _scan(text) is None
        assert_same_tree(text)

    @pytest.mark.parametrize("tag", sorted(_RAW_TEXT))
    def test_raw_text_elements_take_the_fallback(self, tag):
        for text in [f"<{tag}>x</{tag}>", f"<{tag.upper()} a=b>x", f"<p>a</p><{tag}/>"]:
            assert _scan(text) is None
            assert_same_tree(text)

    @pytest.mark.parametrize("text", [
        "<title>a &amp; b</title>", "<title>a<b>c</b></title>", "<textarea><p>x</textarea>",
        "<title>x", "<title>x<!-- c --></title>", "<title/>", "<p>a</p><textarea/>",
        "<title>x</textarea>", "<textarea>a&lt;b</textarea>", "<title>a</titles>b</title>",
        "<title>a &copy</title>",
    ])
    def test_other_title_and_textarea_forms_take_the_fallback_where_rcdata(self, text):
        # scanned where the release reads title and textarea as markup
        assert (_scan(text) is None) == ("title" in _RAW_CONTENT)
        assert_same_tree(text)

    def test_raw_text_elements_are_read_from_html_parser(self):
        assert _RAW_TEXT == set(HTMLParser.CDATA_CONTENT_ELEMENTS) | {"plaintext"}
        assert _RAW_CONTENT == _RAW_TEXT | set(getattr(HTMLParser, "RCDATA_CONTENT_ELEMENTS", ()))

    def test_an_abandoned_scan_leaves_no_node_behind(self):
        text = "<div>fast</div><?pi?><p>slow</p>"
        assert _scan(text) is None
        body = body_of(parse_html(text))
        assert tags_of(body) == ["div", "p"]
        assert visible_text(body) == "fast\nslow"

    def test_deep_nesting_scans_iteratively(self):
        text = "<div>" * 5000 + "x" + "</div>" * 5000
        assert assert_same_tree(text)
