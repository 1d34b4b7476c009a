"""Error-tolerant HTML parsing: recovery rules, text extraction, helpers."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segscore import MalformedInput, body_of, page_title_tokens, parse_html, visible_text
from segscore.dom import _RCDATA_TAGS, _TOKEN, _VERBATIM_TAGS, _read, _TreeBuilder, find_first

from conftest import CORPUS_DIR
from cpython_html_parser import HTMLParser
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

    @pytest.mark.parametrize("text", [
        "<p>a</p><![CDATA[x", "<p>a<![", "<p>a</p><!x", '<p>a</p><a href="x',
        "<p>a<!-- open", "<p>a</p><!DOCTYPE html", '<p>a</p><div class="x>b',
    ])
    def test_unterminated_markup_at_the_end_is_dropped(self, text):
        assert visible_text(body_of(parse_html(text))) == "a"

    @pytest.mark.parametrize("tag", ["xmp", "iframe", "noembed", "noframes"])
    def test_raw_text_content_is_one_text_node_kept_as_written(self, tag):
        p = body_of(parse_html(f"<p><{tag}>a &amp; <b>x</b></{tag}>y"))
        element, after = p.children[0].children
        assert (element.tag, element.children[0].text, after.text) == (tag, "a &amp; <b>x</b>", "y")

    def test_plaintext_makes_the_rest_of_the_input_text(self):
        body = body_of(parse_html("<p>a<plaintext>b &amp; <i>c</plaintext>d"))
        assert visible_text(body) == "a\nb &amp; <i>c</plaintext>d"


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


# ── the tokenizer against a copy of CPython 3.13.13's html.parser ────
# parse_html must build exactly the tree that the tree builder builds from
# that parser's events, on every interpreter.


class _ReferenceParser(HTMLParser):
    """The copied html.parser, feeding its events to a tree builder."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        builder = self.builder = _TreeBuilder()
        self.handle_starttag, self.handle_endtag = builder.handle_starttag, builder.handle_endtag
        self.handle_startendtag, self.handle_data = builder.handle_startendtag, builder.handle_data


def reference_tree(text: str):
    parser = _ReferenceParser()
    parser.feed(text)
    parser.close()
    return parser.builder.root


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


def assert_same_tree(text: str) -> None:
    assert tree_events(parse_html(text)) == tree_events(reference_tree(text))


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
            "<b", "<1", "< b>", "<a\xa0b>", "<a b==c>", "<xmp>", "<iframe>", "<plaintext>",
            "<![CDATA[", "&copy="]


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
    """text with its script and style elements cut out."""
    return _SCRIPT_OR_STYLE.sub("", text)


def _corpus_texts() -> list[str]:
    texts = [path.read_text("utf-8") for path in sorted(CORPUS_DIR.glob("*.html"))]
    return texts + [without_raw_text(text) for text in texts if _SCRIPT_OR_STYLE.search(text)]


class _EventRecorder:
    def __init__(self):
        self.events = []

    def handle_starttag(self, tag, attrs):
        self.events.append(("start", tag, attrs))

    def handle_startendtag(self, tag, attrs):
        self.events.append(("startend", tag, attrs))

    def handle_endtag(self, tag):
        self.events.append(("end", tag))

    def handle_data(self, data):
        self.events.append(("data", data))


class _ReferenceRecorder(_EventRecorder, HTMLParser):
    def __init__(self):
        _EventRecorder.__init__(self)
        HTMLParser.__init__(self, convert_charrefs=True)


class TestScannerMatchesHtmlParser:
    @given(start_tags())
    def test_start_tags_carry_html_parsers_arguments(self, source):
        # valueless attributes pass None, empty ones "", and names are lowercased
        reference = _ReferenceRecorder()
        reference.feed(source)
        reference.close()
        ours = _EventRecorder()
        assert _read(ours, source, 0, len(source), _TOKEN) == -1
        assert ours.events == reference.events

    def test_corpus_pages(self, corpus_paths):
        for path in corpus_paths:
            text = path.read_text("utf-8")
            assert_same_tree(text)
            assert_same_tree(without_raw_text(text))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_documents(self, seed):
        assert_same_tree(random_document(random.Random(seed)))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_documents_without_scripts(self, seed):
        assert_same_tree(without_raw_text(random_document(random.Random(seed))))

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

    @pytest.mark.parametrize("text", [
        "", "plain text", "<P CLASS=x ID='y' hidden>a &amp; b</P >",
        '<div id="a" id="b" data-x="&lt;&copy" e="">x</div>',
        "<br/><br /><img src=a.png/><a href=/x?q=1&r=2>l</a>",
        "<!DOCTYPE html><!-- note --><!----><p>t</p>",
        "<ul><li>x<li>y</ul><table><tr><td>a<td>b</table>",
        "<a\nhref = 'x'\tclass=\"y\">z</a\n>",
        "<title>t</title><p>x</p>", "<TITLE lang=en>t u</Title >", "<title></title>",
        "<p><textarea rows=2>a > b</textarea></p>", "<title>t</title><title>u</title>",
        '<img src="/&ltimg" alt="a&amp=b" title=&notit; data-x="&#65x&lt;">',
    ])
    def test_plain_constructs(self, text):
        assert_same_tree(text)

    @pytest.mark.parametrize("construct", [
        "<?pi data?>", "<![CDATA[x]]>", "<!ELEMENT x>", "<!-->", "<!--->", "<!-->x-->",
        "<!--->x-->", "<!-- a -- b -->",
        "<!-- a --!>", "<!-- never closed", "a < b", "1 <2", "tail <", "</>", "</ p>",
        "</1>", "<div", '<div class="x>', "<div class=x", "<div/ class=x>", "<a b==c>",
        "<a =b>", "<a b='x'c>", "<a\xa0b>", "<a b\xa0c>", "<a b=c\xa0d>", "<a\x0bb>",
        "<a\x00b>", "<a<b>", "<p/x>",
        # constructs that run past the start tag of a text element
        '<a title="<script>">x</a>', "<a title='<title>'>x</a><title>t</title>",
        '<a href= "<xmp>">x</a>', "<!-- <script> -->x", "<!--><script>x</script>-->y",
        "<![CDATA[<style>]]>z", "<?x <textarea>?>w", "</<script>>v", "<a b='<title>x",
    ])
    def test_malformed_constructs(self, construct):
        assert_same_tree(f"<p>before</p>{construct}")

    @pytest.mark.parametrize("tag", sorted(_VERBATIM_TAGS | _RCDATA_TAGS))
    def test_text_elements(self, tag):
        for text in [f"<{tag}>x</{tag}>", f"<{tag.upper()} a=b>x", f"<p>a</p><{tag}/>",
                     f"<{tag}>a &amp; <b>c</b></{tag}x></{tag.upper()}\n>d",
                     f"<{tag}>a</{tag} x='>'>b", f"<{tag}>a</{tag}"]:
            assert_same_tree(text)

    @pytest.mark.parametrize("text", [
        "<title>a &amp; b</title>", "<title>a<b>c</b></title>", "<textarea><p>x</textarea>",
        "<title>x", "<title>x<!-- c --></title>", "<title/>", "<p>a</p><textarea/>",
        "<title>x</textarea>", "<textarea>a&lt;b</textarea>", "<title>a</titles>b</title>",
        "<title>a &copy</title>",
    ])
    def test_other_title_and_textarea_forms(self, text):
        assert_same_tree(text)

    def test_text_elements_are_the_references(self):
        assert _VERBATIM_TAGS == set(HTMLParser.CDATA_CONTENT_ELEMENTS) | {"plaintext"}
        assert _RCDATA_TAGS == set(HTMLParser.RCDATA_CONTENT_ELEMENTS)

    def test_markup_after_a_processing_instruction(self):
        text = "<div>fast</div><?pi?><p>slow</p>"
        assert_same_tree(text)
        body = body_of(parse_html(text))
        assert tags_of(body) == ["div", "p"]
        assert visible_text(body) == "fast\nslow"

    def test_deep_nesting_scans_iteratively(self):
        assert_same_tree("<div>" * 5000 + "x" + "</div>" * 5000)
