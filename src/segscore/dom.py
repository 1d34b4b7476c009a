"""Error-tolerant HTML parsing into a minimal DOM.

A trimmed set of HTML5 recovery rules builds the tree: implied end tags
(``<p>a<p>b`` parses as two sibling paragraphs), void elements, stray end
tags ignored, unclosed tags closed at end of input.  The tree always has
the shape ``html > (head, body)``; both are synthesized when the input
omits them, and stray top-level content is moved into the body the way
browsers do it.

Comments, processing instructions and doctypes are dropped entirely, and
script/style content never produces text nodes, so visible text can be
read straight off the tree.

Two tokenizers feed the same tree builder.  The fast path, ``_scan``,
reads the document with one compiled regex and models only the forms
that every supported ``html.parser`` release tokenizes alike:

- text runs, with character references resolved;
- start tags ``<name attr attr=value attr="v" attr='v'>`` and ``<name/>``,
  separated by ASCII whitespace, with an unquoted value that does not
  start with a quote or ``=``, and character references in values
  resolved as the running release's ``html.parser`` resolves them;
- end tags ``</name>``, with optional ASCII whitespace before the ``>``;
- comments ``<!-- ... -->`` whose body holds no ``--`` and does not
  start with ``>`` or ``->``, and ``<!doctype ...>``;
- ``<title>`` and ``<textarea>`` whose content holds no ``<`` and no
  ``&`` up to a plain end tag, which is one text run whether or not the
  release reads these elements as escapable raw text (RCDATA).

Anything else sends the whole document to ``html.parser``: a ``<`` that
opens no such form (``<?``, other ``<!`` markup, a stray or unterminated
``<``), any element whose content ``html.parser`` reads as raw text
(``HTMLParser.CDATA_CONTENT_ELEMENTS``, such as script and style, and
``<plaintext>``), and, on releases that define
``RCDATA_CONTENT_ELEMENTS``, any other form of title or textarea.  The
choice is all or nothing: a partial fast-path tree is discarded.  The
contract is the differential test in ``tests/test_dom.py``: both paths
build equal trees.
"""

from __future__ import annotations

import html.parser
import re
from dataclasses import dataclass, field
from html import unescape
from html.parser import HTMLParser

from .errors import MalformedInput

__all__ = [
    "DomNode",
    "TEXT_TAG",
    "VOID_TAGS",
    "RAW_TEXT_TAGS",
    "parse_html",
    "iter_nodes",
    "visible_text",
    "body_of",
    "find_first",
    "page_title_tokens",
]

TEXT_TAG = "#text"

VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

# Content of these elements never contributes visible text.
RAW_TEXT_TAGS = frozenset({"script", "style"})

_HEADINGS = frozenset({"h1", "h2", "h3", "h4", "h5", "h6"})

# Start tags that implicitly close an open <p> (HTML5 list, trimmed).
_P_CLOSERS = frozenset({
    "address", "article", "aside", "blockquote", "details", "div", "dl",
    "fieldset", "figcaption", "figure", "footer", "form", "header", "hr",
    "main", "menu", "nav", "ol", "p", "pre", "section", "table", "ul",
}) | _HEADINGS

# Start tag -> open tags it implicitly closes (applied to the stack top).
_IMPLIED_CLOSE: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "thead": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tbody": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tfoot": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "option": frozenset({"option"}),
    "optgroup": frozenset({"option", "optgroup"}),
    "a": frozenset({"a"}),
}
for _h in _HEADINGS:
    _IMPLIED_CLOSE[_h] = _HEADINGS

# Tags that belong in <head> when they appear before any body content.
_HEAD_ONLY_TAGS = frozenset({"title", "meta", "link", "base", "style"})
_HEAD_ALLOWED = _HEAD_ONLY_TAGS | frozenset({"script", "noscript", "template"})

# Start tags that only merge attributes into, or reopen, the skeleton.
_SKELETON_TAGS = frozenset({"html", "head", "body"})


@dataclass(slots=True)
class DomNode:
    """One element or text node.

    Elements carry ``tag``/``attrs``/``children``; text nodes use the
    sentinel tag ``#text`` and put their content in ``text``.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    children: list["DomNode"] = field(default_factory=list)
    text: str = ""

    @property
    def is_text(self) -> bool:
        return self.tag == TEXT_TAG

    def __repr__(self) -> str:  # keep test failures readable
        if self.is_text:
            return f"DomNode(#text {self.text!r})"
        return f"DomNode(<{self.tag}> {len(self.children)} children)"


def _attr_dict(attrs: list[tuple[str, str | None]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, value in attrs:
        out.setdefault(name, value if value is not None else "")
    return out


class _TreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = DomNode("html")
        self.head = DomNode("head")
        self.body = DomNode("body")
        self.root.children = [self.head, self.body]
        self._stack: list[DomNode] = [self.root]
        self._body_seen = False

    def _enter_body(self) -> None:
        if self._stack[-1] is self.root:
            self._stack.append(self.body)
            self._body_seen = True

    # ── handlers ────────────────────────────────────────────────────

    def handle_starttag(self, tag, attrs):
        if tag in _SKELETON_TAGS:
            self._skeleton_starttag(tag, attrs)
            return
        stack = self._stack
        top = stack[-1]
        if top is self.root:
            # Head-only tags before any body content go into the head,
            # even when the page never opened <head> explicitly.
            if tag in _HEAD_ONLY_TAGS and not self._body_seen:
                node = DomNode(tag, _attr_dict(attrs))
                self.head.children.append(node)
                if tag not in VOID_TAGS:
                    stack.append(self.head)
                    stack.append(node)
                return
        elif top is self.head and tag not in _HEAD_ALLOWED:
            # Body content arriving while <head> is the open element
            # closes the head, browser-style.
            stack.pop()

        # Implied end tags.
        close = _IMPLIED_CLOSE.get(tag)
        if close:
            while stack[-1].tag in close:
                stack.pop()
        if tag in _P_CLOSERS:
            while stack[-1].tag == "p":
                stack.pop()

        self._enter_body()
        node = DomNode(tag, _attr_dict(attrs)) if attrs else DomNode(tag)
        stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            stack.append(node)

    def _skeleton_starttag(self, tag, attrs):
        if tag == "html":
            for k, v in attrs:
                self.root.attrs.setdefault(k, v or "")
        elif tag == "head":
            if self._stack[-1] is self.root and not self._body_seen:
                for k, v in attrs:
                    self.head.attrs.setdefault(k, v or "")
                self._stack.append(self.head)
        else:
            for k, v in attrs:
                self.body.attrs.setdefault(k, v or "")
            if not self._body_seen:
                while len(self._stack) > 1:
                    self._stack.pop()
                self._stack.append(self.body)
                self._body_seen = True

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return  # </br> and friends act like their start tag in browsers; drop
        # Close up to the nearest matching open element; a stray end tag
        # with no match anywhere is ignored.
        stack = self._stack
        i = len(stack) - 1
        while i and stack[i].tag != tag:
            i -= 1
        while i and len(stack) > i:
            stack.pop()

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)
        if tag not in VOID_TAGS:
            self.handle_endtag(tag)

    def parse_marked_section(self, i, report=1):
        # Older releases (3.11, for one) raise on a "<![" with no known keyword; newer
        # ones read it as HTML5 does: a bogus comment up to the next ">", or to the end.
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            end = self.rawdata.find(">", i + 3)
            return len(self.rawdata) if end < 0 else end + 1

    def handle_data(self, data):
        # html.parser reports no tag inside script or style: their text comes with them on top
        top = self._stack[-1]
        if top.tag in RAW_TEXT_TAGS or not data:
            return
        if top is self.root or top is self.head:
            if not data.strip():
                return  # inter-element whitespace outside body
            if top is self.head:
                self._stack.pop()
            self._enter_body()
            top = self._stack[-1]
        children = top.children
        if children and children[-1].tag == TEXT_TAG:
            children[-1].text += data
        else:
            children.append(DomNode(TEXT_TAG, text=data))


# ── the one-pass scanner ────────────────────────────────────────────

# Elements whose content html.parser does not tokenize as markup, read
# from the running release, so a change there moves the fallback line:
# raw text (script, style, ...), plus <plaintext>, which releases that
# define RCDATA_CONTENT_ELEMENTS treat as raw text without listing it;
# and, where defined, RCDATA (title, textarea).
_RAW_TEXT = frozenset(HTMLParser.CDATA_CONTENT_ELEMENTS) | {"plaintext"}
_RAW_CONTENT = _RAW_TEXT | frozenset(getattr(HTMLParser, "RCDATA_CONTENT_ELEMENTS", ()))
# The scan never models raw text; searching for it first spares a page
# with a script at its end a scan up to it in vain.  The search also
# matches longer names, which only costs those pages the fast path.
_RAW_TEXT_START = re.compile("<(?:%s)" % "|".join(sorted(_RAW_TEXT)), re.IGNORECASE)

_WS = r"[ \t\n\r\f]"  # the only whitespace every html.parser release agrees on
# Names stop short of every character on which releases differ: other
# whitespace, controls, quotes, "/", "<", "=" and ">".
_NAME_CHAR = r"""[^\s\x00-\x1f\x7f"'/<=>]"""
_BARE_VALUE = r"""[^\s"'=>][^\s>]*"""
_ATTR = rf"""{_NAME_CHAR}+(?:{_WS}*={_WS}*(?:"[^"]*"|'[^']*'|{_BARE_VALUE}))?"""

_TOKEN = re.compile(
    r"([^<]+)"                                                    # 1 text
    # A title or textarea whose content holds no "<" or "&" up to its end
    # tag: one text run whether or not the release reads it as RCDATA.
    rf"|<(?i:(title|textarea))((?:{_WS}+{_ATTR})*){_WS}*>"          # 2 name, 3 attrs
    rf"([^<&]*)</(?i:\2){_WS}*>"                                  # 4 content
    rf"|<([a-zA-Z]{_NAME_CHAR}*)((?:{_WS}+{_ATTR})*){_WS}*(/?)>"    # 5 name, 6 attrs, 7 "/"
    rf"|</([a-zA-Z]{_NAME_CHAR}*){_WS}*>"                          # 8 end tag
    r"|<!--(?!-?>)(?:[^-]|-(?!-))*-->"                            # comment
    r"|<![dD][oO][cC][tT][yY][pP][eE][^>]*>"                      # doctype
    r"|(<)"                                                       # 9 unmodelled
)

# How html.parser resolves character references in attribute values.
# Releases that apply HTML5's attribute rule (``&ltimg`` stays as it is)
# define this function; older ones unescape values as they do text.
_unescape_attr = getattr(html.parser, "_unescape_attrvalue", unescape)

# _ATTR again, with groups: name, "=", and the three kinds of value.
_ATTR_PARTS = re.compile(
    rf"""({_NAME_CHAR}+)(?:{_WS}*(=){_WS}*(?:"([^"]*)"|'([^']*)'|({_BARE_VALUE})))?""")


def _attr_list(source: str) -> list[tuple[str, str | None]]:
    """html.parser's attribute list for the attribute text of a start tag."""
    attrs = []
    for name, eq, dquoted, squoted, bare in _ATTR_PARTS.findall(source):
        attrs.append((name.lower(), _unescape_attr(dquoted or squoted or bare) if eq else None))
    return attrs


def _scan(text: str) -> DomNode | None:
    """The tree of text built from one regex pass, or None when text holds
    a construct the pass does not model (see the module docstring)."""
    if _RAW_TEXT_START.search(text):
        return None
    builder = _TreeBuilder()
    on_start = builder.handle_starttag
    on_end = builder.handle_endtag
    on_data = builder.handle_data
    for (data, plain_tag, plain_attrs, content, tag, attrs, slash, end_tag,
         unmodelled) in _TOKEN.findall(text):
        if data:
            on_data(unescape(data))
        elif tag:
            tag = tag.lower()
            if tag in _RAW_CONTENT:
                return None  # RCDATA content other than plain text
            attrs = _attr_list(attrs) if attrs else []
            if slash:
                builder.handle_startendtag(tag, attrs)
            else:
                on_start(tag, attrs)
        elif end_tag:
            on_end(end_tag.lower())
        elif plain_tag:
            tag = plain_tag.lower()
            on_start(tag, _attr_list(plain_attrs) if plain_attrs else [])
            on_data(content)
            on_end(tag)
        elif unmodelled:
            return None
        # all groups empty: a comment or doctype, which the tree drops
    return builder.root


def _parse_with_htmlparser(text: str) -> DomNode:
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


def parse_html(data: bytes | bytearray | str) -> DomNode:
    """Parse an HTML byte stream (or string) into a DomNode tree.

    Bytes are decoded as UTF-8 with lossy replacement, so arbitrary tag
    soup always yields a tree; raises MalformedInput only when the input
    is not text-like at all.
    """
    if isinstance(data, (bytes, bytearray)):
        text = bytes(data).decode("utf-8-sig", errors="replace")
    elif isinstance(data, str):
        text = data
    else:
        raise MalformedInput(f"expected bytes or str, got {type(data).__name__}")
    root = _scan(text)
    return root if root is not None else _parse_with_htmlparser(text)


# ── traversal helpers ───────────────────────────────────────────────


def iter_nodes(root: DomNode):
    """Yield root and every descendant in document order (iterative)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_text:
            stack.extend(reversed(node.children))


def visible_text(node: DomNode) -> str:
    """Concatenate the subtree's text nodes in document order.

    Pieces are joined with a newline so that tokens never fuse across
    text-node boundaries; script/style subtrees are skipped.
    """
    parts: list[str] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur.is_text:
            parts.append(cur.text)
        elif cur.tag not in RAW_TEXT_TAGS:
            stack.extend(reversed(cur.children))
    return "\n".join(parts)


def body_of(root: DomNode) -> DomNode:
    """Return the body element of a parsed tree."""
    if root.tag == "body":
        return root
    for child in root.children:
        if child.tag == "body":
            return child
    raise ValueError("tree has no body element")


def find_first(root: DomNode, tag: str) -> DomNode | None:
    for node in iter_nodes(root):
        if node.tag == tag:
            return node
    return None


def page_title_tokens(root: DomNode) -> list[str]:
    """Tokens of the page's <title>, or [] when there is none."""
    from .terms import tokenize

    title = find_first(root, "title")
    return tokenize(visible_text(title)) if title is not None else []
