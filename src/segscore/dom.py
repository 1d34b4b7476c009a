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

One tokenizer, ``_scan``, reads every document, the way CPython 3.13.13's
``html.parser`` applies the WHATWG tokenizer
(https://html.spec.whatwg.org/multipage/parsing.html#tokenization), so
every interpreter builds the same tree.  Tag names run up to ASCII
whitespace, ``/`` or ``>``; attribute values resolve character references
by the HTML5 attribute rule (``&copy=2`` stays as written).  Script,
style, xmp, iframe, noembed and noframes hold raw text up to their end
tag, title and textarea hold text with references resolved, and
``<plaintext>`` makes the rest of the document text.  A comment ends at
``-->`` or ``--!>`` (or is ``<!-->`` when none follows), ``<![CDATA[`` at
``]]>``, and any other ``<!``, ``<?`` or ``</`` + non-letter at the next
``>``; a ``<`` that opens none of these is text.  At the end of the input
an unterminated construct is dropped, but a final ``</`` is text.  The
contract is the differential test in ``tests/test_dom.py``, against a
copy of that ``html.parser``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape
from html.entities import html5

from .errors import MalformedInput

__all__ = [
    "DomNode", "TEXT_TAG", "VOID_TAGS", "RAW_TEXT_TAGS", "parse_html", "iter_nodes",
    "visible_text", "body_of", "find_first", "page_title_tokens",
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
    "li": frozenset({"li"}), "a": frozenset({"a"}), "option": frozenset({"option"}),
    "optgroup": frozenset({"option", "optgroup"}),
    "dt": frozenset({"dt", "dd"}), "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}), "td": frozenset({"td", "th"}), "th": frozenset({"td", "th"}),
    **dict.fromkeys(("thead", "tbody", "tfoot"),
                    frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"})),
    **dict.fromkeys(_HEADINGS, _HEADINGS),
}

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


class _TreeBuilder:
    def __init__(self) -> None:
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

    def handle_data(self, data):
        # the tokenizer reports no tag inside script or style: their text comes with them on top
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


# ── the tokenizer ───────────────────────────────────────────────────

# Elements whose content is text up to their end tag (<plaintext>: to the
# end of the input), kept as written or, for RCDATA, with references resolved.
_VERBATIM_TAGS = frozenset({"script", "style", "xmp", "iframe", "noembed", "noframes",
                            "plaintext"})
_RCDATA_TAGS = frozenset({"title", "textarea"})

# A start tag of one of those elements; it finds some inside comments or
# attribute values too, which _scan skips.  No non-ASCII letter lowercases
# into these names.  The first-letter lookahead spares most "<" the names.
_TEXT_ELEMENT_START = re.compile(
    r"<(?=[iInNpPsStTxX])(%s)(?=[\t\n\r\f />])" % "|".join(sorted(_VERBATIM_TAGS | _RCDATA_TAGS)),
    re.IGNORECASE | re.ASCII)
_END_TAG = {tag: re.compile(r"</%s(?=[\t\n\r\f />])" % tag, re.IGNORECASE | re.ASCII)
            for tag in (_VERBATIM_TAGS | _RCDATA_TAGS) - {"plaintext"}}

# One attribute, with the separators before it: a name starts after a
# quote, a space or "/" (so "=" can open one), then maybe "=" and a value.
_ATTR = (r"""[\t\n\r\f /]*(?<=['"\t\n\r\f /])([^\t\n\r\f />][^\t\n\r\f /=>]*)"""
         r"""(?:[\t\n\r\f ]*(=)[\t\n\r\f ]*(?:'([^']*)'|"([^"]*)"|(?!['"])([^\t\n\r\f >]*)%s))?""")
_ATTR_PARTS = re.compile(_ATTR % "")


def _token_regex(more_values: str, more_comments: str) -> re.Pattern:
    attr = re.sub(r"\((?!\?)", "(?:", _ATTR % more_values)  # _ATTR without groups
    return re.compile(
        r"([^<]+|<(?![a-zA-Z!/?]))"                      # 1 text, or a "<" that opens nothing
        r"|<([a-zA-Z][^\t\n\r\f />]*)>"                  # 2 plain start tag
        r"|</([a-zA-Z][^\t\n\r\f />]*)>"                 # 3 plain end tag
        rf"|<(/?)([a-zA-Z][^\t\n\r\f />]*)((?:{attr})*)"  # 4 "/", 5 name, 6 attributes
        r"([\t\n\r\f /]*)(?:(>)|([\s\S]*))"             # 7 tail, 8 ">", 9 unterminated
        rf"|<!--(?:[\s\S]*?--!?>{more_comments})"          # comment
        r"|<!\[CDATA\[[\s\S]*?\]\]>"
        r"|<(?:!(?!--|\[CDATA\[)|\?|/)[^>]*>"            # doctype, bogus comment
        r"|(<[\s\S]*)")                                  # 10 unterminated, or <!-->


# The tokens of a document.  An unterminated construct takes the rest of
# the input, so none costs more than a pass; only a quote that never
# closes makes the regex backtrack, to the reading html.parser gives it.
# "<!-->" and "<!--->" are comments only when no "-->" or "--!>" follows.
_TOKEN = _token_regex("", "|-?>")
# The tokens of a stretch, past whose end a quote or a comment may close:
# an unclosed quote leaves its tag unterminated, and <!--> is left open.
_STRETCH_TOKEN = _token_regex(r"""|['"][\s\S]*""", "")
_ATTR_CHARREF = re.compile(r"&(?:#[0-9]+|#[xX][0-9a-fA-F]+|[a-zA-Z][a-zA-Z0-9]*)[;=]?")


def _attr_charref(match: re.Match) -> str:
    ref = match[0]  # HTML5: a named reference resolves as a whole name with no "=" after
    return unescape(ref) if ref[1] == "#" or (ref[-1] != "=" and ref[1:] in html5) else ref


def _attr_list(source: str) -> list[tuple[str, str | None]]:
    """The (name, value) list of the attribute text of a tag; a value is
    None when no "=" follows the name."""
    attrs = []
    for name, eq, squoted, dquoted, bare in _ATTR_PARTS.findall(source):
        value = squoted or dquoted or bare
        if "&" in value:
            value = _ATTR_CHARREF.sub(_attr_charref, value)
        attrs.append((name.lower(), value if eq else None))
    return attrs


def _read(builder: _TreeBuilder, text: str, pos: int, stop: int,
          tokens: re.Pattern = _STRETCH_TOKEN) -> int:
    """Feed builder the tokens of text[pos:stop].  Return -1, or where a
    construct starts that may run past stop."""
    on_start, on_end, on_data = builder.handle_starttag, builder.handle_endtag, builder.handle_data
    for (data, start_tag, end_tag, close, name, attrs, tail, gt, rest,
         markup) in tokens.findall(text, pos, stop):
        if data:
            on_data(unescape(data))
        elif end_tag:
            on_end(end_tag.lower())
        elif start_tag:
            on_start(start_tag.lower(), [])
        elif gt:
            if close:
                on_end(name.lower())
            elif tail and tail[-1] == "/":
                builder.handle_startendtag(name.lower(), _attr_list(attrs) if attrs else [])
            else:
                on_start(name.lower(), _attr_list(attrs) if attrs else [])
        elif name:
            return stop - len(rest) - len(tail) - len(attrs) - len(name) - len(close) - 1
        elif markup:
            return stop - len(markup)
    return -1


def _scan(text: str) -> DomNode:
    """The tree of text.  _read reads up to the next text element, whose start tag
    and content are read here, as is a construct that may run past that tag."""
    builder = _TreeBuilder()
    n = len(text)
    pos, stop, found = 0, -1, None
    while pos < n:
        if stop < pos:
            found = _TEXT_ELEMENT_START.search(text, pos)
            stop = found.start() if found else n
        at = _read(builder, text, pos, stop)
        if at < 0:
            if found is None:
                break
            at = stop
        token = _TOKEN.match(text, at)
        if token[9] is not None or token[10] is not None:  # dropped with the rest
            if at == n - 2 and text.endswith("</"):
                builder.handle_data("</")
            break
        pos = token.end()
        _read(builder, text, at, pos, _TOKEN)
        if at == stop and not (token[7] or "").endswith("/"):  # <script/> has no content
            tag = found[1].lower()
            close = _END_TAG[tag].search(text, pos) if tag in _END_TAG else None
            end = close.start() if close else n
            if pos < end:
                builder.handle_data(unescape(text[pos:end]) if tag in _RCDATA_TAGS else text[pos:end])
            pos = end
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
    return _scan(text)


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
