"""Page segmentation: block structure first, text density as tie-breaker.

A page's body is cut into segments in four steps: every maximal
block-tag subtree under the body becomes a candidate (text between
blocks is grouped into candidates of its own, so nothing is lost);
oversized candidates whose block children differ enough in text density
are recursively re-partitioned; undersized candidates are merged into
their predecessor; whatever remains becomes the segment list, covering
every visible text node exactly once.

Each candidate's nodes are walked once, when the candidate is made.
That walk tokenizes every visible text node once and gathers the text,
tokens, links, images and visual spans; a segment only joins what its
candidates gathered.

Inline wrappers that contain block elements (for example a link around
a card ``<a><div>…</div></a>``) are descended through so the inner
blocks become candidates; the wrapper's own link or visual span is then
not attributed to any segment, though its text always is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import chain
from urllib.parse import urlsplit

from .dom import RAW_TEXT_TAGS, TEXT_TAG, DomNode, body_of
from .errors import EmptyPage
from .scoring import DEFAULT_VMWT
from .terms import TermVector, tokenize

__all__ = [
    "DEFAULT_BLOCK_TAGS",
    "DEFAULT_VISUAL_TAGS",
    "LINE_WIDTH",
    "SegmentationConfig",
    "Segment",
    "token_fingerprint",
    "segment_page",
    "segments_to_json",
]

DEFAULT_BLOCK_TAGS = frozenset({
    "div", "p", "section", "article", "aside", "nav", "header", "footer",
    "ul", "ol", "table", "blockquote", "h1", "h2", "h3", "h4", "h5", "h6",
    "pre",
})

# Tags whose subtree tokens are recorded as visual spans when no explicit
# set is configured: those of the default visual markup weight table.
DEFAULT_VISUAL_TAGS = frozenset(DEFAULT_VMWT)

LINE_WIDTH = 80  # fixed wrap width behind the density denominator


@dataclass(frozen=True)
class SegmentationConfig:
    """Knobs for the partition rules; defaults hold for ordinary pages."""

    block_tags: frozenset[str] = DEFAULT_BLOCK_TAGS
    min_tokens: int = 10
    max_tokens: int = 400
    density_floor: float = 2.0
    # None means "track the visual markup weight table in use".
    visual_tags: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not self.block_tags:
            raise ValueError("block_tags must not be empty")
        if self.min_tokens < 1:
            raise ValueError("min_tokens must be >= 1")
        if self.max_tokens <= self.min_tokens:
            raise ValueError("max_tokens must exceed min_tokens")
        if self.density_floor < 0:
            raise ValueError("density_floor must be >= 0")


@dataclass
class Segment:
    """One scored unit of a page.

    ``tokens`` always equals ``tokenize(text)``; ``links`` holds
    (anchor_tokens, href_tokens) pairs, ``images`` holds
    (alt_tokens, title_tokens, src_filename_tokens) triples and
    ``visual_spans`` holds (tag, subtree_tokens) pairs, all in document
    order.  ``dom_path`` is the root-to-subtree child index path of the
    segment's first node; ``node_paths`` lists the paths of every
    constituent top node (merged segments have several).
    """

    id: int
    dom_path: tuple[int, ...]
    text: str
    tokens: TermVector
    links: list[tuple[TermVector, TermVector]] = field(default_factory=list)
    images: list[tuple[TermVector, TermVector, TermVector]] = field(default_factory=list)
    visual_spans: list[tuple[str, TermVector]] = field(default_factory=list)
    fingerprint: int = 0
    node_paths: tuple[tuple[int, ...], ...] = ()


# ── density and fingerprints ────────────────────────────────────────


def _density_of(text: str, tokens: TermVector) -> float:
    if not tokens:
        return 0.0
    chars = len(" ".join(text.split()))
    lines = max(1, math.ceil(chars / LINE_WIDTH))
    return len(tokens) / lines


def token_fingerprint(tokens: TermVector) -> int:
    """Stable unsigned 64-bit hash of an ordered token list.

    Independent of process and PYTHONHASHSEED; equal token lists always
    collide and the separator byte cannot occur inside a token.
    """
    data = "\x1f".join(tokens) + "\x1f" if tokens else ""
    return int.from_bytes(blake2b(data.encode("utf-8"), digest_size=8).digest(), "big")


# ── candidate collection ────────────────────────────────────────────


class _Candidate:
    """Top nodes of one candidate and what one walk over them gathers.

    The walk tokenizes each visible text node once.  ``tokens`` equals
    tokenizing the "\n"-joined ``text``, because "\n" never joins or
    splits a token; an <a> or visual element takes the slice of
    ``tokens`` met between entering and leaving it, however deeply such
    elements nest.  ``has_text`` says whether any visible text node,
    even an empty one, lies under the candidate.
    """

    __slots__ = ("nodes", "is_block", "text", "has_text", "tokens", "links", "images", "spans")

    def __init__(
        self,
        nodes: list[tuple[tuple[int, ...], DomNode]],
        is_block: bool,
        visual_tags: frozenset[str],
    ):
        self.nodes = nodes
        self.is_block = is_block
        pieces: list[str] = []
        tokens: TermVector = []
        links: list[tuple[TermVector, TermVector]] = []
        images: list[tuple[TermVector, TermVector, TermVector]] = []
        spans: list[tuple[str, TermVector]] = []
        stack: list = [node for _, node in reversed(nodes)]
        while stack:
            cur = stack.pop()
            if type(cur) is tuple:  # leaving an <a> or visual element
                out, at, start = cur
                if out is links:
                    links[at] = (tokens[start:], links[at][1])
                else:
                    spans[at] = (spans[at][0], tokens[start:])
                continue
            tag = cur.tag
            if tag == TEXT_TAG:
                pieces.append(cur.text)
                tokens += tokenize(cur.text)
                continue
            if tag in RAW_TEXT_TAGS:
                continue
            if tag == "a":
                stack.append((links, len(links), len(tokens)))
                links.append(([], _href_tokens(cur.attrs.get("href", ""))))
            elif tag == "img":
                images.append((
                    tokenize(cur.attrs.get("alt", "")),
                    tokenize(cur.attrs.get("title", "")),
                    _src_filename_tokens(cur.attrs.get("src", "")),
                ))
            if tag in visual_tags:
                stack.append((spans, len(spans), len(tokens)))
                spans.append((tag, []))
            stack.extend(reversed(cur.children))
        self.has_text = bool(pieces)
        self.text = "\n".join(pieces)
        self.tokens, self.links, self.images, self.spans = tokens, links, images, spans


def _contains_block(elem: DomNode, block_tags: frozenset[str], memo: dict[int, bool]) -> bool:
    """Whether elem has a block-tag descendant outside script/style.

    memo maps id(element) to the answer for every element a walk has
    settled: when a block turns up, every element on the way down to it
    holds one too; an element left without finding one holds none.  So
    nested wrappers are walked once per page, not once per level.
    """
    # The common shallow case, an element holding text and leaves only
    # (an <a> or <b> around text), is settled without the memo.
    for child in elem.children:
        if child.tag in block_tags:
            return True
        if child.children and child.tag not in RAW_TEXT_TAGS:
            break
    else:
        return False
    known = memo.get(id(elem))
    if known is not None:
        return known
    path = [elem]  # entered and not yet left
    stack: list = [None, *elem.children]
    while stack:
        node = stack.pop()
        if node is None:  # leaving path[-1] without having met a block
            memo[id(path.pop())] = False
        elif node.tag in block_tags or memo.get(id(node)):
            for open_elem in path:
                memo[id(open_elem)] = True
            return True
        elif (node.children and node.tag != TEXT_TAG and node.tag not in RAW_TEXT_TAGS
              and id(node) not in memo):
            path.append(node)
            stack.append(None)
            stack.extend(node.children)
    return False


def _iter_units(
    elem: DomNode, path: tuple[int, ...], block_tags: frozenset[str], memo: dict[int, bool]
):
    """Yield ("block"|"loose", path, node) over elem's content in document order.

    Non-block wrappers that contain block descendants are descended
    through; everything else is yielded as a loose unit.  memo is the
    page's _contains_block memo.  Paths are built only for yielded
    units, so wrappers nested d deep cost O(d), not O(d**2).
    """
    prefix = list(path)  # path of the element being walked
    stack = [(elem, 0)]
    while stack:
        parent, i = stack.pop()
        children = parent.children
        while i < len(children):
            child = children[i]
            if not child.is_text and child.tag in block_tags:
                yield ("block", (*prefix, i), child)
            elif (
                not child.is_text
                and child.tag not in RAW_TEXT_TAGS
                and _contains_block(child, block_tags, memo)
            ):
                stack.append((parent, i + 1))
                stack.append((child, 0))
                prefix.append(i)
                break
            else:
                yield ("loose", (*prefix, i), child)
            i += 1
        else:
            if stack:  # back from a wrapper to its parent
                prefix.pop()


def _run_matters(run: list[tuple[tuple[int, ...], DomNode]]) -> bool:
    # pure inter-block whitespace is dropped; anything else is kept
    for _, node in run:
        if not node.is_text or node.text.strip():
            return True
    return False


def _group_candidates(
    elem: DomNode,
    path: tuple[int, ...],
    block_tags: frozenset[str],
    memo: dict[int, bool],
    visual_tags: frozenset[str],
) -> list[_Candidate]:
    cands: list[_Candidate] = []
    run: list[tuple[tuple[int, ...], DomNode]] = []

    def flush() -> None:
        if run and _run_matters(run):
            cands.append(_Candidate(list(run), False, visual_tags))
        run.clear()

    for kind, cpath, node in _iter_units(elem, path, block_tags, memo):
        if kind == "block":
            flush()
            cands.append(_Candidate([(cpath, node)], True, visual_tags))
        else:
            run.append((cpath, node))
    flush()
    return cands


# ── partition rules ─────────────────────────────────────────────────


def _split(
    cand: _Candidate, cfg: SegmentationConfig, memo: dict[int, bool], visual_tags: frozenset[str]
) -> list[_Candidate] | None:
    """Sub-candidates when the recursion rule fires, else None."""
    if not cand.is_block or len(cand.tokens) <= cfg.max_tokens:
        return None
    path, elem = cand.nodes[0]
    subs = _group_candidates(elem, path, cfg.block_tags, memo, visual_tags)
    if len(subs) < 2 or not any(s.is_block for s in subs):
        return None
    densities = [_density_of(s.text, s.tokens) for s in subs]
    if max(densities) - min(densities) <= cfg.density_floor:
        return None  # uniform density: keep long candidates whole
    return subs


def _partitioned(
    cands: list[_Candidate],
    cfg: SegmentationConfig,
    memo: dict[int, bool],
    visual_tags: frozenset[str],
) -> list[_Candidate]:
    out: list[_Candidate] = []
    stack = list(reversed(cands))
    while stack:
        cand = stack.pop()
        subs = _split(cand, cfg, memo, visual_tags)
        if subs is None:
            out.append(cand)
        else:
            stack.extend(reversed(subs))
    return out


# ── segment construction ────────────────────────────────────────────


def _plain_relative(url: str) -> bool:
    """Whether urlsplit would read url as a bare path and query.

    Such a URL has no scheme (no ":"), no fragment ("#"), no netloc
    (no leading "//"), nothing for urlsplit to strip at its start (a first
    character above a space) and no tab, CR or LF for it to delete.
    """
    return (url[:1] > " " and not url.startswith("//") and ":" not in url
            and "#" not in url and "\t" not in url and "\r" not in url and "\n" not in url)


def _href_tokens(href: str) -> TermVector:
    if _plain_relative(href):
        path, _, query = href.partition("?")
        return tokenize(path + " " + query)
    try:
        parts = urlsplit(href)
    except ValueError:
        return tokenize(href)
    return tokenize(parts.path + " " + parts.query)


def _src_filename_tokens(src: str) -> TermVector:
    if _plain_relative(src):
        path = src.partition("?")[0]
    else:
        try:
            path = urlsplit(src).path
        except ValueError:
            path = src
    return tokenize(path.rsplit("/", 1)[-1])


def _build_segment(seg_id: int, cands: list[_Candidate]) -> Segment:
    """Join what the candidates gathered; a lone candidate's lists are
    taken as they are, since nothing else holds them."""
    if len(cands) == 1:
        (cand,) = cands
        nodes, text, tokens = cand.nodes, cand.text, cand.tokens
        links, images, spans = cand.links, cand.images, cand.spans
    else:
        nodes = [entry for cand in cands for entry in cand.nodes]
        # a full walk joins every text node with "\n"; a candidate without
        # any contributes nothing, and "\n" never joins or splits a token
        text = "\n".join([cand.text for cand in cands if cand.has_text])
        tokens = list(chain.from_iterable(cand.tokens for cand in cands))
        links = list(chain.from_iterable(cand.links for cand in cands))
        images = list(chain.from_iterable(cand.images for cand in cands))
        spans = list(chain.from_iterable(cand.spans for cand in cands))
    return Segment(
        id=seg_id,
        dom_path=nodes[0][0],
        text=text,
        tokens=tokens,
        links=links,
        images=images,
        visual_spans=spans,
        fingerprint=token_fingerprint(tokens),
        node_paths=tuple(path for path, _ in nodes),
    )


def segment_page(dom: DomNode, cfg: SegmentationConfig | None = None) -> list[Segment]:
    """Partition a parsed page into segments.

    Every visible text node under the body lands in exactly one segment,
    in document order.  Raises EmptyPage when the body has no visible
    text at all.  Each candidate's nodes are walked once, when it is
    made: that walk tokenizes every visible text node once and gathers
    the text, tokens, links, images and visual spans that the partition
    rules and the segments use.
    """
    cfg = cfg or SegmentationConfig()
    visual = cfg.visual_tags if cfg.visual_tags is not None else DEFAULT_VISUAL_TAGS
    body = body_of(dom)
    bpath: tuple[int, ...] = () if body is dom else (dom.children.index(body),)
    memo: dict[int, bool] = {}  # shared by every _contains_block call on this tree
    top = _group_candidates(body, bpath, cfg.block_tags, memo, visual)
    # the candidates hold every visible text node but whitespace-only runs
    if not any(cand.text.strip() for cand in top):
        raise EmptyPage("page body has no visible text")

    groups: list[list[_Candidate]] = []
    for cand in _partitioned(top, cfg, memo, visual):
        if groups and len(cand.tokens) < cfg.min_tokens:
            groups[-1].append(cand)  # short candidate joins its predecessor
        else:
            groups.append([cand])
    return [_build_segment(i, cands) for i, cands in enumerate(groups)]


def segments_to_json(url: str, segments: list[Segment]) -> dict:
    """Serializable segment pool; fingerprints go out as decimal strings."""
    return {
        "v": 1,
        "url": url,
        "segments": [
            {
                "id": seg.id,
                "dom_path": list(seg.dom_path),
                "text": seg.text,
                "tokens": list(seg.tokens),
                "links": [[list(a), list(h)] for a, h in seg.links],
                "images": [[list(a), list(t), list(s)] for a, t, s in seg.images],
                "visual_spans": [[tag, list(toks)] for tag, toks in seg.visual_spans],
                "fingerprint": str(seg.fingerprint),
            }
            for seg in segments
        ],
    }
