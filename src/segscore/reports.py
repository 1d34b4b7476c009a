"""Static HTML report rendering.

Two reports, both self-contained single files with inline styles only:
the boundary report re-serializes the source page with every segment
wrapped in a visible marker element, and the score report lists each
segment's dimension breakdown, annotation entities and totals, colored
by score quantile.
"""

from __future__ import annotations

from html import escape

from .dom import _VERBATIM_TAGS, VOID_TAGS, DomNode
from .pipeline import PageReport
from .segmenter import Segment

__all__ = [
    "serialize_html",
    "resolve_path",
    "segment_boundary_html",
    "score_report_html",
]


def _esc_text(value: str) -> str:
    return escape(value, quote=False)


def _esc_attr(value: str) -> str:
    return escape(value, quote=True)


def resolve_path(root: DomNode, path: tuple[int, ...]) -> DomNode:
    """Follow a child-index path from the root down to a node."""
    node = root
    for index in path:
        node = node.children[index]
    return node


def serialize_html(root: DomNode, wrap_map: dict[int, int] | None = None) -> str:
    """Serialize a tree back to HTML.

    Text nodes are re-escaped so the visible text round-trips through a
    re-parse unchanged.  ``wrap_map`` maps ``id(node)`` to a segment id;
    such nodes are wrapped in ``<seg-mark data-seg="N">`` elements.
    Comments and doctype were dropped at parse time and do not return.
    """
    out: list[str] = []
    stack: list[object] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node = item  # type: ignore[assignment]
        seg = wrap_map.get(id(node)) if wrap_map else None
        if seg is not None:
            out.append(f'<seg-mark data-seg="{seg}">')
        if node.is_text:
            out.append(_esc_text(node.text))
            if seg is not None:
                out.append("</seg-mark>")
            continue
        attrs = "".join(f' {k}="{_esc_attr(v)}"' for k, v in node.attrs.items())
        if node.tag in VOID_TAGS and not node.children:
            out.append(f"<{node.tag}{attrs}>")
            if seg is not None:
                out.append("</seg-mark>")
            continue
        out.append(f"<{node.tag}{attrs}>")
        if node.tag in _VERBATIM_TAGS:
            # a re-parse reads this content as written, so it is never escaped
            out.extend(child.text for child in node.children if child.is_text)
            if node.tag == "plaintext":
                break  # the rest of the document would be its text
            out.append(f"</{node.tag}>")
            if seg is not None:
                out.append("</seg-mark>")
            continue
        closer = f"</{node.tag}>" + ("</seg-mark>" if seg is not None else "")
        stack.append(closer)
        stack.extend(reversed(node.children))
    return "".join(out)


_BOUNDARY_CSS = """
seg-mark { display: block; position: relative; outline: 2px dashed #b03030;
  outline-offset: 2px; margin: 10px 2px; }
seg-mark::before { content: "segment " attr(data-seg); position: absolute;
  top: -1.1em; left: 0; background: #b03030; color: #fff;
  font: 700 10px/1.5 monospace; padding: 0 5px; border-radius: 2px; }
"""


def segment_boundary_html(dom: DomNode, segments: list[Segment]) -> str:
    """The source page with visible per-segment boundary markers.

    The marker label is drawn by CSS from the data-seg attribute, so the
    page's visible text stays byte-for-byte what it was.  The tree is
    restored before returning.
    """
    wrap_map: dict[int, int] = {}
    for seg in segments:
        for path in seg.node_paths:
            wrap_map[id(resolve_path(dom, path))] = seg.id

    head = next((c for c in dom.children if c.tag == "head"), None)
    style = DomNode("style", children=[DomNode("#text", text=_BOUNDARY_CSS)])
    if head is not None:
        head.children.insert(0, style)
    try:
        page = serialize_html(dom, wrap_map)
    finally:
        if head is not None:
            head.children.remove(style)
    return "<!doctype html>" + page


_REPORT_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 60em;
  color: #222; background: #fff; padding: 0 1em; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin: 0 0 .4em; }
.meta { color: #555; margin-bottom: 1.5em; }
.flag { background: #fff3cd; border: 1px solid #e0c36b; padding: .4em .8em;
  border-radius: 4px; margin: .3em 0; }
.segment { border: 1px solid #ddd; border-left: 6px solid #999; border-radius: 4px;
  padding: .8em 1em; margin: 1em 0; }
.segment.q1 { border-left-color: #b9c6cf; } .segment.q2 { border-left-color: #7fa8c4; }
.segment.q3 { border-left-color: #3d7bab; } .segment.q4 { border-left-color: #174f7c; }
table { border-collapse: collapse; margin: .5em 0; }
td, th { border: 1px solid #ccc; padding: .2em .7em; text-align: right; }
th { background: #f2f2f2; }
.excerpt { color: #444; font-style: italic; margin: .5em 0; white-space: pre-wrap; }
.entities li { font-family: monospace; }
.total { font-weight: 700; }
"""


def _quantile_class(value: float, sorted_totals: list[float]) -> str:
    import bisect

    fraction = bisect.bisect_right(sorted_totals, value) / len(sorted_totals)
    if fraction <= 0.25:
        return "q1"
    if fraction <= 0.5:
        return "q2"
    if fraction <= 0.75:
        return "q3"
    return "q4"


def score_report_html(report: PageReport, segments: list[Segment]) -> str:
    """Standalone score report: per-segment breakdown, quantile-colored."""
    by_id = {seg.id: seg for seg in segments}
    sorted_totals = sorted(rec.total for rec in report.segment_records)
    parts = [
        "<!doctype html><html><head>",
        '<meta charset="utf-8">',
        f"<title>score report: {_esc_text(report.url)}</title>",
        f"<style>{_REPORT_CSS}</style>",
        "</head><body>",
        f"<h1>Page score {report.page_score:.4f}</h1>",
        f'<div class="meta">url: {_esc_text(report.url)}<br>'
        f"query: {_esc_text(report.query)}<br>"
        f"segments: {len(report.segment_records)}</div>",
    ]
    for flag in report.flags:
        parts.append(f'<div class="flag">{_esc_text(flag)}</div>')
    for rec in report.segment_records:
        cls = _quantile_class(rec.total, sorted_totals)
        parts.append(f'<section class="segment {cls}">')
        parts.append(
            f'<h2>Segment {rec.segment_id} '
            f'<span class="total">total {rec.total:.4f}</span></h2>'
        )
        seg = by_id.get(rec.segment_id)
        if seg is not None:
            excerpt = seg.text.strip()
            if len(excerpt) > 400:
                excerpt = excerpt[:400] + "…"
            parts.append(f'<div class="excerpt">{_esc_text(excerpt)}</div>')
        cells = [*rec.dimensions.as_dict().items(),
                 ("structural", rec.delta), ("annotation", rec.annotation)]
        parts.append(
            "<table><tr>" + "".join(f"<th>{name}</th>" for name, _ in cells) + "</tr>"
            "<tr>" + "".join(f"<td>{value:.4f}</td>" for _, value in cells) + "</tr></table>"
        )
        if rec.entities:
            parts.append('<ul class="entities">')
            for ent in rec.entities:
                parts.append(
                    f"<li>{_esc_text(ent.category)} / {_esc_text(ent.name)} "
                    f"(relevance {ent.relevance:.2f})</li>"
                )
            parts.append("</ul>")
        parts.append("</section>")
    parts.append("</body></html>")
    return "".join(parts)
