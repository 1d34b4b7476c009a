"""Spans recorded from outside the program, and the scaling probes.

The traced run cannot see inside ``score_page``, so it replays the page
through the same public calls in ``score_page``'s own order (the mirror)
and wraps each call in a span.  The caller checks that the mirrored
report equals ``score_page``'s report, so the spans time the work the
pipeline really does.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from time import perf_counter

from segscore import (
    Gazetteer,
    GazetteerProvider,
    PageReport,
    Profile,
    ProviderProtocol,
    ProviderUnavailable,
    Query,
    ScoreConfig,
    SegmentScoreRecord,
    SnapshotRecord,
    annotate,
    annotation_score,
    fuse_terms,
    match_prior_segment,
    page_title_tokens,
    parse_html,
    segment_page,
    structural_score,
)
from workloads import flat_block, make_vocabulary, render_flat

Span = tuple  # (name, start, end, parent index or -1, page id or None)


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.page: int | None = None

    def span(self, name: str) -> "_SpanScope":
        return _SpanScope(self, name)


class _SpanScope:
    __slots__ = ("_tracer", "_name", "_index", "_start")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        self._index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self._index)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else -1
        tracer.spans[self._index] = (self._name, self._start, end, parent, tracer.page)
        return False


def self_times(spans: list[Span]) -> Counter:
    """Total self time per span name: duration minus direct children's."""
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: Counter = Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        totals[name] += (end - start) - children[index]
    return totals


def mirror_score_page(
    tracer: Tracer,
    html: bytes,
    url: str,
    query: Query,
    profile: Profile,
    cfg: ScoreConfig,
    counts: Counter,
):
    """score_page's public calls in its order, each inside a span.

    Returns the report, the parsed DOM, the segments and the path of the
    snapshot written (or None).  Counts annotation calls, entities and
    the kind of every freshness match into ``counts``.
    """
    with tracer.span("dom.parse_html"):
        dom = parse_html(html)
    with tracer.span("dom.page_title_tokens"):
        title_tokens = page_title_tokens(dom)
    seg_cfg = cfg.segmentation
    if seg_cfg.visual_tags is None:  # score_page tracks the weight table's tags
        seg_cfg = replace(seg_cfg, visual_tags=frozenset(cfg.vmwt.tag_weights))
    with tracer.span("segmenter.segment_page"):
        segments = segment_page(dom, seg_cfg)
    fused = fuse_terms(query, profile.terms)
    store = cfg.snapshot_store
    snap = None
    if store is not None:
        with tracer.span("stores.latest_snapshot"):
            snap = store.latest_snapshot(url)

    flags: list[str] = []
    if cfg.provider is None:
        flags.append("annotations disabled: no provider configured")
    records = []
    for seg in segments:
        prior_tokens = None
        if snap is not None:
            with tracer.span("stores.match_prior_segment"):
                prior = match_prior_segment(seg, snap)
            if prior is None:
                counts["match.none"] += 1
            elif prior.fingerprint == seg.fingerprint:
                counts["match.fingerprint"] += 1
            else:
                counts["match.jaccard"] += 1
            prior_tokens = list(prior.tokens) if prior is not None else []
        with tracer.span("scoring.structural_score"):
            dims, delta = structural_score(seg, fused, profile.terms, title_tokens,
                                           cfg.vmwt, prior_tokens, cfg.coefficients)
        ann_score = 0.0
        entities = ()
        if cfg.provider is not None and seg.text.strip():
            counts["annotations.calls"] += 1
            try:
                with tracer.span("annotations.annotate"):
                    ann = annotate(seg.text, cfg.provider, segment_id=seg.id)
                with tracer.span("annotations.annotation_score"):
                    ann_score = annotation_score(ann, fused, cfg.category_weights)
                entities = tuple(ann.entities)
                counts["annotations.entities"] += len(entities)
            except ProviderUnavailable as exc:
                flags.append(f"annotation provider unavailable for segment {seg.id}: {exc}")
            except ProviderProtocol as exc:
                flags.append(f"annotation provider protocol error for segment {seg.id}: {exc}")
        records.append(SegmentScoreRecord(segment_id=seg.id, dimensions=dims, delta=delta,
                                          annotation=ann_score, total=delta + ann_score,
                                          entities=entities))
    page_score = 0.0
    for rec in records:
        page_score += rec.total

    written = None
    if store is not None and cfg.write_snapshot:
        record = SnapshotRecord.for_segments(url, datetime.now(timezone.utc), segments)
        with tracer.span("stores.put_snapshot"):
            written = store.put_snapshot(record)
    report = PageReport(url=url, query=query.raw, segment_records=records,
                        page_score=page_score, flags=flags)
    return report, dom, segments, written


# ── scaling probes ──────────────────────────────────────────────────


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        started = perf_counter()
        fn()
        times.append(perf_counter() - started)
    return statistics.median(times)


def _ratio(fn_small, fn_large, reps: int) -> float:
    fn_small()  # warm up
    return _median_seconds(fn_large, reps) / _median_seconds(fn_small, reps)


def _nested_emphasis(rng: random.Random, vocab: list[str], depth: int) -> str:
    opens = "".join(f"<b>{rng.choice(vocab)} {rng.choice(vocab)} " for _ in range(depth))
    return f"<html><body><p>{opens}{'</b>' * depth}</p></body></html>"


def scaling_probes(seed: int, smoke: bool) -> dict[str, float]:
    """Time ratios for doubling one input size; above 2 means super-linear."""
    rng = random.Random(f"probes:{seed}")
    vocab = make_vocabulary(rng, 2000)
    scale, reps = (0.2, 3) if smoke else (1.0, 5)

    n = int(200 * scale)
    blocks = [flat_block(rng, vocab) for _ in range(2 * n)]
    half, full = render_flat("probe", blocks[:n]), render_flat("probe", blocks)
    parse_x2 = _ratio(lambda: parse_html(half), lambda: parse_html(full), reps)

    depth = int(300 * scale)
    shallow = parse_html(_nested_emphasis(rng, vocab, depth))
    deep = parse_html(_nested_emphasis(rng, vocab, 2 * depth))
    depth_x2 = _ratio(lambda: segment_page(shallow), lambda: segment_page(deep), reps)

    phrases = sorted({" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
                      for _ in range(int(1200 * scale))})[: int(1000 * scale)]
    small = GazetteerProvider(Gazetteer({"Topic": phrases[: len(phrases) // 2]}))
    large = GazetteerProvider(Gazetteer({"Topic": phrases}))
    texts = [" ".join(rng.choice(vocab) for _ in range(20)) for _ in range(40)]
    gazetteer_x2 = _ratio(lambda: [small.annotate(t) for t in texts],
                          lambda: [large.annotate(t) for t in texts], reps)

    m = int(150 * scale)
    old = [flat_block(rng, vocab) for _ in range(2 * m)]
    new = [flat_block(rng, vocab) for _ in range(2 * m)]

    def revisit(size: int):  # every segment rewritten: no fingerprint matches
        before = segment_page(parse_html(render_flat("probe", old[:size])))
        after = segment_page(parse_html(render_flat("probe", new[:size])))
        snap = SnapshotRecord.for_segments("probe", datetime.now(timezone.utc), before)
        return lambda: [match_prior_segment(seg, snap) for seg in after]

    match_x2 = _ratio(revisit(m), revisit(2 * m), reps)
    return {
        "scale.dom.parse_x2": parse_x2,
        "scale.segmenter.depth_x2": depth_x2,
        "scale.annotations.gazetteer_x2": gazetteer_x2,
        "scale.stores.match_x2": match_x2,
    }
