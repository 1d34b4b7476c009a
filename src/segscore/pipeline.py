"""Page scoring pipeline and session-level statistics.

score_page ties everything together: parse, segment, annotate, score
each segment structurally, and sum.  It runs in the calling thread; only
a remote annotation provider overlaps its requests (see
``annotate_texts``).  Records are assembled and summed in segment order.
A snapshot of the page is stored only after scoring, which keeps
freshness relative to the previous visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .annotations import AnnotationSet, CategoryWeights, Entity, annotate_texts, annotation_score
from .dom import page_title_tokens, parse_html
from .errors import EmptySession, ProviderUnavailable, checked, finite
from .scoring import DimensionCoefficients, DimensionScores, Vmwt, structural_score
from .segmenter import Segment, SegmentationConfig, segment_page
from .stores import SnapshotRecord, SnapshotStore, Profile, match_prior_segment
from .terms import Query, fuse_terms

__all__ = [
    "ScoreConfig",
    "SegmentScoreRecord",
    "PageReport",
    "SessionStats",
    "SessionChecksReport",
    "score_page",
    "compute_session_stats",
    "session_stats_csv",
    "reference_table_checks",
    "page_report_from_json",
]


@dataclass(frozen=True)
class ScoreConfig:
    """Everything score_page needs besides the page, query and profile."""

    segmentation: SegmentationConfig = SegmentationConfig()
    vmwt: Vmwt = field(default_factory=Vmwt)
    coefficients: DimensionCoefficients = DimensionCoefficients()
    category_weights: CategoryWeights = CategoryWeights()
    provider: object | None = None
    snapshot_store: SnapshotStore | None = None
    write_snapshot: bool = True
    keep_segments: bool = False  # fill PageReport.segments


@dataclass(frozen=True)
class SegmentScoreRecord:
    """Scores of one segment; total is always delta + annotation.

    ``entities`` keeps the annotated entities for report rendering; it
    is not part of the serialized record schema.
    """

    segment_id: int
    dimensions: DimensionScores
    delta: float
    annotation: float
    total: float
    entities: tuple[Entity, ...] = ()


@dataclass
class PageReport:
    url: str
    query: str
    segment_records: list[SegmentScoreRecord]
    page_score: float
    flags: list[str] = field(default_factory=list)
    # the scored segments, with ScoreConfig.keep_segments; never serialized
    segments: list[Segment] = field(default_factory=list, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "v": 1,
            "url": self.url,
            "query": self.query,
            "segments": [
                {
                    "segment_id": rec.segment_id,
                    "dimensions": rec.dimensions.as_dict(),
                    "delta": rec.delta,
                    "annotation": rec.annotation,
                    "total": rec.total,
                }
                for rec in self.segment_records
            ],
            "page_score": self.page_score,
            "flags": list(self.flags),
        }


def _record_from_json(seg: dict) -> SegmentScoreRecord:
    dims = checked(seg["dimensions"], dict, "dimensions")
    return SegmentScoreRecord(
        segment_id=checked(seg["segment_id"], int, "segment_id"),
        dimensions=DimensionScores(**{name: finite(value, name) for name, value in dims.items()}),
        delta=finite(seg["delta"], "delta"),
        annotation=finite(seg["annotation"], "annotation"),
        total=finite(seg["total"], "total"),
    )


def page_report_from_json(data: object) -> PageReport:
    """Rebuild a PageReport from its serialized form.

    The report must be a JSON object.  Every score must be a finite JSON
    number, so no later sum meets a string, a null or a NaN; ``url`` and
    ``query`` must be strings, ``flags`` a list of strings and each
    ``segment_id`` an integer.  Anything else raises ValueError.
    """
    try:
        data = checked(data, dict, "page report")
        flags = checked(data.get("flags", []), list, "flags")
        for flag in flags:
            checked(flag, str, "each flag")
        return PageReport(
            url=checked(data["url"], str, "url"),
            query=checked(data["query"], str, "query"),
            segment_records=[_record_from_json(seg) for seg in data["segments"]],
            page_score=finite(data["page_score"], "page_score"),
            flags=list(flags),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a page report: {exc}") from exc


def _effective_segmentation(cfg: ScoreConfig) -> SegmentationConfig:
    # visual spans must cover exactly the tags the weight table knows
    if cfg.segmentation.visual_tags is not None:
        return cfg.segmentation
    return replace(cfg.segmentation, visual_tags=frozenset(cfg.vmwt.tag_weights))


def score_page(
    html: bytes | str,
    url: str,
    query: Query,
    profile: Profile,
    config: ScoreConfig | None = None,
) -> PageReport:
    """Score one page against a query and profile.

    Raises EmptyPage for pages whose body has no visible text; provider
    failures never abort the page, they zero the affected segment's
    annotation score and leave a flag on the report.
    """
    cfg = config or ScoreConfig()
    dom = parse_html(html)
    title_tokens = page_title_tokens(dom)
    segments = segment_page(dom, _effective_segmentation(cfg))
    fused = fuse_terms(query, profile.terms)
    snap = cfg.snapshot_store.latest_snapshot(url) if cfg.snapshot_store else None

    flags: list[str] = []
    found = {}  # segment id -> entities or provider error
    if cfg.provider is None:
        flags.append("annotations disabled: no provider configured")
    else:
        wanted = [segment for segment in segments if segment.text.strip()]
        found = dict(zip([segment.id for segment in wanted], annotate_texts(
            cfg.provider, [segment.text for segment in wanted],
            [segment.tokens for segment in wanted])))

    records: list[SegmentScoreRecord] = []
    page_score = 0.0
    for segment in segments:
        outcome = found.get(segment.id)
        prior_tokens = None
        if snap is not None:
            prior = match_prior_segment(segment, snap)
            # matched prior -> diff against it; unmatched -> wholly fresh
            prior_tokens = list(prior.tokens) if prior is not None else []
        dims, delta = structural_score(
            segment, fused, profile.terms, title_tokens,
            cfg.vmwt, prior_tokens, cfg.coefficients,
        )
        ann_score = 0.0
        entities: tuple[Entity, ...] = ()
        if isinstance(outcome, Exception):
            kind = "unavailable" if isinstance(outcome, ProviderUnavailable) else "protocol error"
            flags.append(f"annotation provider {kind} for segment {segment.id}: {outcome}")
        elif outcome is not None:
            ann = AnnotationSet(outcome, cfg.provider.provider_id, segment.id)
            ann_score = annotation_score(ann, fused, cfg.category_weights)
            entities = tuple(outcome)
        total = delta + ann_score
        records.append(SegmentScoreRecord(segment_id=segment.id, dimensions=dims, delta=delta,
                                          annotation=ann_score, total=total, entities=entities))
        page_score += total

    if cfg.snapshot_store is not None and cfg.write_snapshot:
        cfg.snapshot_store._put(
            SnapshotRecord.for_segments(url, datetime.now(timezone.utc), segments)
        )
    return PageReport(url=url, query=query.raw, segment_records=records,
                      page_score=page_score, flags=flags,
                      segments=segments if cfg.keep_segments else [])


# ── session statistics ──────────────────────────────────────────────


@dataclass(frozen=True)
class SessionStats:
    """Per-session means: segment count, structural score, annotation score."""

    session_id: str
    msc: float
    msss: float
    mcas: float


def _sum_left(values: Iterable[float]) -> float:
    # left to right on every interpreter; builtin sum() is compensated from 3.12 on
    return reduce(add, values, 0.0)


def compute_session_stats(session: Iterable[PageReport], session_id: str = "") -> SessionStats:
    """Means over one browsing session.

    msc averages segment counts per page; msss and mcas average the
    structural and annotation scores over all segments of the session.
    Raises EmptySession for an empty report list.
    """
    reports = list(session)
    if not reports:
        raise EmptySession("session has no page reports")
    segment_count = sum(len(r.segment_records) for r in reports)
    msc = segment_count / len(reports)
    if segment_count == 0:
        return SessionStats(session_id=session_id, msc=0.0, msss=0.0, mcas=0.0)
    msss = _sum_left(rec.delta for r in reports for rec in r.segment_records) / segment_count
    mcas = _sum_left(rec.annotation for r in reports for rec in r.segment_records) / segment_count
    return SessionStats(session_id=session_id, msc=msc, msss=msss, mcas=mcas)


def session_stats_csv(stats: Sequence[SessionStats]) -> str:
    """Render session stats as the documented CSV (one row per session)."""
    lines = ["session_id,msc,msss,mcas"]
    for s in stats:
        lines.append(f"{s.session_id},{s.msc!r},{s.msss!r},{s.mcas!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SessionChecksReport:
    """Outcome of checking session stats against reference expectations."""

    msss_mean: float
    mcas_mean: float
    expected_msss: float
    expected_mcas: float
    tolerance: float
    ratio_band: tuple[float, float]
    ratios: tuple[tuple[str, float], ...]   # (session_id, mcas/msss)
    ratio_failures: tuple[str, ...]

    @property
    def means_ok(self) -> bool:
        return (
            abs(self.msss_mean - self.expected_msss) <= self.tolerance
            and abs(self.mcas_mean - self.expected_mcas) <= self.tolerance
        )

    @property
    def ok(self) -> bool:
        return self.means_ok and not self.ratio_failures

    def lines(self) -> list[str]:
        lo, hi = self.ratio_band
        out = [
            f"msss mean {self.msss_mean:.4f} vs expected {self.expected_msss} "
            f"(tolerance {self.tolerance}): {'ok' if abs(self.msss_mean - self.expected_msss) <= self.tolerance else 'FAIL'}",
            f"mcas mean {self.mcas_mean:.4f} vs expected {self.expected_mcas} "
            f"(tolerance {self.tolerance}): {'ok' if abs(self.mcas_mean - self.expected_mcas) <= self.tolerance else 'FAIL'}",
            f"mcas/msss ratios within [{lo}, {hi}]: "
            + ("ok" if not self.ratio_failures else "FAIL for sessions " + ", ".join(self.ratio_failures)),
        ]
        return out


def reference_table_checks(
    stats: Sequence[SessionStats],
    *,
    expected_msss: float = 11.87,
    expected_mcas: float = 8.91,
    tolerance: float = 0.01,
    ratio_band: tuple[float, float] = (0.74, 0.76),
) -> SessionChecksReport:
    """Check a table of session stats against the reference statistics.

    Verifies the column means of msss and mcas at the given tolerance and
    that every session's mcas/msss ratio stays inside the band (the two
    scores tracking each other proportionally).  Sessions with msss 0
    fail the ratio check by definition.
    """
    if not stats:
        raise EmptySession("no session stats to check")
    msss_mean = _sum_left(s.msss for s in stats) / len(stats)
    mcas_mean = _sum_left(s.mcas for s in stats) / len(stats)
    lo, hi = ratio_band
    ratios: list[tuple[str, float]] = []
    failures: list[str] = []
    for s in stats:
        ratio = s.mcas / s.msss if s.msss else float("inf")
        ratios.append((s.session_id, ratio))
        if not lo <= ratio <= hi:
            failures.append(s.session_id)
    return SessionChecksReport(
        msss_mean=msss_mean,
        mcas_mean=mcas_mean,
        expected_msss=expected_msss,
        expected_mcas=expected_mcas,
        tolerance=tolerance,
        ratio_band=ratio_band,
        ratios=tuple(ratios),
        ratio_failures=tuple(failures),
    )
