"""Output correctness checks run by every benchmark run.

* additivity (acceptance criterion C3): each segment total equals delta
  plus annotation and the page score equals the sum of totals, at 1e-9,
  and every score is finite;
* oracle agreement (C4): flat-block pages rescored with unit
  coefficients and no store match ``tests/oracle.py:brute_score_page``;
* determinism (C8): a page's serialized report is byte-identical to
  the reference pass's report for the same visit, and the sha256 of
  the reference pass's canonical reports repeats across runs.
"""

from __future__ import annotations

import json
import math
from hashlib import sha256

from workloads import DATA_DIR  # first: it puts tests/ on sys.path for oracle

from oracle import brute_score_page  # noqa: E402
from segscore import (  # noqa: E402
    DimensionCoefficients,
    Gazetteer,
    GazetteerProvider,
    PageReport,
    Profile,
    Query,
    ScoreConfig,
    score_page,
)

TOL = 1e-9
ORACLE_KEYS = ("link", "image", "theme", "visual", "freshness", "profile",
               "delta", "annotation", "total")
PROVIDER_FAILURES = ("annotation provider unavailable", "annotation provider protocol error")


def serialize(report: PageReport) -> str:
    """The report as ``segscore score`` writes it."""
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


def text_sha(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def provider_failed(report: PageReport) -> bool:
    """True when a segment's annotation was lost to the provider."""
    return any(flag.startswith(PROVIDER_FAILURES) for flag in report.flags)


def additivity_violations(report: PageReport, page: str) -> list[str]:
    problems = []
    page_sum = 0.0
    for rec in report.segment_records:
        values = [rec.delta, rec.annotation, rec.total, *rec.dimensions.as_dict().values()]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{page}: segment {rec.segment_id} has a non-finite score")
        if abs(rec.total - (rec.delta + rec.annotation)) > TOL:
            problems.append(f"{page}: segment {rec.segment_id} total != delta + annotation")
        page_sum += rec.total
    if abs(report.page_score - page_sum) > TOL:
        problems.append(f"{page}: page_score != sum of segment totals")
    return problems


def oracle_violations(pages: list[str], query: Query, profile: Profile) -> list[str]:
    """Rescore flat-block pages with unit coefficients and compare to the oracle."""
    phrases = json.loads((DATA_DIR / "gazetteer.json").read_text("utf-8"))
    cfg = ScoreConfig(coefficients=DimensionCoefficients(),
                      provider=GazetteerProvider(Gazetteer(phrases)))
    problems = []
    for index, html in enumerate(pages):
        want = brute_score_page(html, query.raw, dict(profile.terms), phrases)
        report = score_page(html, f"oracle{index}", query, profile, cfg)
        if len(report.segment_records) != len(want["segments"]):
            problems.append(f"oracle page {index}: {len(report.segment_records)} segments, "
                            f"oracle has {len(want['segments'])}")
            continue
        for rec, expected in zip(report.segment_records, want["segments"]):
            got = dict(rec.dimensions.as_dict(), delta=rec.delta,
                       annotation=rec.annotation, total=rec.total)
            for key in ORACLE_KEYS:
                if abs(got[key] - expected[key]) > TOL:
                    problems.append(f"oracle page {index} segment {rec.segment_id}: "
                                    f"{key} {got[key]!r} != {expected[key]!r}")
        if abs(report.page_score - want["page_score"]) > TOL:
            problems.append(f"oracle page {index}: page_score differs from the oracle")
    return problems
