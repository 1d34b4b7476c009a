"""One benchmark run: set-up, correctness checks, then a timed or traced loop.

Each workload is a closed loop: one caller scores the workload's cycle
of page visits back to back in one process, starting every cycle with a
fresh snapshot store.  The timed loop (``--trace 0``) calls only public
entry points: ``score_page``, ``PageReport.to_json_dict`` (through the
CLI's JSON serialization), ``compute_session_stats`` and the
provider/store/config constructors.  The traced loop (``--trace 1``)
runs ``score_page`` untraced without writing a snapshot, then replays
the page through the mirror in tracing.py, which writes it.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import traceback
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import workloads
from checks import (
    additivity_violations,
    oracle_violations,
    provider_failed,
    serialize,
    text_sha,
)
from segscore import (
    DimensionCoefficients,
    Gazetteer,
    GazetteerProvider,
    Profile,
    Query,
    RemoteProvider,
    ScoreConfig,
    SessionStats,
    SnapshotStore,
    compute_session_stats,
    load_profile,
    score_page,
)
from segscore.dom import iter_nodes
from stub import StubAnnotator
from tracing import Tracer, mirror_score_page, scaling_probes, self_times

END_TO_END_UNITS = {
    "pages_per_s": "pages/s",
    "page_ms_p50": "ms",
    "page_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_page_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "dom.parse_ms": "ms",
    "dom.nodes": "count",
    "segmenter.segment_ms": "ms",
    "segmenter.segments": "count",
    "segmenter.tokens": "count",
    "scoring.structural_ms": "ms",
    "annotations.annotate_ms": "ms",
    "annotations.calls": "count",
    "annotations.entities": "count",
    "annotations.gazetteer_phrases": "count",
    "annotations.remote.requests": "count",
    "annotations.remote.requests_per_call": "ratio",
    "annotations.remote.server_ms": "ms",
    "annotations.remote.wait_ms": "ms",
    "stores.read_ms": "ms",
    "stores.write_ms": "ms",
    "stores.bytes_written": "B",
    "stores.visits_per_url": "count",
    "stores.match_ms": "ms",
    "stores.match.fingerprint": "count",
    "stores.match.jaccard": "count",
    "stores.match.none": "count",
    "pipeline.self_ms": "ms",
    "pipeline.session_stats_ms": "ms",
    "trace.overhead_pct": "%",
    "scale.dom.parse_x2": "x",
    "scale.segmenter.depth_x2": "x",
    "scale.annotations.gazetteer_x2": "x",
    "scale.stores.match_x2": "x",
    "share.dom": "%",
    "share.segmenter": "%",
    "share.scoring": "%",
    "share.annotations": "%",
    "share.annotations.remote": "%",
    "share.stores.io": "%",
    "share.stores.match": "%",
    "share.pipeline": "%",
}

# Mirror spans that score_page also runs (it writes no snapshot when traced).
SCORE_PAGE_SPANS = (
    "dom.parse_html", "dom.page_title_tokens", "segmenter.segment_page",
    "stores.latest_snapshot", "stores.match_prior_segment",
    "scoring.structural_score", "annotations.annotate", "annotations.annotation_score",
)
# A timed run scores at least this many pages, so that at least ten
# samples lie beyond the 90th percentile; smoke and traced runs need fewer.
P90_SAMPLES = 100
MIN_SAMPLES = 10
SLICES = 5
SETUP_REPS = 11  # set-ups timed at the start of every slice


@dataclass
class Context:
    wl: workloads.Workload
    query: Query
    profile: Profile
    cfg: ScoreConfig
    gazetteer_phrases: int
    work: Path
    stub: StubAnnotator | None
    problems: list[str] = field(default_factory=list)

    def config_for(self, tag: str) -> ScoreConfig:
        """The config with a fresh snapshot store, so a cycle starts at first visits."""
        if self.cfg.snapshot_store is None:
            return self.cfg
        return replace(self.cfg, snapshot_store=SnapshotStore(self.work / f"store-{tag}"))

    def start_visit(self, index: int) -> None:
        if self.stub is not None:
            self.stub.new_visit(outage=index in self.wl.outage_visits)

    def url(self, visit: workloads.Visit) -> str:
        return self.wl.url_base + visit.page

    def canonical(self, text: str) -> str:
        """Report text without the run's loopback port."""
        return text if self.stub is None else text.replace(self.stub.endpoint, "<endpoint>")


@dataclass
class Reference:
    shas: list[str]                 # per visit: sha256 of the serialized report
    stats: dict[int, SessionStats]  # per session
    digest: str                     # sha256 over every canonical report and stat


# ── set-up ──────────────────────────────────────────────────────────


def build_objects(wl: workloads.Workload, work: Path, endpoint: str | None):
    """Program objects built from the input files; timed as setup_s."""
    query = Query.parse(workloads.QUERY)
    profile = load_profile(wl.profile_path)
    coeffs = DimensionCoefficients.from_file(wl.coeffs_path)
    phrases = 0
    provider = None
    if wl.remote:
        provider = RemoteProvider(endpoint, timeout=5.0, backoff=wl.sizes["backoff_s"])
    elif wl.gazetteer_path is not None:
        gazetteer = Gazetteer.from_file(wl.gazetteer_path)
        phrases = len(gazetteer)
        provider = GazetteerProvider(gazetteer)
    store = SnapshotStore(work / "store") if wl.uses_store else None
    cfg = ScoreConfig(coefficients=coeffs, provider=provider, snapshot_store=store)
    return query, profile, cfg, phrases


def setup_batch(wl: workloads.Workload, work: Path, endpoint: str | None):
    """SETUP_REPS timed set-ups; returns their times and the last objects."""
    times: list[float] = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        objects = build_objects(wl, work, endpoint)
        times.append(perf_counter() - t0)
    return times, objects


# ── reference pass and loops ────────────────────────────────────────


def session_ends(visits: list[workloads.Visit]) -> set[int]:
    return {i for i, v in enumerate(visits)
            if i + 1 == len(visits) or visits[i + 1].session != v.session}


def reference_pass(ctx: Context) -> Reference:
    """Score one cycle outside any timing; later cycles must repeat it byte for byte."""
    cfg = ctx.config_for("ref")
    ends = session_ends(ctx.wl.visits)
    digest = sha256()
    shas: list[str] = []
    stats: dict[int, SessionStats] = {}
    session = []
    for index, visit in enumerate(ctx.wl.visits):
        ctx.start_visit(index)
        report = score_page(visit.html, ctx.url(visit), ctx.query, ctx.profile, cfg)
        text = serialize(report)
        shas.append(text_sha(text))
        digest.update(ctx.canonical(text).encode("utf-8"))
        ctx.problems += additivity_violations(report, visit.page)
        session.append(report)
        if index in ends:
            stats[visit.session] = compute_session_stats(session, str(visit.session))
            digest.update(repr(stats[visit.session]).encode("utf-8"))
            session = []
    return Reference(shas, stats, digest.hexdigest())


def timed_loop(ctx: Context, ref: Reference, seconds: float, min_samples: int,
               setup) -> tuple[dict, int, int]:
    """Score the cycle back to back for at least ``seconds``, in slices.

    A slice is whole cycles lasting at least ``seconds / SLICES``, so every
    slice holds the same mix of pages.  Rates and percentiles are taken
    per slice and their median reported, so a burst of load from outside
    the process moves at most a minority of slices.  ``setup`` times a batch
    of set-ups at the start of every slice, outside the slice's clock, so
    setup_s samples the whole run.
    """
    visits = ctx.wl.visits
    ends = session_ends(visits)
    slice_s = seconds / SLICES
    slices: list[tuple[float, list[float]]] = []  # (slice seconds, page seconds)
    setup_times: list[float] = []
    measured = 0.0
    scored = attempted = failed = degraded = 0
    slice_start = None
    cycle = 0
    while measured < seconds or scored < min_samples:
        if slice_start is None:
            setup_times += setup()
            samples: list[float] = []
            slice_start = perf_counter()
        cfg = ctx.config_for(f"c{cycle}")
        session = []
        for index, visit in enumerate(visits):
            ctx.start_visit(index)
            attempted += 1
            t0 = perf_counter()
            try:
                report = score_page(visit.html, ctx.url(visit), ctx.query, ctx.profile, cfg)
            except Exception:  # counted as a failed page; the run is marked incorrect
                failed += 1
                ctx.problems.append(f"{visit.page}: score_page raised\n{traceback.format_exc()}")
                continue
            samples.append(perf_counter() - t0)
            if text_sha(serialize(report)) != ref.shas[index]:
                failed += 1
                ctx.problems.append(f"{visit.page}: report differs from the reference pass")
            ctx.problems += additivity_violations(report, visit.page)
            degraded += provider_failed(report)
            session.append(report)
            if index in ends:
                if compute_session_stats(session, str(visit.session)) != ref.stats[visit.session]:
                    ctx.problems.append(f"session {visit.session}: stats differ from the reference")
                session = []
        cycle += 1
        elapsed = perf_counter() - slice_start
        if elapsed >= slice_s:
            slices.append((elapsed, samples))
            measured += elapsed
            scored += len(samples)
            slice_start = None
    slices = [(s, samples) for s, samples in slices if len(samples) > 1]
    metrics = {
        "pages_per_s": statistics.median(len(samples) / s for s, samples in slices),
        "page_ms_p50": 1000 * statistics.median(statistics.median(samples) for _, samples in slices),
        "page_ms_p90": 1000 * statistics.median(
            statistics.quantiles(samples, n=10)[8] for _, samples in slices),
        "setup_s": statistics.median(setup_times),
        "ok_page_ratio": (attempted - failed - degraded) / attempted,
    }
    return metrics, attempted, failed


def traced_loop(ctx: Context, ref: Reference, seconds: float, spans_path: Path) -> tuple[dict, int, int]:
    visits = ctx.wl.visits
    ends = session_ends(visits)
    tracer = Tracer()
    counts: Counter = Counter()
    pages = failed = 0
    cycle = 0
    running = True
    deadline = perf_counter() + seconds
    while running:
        cfg = ctx.config_for(f"t{cycle}")
        quiet = replace(cfg, write_snapshot=False)
        session = []
        for index, visit in enumerate(visits):
            url = ctx.url(visit)
            tracer.page = pages
            ctx.start_visit(index)
            with tracer.span("pipeline.score_page"):
                report = score_page(visit.html, url, ctx.query, ctx.profile, quiet)
            ctx.start_visit(index)  # the mirror meets the same stub faults
            before = ctx.stub.counters() if ctx.stub else (0, 0.0)
            with tracer.span("pipeline.page"):
                mirrored, dom, segments, written = mirror_score_page(
                    tracer, visit.html, url, ctx.query, ctx.profile, cfg, counts)
            if ctx.stub:
                after = ctx.stub.counters()
                counts["remote.requests"] += after[0] - before[0]
                counts["remote.server_s"] += after[1] - before[1]
            pages += 1
            if mirrored.to_json_dict() != report.to_json_dict():
                failed += 1
                ctx.problems.append(f"{visit.page}: mirrored calls disagree with score_page")
            elif text_sha(serialize(report)) != ref.shas[index]:
                failed += 1
                ctx.problems.append(f"{visit.page}: report differs from the reference pass")
            ctx.problems += additivity_violations(report, visit.page)
            counts["dom.nodes"] += sum(1 for _ in iter_nodes(dom))
            counts["segmenter.segments"] += len(segments)
            counts["segmenter.tokens"] += sum(len(seg.tokens) for seg in segments)
            if written is not None:
                counts["stores.writes"] += 1
                counts["stores.bytes_written"] += written.stat().st_size
                counts["stores.visits"] += sum(1 for _ in written.parent.glob("*.json"))
            session.append(report)
            if index in ends:
                tracer.page = None
                with tracer.span("pipeline.compute_session_stats"):
                    stats = compute_session_stats(session, str(visit.session))
                if stats != ref.stats[visit.session]:
                    ctx.problems.append(f"session {visit.session}: stats differ from the reference")
                session = []
            if perf_counter() >= deadline and pages >= MIN_SAMPLES:
                running = False
                break
        cycle += 1
    spans = tracer.spans
    write_spans(spans, spans_path)
    return layer_metrics(ctx, spans, counts, pages), pages, failed


def write_spans(spans: list, path: Path) -> None:
    origin = spans[0][1] if spans else 0.0
    with path.open("w", encoding="utf-8") as handle:
        for name, start, end, parent, page in spans:
            handle.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                     "parent": parent, "page": page}) + "\n")


def layer_metrics(ctx: Context, spans: list, counts: Counter, pages: int) -> dict:
    """Reduce spans to per-page self times and counts (means per page)."""
    self_s = self_times(spans)
    durations: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, _, _ in spans:
        durations[name] += end - start
        calls[name] += 1

    def ms(*names: str) -> float:
        return 1000 * sum(self_s[n] for n in names) / pages

    remote = ctx.wl.remote
    ann_calls = counts["annotations.calls"]
    annotate_s = self_s["annotations.annotate"]
    score_page_s = durations["pipeline.score_page"]
    metrics = {
        "dom.parse_ms": ms("dom.parse_html", "dom.page_title_tokens"),
        "dom.nodes": counts["dom.nodes"] / pages,
        "segmenter.segment_ms": ms("segmenter.segment_page"),
        "segmenter.segments": counts["segmenter.segments"] / pages,
        "segmenter.tokens": counts["segmenter.tokens"] / pages,
        "scoring.structural_ms": ms("scoring.structural_score"),
        "annotations.annotate_ms": ms("annotations.annotate", "annotations.annotation_score"),
        "annotations.calls": ann_calls / pages,
        "annotations.entities": counts["annotations.entities"] / pages,
        "annotations.gazetteer_phrases": ann_calls * ctx.gazetteer_phrases / pages,
        "annotations.remote.requests": counts["remote.requests"] / pages,
        "annotations.remote.requests_per_call":
            counts["remote.requests"] / ann_calls if remote and ann_calls else 0.0,
        "annotations.remote.server_ms": 1000 * counts["remote.server_s"] / pages,
        "annotations.remote.wait_ms":
            1000 * (annotate_s - counts["remote.server_s"]) / pages if remote else 0.0,
        "stores.read_ms": ms("stores.latest_snapshot"),
        "stores.write_ms": ms("stores.put_snapshot"),
        "stores.bytes_written": counts["stores.bytes_written"] / pages,
        "stores.visits_per_url":
            counts["stores.visits"] / counts["stores.writes"] if counts["stores.writes"] else 0.0,
        "stores.match_ms": ms("stores.match_prior_segment"),
        "stores.match.fingerprint": counts["match.fingerprint"] / pages,
        "stores.match.jaccard": counts["match.jaccard"] / pages,
        "stores.match.none": counts["match.none"] / pages,
        # score_page's wall time not covered by the layer calls it makes:
        # pool start-up and contention (negative when the pool overlaps I/O)
        "pipeline.self_ms": 1000 * (score_page_s - sum(self_s[n] for n in SCORE_PAGE_SPANS)) / pages,
        "pipeline.session_stats_ms": 1000 * durations["pipeline.compute_session_stats"]
                                     / max(1, calls["pipeline.compute_session_stats"]),
        "trace.overhead_pct": 100 * (durations["pipeline.page"] / score_page_s - 1),
    }
    groups = {
        "dom": self_s["dom.parse_html"] + self_s["dom.page_title_tokens"],
        "segmenter": self_s["segmenter.segment_page"],
        "scoring": self_s["scoring.structural_score"],
        "annotations": self_s["annotations.annotation_score"] + (0.0 if remote else annotate_s),
        "annotations.remote": annotate_s if remote else 0.0,
        "stores.io": self_s["stores.latest_snapshot"] + self_s["stores.put_snapshot"],
        "stores.match": self_s["stores.match_prior_segment"],
        "pipeline": self_s["pipeline.page"],
    }
    total = sum(groups.values())
    for name, seconds in groups.items():
        metrics[f"share.{name}"] = 100 * seconds / total
    return metrics


# ── entry point ─────────────────────────────────────────────────────


def run(workload: str, seed: int, seconds: float, trace: bool, work_root: Path,
        smoke: bool = False) -> tuple[dict, list[str], list[str]]:
    """One benchmark run: the result object, the lines to print before it, and
    every correctness problem found (the run is correct when there are none)."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    lines = []
    try:
        wl = workloads.build(workload, seed, work, smoke)
        lines.append(f"workload {workload} seed={seed} visits/cycle={len(wl.visits)} "
                     f"sizes={json.dumps(wl.sizes, sort_keys=True)}")
        with ExitStack() as stack:
            stub = None
            if wl.remote:
                stub = stack.enter_context(StubAnnotator(
                    seed, wl.sizes["stub_delay_ms"] / 1000, wl.sizes["fault_one_in"]))
            endpoint = stub.endpoint if stub else None
            objects = setup_batch(wl, work, endpoint)[1]
            ctx = Context(wl, *objects, work=work, stub=stub)
            ctx.problems += oracle_violations(wl.flat_pages, ctx.query, ctx.profile)
            ref = reference_pass(ctx)
            lines.append(f"digest {workload} seed={seed} sha256={ref.digest}")
            if trace:
                spans_path = work_root / f"spans-{workload}-seed{seed}.jsonl"
                metrics, attempted, failed = traced_loop(ctx, ref, seconds, spans_path)
                metrics.update(scaling_probes(seed, smoke))
                largest = max((k for k in metrics if k.startswith("share.")), key=metrics.get)
                lines.append(f"spans written to {spans_path}")
                lines.append(f"largest self-time share: {largest[len('share.'):]}")
                units = PER_LAYER_UNITS
            else:
                metrics, attempted, failed = timed_loop(
                    ctx, ref, seconds, MIN_SAMPLES if smoke else P90_SAMPLES,
                    lambda: setup_batch(wl, work, endpoint)[0])
                metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines += [f"{name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    result = {
        "correct": not ctx.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines, ctx.problems
