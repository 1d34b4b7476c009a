"""Command line interface: segment | score | annotate | session-stats.

Inputs may be local file paths or http(s) URLs.  Exit code 0 covers
successful runs including degraded ones (flags say what was skipped);
exit code 2 covers usage, IO and parse failures, each reported as a
one-line diagnostic on stderr naming the offending path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .annotations import (
    Gazetteer,
    GazetteerProvider,
    RemoteProvider,
    ReplayProvider,
    annotate_texts,
)
from .dom import DomNode, parse_html
from .errors import EmptyPage, SegscoreError, decode_json, finite
from .pipeline import (
    PageReport,
    ScoreConfig,
    SessionStats,
    _effective_segmentation,
    compute_session_stats,
    page_report_from_json,
    reference_table_checks,
    score_page,
    session_stats_csv,
)
from .reports import score_report_html, segment_boundary_html
from .scoring import DimensionCoefficients, Vmwt
from .segmenter import Segment, segment_page, segments_to_json
from .stores import Profile, SnapshotStore, load_profile
from .terms import Query

EXIT_OK = 0
EXIT_FAILURE = 2

ENDPOINT_ENV = "SEGSCORE_ENDPOINT"
FETCH_TIMEOUT = 30.0
FETCH_MAX_BYTES = 64 * 1024 * 1024  # larger HTTP bodies are refused, not read


class CliError(Exception):
    """Fatal CLI problem; message is printed as the one-line diagnostic."""


def _read_input(source: str) -> bytes:
    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen  # only URL input pays for importing it

        try:
            with urlopen(source, timeout=FETCH_TIMEOUT) as response:
                body = response.read(FETCH_MAX_BYTES + 1)
        except OSError as exc:  # urllib.error.URLError included
            raise CliError(f"cannot fetch {source}: {exc}") from exc
        if len(body) > FETCH_MAX_BYTES:
            raise CliError(f"cannot fetch {source}: body exceeds {FETCH_MAX_BYTES} bytes")
        return body
    try:
        return Path(source).read_bytes()
    except OSError as exc:
        raise CliError(f"cannot read {source}: {exc}") from exc


def _load_config(loader, path: str, what: str):
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load {what} from {path}: {exc}") from exc


def _build_provider(args: argparse.Namespace):
    name = args.provider
    if name == "none":
        return None
    if name == "gazetteer":
        if not args.gazetteer:
            raise CliError("--provider gazetteer requires --gazetteer FILE")
        return GazetteerProvider(_load_config(Gazetteer.from_file, args.gazetteer, "gazetteer"))
    if name == "replay":
        if not args.fixtures:
            raise CliError("--provider replay requires --fixtures FILE")
        return _load_config(ReplayProvider.from_file, args.fixtures, "replay fixtures")
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise CliError(f"--provider remote requires --endpoint URL or ${ENDPOINT_ENV}")
    try:
        return RemoteProvider(endpoint)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, "utf-8")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a score overflowed to inf
        raise CliError(f"cannot write JSON output: {exc}") from exc


def _vmwt_from(args: argparse.Namespace) -> Vmwt:
    if getattr(args, "vmwt", None):
        return _load_config(Vmwt.from_file, args.vmwt, "visual markup weights")
    return Vmwt()


def _page_segments(args: argparse.Namespace, if_empty: str) -> tuple[DomNode, list[Segment]]:
    """The input page and its segments, cut as ``score`` cuts them."""
    dom = parse_html(_read_input(args.input))
    segmentation = _effective_segmentation(ScoreConfig(vmwt=_vmwt_from(args)))
    try:
        return dom, segment_page(dom, segmentation)
    except EmptyPage:
        print(f"segscore: page body has no visible text; {if_empty}", file=sys.stderr)
        return dom, []


# ── subcommands ─────────────────────────────────────────────────────


def cmd_segment(args: argparse.Namespace) -> int:
    dom, segments = _page_segments(args, "segment list is empty")
    if args.format == "html":
        _emit(segment_boundary_html(dom, segments), args.out)
    else:
        _emit(_dump_json(segments_to_json(args.input, segments)), args.out)
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    if not args.query.strip():
        raise CliError("--query must not be empty")
    profile = load_profile(args.profile) if args.profile else Profile()
    vmwt = _vmwt_from(args)
    coeffs = (_load_config(DimensionCoefficients.from_file, args.coeffs, "coefficients")
              if args.coeffs else DimensionCoefficients())
    config = ScoreConfig(
        vmwt=vmwt,
        coefficients=coeffs,
        provider=_build_provider(args),
        snapshot_store=SnapshotStore(args.snapshots) if args.snapshots else None,
        keep_segments=args.format == "html",
    )
    data = _read_input(args.input)
    query = Query.parse(args.query)
    try:
        report = score_page(data, args.input, query, profile, config)
    except EmptyPage:
        report = PageReport(url=args.input, query=args.query, segment_records=[],
                            page_score=0.0, flags=["empty page: no visible body text"])
        print("segscore: page body has no visible text; report is empty",
              file=sys.stderr)
    if args.format == "html":
        _emit(score_report_html(report, report.segments), args.out)
    else:
        _emit(_dump_json(report.to_json_dict()), args.out)
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    provider = _build_provider(args)
    if provider is None:
        raise CliError("annotate needs a real provider, not --provider none")
    _, segments = _page_segments(args, "nothing to annotate")
    listing = [{"segment_id": seg.id, "entities": []} for seg in segments]
    wanted = [i for i, seg in enumerate(segments) if seg.text.strip()]
    for i, outcome in zip(wanted, annotate_texts(provider, [segments[i].text for i in wanted],
                                                 tokens=[segments[i].tokens for i in wanted])):
        if isinstance(outcome, Exception):
            listing[i]["error"] = str(outcome)
        else:
            listing[i]["entities"] = [{"category": e.category, "name": e.name,
                                       "relevance": e.relevance} for e in outcome]
    payload = {"v": 1, "url": args.input, "provider": provider.provider_id,
               "annotations": listing}
    _emit(_dump_json(payload), args.out)
    return EXIT_OK


def _load_reference_csv(path: str) -> list[SessionStats]:
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    columns = ("msc", "msss", "mcas")  # SessionStats fields after session_id
    if reader.fieldnames is None or not {"session_id", *columns} <= set(reader.fieldnames):
        raise CliError(f"{path}: expected CSV header session_id,msc,msss,mcas")
    try:
        stats = [SessionStats(row["session_id"], *(finite(float(row[c]), c) for c in columns))
                 for row in reader]
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: bad session stats row: {exc}") from exc
    if not stats:
        raise CliError(f"{path}: no session rows")
    return stats


def cmd_session_stats(args: argparse.Namespace) -> int:
    if not args.reports and not args.reference:
        raise CliError("give a reports directory, a reference CSV, or both")
    if args.reports:
        directory = Path(args.reports)
        if not directory.is_dir():
            raise CliError(f"not a directory: {directory}")
        files = sorted(directory.glob("*.json"))
        if not files:
            raise CliError(f"no page report files in {directory}")
        groups: dict[str, list[PageReport]] = {}
        for file in files:
            try:
                report = page_report_from_json(decode_json(file.read_text("utf-8"), file))
            except (OSError, ValueError) as exc:
                raise CliError(f"cannot load page report {file}: {exc}") from exc
            session_id = file.stem.split("__", 1)[0]
            groups.setdefault(session_id, []).append(report)
        stats = [compute_session_stats(reports, session_id=sid)
                 for sid, reports in sorted(groups.items())]
        try:  # finite scores can still sum past the float range
            for s in stats:
                finite(s.msss, f"msss of session {s.session_id}")
                finite(s.mcas, f"mcas of session {s.session_id}")
        except ValueError as exc:
            raise CliError(f"cannot write session stats: {exc}") from exc
        _emit(session_stats_csv(stats), args.out)
    if args.reference:
        checks = reference_table_checks(_load_reference_csv(args.reference))
        try:  # finite cells can still sum past the float range
            finite(checks.msss_mean, "msss mean")
            finite(checks.mcas_mean, "mcas mean")
        except ValueError as exc:
            raise CliError(f"cannot check {args.reference}: {exc}") from exc
        for line in checks.lines():
            print(line, file=sys.stderr)
    return EXIT_OK


# ── parser ──────────────────────────────────────────────────────────


def _provider_flags(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--provider", choices=("none", "gazetteer", "replay", "remote"),
                     default=default, help="annotation provider to use")
    sub.add_argument("--gazetteer", metavar="PATH", help="gazetteer JSON file")
    sub.add_argument("--fixtures", metavar="PATH", help="replay fixtures JSON file")
    sub.add_argument("--endpoint", metavar="URL",
                     help=f"remote annotation endpoint (or ${ENDPOINT_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segscore",
        description="Segment web pages and score them against a query and profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="partition a page into segments")
    seg.add_argument("input", help="HTML file path or http(s) URL")
    seg.add_argument("--vmwt", metavar="PATH", help="visual markup weight table JSON")
    seg.add_argument("--format", choices=("json", "html"), default="json")
    seg.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    seg.set_defaults(func=cmd_segment)

    score = sub.add_parser("score", help="score a page against a query and profile")
    score.add_argument("input", help="HTML file path or http(s) URL")
    score.add_argument("--query", required=True, help="search query text")
    score.add_argument("--profile", metavar="PATH", help="profile JSON file")
    score.add_argument("--snapshots", metavar="DIR", help="snapshot store directory")
    score.add_argument("--vmwt", metavar="PATH", help="visual markup weight table JSON")
    score.add_argument("--coeffs", metavar="PATH", help="dimension coefficients JSON")
    _provider_flags(score, default="none")
    score.add_argument("--format", choices=("json", "html"), default="json")
    score.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    score.set_defaults(func=cmd_score)

    ann = sub.add_parser("annotate", help="list entity annotations per segment")
    ann.add_argument("input", help="HTML file path or http(s) URL")
    _provider_flags(ann, default="gazetteer")
    ann.add_argument("--format", choices=("json",), default="json")
    ann.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    ann.set_defaults(func=cmd_annotate)

    sess = sub.add_parser("session-stats",
                          help="aggregate page reports into per-session statistics")
    sess.add_argument("reports", nargs="?",
                      help="directory of page report JSON files named <session>__*.json")
    sess.add_argument("--reference", "--table1", dest="reference", metavar="PATH",
                      help="check a reference session-statistics CSV "
                           "(columns session_id,msc,msss,mcas)")
    sess.add_argument("--format", choices=("csv",), default="csv")
    sess.add_argument("--out", metavar="PATH", help="write the CSV here instead of stdout")
    sess.set_defaults(func=cmd_session_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        code = exc.code if isinstance(exc.code, int) else EXIT_FAILURE
        return code
    try:
        return args.func(args)
    except (CliError, SegscoreError) as exc:
        print(f"segscore: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
