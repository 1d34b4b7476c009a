"""Self-test of the benchmark at smoke sizes.

Checks that every metric named in BENCHMARK.json is printed with its
unit, that the correctness checks fire on tampered reports, that the
reference digest repeats across processes, and that the command fails
cleanly where the program's sources are missing.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
for path in (str(BENCH), str(REPO / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from segscore import Profile, Query, score_page  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))


def smoke_run(workload: str, trace: bool, root: Path, seed: int = 3):
    return harness.run(workload, seed, 0.05, trace, root, smoke=True)


def cli_run(cwd: Path, workload: str, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.05", "--trace", "0", "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_benchmark_json_names_the_workloads_and_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert {m["name"] for m in SPEC["end_to_end"]} == set(harness.END_TO_END_UNITS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(harness.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    result, lines, problems = smoke_run(workload, trace, tmp_path)
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"])
                   for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_tampered_total_fails_the_additivity_check(tmp_path, monkeypatch):
    def tampered(*args, **kwargs):
        report = score_page(*args, **kwargs)
        first = report.segment_records[0]
        report.segment_records[0] = dataclasses.replace(first, total=first.total + 1e-6)
        return report

    monkeypatch.setattr(harness, "score_page", tampered)
    result, _, problems = smoke_run("large_pages", False, tmp_path)
    assert not result["correct"]
    assert any("total != delta + annotation" in p for p in problems)


def test_report_that_changes_between_cycles_is_caught(tmp_path, monkeypatch):
    calls = itertools.count()

    def tampered(*args, **kwargs):
        report = score_page(*args, **kwargs)
        if next(calls) == 5:  # a page after the reference pass; totals stay additive
            first = report.segment_records[0]
            dims = dataclasses.replace(first.dimensions, theme=first.dimensions.theme + 1)
            report.segment_records[0] = dataclasses.replace(first, dimensions=dims)
        return report

    monkeypatch.setattr(harness, "score_page", tampered)
    result, _, problems = smoke_run("revisit_churn", False, tmp_path)
    assert not result["correct"] and result["failed"] == 1
    assert any("differs from the reference pass" in p for p in problems)


def test_oracle_disagreement_is_caught(tmp_path, monkeypatch):
    def tampered(*args, **kwargs):
        report = score_page(*args, **kwargs)
        last = report.segment_records[-1]
        dims = dataclasses.replace(last.dimensions, link=last.dimensions.link + 0.5)
        report.segment_records[-1] = dataclasses.replace(last, dimensions=dims)
        return report

    wl = workloads.build("remote_annotate", 3, tmp_path, smoke=True)
    query = Query.parse(workloads.QUERY)
    profile = Profile(terms={"semantic": 0.8, "ranking": 0.5, "python": 0.3})
    assert checks.oracle_violations(wl.flat_pages, query, profile) == []
    monkeypatch.setattr(checks, "score_page", tampered)
    problems = checks.oracle_violations(wl.flat_pages, query, profile)
    assert problems and all("link" in p for p in problems)


@pytest.mark.parametrize("workload", ["corpus_session", "remote_annotate"])
def test_reference_digest_repeats_across_processes(workload):
    digests = []
    for seed in (5, 5, 6):
        proc = cli_run(REPO, workload, seed)
        assert proc.returncode == 0, proc.stderr
        json.loads(proc.stdout.splitlines()[-1])
        digests += [line.split("sha256=")[1] for line in proc.stdout.splitlines()
                    if line.startswith("digest ")]
    assert len(digests) == 3
    assert digests[0] == digests[1] != digests[2]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = cli_run(tmp_path, "corpus_session", 1)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
