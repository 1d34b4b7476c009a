"""Page-scoring benchmark for segscore (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  NAME is one of corpus_session,
large_pages, revisit_churn or remote_annotate.  With ``--trace 0`` the
run reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every correctness check passed, 1 when one failed, and 2 when
the program's sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REQUIRED = ("src/segscore/__init__.py", "tests/genhtml.py", "tests/oracle.py",
            "tests/data/profile.json", "tests/data/coeffs.json", "tests/data/gazetteer.json")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [name for name in REQUIRED if not (REPO / name).is_file()]
    if missing:
        print(f"bench: program sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import harness

    if args.workload not in harness.workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, lines, problems = harness.run(args.workload, args.seed, args.seconds,
                                          bool(args.trace), REPO / ".bench_work", args.smoke)
    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
