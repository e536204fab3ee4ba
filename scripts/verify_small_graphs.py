#!/usr/bin/env python3
"""Run the verification campaign over small-graph corpora.

Usage:
    python scripts/verify_small_graphs.py [--max-n 6] [--random-count 500]
                                          [--kmax 3] [--workers W]

Walks every exhaustive corpus up to --max-n plus seeded random corpora on
8 and 10 vertices, runs all properties, and prints one summary line per
corpus.  Exits 1 if any corpus reports a violation (each property is a
theorem, so a violation means a bug in the implementation) and 2 on a
bad worker count or kmax.
"""

from __future__ import annotations

import argparse
import sys

from kextend import CorpusSpec, run_corpus
from kextend.cli import USAGE_ERROR, _workers
from kextend.verifier import PROPERTY_IDS


def summarize(label, report) -> bool:
    by_prop = ", ".join(
        f"{pid}:{t['holds']}/{t['violated']}/{t['inapplicable']}"
        for pid, t in report.properties.items())
    print(f"{label}: {report.graphs_processed} graphs, "
          f"{len(report.violations)} violations "
          f"({report.wall_time_ms:.0f} ms)")
    print(f"  holds/violated/inapplicable per property: {by_prop}")
    for violation in report.violations:
        print(f"  VIOLATION {violation['property']} on graph "
              f"{violation['graph_index']} ({violation['graph6']}): "
              f"{violation['payload']}")
    return not report.violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--random-count", type=int, default=500)
    parser.add_argument("--kmax", type=int, default=3)
    parser.add_argument("--workers", type=int,
                        help="worker processes (default: KEXTEND_WORKERS, "
                             "else machine parallelism)")
    args = parser.parse_args()
    try:
        clean = campaign(args)
    except ValueError as exc:
        # a bad worker count or kmax, refused before any graph is read
        print(f"verify_small_graphs: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print("RESULT:", "all corpora clean" if clean else "violations found")
    return 0 if clean else 1


def campaign(args: argparse.Namespace) -> bool:
    workers = _workers() if args.workers is None else args.workers
    clean = True
    for n in range(1, args.max_n + 1):
        report = run_corpus(CorpusSpec(mode="exhaustive", n=n),
                            PROPERTY_IDS, kmax=args.kmax, workers=workers)
        clean &= summarize(f"exhaustive n={n}", report)
    for n in (8, 10):
        spec = CorpusSpec(mode="random", n=n, count=args.random_count, seed=n)
        report = run_corpus(spec, PROPERTY_IDS, kmax=args.kmax,
                            workers=workers)
        clean &= summarize(f"random n={n} count={args.random_count} seed={n}",
                           report)
    return clean


if __name__ == "__main__":
    sys.exit(main())
