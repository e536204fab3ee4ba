"""Command-line interface.

Subcommands:

* ``analyze``: one JSON line per input graph with the derived quantities
  and per-level extendibility certificates.
* ``verify``: run selected properties over a corpus, print a report as a
  single JSON document; exit 1 when any violation is found.
* ``gen``: write a corpus as graph6 lines.
* ``convert``: translate between graph6 and edge-list text.

``analyze``, ``convert`` and ``verify --input`` read graphs through the one
reader verifier.read_graphs: an input that cannot be opened reads
``<path>: <reason>`` and a malformed graph6 or edge-list line, a non-ASCII
byte included, ``<path>:<line>: <reason>``, with "-" for standard input.

Exit codes: 0 clean, 1 property violation found, 2 usage or input error.
The ``cmd_*`` functions return 0 or 1, or raise; ``main`` alone turns an
exception into one stderr line and exit 2, and a stdout closed by its
reader into exit 2 with nothing on stderr.  ``KEXTEND_WORKERS`` caps the
verification worker count, 1 to 256 (default: machine parallelism up to
256); a corpus whose projected serial work stays below the verifier's
pool threshold runs in process whatever the count, and bytes do not
depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Optional

from . import __version__
from .extendibility import GraphFacts
from .graphs import (
    EDGE_LIST_MAX_N,
    GRAPH6_MAX_N,
    Bipartition,
    Graph,
    min_degree,
    to_edge_list,
    to_graph6,
)
from .jsonio import certificate_json, record_json
from .verifier import (
    _MAX_WORKERS,
    PROPERTY_IDS,
    CorpusSpec,
    generate_corpus,
    read_graphs,
    report_json,
    run_corpus,
)

USAGE_ERROR = 2
# no readable graph has a level above (n - 2) / 2 for n <= EDGE_LIST_MAX_N
ANALYZE_KMAX_MAX = (EDGE_LIST_MAX_N - 2) // 2


def analysis_record(g: Graph, kmax: int) -> dict[str, Any]:
    """All analyze fields, each re-derivable from the corresponding library
    call on the same graph."""
    facts = GraphFacts(g)
    record: dict[str, Any] = {
        "graph6": to_graph6(g) if g.n <= GRAPH6_MAX_N else None,
        "n": g.n,
        "edge_count": g.edge_count,
        "connected": facts.connected,
    }
    bp = facts.bipartition
    bipartite = isinstance(bp, Bipartition)
    record["bipartite"] = bipartite
    record["bipartition"] = record_json(bp) if bipartite else None
    record["odd_cycle"] = None if bipartite else record_json(bp)
    record["min_degree"] = min_degree(g) if g.n else None
    record["matching_number"] = facts.matching_number
    record["has_perfect_matching"] = facts.perfect
    kappa, witness = facts.connectivity if g.n else (None, None)
    record["vertex_connectivity"] = kappa
    record["cut_witness"] = record_json(witness)
    record["extendibility_number"] = facts.extendibility_number
    record["certificates"] = [certificate_json(facts.certificate(k))
                              for k in range(kmax + 1)]
    return record


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if args.kmax > ANALYZE_KMAX_MAX:
        raise ValueError(f"kmax must lie in 0..{ANALYZE_KMAX_MAX}")
    for g in read_graphs(args.input, args.format):
        print(json.dumps(analysis_record(g, args.kmax)))
    return 0


def _corpus_spec(args: argparse.Namespace) -> CorpusSpec:
    if args.exhaustive is not None:
        return CorpusSpec(mode="exhaustive", n=args.exhaustive)
    if args.random is not None:
        n, count, seed = args.random
        return CorpusSpec(mode="random", n=n, count=count, seed=seed,
                          edge_probability=args.p)
    return CorpusSpec(mode="external", source=args.input,
                      strict=args.strict)


def _workers() -> int:
    raw = os.environ.get("KEXTEND_WORKERS")
    if raw is None:
        return min(os.cpu_count() or 1, _MAX_WORKERS)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"KEXTEND_WORKERS must be an integer, got {raw!r}")


def cmd_verify(args: argparse.Namespace) -> int:
    properties = (PROPERTY_IDS if args.properties == "all"
                  else tuple(args.properties.split(",")))
    report = run_corpus(_corpus_spec(args), properties, kmax=args.kmax,
                        workers=_workers())
    print(json.dumps(report_json(report, include_timing=args.timing),
                     indent=2))
    return 1 if report.violations else 0


def cmd_gen(args: argparse.Namespace) -> int:
    for g in generate_corpus(_corpus_spec(args)):
        print(to_graph6(g))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    graphs = list(read_graphs(args.input, args.src))
    if args.dst == "g6":
        for g in graphs:
            print(to_graph6(g))
    elif graphs:
        # edge-list documents, blank-line separated when streaming
        print("\n\n".join(to_edge_list(g) for g in graphs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kextend",
        description="Certify k-extendibility of small graphs and verify "
                    "matching-theory properties over corpora.")
    parser.add_argument("--version", action="version",
                        version=f"kextend {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="per-graph quantities and certificates as JSON lines")
    p_analyze.add_argument("input", nargs="?", default="-",
                           help="input file (default: stdin)")
    p_analyze.add_argument("--format", choices=("g6", "edges"), default="g6")
    p_analyze.add_argument("--kmax", type=int, default=3,
                           help="certificate depth (default 3)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser(
        "verify", help="run property verification over a corpus")
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", type=int, metavar="N")
    mode.add_argument("--random", type=int, nargs=3,
                      metavar=("N", "COUNT", "SEED"))
    mode.add_argument("--input", metavar="FILE",
                      help="graph6 stream, one graph per line ('-' for "
                           "stdin)")
    p_verify.add_argument("--properties", default="all",
                          help="comma-separated ids (default: all of "
                               f"{','.join(PROPERTY_IDS)})")
    p_verify.add_argument("--kmax", type=int, default=3)
    p_verify.add_argument("--p", type=float, default=0.5,
                          help="edge probability for random mode")
    p_verify.add_argument("--no-strict", dest="strict", action="store_false",
                          help="skip malformed graph6 lines instead of "
                               "aborting")
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall time in the report (breaks "
                               "byte-for-byte reproducibility)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="emit a corpus as graph6 lines")
    gmode = p_gen.add_mutually_exclusive_group(required=True)
    gmode.add_argument("--exhaustive", type=int, metavar="N")
    gmode.add_argument("--random", type=int, nargs=3,
                       metavar=("N", "COUNT", "SEED"))
    p_gen.add_argument("--p", type=float, default=0.5)
    p_gen.set_defaults(func=cmd_gen, input=None, strict=True)

    p_convert = sub.add_parser("convert",
                               help="translate between graph formats")
    p_convert.add_argument("--from", dest="src", required=True,
                           choices=("g6", "edges"))
    p_convert.add_argument("--to", dest="dst", required=True,
                           choices=("g6", "edges"))
    p_convert.add_argument("input", nargs="?", default="-")
    p_convert.set_defaults(func=cmd_convert)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand; the only place an exception becomes exit 2."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed stdout early is met here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: say nothing, and send the bytes still
        # buffered to the null device so the interpreter's last flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and args.input is not None:
            message = f"{args.input}: {exc.strerror or exc}"
        print(f"kextend {args.command}: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
