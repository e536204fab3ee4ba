"""Property-verification harness over graph corpora.

Each property is an implication; a graph that fails the hypothesis is
counted ``inapplicable``, never as a pass.  Violations carry re-checkable
payloads in the original graph's labels.  Since every property checked
here is a theorem, any violation on any corpus is an implementation bug;
the harness is a differential test of the whole stack.

Each graph is evaluated once, through one extendibility.GraphFacts that
computes every per-graph fact at most once, P23's G - u - v included;
the properties are pure functions of it, in the PROPERTIES table.

Corpora come in three modes: exhaustive (all labeled graphs on n <= 7
vertices, in increasing order of the upper-triangle edge code), random
(independent G(n, p) draws from the SplitMix64 stream, one draw per
vertex pair in sorted order), and external (a graph6 file, one graph per
line, or standard input for "-").  read_graphs is the one reader of graph
input, for the external mode here and for the analyze and convert
subcommands.  corpus_range builds any index range of an exhaustive or
random corpus without the graphs before it: exhaustive graph i is edge
code i, and random graph i starts the stream i * n(n-1)/2 draws in.  Both
modes build a graph from its edge code with one builder, _code_graph; a
random graph's code comes from SplitMix64.next_code, all draws at once.

run_corpus evaluates graphs in process until the corpus's projected
serial work exceeds _POOL_AFTER_S, then hands the rest to a worker pool
in chunks.  The projection counts the process's CPU time, not wall time,
and waits for a tenth of the threshold's worth of it, so neither a stall
nor one slow first graph starts a pool that the corpus does not repay.
A worker builds a range chunk itself (an external chunk is a batch of
_CHUNK graphs the parent has parsed), folds it with the same _fold, and
sends back only its tallies and violations, so no Graph or per-graph
outcome crosses a pipe on a corpus of known size.  Range chunks shrink
as the rest does (guided self-scheduling, _guided), so a large corpus
costs few round trips and the last chunks still even out the workers.
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Any, Callable, Iterable, Iterator, Optional, Union

from . import __version__
from .extendibility import GraphFacts, hall_surplus_check
from .graphs import (
    GRAPH6_MAX_N,
    Bipartition,
    Graph,
    GraphParseError,
    _Record,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .jsonio import certificate_json, matching_json, record_json
from .matching import koenig_ore_deficiency
from .oracles import brute_force_deficiency
from .rng import GAMMA, SEED_MAX, SplitMix64

HOLDS = "holds"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"

ZERO_EXTENDIBLE_NOTE = ("0-extendible is taken to mean: at least 2 vertices, "
                        "connected, and a perfect matching exists")

EXHAUSTIVE_MAX_N = 7

# run_corpus rejects a request for more worker processes than this
_MAX_WORKERS = 256
# an external corpus goes to a worker pool in batches of this many parsed
# graphs; a range corpus's guided chunks fall below it only to spread a
# small corpus over the workers, or at the end of the range
_CHUNK = 64
# projected serial CPU seconds of a corpus beyond which run_corpus hands
# the rest to a worker pool.  On 2 vCPUs (Python 3.11) two workers broke
# even with one at about 0.11 s of serial work (300 G(10, 1/2) graphs, all
# properties).  A projection rests on at least a tenth of this much CPU
# time: over 60 cold 48-graph MONO-EXT G(14, 1/2) corpora it read at most
# 0.13 s, and over 12 cold corpora of 2,000 G(10, 1/2) graphs (all
# properties) 0.34-0.57 s, where one draw at a time and a search for every
# pair cut read 0.50-0.65 s, run side by side on a noisy host
_POOL_AFTER_S = 0.25


class CorpusSpec(_Record):
    _fields = ("mode", "n", "count", "seed", "edge_probability", "source",
               "strict")

    def __init__(self, mode: str,  # exhaustive | random | external
                 n: int = 0, count: int = 0, seed: int = 0,
                 edge_probability: float = 0.5, source: Optional[str] = None,
                 strict: bool = True):
        self.__dict__.update(mode=mode, n=n, count=count, seed=seed,
                             edge_probability=edge_probability,
                             source=source, strict=strict)


class Report(_Record):
    _fields = ("corpus", "kmax", "graphs_processed", "properties",
               "violations", "notes", "version", "wall_time_ms")

    def __init__(self, corpus: dict[str, Any], kmax: int,
                 graphs_processed: int, properties: dict[str, dict[str, int]],
                 violations: tuple[dict[str, Any], ...],
                 notes: tuple[str, ...], version: str, wall_time_ms: float):
        self.__dict__.update(
            corpus=corpus, kmax=kmax, graphs_processed=graphs_processed,
            properties=properties, violations=violations, notes=notes,
            version=version, wall_time_ms=wall_time_ms)


def validate_corpus_spec(spec: CorpusSpec) -> None:
    if spec.mode == "exhaustive":
        if not 0 <= spec.n <= EXHAUSTIVE_MAX_N:
            raise ValueError(
                f"exhaustive mode supports 0 <= n <= {EXHAUSTIVE_MAX_N}")
    elif spec.mode == "random":
        if spec.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if spec.count < 1:
            raise ValueError("random mode needs count >= 1")
        if not 0 <= spec.seed <= SEED_MAX:
            # SplitMix64 keeps a seed's low 64 bits, so a wider one would
            # name another seed's corpus
            raise ValueError(f"seed must lie in 0..{SEED_MAX}")
        if not 0.0 <= spec.edge_probability <= 1.0:
            raise ValueError("edge probability must lie in [0, 1]")
    elif spec.mode == "external":
        if not spec.source:
            raise ValueError("external mode needs a source path")
    else:
        raise ValueError(f"unknown corpus mode {spec.mode!r}")


def random_graph(n: int, rng: SplitMix64, p: float = 0.5) -> Graph:
    """One G(n, p) draw, consuming one rng value per vertex pair in sorted
    order: the edge code whose bit j is set when draw j is below p."""
    return _code_graph(n, rng.next_code(n * (n - 1) // 2, p))


def _code_graph(n: int, code: int) -> Graph:
    """The graph of an edge code: bit j is the j-th vertex pair in sorted
    order."""
    pairs = _pairs(n)
    adj = [0] * n
    while code:
        low = code & -code
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        code ^= low
    return Graph(n, tuple(adj))


@lru_cache(maxsize=8)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs in sorted order; a corpus has one n."""
    return tuple(combinations(range(n), 2))


def generate_corpus(spec: CorpusSpec) -> Iterator[Graph]:
    validate_corpus_spec(spec)
    if spec.mode == "external":
        return read_graphs(spec.source, strict=spec.strict)
    return corpus_range(spec, 0, _corpus_size(spec))


def corpus_range(spec: CorpusSpec, start: int, stop: int) -> Iterator[Graph]:
    """Graphs start..stop-1 of an exhaustive or random corpus, built without
    the graphs before them: exhaustive graph i is edge code i, and random
    graph i starts i * n(n-1)/2 draws into the seed's SplitMix64 stream.
    Both modes build each graph from its edge code."""
    if spec.mode == "exhaustive":
        for code in range(start, stop):
            yield _code_graph(spec.n, code)
        return
    rng = SplitMix64(spec.seed + start * spec.n * (spec.n - 1) // 2 * GAMMA)
    for _ in range(start, stop):
        yield random_graph(spec.n, rng, spec.edge_probability)


def read_graphs(source: str, fmt: str = "g6",
                strict: bool = True) -> Iterator[Graph]:
    """The graphs in the file at ``source``, or on standard input for "-"
    (left open).  Decoded as ASCII with surrogate escapes, so a non-ASCII
    byte reaches the parser, which names it.  In "g6" format each nonblank
    line is one graph, and a malformed line raises GraphParseError
    "SOURCE:LINE: reason", or is skipped when ``strict`` is off; in "edges"
    format the whole stream is one edge-list document, whose errors read
    "SOURCE:LINE: reason" too.  A closed standard input is a ValueError."""
    stdin = source == "-"
    if stdin and sys.stdin is None:
        raise ValueError("standard input is closed")
    with open(sys.stdin.fileno() if stdin else source, "r", encoding="ascii",
              errors="surrogateescape", closefd=not stdin) as handle:
        if fmt == "edges":
            try:
                g = parse_edge_list(handle.read())
            except GraphParseError as exc:
                where = source if exc.line is None else f"{source}:{exc.line}"
                raise GraphParseError(f"{where}: {exc}",
                                      line=exc.line) from exc
            yield g
            return
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield parse_graph6(stripped)
            except GraphParseError as exc:
                if strict:
                    raise GraphParseError(f"{source}:{lineno}: {exc}",
                                          line=lineno) from exc


# (status, detail) of one property on one graph
Outcome = tuple[str, Optional[dict[str, Any]]]
# property -> status -> count
Tallies = dict[str, dict[str, int]]
# (corpus, index of its first graph, its graphs or the index after its
# last, properties, kmax): one worker's chunk
Chunk = tuple[CorpusSpec, int, Union[int, list[Graph]], tuple[str, ...], int]


def _top_level(facts: GraphFacts, kmax: int) -> int:
    """The highest level up to kmax that the size bound admits; every level
    above it is SizeTooSmall."""
    return min(kmax, facts.size_bound)


def _no_extendible_level(first: int, kmax: int) -> Outcome:
    return INAPPLICABLE, {
        "reason": f"not k-extendible for any k in {first}..{kmax}"}


def _monotonicity(facts: GraphFacts, kmax: int) -> Outcome:
    """P21: whenever the graph is k-extendible for some 1 <= k <= kmax, it
    must be (k-1)-extendible too."""
    levels = facts.extendible_levels(kmax)
    if not levels:
        return _no_extendible_level(1, kmax)
    for k in levels:
        prev = facts.certificate(k - 1)
        if not prev.verdict:
            return VIOLATED, {
                "k": k,
                "certificate": certificate_json(facts.certificate(k)),
                "lower_certificate": certificate_json(prev),
            }
    return HOLDS, None


def _one_ext_two_conn(facts: GraphFacts, kmax: int) -> Outcome:
    """P22: a 1-extendible graph must be 2-connected."""
    if not facts.certificate(1).verdict:
        return INAPPLICABLE, {"reason": "not 1-extendible"}
    if facts.is_k_connected(2):
        return HOLDS, None
    kappa, witness = facts.connectivity
    return VIOLATED, {
        "connectivity": kappa,
        "cut_witness": record_json(witness),
    }


def _peeling(facts: GraphFacts, kmax: int) -> Outcome:
    """P23, Yu's lemma: if the graph is k-extendible for some 2 <= k <= kmax,
    removing both ends of any edge leaves a (k-1)-extendible graph."""
    if kmax < 2:
        return INAPPLICABLE, {"reason": "kmax below 2"}
    levels = [k for k in facts.extendible_levels(kmax) if k >= 2]
    if not levels:
        return _no_extendible_level(2, kmax)
    for k in levels:
        for u, v in facts.g.edges():
            sub = facts.peeled_certificate(u, v, k - 1)
            if sub.verdict:
                continue
            return VIOLATED, {
                "k": k,
                "edge": [u, v],
                "peeled_reason": sub.reason,
                "peeled_witness_original_labels":
                    matching_json(sub.witness) if sub.witness else None,
            }
    return HOLDS, None


def _connectivity_bound(facts: GraphFacts, kmax: int) -> Outcome:
    """T31: a k-extendible graph must be (k+1)-connected, 1 <= k <= kmax."""
    levels = facts.extendible_levels(kmax)
    if not levels:
        return _no_extendible_level(1, kmax)
    for k in levels:
        if not facts.is_k_connected(k + 1):
            kappa, witness = facts.connectivity
            return VIOLATED, {
                "k": k,
                "connectivity": kappa,
                "cut_witness": record_json(witness),
            }
    return HOLDS, None


def _bipartite_characterization(facts: GraphFacts, kmax: int) -> Outcome:
    """T32: on connected balanced bipartite graphs with a perfect matching,
    the definitional verdict equals the Hall-surplus verdict at every level
    k <= kmax admitted by the size hypothesis."""
    if not facts.connected:
        return INAPPLICABLE, {"reason": "not connected"}
    bp = facts.bipartition
    if not isinstance(bp, Bipartition):
        return INAPPLICABLE, {"reason": "not bipartite"}
    if len(bp.x) != len(bp.y):
        return INAPPLICABLE, {"reason": "bipartition is unbalanced"}
    if not facts.perfect:
        return INAPPLICABLE, {"reason": "no perfect matching"}
    g = facts.g
    top = _top_level(facts, kmax)
    for k in range(1, top + 1):
        cert = facts.certificate(k)
        violator = hall_surplus_check(g, bp, k)
        if cert.verdict != (violator is None):
            return VIOLATED, {
                "k": k,
                "definitional": certificate_json(cert),
                "hall_violator": record_json(violator),
            }
    if top < 1:
        return INAPPLICABLE, {"reason": f"fewer than 2k+2 vertices for every "
                                        f"k in 1..{kmax}"}
    return HOLDS, None


def _koenig_ore(facts: GraphFacts, kmax: int) -> Outcome:
    """KO: the matching number equals |X| minus the maximum deficiency over
    subsets of X, and the polynomial witness attains that maximum."""
    bp = facts.bipartition
    if not isinstance(bp, Bipartition):
        return INAPPLICABLE, {"reason": "not bipartite"}
    g = facts.g
    oracle_value = brute_force_deficiency(g, bp)
    witness = koenig_ore_deficiency(g, bp)
    alpha = facts.matching_number
    attained = witness_deficiency(g, witness.witness)
    if (alpha != len(bp.x) - oracle_value or witness.value != oracle_value
            or attained != witness.value):
        return VIOLATED, {
            "matching_number": alpha,
            "x_size": len(bp.x),
            "oracle_max_deficiency": oracle_value,
            "witness": record_json(witness),
            "witness_attains": attained,
        }
    return HOLDS, None


def witness_deficiency(g: Graph, s: tuple[int, ...]) -> int:
    nbhd = 0
    for v in s:
        nbhd |= g.adj[v]
    return len(s) - nbhd.bit_count()


def _extendibility_profile(facts: GraphFacts, kmax: int) -> Outcome:
    """MONO-EXT: the passing levels form the prefix 0..ext within the size
    bound (n-2)/2."""
    ext = facts.extendibility_number
    if ext is None:
        return INAPPLICABLE, {"reason": "not 0-extendible"}
    bound = facts.size_bound
    if ext > bound:
        return VIOLATED, {"extendibility_number": ext, "size_bound": bound}
    for k, cert in enumerate(facts.profile):
        if cert.verdict != (k <= ext):
            return VIOLATED, {
                "extendibility_number": ext,
                "k": k,
                "certificate": certificate_json(cert),
            }
    return HOLDS, None


# one pure function per property, in canonical report order
PROPERTIES: dict[str, Callable[[GraphFacts, int], Outcome]] = {
    "P21": _monotonicity,
    "P22": _one_ext_two_conn,
    "P23": _peeling,
    "T31": _connectivity_bound,
    "T32": _bipartite_characterization,
    "KO": _koenig_ore,
    "MONO-EXT": _extendibility_profile,
}
PROPERTY_IDS = tuple(PROPERTIES)


def run_corpus(spec: CorpusSpec, properties: Iterable[str], kmax: int = 3,
               workers: int = 1) -> Report:
    """Run the selected properties over every corpus graph and aggregate.
    Graphs are evaluated in process until the projected serial work (the
    CPU time spent, once it reaches a tenth of _POOL_AFTER_S, scaled to
    the whole corpus when its size is known) exceeds _POOL_AFTER_S; the
    rest goes to a pool of at most ``workers`` processes, in guided
    chunks for an exhaustive or random corpus and in batches of _CHUNK
    parsed graphs for an external one.  Output is independent of the
    worker count and of where each graph ran: chunks are tallied and
    folded in graph order, properties in canonical order."""
    selected = tuple(p for p in PROPERTY_IDS if p in set(properties))
    unknown = set(properties) - set(PROPERTY_IDS)
    if unknown:
        raise ValueError(f"unknown properties {sorted(unknown)}; "
                         f"known: {', '.join(PROPERTY_IDS)}")
    if not selected:
        raise ValueError("property set must not be empty")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"worker count must lie in 1..{_MAX_WORKERS}")
    validate_corpus_spec(spec)
    start = time.perf_counter()
    cpu_start = time.process_time()
    tallies = _new_tallies(selected)
    violations: list[dict[str, Any]] = []
    count = _corpus_size(spec)
    graphs = generate_corpus(spec)

    def in_process() -> Iterator[Graph]:
        for seen, g in enumerate(graphs, start=1):
            yield g
            work = time.process_time() - cpu_start
            if workers == 1 or work < _POOL_AFTER_S / 10:
                continue
            if count is not None:
                work *= count / seen
            if work > _POOL_AFTER_S:
                return

    processed = _fold(in_process(), 0, selected, kmax, tallies, violations)
    if count is None:
        tasks: Iterator[Chunk] = _batches(spec, graphs, processed, selected,
                                          kmax)
    else:
        tasks = ((spec, first, stop, selected, kmax)
                 for first, stop in _guided(processed, count, workers))
    # never more workers than chunks, and no pool for a single chunk
    head = list(islice(tasks, workers))
    if len(head) > 1:
        with _pool(len(head)) as pool:
            results = pool.imap(_chunk, chain(head, tasks))
            processed += _merge(results, tallies, violations)
    else:
        processed += _merge(map(_chunk, head), tallies, violations)
    notes = ()
    if {"P21", "MONO-EXT"} & set(selected):
        notes = (ZERO_EXTENDIBLE_NOTE,)
    wall = (time.perf_counter() - start) * 1000.0
    return Report(
        corpus=_spec_echo(spec),
        kmax=kmax,
        graphs_processed=processed,
        properties=tallies,
        violations=tuple(violations),
        notes=notes,
        version=__version__,
        wall_time_ms=wall,
    )


def _pool(processes: int) -> Any:
    """The one place a worker pool starts."""
    from multiprocessing import Pool
    return Pool(processes)


def _corpus_size(spec: CorpusSpec) -> Optional[int]:
    """Graphs in an exhaustive or random corpus; None for an external one."""
    if spec.mode == "exhaustive":
        return 1 << (spec.n * (spec.n - 1) // 2)
    return spec.count if spec.mode == "random" else None


def _guided(first: int, stop: int, workers: int
            ) -> Iterator[tuple[int, int]]:
    """Graphs first..stop-1 as guided self-scheduling chunks (Polychronopoulos
    and Kuck 1987), each a (first, stop) pair: each chunk is half of one
    worker's share of the graphs not yet handed out, so few round trips
    carry a large corpus, and the tail goes out in small chunks that even
    out the workers' finishing times.  No chunk but the last falls below
    a floor of _CHUNK graphs, or of a quarter of one worker's share of the
    whole range when that is less, so no range has more chunks than it
    would in chunks of that floor."""
    floor = max(1, min(_CHUNK, -(-(stop - first) // (4 * workers))))
    while first < stop:
        remaining = stop - first
        size = min(remaining, max(floor, -(-remaining // (2 * workers))))
        yield first, first + size
        first += size


def _batches(spec: CorpusSpec, graphs: Iterator[Graph], first: int,
             properties: tuple[str, ...], kmax: int) -> Iterator[Chunk]:
    """The rest of an external corpus, in chunks of at most _CHUNK graphs
    parsed here."""
    while batch := list(islice(graphs, _CHUNK)):
        yield spec, first, batch, properties, kmax
        first += len(batch)


def _new_tallies(properties: Iterable[str]) -> Tallies:
    return {pid: {HOLDS: 0, VIOLATED: 0, INAPPLICABLE: 0}
            for pid in properties}


def _fold(graphs: Iterable[Graph], first: int, properties: tuple[str, ...],
          kmax: int, tallies: Tallies,
          violations: list[dict[str, Any]]) -> int:
    """Evaluate each graph once, through one GraphFacts, and tally it; the
    graph at position j of ``graphs`` is corpus graph first + j.  A
    violated graph is echoed as graph6.  Returns the number of graphs."""
    processed = 0
    for g in graphs:
        facts = GraphFacts(g)
        for pid in properties:
            status, detail = PROPERTIES[pid](facts, kmax)
            tallies[pid][status] += 1
            if status == VIOLATED:
                violations.append({
                    "property": pid,
                    "graph_index": first + processed,
                    "graph6": to_graph6(g) if g.n <= GRAPH6_MAX_N else None,
                    "payload": detail,
                })
        processed += 1
    return processed


def _chunk(task: Chunk) -> tuple[int, Tallies, list[dict[str, Any]]]:
    """Evaluate one chunk: (its graph count, tallies, violations).  A range
    chunk is built here from the corpus spec."""
    spec, first, graphs, properties, kmax = task
    if isinstance(graphs, int):
        graphs = corpus_range(spec, first, graphs)
    tallies = _new_tallies(properties)
    violations: list[dict[str, Any]] = []
    processed = _fold(graphs, first, properties, kmax, tallies, violations)
    return processed, tallies, violations


def _merge(results: Iterable[tuple[int, Tallies, list[dict[str, Any]]]],
           tallies: Tallies, violations: list[dict[str, Any]]) -> int:
    """Add chunk results, in corpus order, to the run's tallies and
    violations.  Returns the number of graphs."""
    processed = 0
    for chunk_graphs, chunk_tallies, chunk_violations in results:
        for pid, tally in chunk_tallies.items():
            for status, seen in tally.items():
                tallies[pid][status] += seen
        violations.extend(chunk_violations)
        processed += chunk_graphs
    return processed


def _spec_echo(spec: CorpusSpec) -> dict[str, Any]:
    if spec.mode == "exhaustive":
        return {"mode": spec.mode, "n": spec.n}
    if spec.mode == "random":
        return {"mode": spec.mode, "n": spec.n, "count": spec.count,
                "seed": spec.seed, "edge_probability": spec.edge_probability}
    return {"mode": spec.mode, "source": spec.source, "strict": spec.strict}


def report_json(report: Report, include_timing: bool = False) -> dict[str, Any]:
    """JSON view of a report.  Timing is opted into because byte-identical
    output across runs and worker counts is part of the contract."""
    return {
        "tool": "kextend",
        "version": report.version,
        "corpus": report.corpus,
        "kmax": report.kmax,
        "graphs_processed": report.graphs_processed,
        "properties": {pid: dict(t) for pid, t in report.properties.items()},
        "violations": list(report.violations),
        "notes": list(report.notes),
        "wall_time_ms": report.wall_time_ms if include_timing else None,
    }
