#!/usr/bin/env python3
"""Benchmark driver for kextend.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the driver runs the workload through the real CLI as a
subprocess (``python3 -m kextend.cli``, with ``src/`` on the path) for about
``S`` seconds, checks every output, and reports the end-to-end metrics.
With ``--trace 1`` it runs a fixed prefix of the same invocations in
process at one worker, twice in fresh child processes: once untraced and
once with every layer function wrapped by ``trace_run.py``, and reports
calls and self time per layer.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it that start with
``#`` are informational (run metadata, per-invocation digests).

Inputs come from ``--seed`` alone: the CLI sees only the generated corpus
arguments or graph6 files.  See README.md for the workloads and why each
was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

KMAX = 3
EDGE_PROBABILITY = 0.5
SETUP_REPEATS = 7
# one invocation never legitimately takes this long; a hung child is killed
CALL_TIMEOUT_S = 150.0

PROPERTY_IDS = ("P21", "P22", "P23", "T31", "T32", "KO", "MONO-EXT")

# Fields of the seed's outputs that the digests cover.  Keys added to the
# reports later are ignored, so only a changed verdict, tally, witness or
# certificate changes a digest.
TALLY_KEYS = ("holds", "violated", "inapplicable")
CORPUS_KEYS = {
    "exhaustive": ("mode", "n"),
    "random": ("mode", "n", "count", "seed", "edge_probability"),
}
RECORD_KEYS = ("graph6", "n", "edge_count", "connected", "bipartite",
               "bipartition", "odd_cycle", "min_degree", "matching_number",
               "has_perfect_matching", "vertex_connectivity", "cut_witness",
               "extendibility_number", "certificates")
CERTIFICATE_KEYS = ("k", "verdict", "reason", "witness", "exhibit")


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``count`` graphs per invocation (exhaustive: derived from ``n``);
    ``tiny_*`` give the smoke-test size; ``trace_calls`` is how many of the
    run's invocations the traced run replays."""

    name: str
    kind: str  # exhaustive | random | analyze
    n: int
    count: int
    properties: tuple[str, ...]
    trace_calls: int
    tiny_n: int
    tiny_count: int


WORKLOADS = {w.name: w for w in (
    Workload("exhaustive-n6", "exhaustive", n=6, count=0,
             properties=PROPERTY_IDS, trace_calls=1, tiny_n=4, tiny_count=0),
    # 48 graphs stay below the pool's chunksize of 64, as a user's small
    # corpus does, so the one-busy-worker behaviour stays visible.
    Workload("monoext-n14", "random", n=14, count=48,
             properties=("MONO-EXT",), trace_calls=5, tiny_n=14,
             tiny_count=3),
    Workload("random-n10", "random", n=10, count=2000,
             properties=PROPERTY_IDS, trace_calls=1, tiny_n=10,
             tiny_count=20),
    Workload("analyze-n12", "analyze", n=12, count=250, properties=(),
             trace_calls=2, tiny_n=12, tiny_count=5),
)}


class CheckError(Exception):
    """An output that fails the benchmark's check."""


@dataclass
class Call:
    """One CLI invocation and what its output must show."""

    argv: list[str]
    graphs: int
    echo: Optional[dict[str, Any]] = None  # verify: expected corpus echo
    inputs: Optional[list[str]] = None  # analyze: graph6 lines fed in
    expected_digest: Optional[str] = None


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    line_times: tuple[float, ...] = ()


# ---------------------------------------------------------------- inputs


def sub_seed(workload: str, seed: int, index: int) -> int:
    """Deterministic 32-bit seed for one invocation of one run."""
    return random.Random(f"{workload}/{seed}/{index}").getrandbits(32)


def random_graph6(n: int, rng: random.Random) -> str:
    """Short-form graph6 of one G(n, 1/2) draw, one draw per vertex pair in
    graph6 bit order.  Written here rather than taken from kextend so the
    inputs do not depend on the code measured."""
    bits = [rng.random() < EDGE_PROBABILITY
            for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    return chr(n + 63) + "".join(
        chr(63 + sum(bit << (5 - i) for i, bit in enumerate(bits[j:j + 6])))
        for j in range(0, len(bits), 6))


def make_call(w: Workload, seed: int, index: int, tiny: bool,
              one_graph: bool = False) -> Call:
    """The index-th invocation of a run; ``one_graph`` gives the set-up
    command, the same command on a one-graph corpus."""
    n = w.tiny_n if tiny else w.n
    count = 1 if one_graph else (w.tiny_count if tiny else w.count)
    s = sub_seed(w.name, seed, index)
    kmax = ["--kmax", str(KMAX)]
    props = ([] if w.properties == PROPERTY_IDS
             else ["--properties", ",".join(w.properties)])
    if w.kind == "exhaustive":
        if one_graph:
            n = 1
        return Call(["verify", "--exhaustive", str(n)] + kmax + props,
                    graphs=1 << (n * (n - 1) // 2),
                    echo={"mode": "exhaustive", "n": n})
    if w.kind == "random":
        return Call(["verify", "--random", str(n), str(count), str(s)]
                    + kmax + props, graphs=count,
                    echo={"mode": "random", "n": n, "count": count,
                          "seed": s, "edge_probability": EDGE_PROBABILITY})
    rng = random.Random(s)
    lines = [random_graph6(n, rng) for _ in range(count)]
    tag = "setup" if one_graph else str(index)
    path = OUT / f"{w.name}-{tag}.g6"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return Call(["analyze", "--kmax", str(KMAX),
                 str(path.relative_to(ROOT))], graphs=count, inputs=lines)


# ---------------------------------------------------------------- checks


def _digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_verify(call: Call, stdout: str) -> str:
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    corpus = report.get("corpus", {})
    echo = {k: corpus.get(k) for k in CORPUS_KEYS[call.echo["mode"]]}
    if echo != call.echo:
        raise CheckError(f"corpus echo {echo} != {call.echo}")
    if report.get("kmax") != KMAX:
        raise CheckError(f"kmax {report.get('kmax')} != {KMAX}")
    processed = report.get("graphs_processed")
    if processed != call.graphs:
        raise CheckError(f"graphs_processed {processed} != {call.graphs}")
    for pid, tally in report.get("properties", {}).items():
        if sum(tally.values()) != processed:
            raise CheckError(f"{pid} tallies do not sum to {processed}")
    if report.get("violations"):
        raise CheckError(f"{len(report['violations'])} violations")
    if report.get("wall_time_ms") is not None:
        raise CheckError("wall_time_ms is not null")
    return _digest({
        "corpus": echo,
        "kmax": report["kmax"],
        "graphs_processed": processed,
        "properties": {pid: {k: t.get(k) for k in TALLY_KEYS}
                       for pid, t in report["properties"].items()},
        "violations": report["violations"],
        "notes": report.get("notes"),
    })


def check_analyze(call: Call, stdout: str) -> str:
    lines = stdout.splitlines()
    if len(lines) != len(call.inputs):
        raise CheckError(f"{len(lines)} records for {len(call.inputs)} "
                         f"graphs")
    canonical = []
    for line, g6 in zip(lines, call.inputs):
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise CheckError(f"record is not JSON: {exc}") from None
        if record.get("graph6") != g6:
            raise CheckError(f"record for {record.get('graph6')!r}, "
                             f"input {g6!r}")
        n, alpha = record.get("n"), record.get("matching_number")
        if record.get("has_perfect_matching") != (2 * alpha == n):
            raise CheckError(f"{g6}: perfect matching flag disagrees with "
                             f"matching number")
        ext = record.get("extendibility_number")
        certs = record.get("certificates") or []
        if [c.get("k") for c in certs] != list(range(KMAX + 1)):
            raise CheckError(f"{g6}: certificate levels are not 0..{KMAX}")
        for c in certs:
            if (c.get("verdict") == "yes") != (ext is not None
                                               and c["k"] <= ext):
                raise CheckError(f"{g6}: level {c['k']} verdict disagrees "
                                 f"with extendibility number {ext}")
        kept = {k: record.get(k) for k in RECORD_KEYS}
        kept["certificates"] = [{k: c.get(k) for k in CERTIFICATE_KEYS}
                                for c in certs]
        canonical.append(kept)
    return _digest(canonical)


def check(call: Call, outcome: Outcome) -> tuple[Optional[str], str]:
    """(digest, problem): the output's digest and why it failed, if it did.
    Fails on a non-zero exit, any stderr output, a structural error, or a
    digest that differs from the pinned one."""
    if outcome.returncode != 0:
        return None, f"exit code {outcome.returncode}"
    if outcome.stderr:
        return None, f"stderr: {outcome.stderr.strip()[:200]}"
    try:
        digest = (check_analyze if call.inputs is not None
                  else check_verify)(call, outcome.stdout)
    except CheckError as exc:
        return None, str(exc)
    if call.expected_digest is not None and digest != call.expected_digest:
        return digest, f"digest {digest[:12]} != pinned " \
                       f"{call.expected_digest[:12]}"
    return digest, ""


def pinned_digests(w: Workload, seed: int, tiny: bool) -> list[str]:
    """Digests pinned for this seed, by invocation index.  An exhaustive
    corpus does not depend on the seed, so its digest holds for all."""
    if tiny or not DIGESTS.exists():
        return []
    table = json.loads(DIGESTS.read_text())["digests"].get(w.name, {})
    return table.get("any" if w.kind == "exhaustive" else str(seed), [])


# ---------------------------------------------------------------- running


def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["KEXTEND_WORKERS"] = str(workers)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_process(cmd: list[str], env: dict[str, str]) -> Outcome:
    """Run one child to completion; time each stdout line as it arrives and
    take the CPU time and peak RSS of the child's whole process tree (the
    CLI reaps its pool workers, so wait4 reports them too)."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err)
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            lines, stamps = [], []
            for line in proc.stdout:
                lines.append(line)
                stamps.append(time.perf_counter())
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Outcome(proc.returncode, b"".join(lines).decode(errors="replace"),
                   stderr, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss, tuple(stamps))


def run_cli(call: Call, workers: int) -> Outcome:
    return run_process([sys.executable, "-m", "kextend.cli", *call.argv],
                       child_env(workers))


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: list[Optional[str]] = []

    def record(self, call: Call, outcome: Outcome) -> None:
        digest, problem = check(call, outcome)
        self.attempted += 1
        self.digests.append(digest)
        if problem:
            self.problems.append(f"{' '.join(call.argv)}: {problem}")


def timed_run(w: Workload, seed: int, seconds: float, tiny: bool,
              workers: int, tally: Tally) -> dict[str, Any]:
    setup = []
    for _ in range(SETUP_REPEATS):
        call = make_call(w, seed, 0, tiny, one_graph=True)
        outcome = run_cli(call, workers)
        tally.record(call, outcome)
        setup.append(outcome.wall_s)

    pins = pinned_digests(w, seed, tiny)
    walls, cpus, rss, gaps = [], [], [], []
    graphs = 0
    while not walls or sum(walls) + statistics.mean(walls) <= seconds:
        index = len(walls)
        call = make_call(w, seed, index, tiny)
        if index < len(pins):
            call.expected_digest = pins[index]
        outcome = run_cli(call, workers)
        tally.record(call, outcome)
        walls.append(outcome.wall_s)
        cpus.append(outcome.cpu_s)
        rss.append(outcome.maxrss_kb)
        graphs += call.graphs
        # the first record also carries interpreter start-up
        stamps = outcome.line_times
        gaps += [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])]

    total = sum(walls)
    if w.kind == "analyze":
        p50, p99 = quantile(gaps, 50), quantile(gaps, 99)
    else:
        # a verify report lists every graph at once, so from outside a
        # graph's time is its share of the invocation's wall time
        p50 = p99 = total * 1000.0 / graphs
    return {
        "metrics": {
            "graphs_per_s": (graphs / total, "graphs/s"),
            "graph_ms_p50": (p50, "ms"),
            "graph_ms_p99": (p99, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_s": (sum(cpus) / len(cpus), "s"),
            "peak_rss_mb": (max(rss) / 1024.0, "MB"),
        },
        "info": {"invocations": len(walls), "graphs": graphs,
                 "latency_samples": len(gaps) if w.kind == "analyze"
                 else graphs,
                 "setup_walls_s": setup, "walls_s": walls, "cpus_s": cpus},
    }


def traced_run(w: Workload, seed: int, tiny: bool,
               tally: Tally) -> dict[str, Any]:
    """Replay the run's first ``trace_calls`` invocations in process at one
    worker: once untraced, then once traced, each in a fresh child."""
    pins = pinned_digests(w, seed, tiny)
    calls = [make_call(w, seed, i, tiny) for i in range(w.trace_calls)]
    for i, call in enumerate(calls):
        if i < len(pins):
            call.expected_digest = pins[i]
    spec = json.dumps([c.argv for c in calls])
    results = {}
    for mode in ("plain", "traced"):
        spans = OUT / f"spans-{w.name}.bin"
        outcome = run_process([sys.executable, str(HERE / "trace_run.py"),
                               mode, str(spans), spec], child_env(1))
        if outcome.returncode != 0 or outcome.stderr:
            raise RuntimeError(f"{mode} trace child failed: "
                               f"{outcome.stderr.strip()[-2000:]}")
        result = json.loads(outcome.stdout.splitlines()[-1])
        for call, out in zip(calls, result["outputs"]):
            tally.record(call, Outcome(out["returncode"], out["stdout"],
                                       out["stderr"]))
        results[mode] = result
    layers = results["traced"]["layers"]
    plain, traced = results["plain"]["wall_s"], results["traced"]["wall_s"]
    layers["trace.plain_s"] = plain
    layers["trace.overhead_s"] = traced - plain
    return {"layers": layers,
            "info": {"invocations": len(calls),
                     "graphs": sum(c.graphs for c in calls),
                     "plain_s": plain, "traced_s": traced,
                     "overhead_share": (traced - plain) / plain,
                     "spans": results["traced"]["span_count"],
                     "missing_functions": results["traced"]["missing"]}}


# ---------------------------------------------------------------- metadata


def git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.exists():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def metadata(seed: int, workers: int) -> dict[str, Any]:
    """Recorded with every run, never gated."""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "kextend_workers": workers, "seed": seed,
            "git_commit": git_commit(), "src_lines": src_lines()}


def layer_metric_units() -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test corpora, digests unchecked")
    parser.add_argument("--pin", type=int, metavar="COUNT",
                        help="store the digests of the first COUNT "
                             "invocations for this seed instead of "
                             "measuring")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kextend" / "cli.py").is_file():
        print(f"perfbench: no kextend sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    workers = os.cpu_count() or 1
    if args.pin:
        return pin(w, args.seed, args.pin)
    tally = Tally()
    print("# meta " + json.dumps({
        "workload": w.name, "size": args.size,
        **metadata(args.seed, 1 if args.trace else workers)}))
    if args.trace:
        result = traced_run(w, args.seed, tiny, tally)
        units = layer_metric_units()
        metrics = {name: {"value": result["layers"].get(name, 0),
                          "unit": unit} for name, unit in units.items()}
    else:
        result = timed_run(w, args.seed, args.seconds, tiny, workers, tally)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
    failed = len(tally.problems)
    print("# run " + json.dumps({**result["info"],
                                 "failed_share": failed / tally.attempted,
                                 "problems": tally.problems[:20],
                                 "digests": tally.digests}))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def pin(w: Workload, seed: int, count: int) -> int:
    """Record the digests of the first ``count`` invocations for a seed
    (exhaustive: one, under "any").  Refuses to pin a failing output."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {
        "digests": {}}
    count = 1 if w.kind == "exhaustive" else max(count, w.trace_calls)
    digests = []
    for index in range(count):
        call = make_call(w, seed, index, tiny=False)
        digest, problem = check(call, run_cli(call, os.cpu_count() or 1))
        if problem:
            print(f"perfbench: not pinning, {problem}", file=sys.stderr)
            return 1
        digests.append(digest)
    key = "any" if w.kind == "exhaustive" else str(seed)
    table["digests"].setdefault(w.name, {})[key] = digests
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} digests for {w.name} seed {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
