"""Acceptance suite: one test per criterion, each printing a PASS line.

Shared corpora are module-scoped fixtures so the heavy runs happen once.
Expected values come from the exhaustive oracles computed in-test, never
from memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest

import kextend
import kextend.cli as cli
from conftest import (
    exhaustive_graphs,
    seeded_random_bipartite,
    seeded_random_graph,
)
from kextend import (
    Bipartition,
    CorpusSpec,
    Matching,
    Report,
    bipartition,
    complete_bipartite,
    cycle_graph,
    extendibility_number,
    extends_to_perfect,
    find_augmenting_path,
    hall_surplus_check,
    has_perfect_matching,
    is_connected,
    is_k_extendible,
    koenig_ore_deficiency,
    matching_number,
    maximum_matching,
    neighborhood,
    path_graph,
    peel,
    run_corpus,
    vertex_connectivity,
)
from kextend.matching import validate_matching
from kextend.oracles import (
    brute_force_deficiency,
    brute_force_matching_number,
    brute_force_maximum_matching,
    brute_force_vertex_connectivity,
)
from kextend.rng import SplitMix64
from kextend.verifier import PROPERTY_IDS

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.json").read_text())
ANALYSIS_SCHEMA = json.loads((SCHEMA_DIR / "analysis.json").read_text())


def announce(num: int, text: str) -> None:
    print(f"\ncriterion {num} ({text}): PASS")


@pytest.fixture(scope="module")
def exhaustive6_report() -> Report:
    return run_corpus(CorpusSpec(mode="exhaustive", n=6), PROPERTY_IDS,
                      kmax=3)


@pytest.fixture(scope="module")
def random_reports() -> dict[int, Report]:
    return {n: run_corpus(CorpusSpec(mode="random", n=n, count=500, seed=n),
                          PROPERTY_IDS, kmax=3) for n in (8, 10)}


def test_criterion_1_matching_oracle_equivalence():
    start = time.perf_counter()
    for g in exhaustive_graphs(6):
        m = maximum_matching(g)
        validate_matching(g, m)
        assert m.size == brute_force_matching_number(g)
    rng = SplitMix64(2024)
    for _ in range(1000):
        g = seeded_random_graph(12, rng)
        assert maximum_matching(g).size == brute_force_matching_number(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
    announce(1, "blossom equals brute force on 2^15 n=6 graphs and 1000 "
                f"random n=12 graphs in {elapsed:.1f}s")


def test_criterion_2_berge_property():
    rng = SplitMix64(60902)
    pairs = 0
    start = time.perf_counter()
    while pairs < 10_000:
        n = 2 + rng.next_below(9)  # n in 2..10
        g = seeded_random_graph(n, rng)
        target = brute_force_matching_number(g)
        candidates = [_random_greedy_matching(g, rng),
                      Matching.of(brute_force_maximum_matching(g))]
        for m in candidates:
            path = find_augmenting_path(g, m)
            if m.size == target:
                assert path is None, (g, m)
            else:
                assert path is not None, (g, m)
                vs = path.vertices
                assert len(vs) % 2 == 0 and len(set(vs)) == len(vs)
            pairs += 1
    elapsed = time.perf_counter() - start
    announce(2, f"augmenting path absent iff maximum on {pairs} pairs "
                f"in {elapsed:.1f}s")


def _random_greedy_matching(g, rng) -> Matching:
    edges = list(g.edges())
    picked = []
    used = 0
    while edges:
        e = edges.pop(rng.next_below(len(edges)))
        pair = 1 << e[0] | 1 << e[1]
        if not used & pair and rng.next_float() < 0.6:
            picked.append(e)
            used |= pair
    return Matching.of(picked)


def test_criterion_3_koenig_ore():
    start = time.perf_counter()
    bipartite_seen = 0
    for g in exhaustive_graphs(6):
        bp = bipartition(g)
        if not isinstance(bp, Bipartition):
            continue
        bipartite_seen += 1
        _check_koenig_ore(g, bp)
    rng = SplitMix64(777)
    for _ in range(500):
        g = seeded_random_bipartite(7, rng)
        _check_koenig_ore(g, Bipartition(tuple(range(7)),
                                         tuple(range(7, 14))))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    announce(3, f"deficiency formula verified on {bipartite_seen} exhaustive "
                f"bipartite graphs and 500 random |X|=|Y|=7 graphs "
                f"in {elapsed:.1f}s")


def _check_koenig_ore(g, bp):
    oracle = brute_force_deficiency(g, bp)
    witness = koenig_ore_deficiency(g, bp)
    assert matching_number(g) == len(bp.x) - oracle
    assert witness.value == oracle
    nbhd = 0
    for v in witness.witness:
        nbhd |= g.adj[v]
    assert len(witness.witness) - nbhd.bit_count() == witness.value


def test_criterion_4_characterization_differential():
    start = time.perf_counter()
    checked = 0
    for g in exhaustive_graphs(6):
        checked += _check_characterization(g, (1, 2, 3))
    for half, seed in ((4, 41), (5, 51), (6, 61)):
        rng = SplitMix64(seed)
        for _ in range(500):
            g = seeded_random_bipartite(half, rng)
            checked += _check_characterization(g, (1, 2, 3))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
    announce(4, f"definitional and Hall-surplus checkers agree on {checked} "
                f"(graph, k) cases in {elapsed:.1f}s")


def _check_characterization(g, levels) -> int:
    if not is_connected(g):
        return 0
    bp = bipartition(g)
    if not isinstance(bp, Bipartition) or len(bp.x) != len(bp.y):
        return 0
    if not has_perfect_matching(g):
        return 0
    checked = 0
    for k in levels:
        if g.n < 2 * k + 2:
            continue
        definitional = is_k_extendible(g, k)
        violator = hall_surplus_check(g, bp, k)
        assert definitional.verdict == (violator is None), (g, k)
        checked += 1
    return checked


def test_criterion_5_connectivity_bound(exhaustive6_report, random_reports):
    assert _count_violations(exhaustive6_report, "T31") == 0
    for rep in random_reports.values():
        assert _count_violations(rep, "T31") == 0
    # independent connectivity cross-check at n <= 10
    start = time.perf_counter()
    for g in exhaustive_graphs(6):
        assert vertex_connectivity(g)[0] == brute_force_vertex_connectivity(g)
    for n in (8, 10):
        rng = SplitMix64(n)
        for _ in range(500):
            g = seeded_random_graph(n, rng)
            assert vertex_connectivity(g)[0] == \
                brute_force_vertex_connectivity(g)
    elapsed = time.perf_counter() - start
    announce(5, "connectivity bound holds with zero violations; max-flow "
                f"connectivity equals brute force (cross-check {elapsed:.1f}s)")


def test_criterion_6_proposition_suites(exhaustive6_report, random_reports,
                                        k44):
    assert exhaustive6_report.graphs_processed == 2 ** 15
    for pid in PROPERTY_IDS:
        assert _count_violations(exhaustive6_report, pid) == 0
    for pid in ("P21", "P22", "P23"):
        for rep in random_reports.values():
            assert _count_violations(rep, pid) == 0
    # spot check: K44 is 3-extendible and every peel leaves a 2-extendible K33
    assert is_k_extendible(k44, 3).verdict
    for e in k44.edges():
        sub, _ = peel(k44, e)
        assert sub == complete_bipartite(3, 3)
        assert is_k_extendible(sub, 2).verdict
    announce(6, "monotonicity, 2-connectivity, and peeling suites show zero "
                "violations; K44 peeling spot check holds")


def _count_violations(report: Report, pid: str) -> int:
    return report.properties[pid]["violated"]


def test_criterion_7_named_instances():
    c4, p4 = cycle_graph(4), path_graph(4)
    k33, k44, c8 = complete_bipartite(3, 3), complete_bipartite(4, 4), \
        cycle_graph(8)
    assert extendibility_number(c4) == 1
    assert extendibility_number(p4) == 0
    blocked = is_k_extendible(p4, 1)
    assert blocked.witness == Matching.of([(1, 2)])
    assert extends_to_perfect(p4, blocked.witness) is None
    assert extendibility_number(k33) == 2
    assert vertex_connectivity(k33)[0] == 3
    assert extendibility_number(k44) == 3
    assert not is_k_extendible(c8, 2).verdict
    violator = hall_surplus_check(c8, bipartition(c8), 2)
    assert violator is not None
    assert violator.neighborhood_size < len(violator.a) + 2
    assert len(neighborhood(c8, violator.a)) == violator.neighborhood_size
    # the canonical violator is the minimum-size one, {0}; the pair {0, 2}
    # violates as well: its neighborhood {1, 3, 7} falls short of 2 + 2
    assert violator.a == (0,)
    assert neighborhood(c8, (0, 2)) == (1, 3, 7)
    assert len(neighborhood(c8, (0, 2))) < 2 + 2
    announce(7, "named instances recomputed: C4 ext 1, P4 ext 0 with witness "
                "{12}, K33 ext 2 and connectivity 3, K44 ext 3, C8 not "
                "2-extendible with verified Hall violators")


def test_criterion_8_determinism_across_runs_and_workers(tmp_path):
    argv = [sys.executable, "-m", "kextend.cli", "verify",
            "--random", "10", "500", "7"]
    # the child runs in tmp_path, so a relative PYTHONPATH would not reach
    # the package; put its absolute source directory first
    src = str(Path(kextend.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = []
    for workers in ("1", "1", "8"):
        env = dict(os.environ, KEXTEND_WORKERS=workers, PYTHONPATH=pythonpath)
        proc = subprocess.run(argv, capture_output=True, env=env,
                              cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    doc = json.loads(outputs[0])
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["violations"] == []
    announce(8, "verify --random 10 500 7 is byte-identical across two runs "
                "and worker counts 1 and 8")


def test_criterion_9_cli_contract(capsys, monkeypatch, tmp_path):
    # exit 0: clean verification
    monkeypatch.setenv("KEXTEND_WORKERS", "1")
    with _stdin("Cl\nCh\nDhc\n") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        assert cli.main(["analyze"]) == 0
    for line in capsys.readouterr().out.strip().splitlines():
        jsonschema.validate(json.loads(line), ANALYSIS_SCHEMA)
    assert cli.main(["verify", "--exhaustive", "4", "--kmax", "2"]) == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), REPORT_SCHEMA)
    # exit 1: violations reported by the harness flip the exit code
    fake = Report(corpus={"mode": "exhaustive", "n": 3}, kmax=1,
                  graphs_processed=1,
                  properties={"T31": {"holds": 0, "violated": 1,
                                      "inapplicable": 0}},
                  violations=({"property": "T31", "graph_index": 0,
                               "graph6": "Bw", "payload": None},),
                  notes=(), version="0.1.0", wall_time_ms=1.0)
    monkeypatch.setattr(cli, "run_corpus", lambda *a, **kw: fake)
    assert cli.main(["verify", "--exhaustive", "3"]) == 1
    jsonschema.validate(json.loads(capsys.readouterr().out), REPORT_SCHEMA)
    monkeypatch.undo()
    # exit 2: usage and parse errors
    monkeypatch.setenv("KEXTEND_WORKERS", "1")
    assert cli.main(["gen", "--exhaustive", "8"]) == 2
    with _stdin("~nope\n") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        assert cli.main(["analyze"]) == 2
    capsys.readouterr()
    announce(9, "exit codes 0/1/2 and JSON schema validation hold on golden "
                "outputs")


def _stdin(text: str):
    """A real temporary file holding ``text``, since "-" is read through
    the standard-input file descriptor."""
    handle = tempfile.TemporaryFile("w+")
    handle.write(text)
    handle.seek(0)
    return handle
