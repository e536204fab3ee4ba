from __future__ import annotations

import gc
import json
from types import SimpleNamespace

import pytest

import kextend.cli as cli
import kextend.extendibility as extendibility
import kextend.verifier as verifier
from conftest import exhaustive_graphs, seeded_random_graph
from kextend import (
    Bipartition,
    CorpusSpec,
    CutWitness,
    DeficiencyWitness,
    GraphParseError,
    HallViolator,
    OddCycle,
    bipartition,
    complete_graph,
    cycle_graph,
    enumerate_matchings,
    extendibility_number,
    from_edges,
    generate_corpus,
    has_perfect_matching,
    is_connected,
    is_k_extendible,
    matching_number,
    path_graph,
    run_corpus,
    to_graph6,
    vertex_connectivity,
)
from kextend.extendibility import ExtendibilityCertificate, GraphFacts
from kextend.jsonio import certificate_json, record_json
from kextend.oracles import brute_force_is_k_extendible
from kextend.rng import SplitMix64
from kextend.verifier import (
    HOLDS,
    INAPPLICABLE,
    PROPERTIES,
    PROPERTY_IDS,
    VIOLATED,
    _MAX_WORKERS,
    _chunk,
    _corpus_size,
    _fold,
    _guided,
    corpus_range,
    report_json,
)


def check(pid, g, kmax=1):
    """(status, detail) of one property table entry on a fresh graph."""
    return PROPERTIES[pid](GraphFacts(g), kmax)


class TestGenerateCorpus:
    def test_exhaustive_counts(self):
        assert sum(1 for _ in generate_corpus(
            CorpusSpec(mode="exhaustive", n=3))) == 8
        assert sum(1 for _ in generate_corpus(
            CorpusSpec(mode="exhaustive", n=4))) == 64

    def test_exhaustive_bound(self):
        with pytest.raises(ValueError):
            list(generate_corpus(CorpusSpec(mode="exhaustive", n=8)))

    def test_random_reproducible(self):
        spec = CorpusSpec(mode="random", n=10, count=50, seed=1)
        first = [to_graph6(g) for g in generate_corpus(spec)]
        second = [to_graph6(g) for g in generate_corpus(spec)]
        assert first == second and len(first) == 50

    def test_random_needs_count(self):
        with pytest.raises(ValueError):
            list(generate_corpus(CorpusSpec(mode="random", n=5, count=0)))

    def test_external_round_trip(self, tmp_path):
        lines = [to_graph6(cycle_graph(n)) for n in (3, 4, 5)]
        path = tmp_path / "corpus.g6"
        path.write_text("\n".join(lines) + "\n")
        spec = CorpusSpec(mode="external", source=str(path))
        assert [to_graph6(g) for g in generate_corpus(spec)] == lines

    def test_external_strict_aborts_with_line(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("A_\n~~~bogus\nA?\n")
        with pytest.raises(GraphParseError) as exc:
            list(generate_corpus(CorpusSpec(mode="external",
                                            source=str(path))))
        assert exc.value.line == 2

    def test_external_lenient_skips(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("A_\n~~~bogus\nA?\n")
        spec = CorpusSpec(mode="external", source=str(path), strict=False)
        assert len(list(generate_corpus(spec))) == 2


class TestPropertyChecks:
    def test_table_order_is_canonical(self):
        assert tuple(PROPERTIES) == PROPERTY_IDS == (
            "P21", "P22", "P23", "T31", "T32", "KO", "MONO-EXT")

    def test_monotonicity(self, c4, k33, k13):
        assert check("P21", c4, 2)[0] == HOLDS
        assert check("P21", k13, 2)[0] == INAPPLICABLE
        assert check("P21", k33, 3)[0] == HOLDS

    def test_one_ext_two_conn(self, c4, c6, p4):
        assert check("P22", c6)[0] == HOLDS
        assert check("P22", p4)[0] == INAPPLICABLE
        assert check("P22", c4)[0] == HOLDS

    def test_peeling(self, k33, k44, c8):
        assert check("P23", k33, 2)[0] == HOLDS
        assert check("P23", c8, 2)[0] == INAPPLICABLE
        assert check("P23", k44, 2)[0] == HOLDS
        assert check("P23", k33, 1) == (INAPPLICABLE,
                                        {"reason": "kmax below 2"})

    @pytest.mark.parametrize("g, reason, witness", [
        # C8 - 0 - 1 is the path 2..7, where (3, 4) strands vertex 2
        (cycle_graph(8), "BlockedMatching", [[3, 4]]),
        # G - 0 - 1 splits into the edges 2-3 and 4-5
        (from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3),
                        (4, 5)]), "Disconnected", None),
        # G - 0 - 1 is the star from 2 to 3, 4 and 5
        (from_edges(6, [(0, 1), (0, 3), (1, 4), (2, 3), (2, 4), (2, 5)]),
         "NoPerfectMatching", None),
    ], ids=["blocked", "disconnected", "no-perfect-matching"])
    def test_peeling_violation_payload(self, g, reason, witness):
        facts = GraphFacts(g)
        facts._certificates[2] = ExtendibilityCertificate(True, 2)
        assert PROPERTIES["P23"](facts, 2) == (VIOLATED, {
            "k": 2,
            "edge": [0, 1],
            "peeled_reason": reason,
            "peeled_witness_original_labels": witness,
        })

    def test_peeling_builds_no_peeled_graph(self, monkeypatch):
        def refuse(g, s):
            raise AssertionError("P23 built G - u - v as a graph")

        monkeypatch.setattr(extendibility, "delete_vertices", refuse)
        spec = CorpusSpec(mode="random", n=10, count=40, seed=16,
                          edge_probability=0.85)
        report = run_corpus(spec, ("P23",), kmax=4, workers=1)
        assert report.violations == ()
        assert report.properties["P23"][HOLDS] > 0

    def test_connectivity_bound(self, k33, c6, p4):
        assert check("T31", k33, 2)[0] == HOLDS
        assert check("T31", c6, 1)[0] == HOLDS
        assert check("T31", p4, 3)[0] == INAPPLICABLE

    def test_bipartite_characterization(self, c8, k44):
        assert check("T32", c8, 2)[0] == HOLDS
        assert check("T32", k44, 3)[0] == HOLDS
        split = from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                               (5, 0), (6, 7)])
        status, detail = check("T32", split, 2)
        assert status == INAPPLICABLE
        assert detail == {"reason": "not connected"}

    def test_koenig_ore(self, k13, c6):
        assert check("KO", k13)[0] == HOLDS
        assert check("KO", c6)[0] == HOLDS
        assert check("KO", cycle_graph(3))[0] == INAPPLICABLE

    def test_extendibility_profile(self, c4, p4):
        assert check("MONO-EXT", c4)[0] == HOLDS
        assert check("MONO-EXT", p4)[0] == HOLDS
        assert check("MONO-EXT", path_graph(3))[0] == INAPPLICABLE

    def test_extendibility_profile_reads_each_level_once(self, monkeypatch,
                                                         k33, c8, p4):
        """MONO-EXT decides every level 0..size_bound outright and asks
        GraphFacts.certificate for each of them once."""
        asked = []
        certificate = GraphFacts.certificate

        def counted(facts, k):
            asked.append(k)
            return certificate(facts, k)

        monkeypatch.setattr(GraphFacts, "certificate", counted)
        for g in (k33, c8, p4, path_graph(3), complete_graph(8)):
            asked.clear()
            facts = GraphFacts(g)
            PROPERTIES["MONO-EXT"](facts, 1)
            assert asked == list(range(facts.size_bound + 1)), g

    def test_extendibility_profile_violation_payload(self, monkeypatch):
        """A level below the extendibility number that fails is reported
        with that number, its level and its certificate."""
        planted = ExtendibilityCertificate(False, 1, reason="BlockedMatching")
        certificate = GraphFacts.certificate
        monkeypatch.setattr(GraphFacts, "certificate", lambda facts, k:
                            planted if k == 1 else certificate(facts, k))
        assert check("MONO-EXT", complete_graph(8)) == (VIOLATED, {
            "extendibility_number": 3,
            "k": 1,
            "certificate": certificate_json(planted),
        })


class TestGraphFacts:
    def test_each_fact_equals_its_library_call(self):
        """Differential check over every graph on at most 5 vertices."""
        for n in range(6):
            for g in exhaustive_graphs(n):
                facts = GraphFacts(g)
                for k in range(4):
                    cert = facts.certificate(k)
                    assert (certificate_json(cert)
                            == certificate_json(is_k_extendible(g, k)))
                    witness = cert.witness.edges if cert.witness else None
                    assert ((cert.verdict, cert.reason, witness)
                            == brute_force_is_k_extendible(g, k)), (g, k)
                assert facts.extendibility_number == extendibility_number(g)
                for kmax in (1, 3):
                    assert facts.extendible_levels(kmax) == tuple(
                        k for k in range(1, kmax + 1)
                        if is_k_extendible(g, k).verdict)
                kappa = 0
                if n:
                    kappa, witness = vertex_connectivity(g)
                    assert facts.connectivity[0] == kappa
                    assert (record_json(facts.connectivity[1])
                            == record_json(witness))
                for k in range(n + 2):
                    assert facts.is_k_connected(k) == (n >= k + 1
                                                       and kappa >= k)
                assert facts.connected == is_connected(g)
                assert facts.matching_number == matching_number(g)
                assert facts.perfect == has_perfect_matching(g)
                assert facts.bipartition == bipartition(g)

    def test_certificates_are_memoized_per_instance(self, k33):
        facts = GraphFacts(k33)
        assert facts.certificate(2) is facts.certificate(2)
        assert GraphFacts(k33).certificate(2) is not facts.certificate(2)

    def test_extendible_levels_up_to_the_size_bound(self, k33, k44, c8):
        # K(n, n) is (n-1)-extendible and no more; an even cycle is only
        # 1-extendible; K6 is 2-extendible, and 3 exceeds its size bound
        for g, levels in ((k33, (1, 2)), (k44, (1, 2, 3)), (c8, (1,)),
                          (complete_graph(6), (1, 2)), (path_graph(4), ())):
            facts = GraphFacts(g)
            assert facts.extendible_levels(3) == levels
            assert facts.extendible_levels(3) is facts.extendible_levels(3)
            assert facts.extendible_levels(1) == levels[:1]


def _recorded(monkeypatch, name):
    """Arguments of each call to the ``name`` that extendibility binds."""
    calls = []
    fn = getattr(extendibility, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(extendibility, name, recorded)
    return calls


class TestThresholdConnectivity:
    """P22 and T31 ask the threshold test; the full connectivity and its
    witness are computed only for a violation payload."""

    def test_clean_run_computes_no_full_connectivity(self, monkeypatch):
        thresholds = _recorded(monkeypatch, "is_k_connected")
        full = _recorded(monkeypatch, "vertex_connectivity")
        for spec in (CorpusSpec(mode="exhaustive", n=5),
                     CorpusSpec(mode="random", n=10, count=60, seed=3)):
            report = run_corpus(spec, PROPERTY_IDS, kmax=3, workers=1)
            assert report.violations == ()
        assert thresholds and full == []

    def test_levels_are_memoized_across_properties(self, monkeypatch, k33):
        thresholds = _recorded(monkeypatch, "is_k_connected")
        facts = GraphFacts(k33)
        assert PROPERTIES["P22"](facts, 2) == (HOLDS, None)
        assert PROPERTIES["T31"](facts, 2) == (HOLDS, None)
        assert [k for _, k in thresholds] == [2, 3]

    def test_violation_payload_carries_full_connectivity(self, monkeypatch,
                                                        c6, k33):
        monkeypatch.setattr(extendibility, "is_k_connected",
                            lambda g, k: False)
        for g in (c6, k33, cycle_graph(8)):
            kappa, witness = vertex_connectivity(g)
            payload = {"connectivity": kappa,
                       "cut_witness": record_json(witness)}
            assert check("P22", g, 2) == (VIOLATED, payload)
            assert check("T31", g, 2) == (VIOLATED, {"k": 1, **payload})


def _relabeled(g, rng):
    """g under a uniformly drawn vertex permutation (Fisher-Yates)."""
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


class TestLabelInvariance:
    @pytest.mark.parametrize("spec", [
        CorpusSpec(mode="exhaustive", n=5),
        CorpusSpec(mode="random", n=9, count=60, seed=97),
    ])
    def test_relabeled_corpus_gives_same_tallies(self, spec, tmp_path):
        rng = SplitMix64(2024)
        path = tmp_path / "relabeled.g6"
        path.write_text("".join(to_graph6(_relabeled(g, rng)) + "\n"
                                for g in generate_corpus(spec)))
        original = run_corpus(spec, PROPERTY_IDS, kmax=3)
        relabeled = run_corpus(CorpusSpec(mode="external", source=str(path)),
                               PROPERTY_IDS, kmax=3)
        assert relabeled.graphs_processed == original.graphs_processed
        assert relabeled.properties == original.properties
        assert original.violations == relabeled.violations == ()


class TestRunCorpus:
    def test_exhaustive_n4_zero_violations(self):
        report = run_corpus(CorpusSpec(mode="exhaustive", n=4),
                            PROPERTY_IDS, kmax=2)
        assert report.graphs_processed == 64
        assert report.violations == ()
        for tally in report.properties.values():
            assert sum(tally.values()) == 64

    def test_random_small_zero_violations(self):
        report = run_corpus(CorpusSpec(mode="random", n=8, count=40, seed=3),
                            PROPERTY_IDS, kmax=3)
        assert report.graphs_processed == 40
        assert report.violations == ()

    def test_empty_property_set_rejected(self):
        with pytest.raises(ValueError):
            run_corpus(CorpusSpec(mode="exhaustive", n=3), ())

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError):
            run_corpus(CorpusSpec(mode="exhaustive", n=3), ("P99",))

    def test_worker_count_does_not_change_report(self):
        spec = CorpusSpec(mode="random", n=9, count=30, seed=12)
        serial = run_corpus(spec, PROPERTY_IDS, kmax=2, workers=1)
        parallel = run_corpus(spec, PROPERTY_IDS, kmax=2, workers=2)
        assert report_json(serial) == report_json(parallel)

    def test_note_flags_level_zero_convention(self):
        spec = CorpusSpec(mode="exhaustive", n=3)
        with_note = run_corpus(spec, ("P21",), kmax=1)
        without = run_corpus(spec, ("KO",), kmax=1)
        assert with_note.notes and not without.notes

    def test_report_json_shape(self):
        report = run_corpus(CorpusSpec(mode="exhaustive", n=3),
                            ("KO", "P22"), kmax=1)
        doc = report_json(report)
        assert doc["tool"] == "kextend"
        assert doc["corpus"] == {"mode": "exhaustive", "n": 3}
        assert set(doc["properties"]) == {"KO", "P22"}
        assert doc["wall_time_ms"] is None
        timed = report_json(report, include_timing=True)
        assert timed["wall_time_ms"] > 0


def plant(monkeypatch, pid, planted, payload):
    """Make property ``pid`` report a violation on ``planted`` alone."""
    def fake(facts, kmax):
        if facts.g == planted:
            return VIOLATED, payload
        return HOLDS, None

    monkeypatch.setitem(PROPERTIES, pid, fake)


@pytest.fixture
def pools(monkeypatch):
    """Replace the worker pool with an in-process stand-in; the list holds
    (processes, graphs in each chunk handed out) for every pool started."""
    started = []

    class InProcessPool:
        def __init__(self, processes):
            self.chunks = []
            started.append((processes, self.chunks))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            for result in map(fn, tasks):
                self.chunks.append(result[0])
                yield result

    monkeypatch.setattr(verifier, "_pool", InProcessPool)
    return started


@pytest.fixture
def eager(monkeypatch):
    """Hand the rest of every corpus to the pool after its first graph."""
    monkeypatch.setattr(verifier, "_POOL_AFTER_S", 0.0)


def refuse(*args, **kwargs):
    raise AssertionError("a worker pool was started")


class TestRecordJson:
    # each record next to the dict its own serializer gave before
    # record_json replaced the five of them, key order included
    @pytest.mark.parametrize("record, expected", [
        (None, None),
        (HallViolator((0, 2), 1), {"a": [0, 2], "neighborhood_size": 1}),
        (CutWitness((1, 3), (0, 2)), {"cut": [1, 3], "separated": [0, 2]}),
        (CutWitness((), (0, 4)), {"cut": [], "separated": [0, 4]}),
        (DeficiencyWitness(1, (0, 5)), {"value": 1, "witness": [0, 5]}),
        (Bipartition((0, 2), (1,)), {"x": [0, 2], "y": [1]}),
        (OddCycle((0, 1, 2)), {"vertices": [0, 1, 2]}),
    ])
    def test_fields_in_order_with_tuples_as_lists(self, record, expected):
        out = record_json(record)
        assert out == expected
        if expected is not None:
            assert list(out) == list(expected)


class TestViolationPlumbing:
    def test_fold_collects_payloads(self, monkeypatch):
        planted = from_edges(3, [(0, 1)])
        plant(monkeypatch, "P21", planted, {"k": 1, "certificate": {}})
        tallies = {"P21": {HOLDS: 0, VIOLATED: 0, INAPPLICABLE: 0}}
        violations: list = []
        # the graphs are corpus graphs 10 and 11
        assert _fold(iter([from_edges(3, []), planted]), 10, ("P21",), 1,
                     tallies, violations) == 2
        assert tallies["P21"] == {HOLDS: 1, VIOLATED: 1, INAPPLICABLE: 0}
        assert violations == [{
            "property": "P21",
            "graph_index": 11,
            "graph6": to_graph6(planted),
            "payload": {"k": 1, "certificate": {}},
        }]

    def test_task_to_fold_carries_index_and_graph6(self, monkeypatch):
        single_edge = from_edges(3, [(0, 1)])
        plant(monkeypatch, "KO", single_edge, {"planted": True})
        spec = CorpusSpec(mode="exhaustive", n=3)
        expected = {
            "property": "KO",
            "graph_index": 1,
            "graph6": to_graph6(single_edge),
            "payload": {"planted": True},
        }
        # exhaustive order: edge code 1 is the single edge (0, 1); a range
        # chunk and a batch of parsed graphs report it alike
        for graphs in (8, list(generate_corpus(spec))):
            processed, tallies, violations = _chunk(
                (spec, 0, graphs, ("P22", "KO"), 1))
            assert processed == 8 and violations == [expected]
            assert tallies["KO"] == {HOLDS: 7, VIOLATED: 1, INAPPLICABLE: 0}
        report = run_corpus(spec, ("P22", "KO"), kmax=1, workers=1)
        assert report.violations == (expected,)
        assert report.properties["KO"] == {HOLDS: 7, VIOLATED: 1,
                                           INAPPLICABLE: 0}

    def test_violation_index_survives_chunking(self, monkeypatch, pools,
                                               eager):
        spec = CorpusSpec(mode="exhaustive", n=5)
        [planted] = corpus_range(spec, 700, 701)
        plant(monkeypatch, "KO", planted, {"planted": True})
        serial, chunked = (run_corpus(spec, ("P22", "KO"), kmax=1,
                                      workers=workers) for workers in (1, 2))
        # graph 0 ran in process, then guided chunks from graph 1 on, so
        # graph 700 is the last of the fourth chunk, 593..700
        assert pools == [(2, [256, 192, 144, 108, 81, 64, 64, 64, 50])]
        for report in (serial, chunked):
            assert report.violations == ({
                "property": "KO",
                "graph_index": 700,
                "graph6": to_graph6(planted),
                "payload": {"planted": True},
            },)
            assert report.properties == serial.properties
            assert report.properties["KO"][VIOLATED] == 1
            assert report.graphs_processed == 1024


class TestCorpusRange:
    @pytest.mark.parametrize("n", range(6))
    def test_exhaustive_range_is_edge_code_range(self, n):
        spec = CorpusSpec(mode="exhaustive", n=n)
        whole = list(generate_corpus(spec))
        assert whole == list(exhaustive_graphs(n))
        size = len(whole)
        for start, stop in {(0, size), (1, size), (size // 3, size // 2),
                            (size - 1, size), (size, size), (0, 1)}:
            assert list(corpus_range(spec, start, stop)) == whole[start:stop]

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    def test_random_range_jumps_into_the_stream(self, seed, p):
        spec = CorpusSpec(mode="random", n=6, count=9, seed=seed,
                          edge_probability=p)
        rng = SplitMix64(seed)
        whole = list(generate_corpus(spec))
        assert whole == [seeded_random_graph(6, rng, p) for _ in range(9)]
        for start in range(10):
            for stop in range(start, 10):
                assert list(corpus_range(spec, start, stop)) == \
                    whole[start:stop]


class TestTracedLayers:
    def test_random_corpus_draws_through_random_graph(self, monkeypatch):
        """verifier.random_graph is a layer that the benchmark traces by
        name: a random corpus must build every graph through it."""
        calls = []
        draw = verifier.random_graph

        def counted(*args, **kwargs):
            calls.append(args[0])
            return draw(*args, **kwargs)

        monkeypatch.setattr(verifier, "random_graph", counted)
        report = run_corpus(CorpusSpec(mode="random", n=10, count=20, seed=1),
                            PROPERTY_IDS, workers=1)
        assert report.graphs_processed == 20
        assert calls == [10] * 20


class TestWorkerPool:
    def test_corpus_size(self):
        assert _corpus_size(CorpusSpec(mode="exhaustive", n=0)) == 1
        assert _corpus_size(CorpusSpec(mode="exhaustive", n=4)) == 64
        assert _corpus_size(CorpusSpec(mode="random", n=9, count=48)) == 48
        assert _corpus_size(CorpusSpec(mode="external", source="-")) is None

    def test_small_corpus_spreads_over_workers(self, pools, monkeypatch):
        # the verifier's clocks move only as graphs are evaluated, by
        # ``cost`` seconds each, so the projection is 48 * cost
        now = cost = 0.0
        profile = PROPERTIES["MONO-EXT"]

        def timed(facts, kmax):
            nonlocal now
            now += cost
            return profile(facts, kmax)

        monkeypatch.setitem(PROPERTIES, "MONO-EXT", timed)
        monkeypatch.setattr(verifier, "time",
                            SimpleNamespace(perf_counter=lambda: now,
                                            process_time=lambda: now))
        spec = CorpusSpec(mode="random", n=10, count=48, seed=5)
        # 0.24 s of work: a pool would cost more than it saves
        cost = 0.005
        run_corpus(spec, ("MONO-EXT",), kmax=3, workers=2)
        assert pools == []
        # at 0.288 s the rest goes out once 0.025 s of work is done, after
        # graph 4, in guided chunks no smaller than 6, so both workers get
        # some
        cost = 0.006
        run_corpus(spec, ("MONO-EXT",), kmax=3, workers=2)
        assert pools == [(2, [11, 8, 6, 6, 6, 6])]

    @pytest.mark.parametrize("stall", ["wall", "first graph"])
    def test_small_corpus_ignores_a_stall(self, pools, monkeypatch, stall):
        # 48 graphs of 1 ms CPU each, after either a one-second wall-clock
        # stall or a first graph of 20 ms: a projection from graph 0 alone
        # would read 48 s or 0.96 s and start a pool
        wall = cpu = 0.0
        profile = PROPERTIES["MONO-EXT"]

        def timed(facts, kmax):
            nonlocal wall, cpu
            step = 0.02 if stall == "first graph" and cpu == 0.0 else 0.001
            wall += step + (1.0 if stall == "wall" and cpu == 0.0 else 0.0)
            cpu += step
            return profile(facts, kmax)

        monkeypatch.setitem(PROPERTIES, "MONO-EXT", timed)
        monkeypatch.setattr(verifier, "time",
                            SimpleNamespace(perf_counter=lambda: wall,
                                            process_time=lambda: cpu))
        spec = CorpusSpec(mode="random", n=10, count=48, seed=5)
        report = run_corpus(spec, ("MONO-EXT",), kmax=3, workers=2)
        assert report.graphs_processed == 48 and pools == []

    def test_no_more_workers_than_graphs(self, pools, eager):
        run_corpus(CorpusSpec(mode="random", n=6, count=3, seed=1),
                   PROPERTY_IDS, workers=8)
        assert pools == [(2, [1, 1])]

    @pytest.mark.parametrize("spec", [
        CorpusSpec(mode="exhaustive", n=1),
        CorpusSpec(mode="random", n=8, count=1, seed=4),
        CorpusSpec(mode="external", source="one.g6"),
    ])
    def test_one_graph_starts_no_pool(self, pools, eager, tmp_path, spec):
        if spec.mode == "external":
            path = tmp_path / spec.source
            path.write_text("Cl\n")
            spec = CorpusSpec(mode="external", source=str(path))
        report = run_corpus(spec, PROPERTY_IDS, workers=2)
        assert report.graphs_processed == 1 and pools == []

    def test_large_range_corpus_gets_guided_chunks(self, pools, eager):
        spec = CorpusSpec(mode="random", n=4, count=1000, seed=2)
        run_corpus(spec, ("KO",), kmax=1, workers=2)
        # graph 0 runs in process; each chunk is a quarter of the rest, but
        # no fewer than 64 graphs, so 9 chunks instead of 16 of 64
        assert pools == [(2, [250, 188, 141, 105, 79, 64, 64, 64, 44])]

    def test_external_corpus_keeps_batches_of_64(self, pools, eager,
                                                 tmp_path):
        spec = CorpusSpec(mode="random", n=4, count=1000, seed=2)
        path = tmp_path / "corpus.g6"
        path.write_text("".join(to_graph6(g) + "\n"
                                for g in generate_corpus(spec)))
        run_corpus(CorpusSpec(mode="external", source=str(path)), ("KO",),
                   kmax=1, workers=2)
        # graph 0 runs in process
        assert pools == [(2, [64] * 15 + [39])]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8, 64, _MAX_WORKERS])
    @pytest.mark.parametrize("first", [0, 5])
    def test_guided_chunks_cover_the_range(self, workers, first):
        for rest in (0, 1, 2, 7, 63, 64, 65, 255, 256, 1000, 4095, 32767):
            chunks = list(_guided(first, first + rest, workers))
            floor = max(1, min(64, -(-rest // (4 * workers))))
            sizes = [stop - start for start, stop in chunks]
            # consecutive and nonempty, from first to first + rest
            bounds = [first] + [stop for _, stop in chunks]
            assert chunks == list(zip(bounds, bounds[1:]))
            assert bounds[-1] == first + rest and all(sizes)
            # never smaller than the floor but at the end, never growing,
            # and never more chunks than in chunks of the floor
            assert all(size >= floor for size in sizes[:-1])
            assert sizes == sorted(sizes, reverse=True)
            assert len(chunks) <= -(-rest // floor)
        # a corpus of 32,768 graphs at two workers: 21 chunks, not 512
        assert len(list(_guided(0, 32768, 2))) == 21

    @pytest.mark.parametrize("workers", [0, _MAX_WORKERS + 1, 100_000])
    def test_worker_count_out_of_range_starts_no_pool(self, monkeypatch,
                                                      eager, tmp_path,
                                                      workers):
        monkeypatch.setattr(verifier, "_pool", refuse)
        path = tmp_path / "one.g6"
        path.write_text("Cl\n")
        for spec in (CorpusSpec(mode="exhaustive", n=6),
                     CorpusSpec(mode="external", source=str(path))):
            with pytest.raises(ValueError, match="worker count"):
                run_corpus(spec, PROPERTY_IDS, workers=workers)

    def test_worker_cap_itself_is_accepted(self, pools, eager):
        run_corpus(CorpusSpec(mode="random", n=4, count=300, seed=3),
                   ("KO",), kmax=1, workers=_MAX_WORKERS)
        assert pools == [(_MAX_WORKERS, [1] * 299)]

    def test_report_bytes_equal_at_one_and_two_workers(self):
        spec = CorpusSpec(mode="random", n=10, count=48, seed=5)
        serial, parallel = (
            json.dumps(report_json(run_corpus(spec, ("MONO-EXT", "T31"),
                                              kmax=3, workers=workers)))
            for workers in (1, 2))
        assert serial == parallel

    def test_report_bytes_equal_in_process_and_in_pool(self, monkeypatch,
                                                       tmp_path):
        started = []
        pool = verifier._pool
        monkeypatch.setattr(verifier, "_pool",
                            lambda processes: started.append(processes)
                            or pool(processes))
        random = CorpusSpec(mode="random", n=8, count=300, seed=9)
        path = tmp_path / "corpus.g6"
        path.write_text("".join(to_graph6(g) + "\n"
                                for g in generate_corpus(random)))
        for spec in (CorpusSpec(mode="exhaustive", n=5), random,
                     CorpusSpec(mode="external", source=str(path))):
            reports = set()
            for after_s in (0.0, float("inf")):
                monkeypatch.setattr(verifier, "_POOL_AFTER_S", after_s)
                for workers in (1, 2):
                    reports.add(json.dumps(report_json(run_corpus(
                        spec, ("KO", "MONO-EXT"), kmax=2, workers=workers))))
            assert len(reports) == 1
        # a real pool ran once per corpus: at two workers, from graph 1 on
        assert started == [2, 2, 2]


class TestLazyExhibits:
    def test_clean_run_extends_no_matching(self, monkeypatch):
        calls = []
        extend = extendibility.extends_to_perfect

        def counted(g, m):
            calls.append(m)
            return extend(g, m)

        monkeypatch.setattr(extendibility, "extends_to_perfect", counted)
        for spec in (CorpusSpec(mode="exhaustive", n=5),
                     CorpusSpec(mode="random", n=10, count=60, seed=3)):
            report = run_corpus(spec, PROPERTY_IDS, kmax=3, workers=1)
            assert report.violations == ()
        assert calls == []
        # reading an exhibit is what extends its matchings
        assert len(is_k_extendible(cycle_graph(6), 1).exhibit) == 2
        assert len(calls) == 2

    def test_exhibit_is_built_once_and_compared_by_matchings(self, k33):
        cert = is_k_extendible(k33, 1)
        assert cert.exhibit is cert.exhibit
        assert cert.graph is not None
        fields = (cert.verdict, cert.k, cert.reason, cert.witness)
        assert ExtendibilityCertificate(*fields, cert.exhibited,
                                        graph=None) == cert
        assert ExtendibilityCertificate(*fields, cert.exhibited[:1],
                                        graph=cert.graph) != cert


class TestNoCyclicGarbage:
    def test_evaluation_is_freed_by_refcount(self):
        """With the cyclic collector off, evaluating graphs leaves nothing
        for it: a fold over exhaustive n = 6 codes 20,000-20,999 (which
        walks certificates at k >= 1), analyze records of 50 G(12, 1/2)
        graphs, and matching enumerations run out or dropped part way."""
        spec = CorpusSpec(mode="exhaustive", n=6)
        rng = SplitMix64(12)
        graphs = [seeded_random_graph(12, rng) for _ in range(50)]
        k6 = complete_graph(6)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            tallies = verifier._new_tallies(PROPERTY_IDS)
            violations = []
            assert _fold(corpus_range(spec, 20000, 21000), 20000,
                         PROPERTY_IDS, 3, tallies, violations) == 1000
            assert violations == []
            records = [cli.analysis_record(g, 3) for g in graphs]
            assert len(list(enumerate_matchings(k6, 2))) == 45
            partial = enumerate_matchings(k6, 3)
            next(partial)
            del partial
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert len(records) == 50
