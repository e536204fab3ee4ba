from __future__ import annotations

import json
from dataclasses import replace

import pytest

import kextend.extendibility as extendibility
import kextend.verifier as verifier
from conftest import exhaustive_graphs
from kextend import (
    CorpusSpec,
    GraphParseError,
    bipartition,
    cycle_graph,
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
from kextend.jsonio import certificate_json, cut_witness_json
from kextend.oracles import brute_force_is_k_extendible
from kextend.rng import SplitMix64
from kextend.verifier import (
    HOLDS,
    INAPPLICABLE,
    PROPERTIES,
    PROPERTY_IDS,
    VIOLATED,
    _MAX_WORKERS,
    _corpus_size,
    _fold,
    _task,
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
                kappa = 0
                if n:
                    kappa, witness = vertex_connectivity(g)
                    assert facts.connectivity[0] == kappa
                    assert (cut_witness_json(facts.connectivity[1])
                            == cut_witness_json(witness))
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
                       "cut_witness": cut_witness_json(witness)}
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


class TestViolationPlumbing:
    def test_fold_collects_payloads(self):
        results = [
            (None, [("P21", HOLDS, None)]),
            ("Ch", [("P21", VIOLATED, {"k": 1, "certificate": {}})]),
        ]
        tallies = {"P21": {HOLDS: 0, VIOLATED: 0, INAPPLICABLE: 0}}
        violations: list = []
        assert _fold(iter(results), tallies, violations) == 2
        assert tallies["P21"] == {HOLDS: 1, VIOLATED: 1, INAPPLICABLE: 0}
        assert violations == [{
            "property": "P21",
            "graph_index": 1,
            "graph6": "Ch",
            "payload": {"k": 1, "certificate": {}},
        }]

    def test_task_to_fold_carries_index_and_graph6(self, monkeypatch):
        single_edge = from_edges(3, [(0, 1)])

        def fake_ko(facts, kmax):
            if facts.g == single_edge:
                return VIOLATED, {"planted": True}
            return HOLDS, None

        monkeypatch.setitem(PROPERTIES, "KO", fake_ko)
        spec = CorpusSpec(mode="exhaustive", n=3)
        results = [_task((g, ("P22", "KO"), 1))
                   for g in generate_corpus(spec)]
        # exhaustive order: edge code 1 is the single edge (0, 1)
        assert [graph6 for graph6, _ in results] == (
            [None, to_graph6(single_edge)] + [None] * 6)
        report = run_corpus(spec, ("P22", "KO"), kmax=1, workers=1)
        assert report.violations == ({
            "property": "KO",
            "graph_index": 1,
            "graph6": to_graph6(single_edge),
            "payload": {"planted": True},
        },)
        assert report.properties["KO"] == {HOLDS: 7, VIOLATED: 1,
                                           INAPPLICABLE: 0}


@pytest.fixture
def pools(monkeypatch):
    """Replace the worker pool with an in-process stand-in; the list holds
    (processes, chunksizes passed to imap) for every pool started."""
    started = []

    class InProcessPool:
        def __init__(self, processes):
            self.chunksizes = []
            started.append((processes, self.chunksizes))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            self.chunksizes.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(verifier, "Pool", InProcessPool)
    return started


class TestWorkerPool:
    def test_corpus_size(self):
        assert _corpus_size(CorpusSpec(mode="exhaustive", n=0)) == 1
        assert _corpus_size(CorpusSpec(mode="exhaustive", n=4)) == 64
        assert _corpus_size(CorpusSpec(mode="random", n=9, count=48)) == 48
        assert _corpus_size(CorpusSpec(mode="external", source="-")) is None

    def test_small_corpus_spreads_over_workers(self, pools):
        spec = CorpusSpec(mode="random", n=10, count=48, seed=5)
        run_corpus(spec, ("MONO-EXT",), kmax=3, workers=2)
        [(processes, [chunksize])] = pools
        assert processes == 2 and chunksize <= 24

    def test_no_more_workers_than_graphs(self, pools):
        run_corpus(CorpusSpec(mode="random", n=6, count=3, seed=1),
                   PROPERTY_IDS, workers=8)
        assert pools == [(3, [1])]

    @pytest.mark.parametrize("spec", [
        CorpusSpec(mode="exhaustive", n=1),
        CorpusSpec(mode="random", n=8, count=1, seed=4),
    ])
    def test_one_graph_starts_no_pool(self, pools, spec):
        report = run_corpus(spec, PROPERTY_IDS, workers=2)
        assert report.graphs_processed == 1 and pools == []

    def test_large_and_external_corpora_keep_chunks_of_64(self, pools,
                                                         tmp_path):
        spec = CorpusSpec(mode="random", n=4, count=1000, seed=2)
        run_corpus(spec, ("KO",), kmax=1, workers=2)
        path = tmp_path / "corpus.g6"
        path.write_text("".join(to_graph6(g) + "\n"
                                for g in generate_corpus(spec)))
        run_corpus(CorpusSpec(mode="external", source=str(path)), ("KO",),
                   kmax=1, workers=2)
        assert pools == [(2, [64]), (2, [64])]

    @pytest.mark.parametrize("workers", [0, _MAX_WORKERS + 1, 100_000])
    def test_worker_count_out_of_range_starts_no_pool(self, monkeypatch,
                                                      tmp_path, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(verifier, "Pool", refuse)
        path = tmp_path / "one.g6"
        path.write_text("Cl\n")
        for spec in (CorpusSpec(mode="exhaustive", n=6),
                     CorpusSpec(mode="external", source=str(path))):
            with pytest.raises(ValueError, match="worker count"):
                run_corpus(spec, PROPERTY_IDS, workers=workers)

    def test_worker_cap_itself_is_accepted(self, pools, tmp_path):
        path = tmp_path / "one.g6"
        path.write_text("Cl\n")
        run_corpus(CorpusSpec(mode="external", source=str(path)), ("KO",),
                   kmax=1, workers=_MAX_WORKERS)
        assert pools == [(_MAX_WORKERS, [64])]

    def test_report_bytes_equal_at_one_and_two_workers(self):
        spec = CorpusSpec(mode="random", n=10, count=48, seed=5)
        serial, parallel = (
            json.dumps(report_json(run_corpus(spec, ("MONO-EXT", "T31"),
                                              kmax=3, workers=workers)))
            for workers in (1, 2))
        assert serial == parallel


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
        assert replace(cert, graph=None) == cert
        assert replace(cert, exhibited=cert.exhibited[:1]) != cert
