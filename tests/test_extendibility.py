from __future__ import annotations

import sys
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings

import kextend.extendibility as extendibility
import kextend.matching as matching
from conftest import (
    exhaustive_graphs,
    graphs,
    seeded_random_bipartite,
    seeded_random_graph,
)
from kextend import (
    Bipartition,
    Matching,
    bipartition,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    extendibility_number,
    extends_to_perfect,
    from_edges,
    hall_surplus_check,
    has_perfect_matching,
    is_connected,
    is_k_extendible,
    neighborhood,
    path_graph,
    peel,
)
from kextend.extendibility import (
    BLOCKED_MATCHING,
    DISCONNECTED,
    EXHIBIT_LIMIT,
    NO_PERFECT_MATCHING,
    SIZE_TOO_SMALL,
    ExtendibilityCertificate,
    GraphFacts,
    _certificate,
)
from kextend.matching import _perfect_without_pair, enumerate_matchings
from kextend.oracles import brute_force_is_k_extendible
from kextend.rng import SplitMix64
from kextend.verifier import CorpusSpec, run_corpus


class TestDefinitionalChecker:
    def test_c4_level_one(self, c4):
        cert = is_k_extendible(c4, 1)
        assert cert.verdict and cert.k == 1 and cert.reason is None

    def test_c4_level_two_size(self, c4):
        cert = is_k_extendible(c4, 2)
        assert not cert.verdict and cert.reason == SIZE_TOO_SMALL

    def test_p4_blocked_with_witness(self, p4):
        cert = is_k_extendible(p4, 1)
        assert not cert.verdict and cert.reason == BLOCKED_MATCHING
        assert cert.witness == Matching.of([(1, 2)])
        assert extends_to_perfect(p4, cert.witness) is None

    def test_k33_level_two(self, k33):
        assert is_k_extendible(k33, 2).verdict

    def test_disconnected_reason(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        assert is_k_extendible(g, 1).reason == DISCONNECTED

    def test_no_perfect_matching_reason(self):
        g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert is_k_extendible(g, 1).reason == NO_PERFECT_MATCHING

    def test_level_zero_convention(self, c4, p4):
        # 0-extendible: at least 2 vertices, connected, perfect matching
        assert is_k_extendible(c4, 0).verdict
        assert is_k_extendible(p4, 0).verdict
        assert is_k_extendible(path_graph(3), 0).reason == NO_PERFECT_MATCHING
        assert is_k_extendible(from_edges(1, []), 0).reason == SIZE_TOO_SMALL

    def test_negative_level_rejected(self, c4):
        with pytest.raises(ValueError):
            is_k_extendible(c4, -1)

    def test_witness_is_lexicographically_least_blocked(self, c8):
        cert = is_k_extendible(c8, 2)
        assert cert.reason == BLOCKED_MATCHING
        for m in enumerate_matchings(c8, 2):
            if m == cert.witness:
                break
            assert extends_to_perfect(c8, m) is not None

    def test_yes_exhibit_reverifies(self, k33):
        cert = is_k_extendible(k33, 1)
        assert cert.verdict and cert.exhibit
        for m, ext in cert.exhibit:
            assert set(m.edges) <= set(ext.edges)
            assert ext.size * 2 == k33.n
            assert extends_to_perfect(k33, m) is not None


def reference_certificate(g, k):
    """The definitional loop without memo or warm start: every size-k
    matching in lexicographic order, each extended from scratch.  Returns
    the certificate and its exhibit, whose extensions are built eagerly.
    The preconditions are library calls, so nothing is shared with
    GraphFacts."""
    if g.n < 2 * k + 2:
        return ExtendibilityCertificate(False, k, reason=SIZE_TOO_SMALL), ()
    if not is_connected(g):
        return ExtendibilityCertificate(False, k, reason=DISCONNECTED), ()
    if not has_perfect_matching(g):
        return ExtendibilityCertificate(False, k,
                                        reason=NO_PERFECT_MATCHING), ()
    exhibit = []
    for m in enumerate_matchings(g, k):
        extension = extends_to_perfect(g, m)
        if extension is None:
            return ExtendibilityCertificate(False, k, reason=BLOCKED_MATCHING,
                                            witness=m), ()
        if len(exhibit) < EXHIBIT_LIMIT:
            exhibit.append((m, extension))
    exhibited = tuple(m.edges for m, _ in exhibit)
    return (ExtendibilityCertificate(True, k, exhibited=exhibited, graph=g),
            tuple(exhibit))


class TestCertificateEngine:
    def test_matches_reference_loop(self):
        corpus = [g for n in range(6) for g in exhaustive_graphs(n)]
        rng = SplitMix64(2021)
        corpus += [seeded_random_graph(n, rng, p)
                   for n in range(8, 13) for p in (0.3, 0.5, 0.7, 0.85)
                   for _ in range(2)]
        for g in corpus:
            for k in range(g.n // 2 + 1):
                cert = is_k_extendible(g, k)
                reference, exhibit = reference_certificate(g, k)
                assert cert == reference and cert.exhibit == exhibit, (g, k)

    @pytest.mark.parametrize("g, verdict, matchings, masks", [
        (complete_graph(8), True, 210, 70),
        (cycle_graph(8), False, 20, 20),
        (complete_bipartite(4, 4), True, 72, 36),
    ])
    def test_one_blossom_test_per_covered_set(self, monkeypatch, g, verdict,
                                              matchings, masks):
        """Each covered 2k-set is decided at most once, by the leaf test
        that runs a blossom search only when its mask tests leave the set
        open, and every one is decided on a yes-verdict."""
        k, full = 2, (1 << g.n) - 1
        leaves = []
        leaf_test = extendibility._extends_without_pair

        def counted(adj, n, mask, match, u, v):
            leaves.append(full & ~mask | 1 << u | 1 << v)
            return leaf_test(adj, n, mask, match, u, v)

        monkeypatch.setattr(extendibility, "_extends_without_pair", counted)
        assert is_k_extendible(g, k).verdict == verdict
        covered = [m.covered_mask() for m in enumerate_matchings(g, k)]
        assert (len(covered), len(set(covered))) == (matchings, masks)
        assert all(leaf.bit_count() == 2 * k for leaf in leaves)
        assert len(leaves) == len(set(leaves)) <= masks
        if verdict:
            assert set(leaves) == set(covered)

    def test_leaf_tests_spare_the_step(self, monkeypatch):
        """MONO-EXT over `verify --random 14 48 1` at one worker.  A walk
        that runs _perfect_without_pair for every leaf missing the memo
        makes 26,216 calls and 1,275 blossom searches here; the step now
        runs only for the prefixes, and a leaf the mask tests leave open
        runs one blossom search alone."""
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        step = counted("step", matching._perfect_without_pair)
        monkeypatch.setattr(matching, "_perfect_without_pair", step)
        monkeypatch.setattr(extendibility, "_perfect_without_pair", step)
        monkeypatch.setattr(matching, "_augmenting_path_from", counted(
            "search", matching._augmenting_path_from))
        spec = CorpusSpec(mode="random", n=14, count=48, seed=1)
        run_corpus(spec, ["MONO-EXT"], kmax=3, workers=1)
        assert calls["step"] < 26_216 // 4
        assert calls["search"] <= 1_275

    def test_six_vertices_need_no_search_for_a_leaf_or_step(self,
                                                           monkeypatch):
        """On every graph with n <= 6, at every level, the walk and every
        peeled walk settle each leaf and each step by mask tests: removing
        u and v leaves at most 4 vertices, so no augmenting path joining
        their partners is longer than 3.  Only the maximum matching's
        growth runs a blossom search."""
        searches, kernel = Counter(), Counter()
        search = matching._augmenting_path_from

        def counted_search(*args):
            searches[sys._getframe(1).f_code.co_name] += 1
            return search(*args)

        def counted(name):
            fn = getattr(extendibility, name)

            def wrapper(*args):
                kernel[name] += 1
                return fn(*args)
            return wrapper

        names = ("_extends_without_pair", "_perfect_without_pair")
        monkeypatch.setattr(matching, "_augmenting_path_from", counted_search)
        for name in names:
            monkeypatch.setattr(extendibility, name, counted(name))
        for n in range(7):
            for g in exhaustive_graphs(n):
                facts = GraphFacts(g)
                for k in range(facts.size_bound + 1):
                    facts.certificate(k)
                if facts.perfect:
                    for k in range(facts.size_bound):
                        for u, v in g.edges():
                            facts.peeled_certificate(u, v, k)
        assert all(kernel[name] for name in names)
        assert set(searches) == {"_grow_maximum"}


class TestBruteForceOracle:
    def test_agrees_with_engine_at_every_level(self):
        """Verdict, reason and witness against an oracle that shares no
        search code with the engine, mostly on non-bipartite graphs."""
        corpus = [g for n in range(6) for g in exhaustive_graphs(n)]
        rng = SplitMix64(1980)
        corpus += [seeded_random_graph(n, rng, p)
                   for n in range(6, 11) for p in (0.3, 0.5, 0.7, 0.85)
                   for _ in range(60)]
        for g in corpus:
            for k in range(g.n // 2 + 1):
                cert = is_k_extendible(g, k)
                witness = cert.witness.edges if cert.witness else None
                assert ((cert.verdict, cert.reason, witness)
                        == brute_force_is_k_extendible(g, k)), (g, k)

    def test_deep_stack_on_dense_graphs(self, monkeypatch):
        """Dense graphs reach depths 3-5 of the walk's stack.  The seed is
        one whose sample also holds prefixes with no perfect match, the
        branch that blocks a whole subtree; the test checks it ran."""
        failed_prefixes = []
        helper = extendibility._perfect_without_pair

        def counted(adj, n, mask, match, u, v):
            out = helper(adj, n, mask, match, u, v)
            if out is None and mask.bit_count() - 2 > n - 2 * level:
                failed_prefixes.append(mask)
            return out

        monkeypatch.setattr(extendibility, "_perfect_without_pair", counted)
        rng = SplitMix64(20)
        corpus = [seeded_random_graph(n, rng, p)
                  for n in (10, 11, 12) for p in (0.85, 0.95)
                  for _ in range(3)]
        for g in corpus:
            for level in range(g.n // 2 + 1):
                cert = is_k_extendible(g, level)
                witness = cert.witness.edges if cert.witness else None
                assert ((cert.verdict, cert.reason, witness)
                        == brute_force_is_k_extendible(g, level)), (g, level)
        assert failed_prefixes

    def test_named_verdicts(self, c8, k33, p4):
        assert brute_force_is_k_extendible(k33, 2) == (True, None, None)
        assert brute_force_is_k_extendible(p4, 1) == (
            False, BLOCKED_MATCHING, ((1, 2),))
        assert brute_force_is_k_extendible(c8, 2) == (
            False, BLOCKED_MATCHING, ((0, 1), (3, 4)))
        assert brute_force_is_k_extendible(
            from_edges(4, [(0, 1), (2, 3)]), 0) == (False, DISCONNECTED, None)
        assert brute_force_is_k_extendible(path_graph(3), 1) == (
            False, SIZE_TOO_SMALL, None)
        assert brute_force_is_k_extendible(
            from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1) == (
            False, NO_PERFECT_MATCHING, None)


class TestExtendibilityNumber:
    def test_named_instances(self, c4, p4, k33, k44):
        assert extendibility_number(c4) == 1
        assert extendibility_number(p4) == 0
        assert extendibility_number(k33) == 2
        assert extendibility_number(k44) == 3

    def test_absent_when_not_even_zero(self):
        assert extendibility_number(path_graph(3)) is None
        assert extendibility_number(from_edges(4, [(0, 1), (2, 3)])) is None

    def test_complete_graphs(self):
        assert extendibility_number(complete_graph(6)) == 2

    def test_one_maximum_matching_and_connectivity_check(self, monkeypatch):
        """The one-shot shares one GraphFacts across its levels."""
        calls = {"_mask_maximum_matching": 0, "is_connected": 0}
        for name, original in [(name, getattr(extendibility, name))
                               for name in calls]:
            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(extendibility, name, counted)
        assert extendibility_number(complete_bipartite(4, 4)) == 3
        assert calls == {"_mask_maximum_matching": 1, "is_connected": 1}

    @given(graphs(max_n=8))
    @settings(max_examples=80)
    def test_bounded_and_prefix(self, g):
        ext = extendibility_number(g)
        if ext is None:
            assert not is_k_extendible(g, 0).verdict
            return
        assert 2 * ext <= g.n - 2
        for k in range((g.n - 2) // 2 + 1):
            assert is_k_extendible(g, k).verdict == (k <= ext)


class TestHallSurplus:
    def test_k33_level_two(self, k33):
        assert hall_surplus_check(k33, bipartition(k33), 2) is None

    def test_c6_level_one(self, c6):
        assert hall_surplus_check(c6, bipartition(c6), 1) is None

    def test_c8_level_two_violator(self, c8):
        out = hall_surplus_check(c8, bipartition(c8), 2)
        assert out is not None
        # minimum size, lexicographically least: the singleton {0} already
        # violates (its two neighbors fall short of 1 + 2)
        assert out.a == (0,) and out.neighborhood_size == 2
        assert out.neighborhood_size < len(out.a) + 2
        # the pair {0, 2} is a violator too: N = {1, 3, 7} has 3 < 2 + 2
        assert len(neighborhood(c8, (0, 2))) == 3 < 2 + 2

    def test_violator_reverifies(self):
        rng = SplitMix64(5150)
        seen = 0
        for _ in range(300):
            g = seeded_random_bipartite(4, rng)
            bp = Bipartition(tuple(range(4)), tuple(range(4, 8)))
            out = hall_surplus_check(g, bp, 2)
            if out is None:
                continue
            seen += 1
            assert 1 <= len(out.a) <= len(bp.x) - 2
            assert len(neighborhood(g, out.a)) == out.neighborhood_size
            assert out.neighborhood_size < len(out.a) + 2
        assert seen > 0

    def test_vacuous_range_is_yes(self):
        g = complete_bipartite(2, 2)
        assert hall_surplus_check(g, bipartition(g), 2) is None

    def test_rejects_unbalanced(self, k13):
        with pytest.raises(ValueError):
            hall_surplus_check(k13, Bipartition((0,), (1, 2, 3)), 1)
        star = from_edges(4, [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(ValueError):
            hall_surplus_check(star, bipartition(star), 1)

    def test_rejects_level_zero(self, c4):
        with pytest.raises(ValueError):
            hall_surplus_check(c4, bipartition(c4), 0)


class TestBipartiteChecker:
    """T32's comparison: on a connected balanced bipartite graph with a
    perfect matching, the surplus scan finds no violator exactly when the
    definitional certificate says yes."""

    def test_k33_agrees_yes(self, k33):
        assert hall_surplus_check(k33, bipartition(k33), 2) is None
        assert GraphFacts(k33).certificate(2).verdict

    def test_c8_agrees_no_with_witness(self, c8):
        assert hall_surplus_check(c8, bipartition(c8), 2) is not None
        cert = GraphFacts(c8).certificate(2)
        assert not cert.verdict and cert.reason == BLOCKED_MATCHING
        assert extends_to_perfect(c8, cert.witness) is None

    def test_no_perfect_matching_reason(self):
        # balanced and connected, but one side vertex starves the other
        g = from_edges(6, [(0, 3), (1, 3), (2, 3), (2, 4), (2, 5)])
        bp = bipartition(g)
        assert len(bp.x) == len(bp.y)
        assert not has_perfect_matching(g)
        assert hall_surplus_check(g, bp, 1) is not None
        assert GraphFacts(g).certificate(1).reason == NO_PERFECT_MATCHING

    def test_exhaustive_agreement_n6(self):
        # the characterization as a differential test at desk scale
        for g in exhaustive_graphs(6):
            if not is_connected(g):
                continue
            bp = bipartition(g)
            if not isinstance(bp, Bipartition) or len(bp.x) != len(bp.y):
                continue
            if not has_perfect_matching(g):
                continue
            for k in (1, 2):
                if g.n < 2 * k + 2:
                    continue
                cert = GraphFacts(g).certificate(k)
                assert cert.verdict == (hall_surplus_check(g, bp, k) is None)
                if cert.witness is not None:
                    assert extends_to_perfect(g, cert.witness) is None

    def test_no_verdict_equals_definitional_certificate(self):
        # every no-verdict of the surplus scan is the engine's, with the
        # definitional reason and a blocked matching as its witness
        rng = SplitMix64(32)
        sample = [seeded_random_bipartite(3 + trial % 4, rng,
                                          (0.3, 0.5, 0.7)[trial % 3])
                  for trial in range(1500)]
        no_verdicts = 0
        for g in [*exhaustive_graphs(6), *sample]:
            bp = bipartition(g)
            if not isinstance(bp, Bipartition) or len(bp.x) != len(bp.y):
                continue
            facts = GraphFacts(g)
            if not facts.connected or not facts.perfect:
                continue
            for k in range(1, facts.size_bound + 1):
                cert = facts.certificate(k)
                assert cert.verdict == (
                    hall_surplus_check(g, bp, k) is None), (g, k)
                if cert.verdict:
                    continue
                assert cert.reason == BLOCKED_MATCHING
                assert extends_to_perfect(g, cert.witness) is None
                no_verdicts += 1
        assert no_verdicts > 1000


class TestPeel:
    def test_k33_any_edge(self, k33):
        for e in k33.edges():
            assert peel(k33, e)[0] == complete_bipartite(2, 2)

    def test_c6_edge(self, c6):
        assert peel(c6, (0, 1))[0] == path_graph(4)

    def test_c4_edge(self, c4):
        assert peel(c4, (0, 1))[0] == from_edges(2, [(0, 1)])

    def test_rejects_non_edge(self, c4):
        with pytest.raises(ValueError):
            peel(c4, (0, 2))


def _peeled_one_shot(g, u, v, k):
    """(verdict, reason, witness) of is_k_extendible on peel(g, (u, v)),
    the witness mapped back to g's labels."""
    peeled, relabel = peel(g, (u, v))
    cert = is_k_extendible(peeled, k)
    back = {new: old for old, new in relabel.items()}
    witness = cert.witness and Matching.of(
        (back[a], back[b]) for a, b in cert.witness.edges)
    return cert.verdict, cert.reason, witness


def _peeling_corpus():
    """Every tenth graph on 6 vertices, then dense SplitMix64 draws."""
    yield from islice(exhaustive_graphs(6), 0, None, 10)
    rng = SplitMix64(23)
    for n, p, count in ((8, 0.75, 40), (10, 0.8, 12), (12, 0.85, 4),
                        (12, 0.9, 4)):
        for _ in range(count):
            yield seeded_random_graph(n, rng, p)


class TestPeeledCertificate:
    """GraphFacts.peeled_certificate decides G - u - v in G's labels; it
    must agree with the one-shot on the peeled, relabeled graph."""

    def test_equals_the_one_shot_on_the_peeled_graph(self):
        reasons = Counter()
        for g in _peeling_corpus():
            facts = GraphFacts(g)
            if not facts.perfect:
                continue
            for k in range(1, facts.size_bound):
                for u, v in g.edges():
                    cert = facts.peeled_certificate(u, v, k)
                    assert (cert.verdict, cert.reason, cert.witness) == \
                        _peeled_one_shot(g, u, v, k), (g, u, v, k)
                    assert cert.k == k and cert.exhibited == ()
                    reasons[cert.reason] += 1
            # the peeled walk reads no level of G's own certificates
            assert facts._certificates == {}
        assert set(reasons) == {None, DISCONNECTED, NO_PERFECT_MATCHING,
                                BLOCKED_MATCHING}

    def test_level_zero_is_a_bare_yes(self, c6):
        facts = GraphFacts(c6)
        assert facts.peeled_certificate(0, 1, 0) == \
            ExtendibilityCertificate(True, 0)


class TestLeastBlockedWitness:
    """The least blocked k-matching (e1, ..., ek) of G, in the walk's order
    (edges by lower end, then upper end), peels to the least blocked
    (k - 1)-matching (e2, ..., ek) of G - V(e1): a blocked W' before it
    would make W' + e1, sorted, a blocked matching of G before the
    witness.  When G - V(e1) has no perfect matching, every matching
    there is blocked, and (e2, ..., ek) is its least (k - 1)-matching."""

    def test_witness_peels_to_the_peeled_walks_witness(self):
        corpus = list(exhaustive_graphs(6))
        rng = SplitMix64(20)
        corpus += [seeded_random_graph(n, rng, p) for n in (8, 10, 12)
                   for p in (0.5, 0.7, 0.85) for _ in range(30)]
        routes = Counter()
        for g in corpus:
            facts = GraphFacts(g)
            full = (1 << g.n) - 1
            for k in range(2, facts.size_bound + 1):
                cert = facts.certificate(k)
                if cert.reason != BLOCKED_MATCHING:
                    continue
                (u, v), *rest = cert.witness.edges
                # the walk starts as peeled_certificate starts it, but on
                # a disconnected G - u - v too: the identity needs only
                # a perfect matching there
                base = _perfect_without_pair(g.adj, g.n, full,
                                             facts.maximum, u, v)
                if base is None:
                    peeled, relabel = peel(g, (u, v))
                    back = {new: old for old, new in relabel.items()}
                    least = next(enumerate_matchings(peeled, k - 1)).edges
                    assert [(back[a], back[b]) for a, b in least] == rest, (
                        g, k)
                else:
                    sub = _certificate(g, k - 1, base,
                                       full & ~(1 << u | 1 << v))
                    assert sub.reason == BLOCKED_MATCHING, (g, k)
                    assert list(sub.witness.edges) == rest, (g, k)
                routes[base is None, k] += 1
        assert {route for route, _ in routes} == {True, False}
        assert max(k for _, k in routes) >= 3


class TestPaperProperties:
    def test_monotonicity_on_corpus(self):
        for g in exhaustive_graphs(5):
            for k in (1, 2, 3):
                if is_k_extendible(g, k).verdict:
                    assert is_k_extendible(g, k - 1).verdict
        rng = SplitMix64(8)
        for trial in range(120):
            g = seeded_random_bipartite(3 + trial % 3, rng)
            for k in (1, 2, 3):
                if is_k_extendible(g, k).verdict:
                    assert is_k_extendible(g, k - 1).verdict

    def test_peeling_k44_leaves_k33_two_extendible(self, k44):
        assert is_k_extendible(k44, 3).verdict
        for e in k44.edges():
            sub, _ = peel(k44, e)
            assert sub == complete_bipartite(3, 3)
            assert is_k_extendible(sub, 2).verdict

    def test_peeling_property_small_corpus(self):
        for g in exhaustive_graphs(6):
            cert = is_k_extendible(g, 2)
            if not cert.verdict:
                continue
            for e in g.edges():
                sub, _ = peel(g, e)
                assert is_k_extendible(sub, 1).verdict, (g, e)
