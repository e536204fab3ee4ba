from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings

import kextend.matching as matching
from conftest import (
    exhaustive_graphs,
    graphs,
    seeded_random_bipartite,
    seeded_random_graph,
)
from kextend import (
    AlternatingPath,
    Bipartition,
    Matching,
    bipartition,
    cycle_graph,
    delete_vertices,
    enumerate_matchings,
    extends_to_perfect,
    find_augmenting_path,
    from_edges,
    has_perfect_matching,
    is_connected,
    koenig_ore_deficiency,
    matching_number,
    maximum_matching,
    path_graph,
)
from kextend.matching import (
    _extends_without_pair,
    _mask_maximum_matching,
    _perfect_without_pair,
    validate_matching,
)
from kextend.oracles import (
    _max_matching_size,
    brute_force_deficiency,
    brute_force_matching_number,
    brute_force_maximum_matching,
    count_matchings_brute_force,
)
from kextend.rng import SplitMix64


def assert_perfect_inside(g, mask, match):
    """``match`` pairs each vertex of ``mask`` with a neighbour inside it
    and leaves every other vertex at -1."""
    for w, partner in enumerate(match):
        if mask >> w & 1:
            assert partner >= 0 and g.adj[w] >> partner & mask >> partner & 1
            assert match[partner] == w
        else:
            assert partner == -1


class TestMatchingType:
    def test_canonicalizes(self):
        m = Matching.of([(3, 2), (0, 1)])
        assert m.edges == ((0, 1), (2, 3))
        assert m.vertices() == (0, 1, 2, 3)

    def test_rejects_shared_vertex(self):
        with pytest.raises(ValueError):
            Matching.of([(0, 1), (1, 2)])

    def test_rejects_non_edge_against_graph(self, c4):
        with pytest.raises(ValueError):
            validate_matching(c4, Matching.of([(0, 2)]))


class TestOracle:
    def test_known_sizes(self, c4, p4, k13):
        assert brute_force_matching_number(c4) == 2
        assert brute_force_matching_number(p4) == 2
        assert brute_force_matching_number(k13) == 1
        assert brute_force_matching_number(cycle_graph(7)) == 3

    def test_witness_is_a_maximum_matching(self):
        rng = SplitMix64(31)
        for _ in range(100):
            g = seeded_random_graph(9, rng)
            edges = brute_force_maximum_matching(g)
            m = Matching.of(edges)
            validate_matching(g, m)
            assert m.size == brute_force_matching_number(g)


class TestMaximumMatching:
    def test_examples(self, c4, k13):
        assert maximum_matching(c4).size == 2
        assert maximum_matching(k13).size == 1

    def test_deterministic(self, c6):
        assert maximum_matching(c6) == maximum_matching(cycle_graph(6))

    def test_exhaustive_oracle_agreement_small(self):
        for n in range(7):
            for g in exhaustive_graphs(n):
                m = maximum_matching(g)
                validate_matching(g, m)
                assert m.size == brute_force_matching_number(g)

    def test_random_oracle_agreement_n12(self):
        rng = SplitMix64(1729)
        for _ in range(200):
            g = seeded_random_graph(12, rng)
            assert maximum_matching(g).size == brute_force_matching_number(g)

    def test_odd_cycles_need_blossoms(self):
        # odd cycles and joined odd cycles exercise contraction
        for n in (3, 5, 7, 9):
            g = cycle_graph(n)
            assert maximum_matching(g).size == n // 2
        bowtie = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                                (2, 4)])
        assert maximum_matching(bowtie).size == brute_force_matching_number(
            bowtie) == 2


class TestAugmentingPath:
    def test_p4_unique_augmentation(self, p4):
        path = find_augmenting_path(p4, Matching.of([(1, 2)]))
        assert path == AlternatingPath((0, 1, 2, 3))

    def test_perfect_matching_has_none(self, c4):
        assert find_augmenting_path(c4, Matching.of([(0, 1), (2, 3)])) is None

    def test_invalid_matching_rejected(self, c4):
        with pytest.raises(ValueError):
            find_augmenting_path(c4, Matching.of([(0, 2)]))

    @given(graphs(max_n=10))
    @settings(max_examples=120)
    def test_berge_absent_iff_maximum(self, g):
        target = brute_force_matching_number(g)
        # walk a deterministic chain of matchings up from empty
        m = Matching.of([])
        while True:
            path = find_augmenting_path(g, m)
            if m.size == target:
                assert path is None
                break
            assert path is not None
            m = _flip(g, m, path)

    def test_berge_on_seeded_submaximum_matchings(self):
        rng = SplitMix64(271828)
        for trial in range(400):
            g = seeded_random_graph(2 + trial % 9, rng)
            target = brute_force_matching_number(g)
            m = _random_matching(g, rng)
            path = find_augmenting_path(g, m)
            assert (path is None) == (m.size == target)


def _random_matching(g, rng) -> Matching:
    edges = list(g.edges())
    picked = []
    used = 0
    while edges:
        e = edges.pop(rng.next_below(len(edges)))
        pair = 1 << e[0] | 1 << e[1]
        if not used & pair and rng.next_float() < 0.7:
            picked.append(e)
            used |= pair
    return Matching.of(picked)


def _flip(g, m, path) -> Matching:
    """Check that ``path`` augments ``m`` in ``g``, a simple path with
    exposed ends whose edges of g alternate unmatched and matched, and
    return m with the path flipped."""
    vs = path.vertices
    assert len(vs) % 2 == 0 and len(set(vs)) == len(vs), vs
    covered = set(m.vertices())
    assert vs[0] not in covered and vs[-1] not in covered, vs
    steps = [tuple(sorted(e)) for e in zip(vs, vs[1:])]
    for i, (u, v) in enumerate(steps):
        assert g.has_edge(u, v) and ((u, v) in m.edges) == (i % 2 == 1), vs
    return Matching.of(set(m.edges) ^ set(steps))


class TestAugment:
    def test_p4_example(self, p4):
        m = Matching.of([(1, 2)])
        out = _flip(p4, m, find_augmenting_path(p4, m))
        assert out == Matching.of([(0, 1), (2, 3)])

    def test_covered_set_identity_on_seeded_instances(self):
        # size grows by one and the covered set gains exactly the endpoints
        rng = SplitMix64(42)
        done = 0
        while done < 1000:
            g = seeded_random_graph(4 + done % 9, rng)
            m = _random_matching(g, rng)
            path = find_augmenting_path(g, m)
            if path is None:
                continue
            out = _flip(g, m, path)
            validate_matching(g, out)
            assert out.size == m.size + 1
            endpoints = {path.vertices[0], path.vertices[-1]}
            assert set(out.vertices()) == set(m.vertices()) | endpoints
            done += 1


class TestEnumerateMatchings:
    def test_c4_counts(self, c4):
        assert sum(1 for _ in enumerate_matchings(c4, 1)) == 4
        assert [m.edges for m in enumerate_matchings(c4, 2)] == [
            ((0, 1), (2, 3)), ((0, 3), (1, 2))]

    def test_k33_size_two_count(self, k33):
        assert sum(1 for _ in enumerate_matchings(k33, 2)) == 18

    def test_size_zero_is_single_empty(self, c4):
        assert list(enumerate_matchings(c4, 0)) == [Matching.of([])]

    def test_above_maximum_is_empty(self, c4):
        assert list(enumerate_matchings(c4, 3)) == []

    @given(graphs(max_n=8))
    @settings(max_examples=60)
    def test_count_and_order_against_oracle(self, g):
        for k in range(4):
            out = list(enumerate_matchings(g, k))
            assert len(out) == count_matchings_brute_force(g, k)
            assert len(set(out)) == len(out)
            assert out == sorted(out, key=lambda m: m.edges)


class TestPerfectMatching:
    def test_examples(self, c6):
        assert has_perfect_matching(from_edges(2, [(0, 1)]))
        assert not has_perfect_matching(path_graph(3))
        assert has_perfect_matching(c6)

    def test_extends_c4(self, c4):
        assert extends_to_perfect(c4, Matching.of([(0, 1)])) == Matching.of(
            [(0, 1), (2, 3)])

    def test_extends_p4_middle_blocked(self, p4):
        assert extends_to_perfect(p4, Matching.of([(1, 2)])) is None

    def test_extends_empty_reduces_to_existence(self, c6):
        out = extends_to_perfect(c6, Matching.of([]))
        assert out is not None and out.size == 3

    @given(graphs(max_n=10))
    @settings(max_examples=80)
    def test_definitional_equivalence(self, g):
        for m in list(enumerate_matchings(g, 1))[:6]:
            ext = extends_to_perfect(g, m)
            sub, _ = delete_vertices(g, m.vertices())
            assert (ext is not None) == has_perfect_matching(sub)
            if ext is not None:
                assert set(m.edges) <= set(ext.edges)
                assert ext.size * 2 == g.n
                validate_matching(g, ext)

    def test_length_7_path_reaches_the_search(self, monkeypatch):
        """C10 less the edge 0-9 is the path 0..9; with u = 0 and v = 9
        removed from the match 01, 23, 45, 67, 89, the exposed 1 and 8 are
        joined only by 1-2=3-4=5-6=7-8, of length 7.  Eight vertices are
        left, too many for the mask tests to decide alone, so the leaf
        test and the step each run the blossom search once, and it
        succeeds."""
        calls = []
        search = matching._augmenting_path_from

        def counted(*args):
            out = search(*args)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(matching, "_augmenting_path_from", counted)
        g, full = cycle_graph(10), (1 << 10) - 1
        match = [1, 0, 3, 2, 5, 4, 7, 6, 9, 8]
        assert _extends_without_pair(g.adj, g.n, full, match, 0, 9)
        assert calls == [True]
        got = _perfect_without_pair(g.adj, g.n, full, match, 0, 9)
        assert calls == [True, True]
        assert got == [-1, 2, 1, 4, 3, 6, 5, 8, 7, -1]
        assert_perfect_inside(g, full & ~(1 | 1 << 9), got)

    def test_warm_start_against_oracle(self):
        # every graph on n <= 6, every removed set S whose complement has a
        # perfect match, and every edge uv left after removing S
        for n in range(7):
            full = (1 << n) - 1
            for g in exhaustive_graphs(n):
                edges = list(g.edges())
                for removed in range(1 << n):
                    rest = full & ~removed
                    if (_max_matching_size(g.adj, rest) * 2
                            != rest.bit_count()):
                        continue
                    match = _mask_maximum_matching(g.adj, n, rest)
                    assert_perfect_inside(g, rest, match)
                    for u, v in edges:
                        if rest >> u & rest >> v & 1:
                            left = rest & ~(1 << u | 1 << v)
                            want = (_max_matching_size(g.adj, left) * 2
                                    == left.bit_count())
                            got = _perfect_without_pair(g.adj, n, rest,
                                                        match, u, v)
                            assert (got is not None) == want, (g, rest, u, v)
                            if got is not None:
                                assert_perfect_inside(g, left, got)

    def test_leaf_test_against_oracle(self, monkeypatch):
        """_extends_without_pair answers as _perfect_without_pair and the
        oracle do, for every edge uv of every mask with a perfect match,
        and the step's match is a perfect match of the mask minus u and v.
        Graphs on n <= 6 are taken at their full mask, which covers every
        mask of them, since the answer depends only on the graph on the
        mask and the order of its vertices.  The dense sample takes every
        mask; its pairs are nearly all settled by paths of length 5 at
        most.  The sparse sample, at its full mask, leaves pairs to the
        fallback search both ways, which the test checks: the mask tests
        alone would answer wrong there."""
        calls, searched = [], set()
        search = matching._augmenting_path_from

        def counted(*args):
            out = search(*args)
            calls.append(out is not None)
            return out

        monkeypatch.setattr(matching, "_augmenting_path_from", counted)
        cases = [(g, (1 << n) - 1) for n in range(7)
                 for g in exhaustive_graphs(n)]
        rng = SplitMix64(1992)
        for n in (8, 9, 10):
            for p in (0.6, 0.75, 0.9):
                g = seeded_random_graph(n, rng, p)
                cases += [(g, mask) for mask in range(1 << n)]
        for n, p in ((12, 0.3), (12, 0.4), (14, 0.3)):
            for _ in range(100):
                g = seeded_random_graph(n, rng, p)
                cases.append((g, (1 << n) - 1))
        for g, mask in cases:
            if _max_matching_size(g.adj, mask) * 2 != mask.bit_count():
                continue
            match = _mask_maximum_matching(g.adj, g.n, mask)
            for u, v in g.edges():
                if mask >> u & mask >> v & 1:
                    left = mask & ~(1 << u | 1 << v)
                    want = (_max_matching_size(g.adj, left) * 2
                            == left.bit_count())
                    calls.clear()
                    got = _extends_without_pair(g.adj, g.n, mask, match, u, v)
                    searched.update(calls)
                    step_got = _perfect_without_pair(g.adj, g.n, mask,
                                                     match, u, v)
                    assert got == (step_got is not None) == want, (
                        g, mask, u, v)
                    if step_got is not None:
                        assert_perfect_inside(g, left, step_got)
        assert searched == {True, False}


class TestKernelBytes:
    def test_witnesses_pinned(self):
        """is_connected, bipartition (sides or odd cycle) and the maximum
        matching's array on every graph with n <= 6, at its full mask and
        at two sub-masks, pinned by one sha256, so a faster kernel must
        return the same witnesses and not only the same verdicts."""
        digest = hashlib.sha256()
        for n in range(7):
            full = (1 << n) - 1
            for g in exhaustive_graphs(n):
                for mask in (full, full & ~1, full & 0b110110):
                    digest.update(repr((
                        is_connected(g), bipartition(g),
                        _mask_maximum_matching(g.adj, g.n, mask))).encode())
        assert digest.hexdigest() == ("26885c28c64bd32fa586fc8a6a0ece56"
                                      "d2032b6fc8600393d1b00ba410f6ed84")


class TestMatchingNumber:
    def test_examples(self, c4, k13):
        assert matching_number(c4) == 2
        assert matching_number(k13) == 1

    def test_oracle_agreement(self):
        rng = SplitMix64(7)
        for trial in range(150):
            g = seeded_random_graph(3 + trial % 10, rng)
            assert matching_number(g) == brute_force_matching_number(g)


class TestKoenigOreDeficiency:
    def test_star_center_side(self, k13):
        out = koenig_ore_deficiency(k13, Bipartition((0,), (1, 2, 3)))
        assert out.value == 0 and out.witness == ()

    def test_star_leaves_side(self, k13):
        out = koenig_ore_deficiency(k13, Bipartition((1, 2, 3), (0,)))
        assert out.value == 2 and out.witness == (1, 2, 3)

    def test_rejects_invalid_bipartition(self, c4):
        with pytest.raises(ValueError):
            koenig_ore_deficiency(c4, Bipartition((0, 1), (2, 3)))

    def test_exhaustive_bipartite_agreement(self):
        for n in range(6):
            for g in exhaustive_graphs(n):
                bp = bipartition(g)
                if not isinstance(bp, Bipartition):
                    continue
                out = koenig_ore_deficiency(g, bp)
                assert out.value == brute_force_deficiency(g, bp)
                assert out.value == len(bp.x) - matching_number(g)
                assert _deficiency_of(g, out.witness) == out.value

    def test_random_bipartite_agreement(self):
        rng = SplitMix64(99)
        for _ in range(150):
            g = seeded_random_bipartite(5, rng)
            bp = Bipartition(tuple(range(5)), tuple(range(5, 10)))
            out = koenig_ore_deficiency(g, bp)
            assert out.value == brute_force_deficiency(g, bp)
            assert out.value + matching_number(g) == 5
            assert _deficiency_of(g, out.witness) == out.value


def _deficiency_of(g, subset) -> int:
    nbhd = 0
    for v in subset:
        nbhd |= g.adj[v]
    return len(subset) - nbhd.bit_count()
