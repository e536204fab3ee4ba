from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings

import kextend.connectivity as connectivity
from conftest import exhaustive_graphs, graphs, seeded_random_graph
from kextend import (
    CutWitness,
    complete_graph,
    components,
    delete_vertices,
    empty_graph,
    from_edges,
    is_k_connected,
    min_degree,
    vertex_connectivity,
)
from kextend.connectivity import _pair_cut
from kextend.oracles import brute_force_vertex_connectivity
from kextend.rng import SplitMix64


def _check_cut(g, witness):
    """A witness must disconnect its pair once the cut is removed."""
    sub, relabel = delete_vertices(g, witness.cut)
    u, v = witness.separated
    assert u not in witness.cut and v not in witness.cut
    ru, rv = relabel[u], relabel[v]
    assert not any(ru in comp and rv in comp for comp in components(sub))


class TestVertexConnectivity:
    def test_cycle(self, c4):
        kappa, witness = vertex_connectivity(c4)
        assert kappa == 2
        _check_cut(c4, witness)

    def test_k33(self, k33):
        kappa, witness = vertex_connectivity(k33)
        assert kappa == 3 == brute_force_vertex_connectivity(k33)
        _check_cut(k33, witness)

    def test_disconnected(self):
        g = from_edges(4, [(0, 1), (2, 3)])
        kappa, witness = vertex_connectivity(g)
        assert kappa == 0 and witness.cut == ()
        _check_cut(g, witness)

    def test_complete_graph_conventions(self):
        for n in (2, 3, 5):
            assert vertex_connectivity(complete_graph(n)) == (n - 1, None)

    def test_single_vertex(self):
        assert vertex_connectivity(empty_graph(1)) == (0, None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vertex_connectivity(empty_graph(0))

    def test_exhaustive_oracle_agreement(self):
        for n in range(1, 6):
            for g in exhaustive_graphs(n):
                kappa, witness = vertex_connectivity(g)
                assert kappa == brute_force_vertex_connectivity(g)
                if witness is not None:
                    _check_cut(g, witness)

    def test_random_oracle_agreement(self):
        rng = SplitMix64(4040)
        for trial in range(150):
            g = seeded_random_graph(6 + trial % 5, rng)
            assert vertex_connectivity(g)[0] == \
                brute_force_vertex_connectivity(g)

    @given(graphs(max_n=9, min_n=1))
    @settings(max_examples=80)
    def test_bounded_by_min_degree(self, g):
        assert vertex_connectivity(g)[0] <= min_degree(g)


class TestIsKConnected:
    def test_examples(self, c4, p4, k33):
        assert is_k_connected(c4, 2)
        assert not is_k_connected(p4, 2)
        assert not is_k_connected(k33, 4)

    def test_needs_enough_vertices(self):
        assert not is_k_connected(complete_graph(3), 3)

    def test_threshold_agrees_with_oracle(self):
        """Even's pair selection against the exponential oracle at every
        level from 0 to n + 1."""
        for g in _threshold_graphs():
            kappa = brute_force_vertex_connectivity(g) if g.n else 0
            for k in range(g.n + 2):
                assert is_k_connected(g, k) == (g.n >= k + 1
                                                and kappa >= k), (g, k)

    @given(graphs(max_n=8, min_n=1))
    @settings(max_examples=60)
    def test_monotone_in_k(self, g):
        for k in range(1, 5):
            if is_k_connected(g, k):
                assert is_k_connected(g, k - 1)


class TestMinVertexCut:
    """Pair cuts by _pair_cut with limit n, which no flow reaches."""

    def test_c4_antipodal(self, c4):
        cut = _pair_cut(c4, 0, 2, limit=c4.n)
        assert cut == (1, 3)
        _check_cut(c4, CutWitness(cut, (0, 2)))

    def test_p4_lexicographically_least(self, p4):
        assert _pair_cut(p4, 0, 3, limit=p4.n) == (1,)

    def test_warm_path_rerouted(self):
        """The warm start takes 0-1-3-5, so 0-2-3-5 is blocked at 3 and
        the second path needs the backward arc through 3: 0-2-3~1-4-5."""
        g = from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5),
                           (4, 5)])
        assert _pair_cut(g, 0, 5, limit=g.n) == (1, 2)
        assert _pair_cut(g, 0, 5, limit=2) is None
        assert _pair_cut(g, 0, 5, limit=3) == (1, 2)
        # the one path 3-0-4-2-5 enters 2 through 4, so the last search
        # backs from 2 into 4's out-side and reaches 0's out-side only by
        # the arc to 4's own in-side: without it 0 would look cut too
        g = from_edges(7, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 3), (1, 6),
                           (2, 4), (2, 5), (2, 6)])
        assert _pair_cut(g, 3, 5, limit=g.n) == (2,)

    def test_size_matches_brute_force_separator(self):
        rng = SplitMix64(11)
        checked = 0
        while checked < 60:
            g = seeded_random_graph(7, rng)
            pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)
                     if not g.has_edge(u, v)]
            if not pairs or not _same_component(g, pairs[0]):
                continue
            u, v = pairs[0]
            cut = _pair_cut(g, u, v, limit=g.n)
            _check_cut(g, CutWitness(cut, (u, v)))
            assert len(cut) == _brute_force_separator_size(g, u, v)
            checked += 1


def _threshold_graphs():
    for n in range(7):
        yield from exhaustive_graphs(n)
    rng = SplitMix64(1975)
    for trial in range(240):
        yield seeded_random_graph(7 + trial % 4, rng,
                                  p=(0.3, 0.5, 0.8)[trial % 3])
    yield from _dense_graphs(SplitMix64(1980), 60)


def _dense_graphs(rng, count):
    """Dense draws, where most flow paths are warm two- and three-edge
    paths and the flow value often reaches the limit before any search."""
    for trial in range(count):
        yield seeded_random_graph(8 + trial % 3, rng,
                                  p=(0.8, 0.85, 0.9, 0.95)[trial % 4])


def _same_component(g, pair):
    return any(pair[0] in c and pair[1] in c for c in components(g))


def _brute_force_separator_size(g, u, v) -> int:
    others = [w for w in range(g.n) if w not in (u, v)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            sub, relabel = delete_vertices(g, cut)
            if not any(relabel[u] in c and relabel[v] in c
                       for c in components(sub)):
                return size
    raise AssertionError("no separator found")


class TestCanonicalWitness:
    """The witness rule, pinned by brute force rather than by any flow: a
    pair's cut is its minimum separator closest to the first vertex."""

    def test_pair_cut_is_closest_min_separator(self):
        for g, u, v in _pairs():
            kappa, closest = _closest_min_separator(g, u, v)
            assert _pair_cut(g, u, v, limit=g.n) == closest
            for limit in range(g.n + 1):
                got = _pair_cut(g, u, v, limit=limit)
                assert got == (None if kappa >= limit else closest)

    def test_vertex_connectivity_takes_least_pair_cut(self):
        for g in _witness_graphs():
            kappa, witness = vertex_connectivity(g)
            if witness is None or len(components(g)) > 1:
                continue
            cuts = [(_closest_min_separator(g, u, v)[1], (u, v))
                    for u, v in _non_adjacent_pairs(g)]
            cut = min((len(c), c) for c, _ in cuts)[1]
            pair = next(p for c, p in cuts if c == cut)
            assert (kappa, witness.cut, witness.separated) == \
                (len(cut), cut, pair)


class TestMaskRules:
    """Each rule that settles a pair from neighbour masks, against the
    closest minimum separator."""

    def test_common_neighbours_at_limit_settle_before_any_path(
            self, monkeypatch):
        """s and t share 2 and 3 neighbours: no flow is built at the limit
        that many disjoint two-edge paths reach."""
        g = from_edges(6, [(0, 1), (0, 2), (1, 5), (2, 5), (0, 3), (3, 4),
                           (4, 5)])
        assert _closest_min_separator(g, 0, 5) == (3, (1, 2, 3))

        def refuse(mask):
            raise AssertionError("a flow was built")

        monkeypatch.setattr(connectivity, "bits", refuse)
        assert _pair_cut(g, 0, 5, limit=2) is None
        k4_minus_edge = from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4),
                                       (2, 4), (3, 4)])
        assert _pair_cut(k4_minus_edge, 0, 4, limit=3) is None

    def test_source_saturated_after_one_augmentation(self):
        """The warm start finds 0-1-3-5 only; one search adds 0-2-3~1-4-5,
        and then both of 0's neighbours start paths: the cut is N(0), not
        N(5) = (3, 4), unless the flow has reached the limit."""
        g = from_edges(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 5),
                           (4, 5)])
        assert _closest_min_separator(g, 0, 5) == (2, (1, 2))
        assert _pair_cut(g, 0, 5, limit=3) == (1, 2)
        assert _pair_cut(g, 0, 5, limit=2) is None

    def test_flow_equal_to_degree_and_limit_gives_none(self, c6):
        """The warm paths 0-1-2-3 and 0-5-4-3 saturate 0 at the limit."""
        assert _pair_cut(c6, 0, 3, limit=2) is None
        assert _pair_cut(c6, 0, 3, limit=3) == (1, 5)

    def test_sink_saturated_source_not_still_searches(self):
        """N(5) = (3, 4) is a minimum cut once two paths run, but (1, 2)
        is the one closer to 0, whose own three neighbours stay free."""
        g = from_edges(8, [(0, 6), (0, 7), (0, 1)]
                       + [(a, x) for a in (6, 7) for x in (1, 2)]
                       + [(1, 3), (2, 4), (3, 5), (4, 5)])
        kappa, closest = _closest_min_separator(g, 0, 5)
        assert (kappa, closest) == (2, (1, 2))
        assert _pair_cut(g, 0, 5, limit=g.n) == closest
        assert _pair_cut(g, 5, 0, limit=g.n) == (3, 4)


def _witness_graphs():
    for n in range(2, 6):
        yield from exhaustive_graphs(n)
    rng = SplitMix64(2718)
    for trial in range(16):
        yield seeded_random_graph(7 + trial % 2, rng, p=0.4 + trial % 3 / 10)
    yield from _dense_graphs(SplitMix64(1975), 24)


def _non_adjacent_pairs(g):
    return [(u, v) for u, v in combinations(range(g.n), 2)
            if not g.has_edge(u, v)]


def _pairs():
    for g in _witness_graphs():
        for u, v in _non_adjacent_pairs(g):
            yield g, u, v
            yield g, v, u


@lru_cache(maxsize=None)
def _closest_min_separator(g, u, v) -> tuple[int, tuple[int, ...]]:
    """Local connectivity of u and v and the minimum u-v separator whose
    u-side component lies inside that of every other minimum separator."""
    others = [w for w in range(g.n) if w not in (u, v)]
    for size in range(len(others) + 1):
        sides = {}
        for cut in combinations(others, size):
            side = _side(g, u, sum(1 << w for w in cut))
            if not side >> v & 1:
                sides[cut] = side
        if sides:
            closest = [cut for cut, side in sides.items()
                       if all(side & ~other == 0 for other in sides.values())]
            assert len(closest) == 1
            return size, closest[0]
    raise AssertionError("no separator found")


def _side(g, u, removed: int) -> int:
    """Vertex mask of u's component once the ``removed`` mask is deleted."""
    seen = frontier = 1 << u
    while frontier:
        reach = 0
        for w in range(g.n):
            if frontier >> w & 1:
                reach |= g.adj[w]
        frontier = reach & ~seen & ~removed
        seen |= frontier
    return seen
