from __future__ import annotations

import re

import pytest
from hypothesis import given

from conftest import exhaustive_graphs, graphs, seeded_random_graph
from kextend import (
    Bipartition,
    Graph,
    GraphParseError,
    OddCycle,
    bipartition,
    complete_bipartite,
    components,
    cycle_graph,
    delete_vertices,
    empty_graph,
    from_edges,
    min_degree,
    neighborhood,
    parse_edge_list,
    parse_graph6,
    path_graph,
    to_edge_list,
    to_graph6,
)
from kextend.graphs import bits, check_bipartition
from kextend.rng import SplitMix64


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))  # 0->1 present, 1->0 missing

    @pytest.mark.parametrize("adj, pair", [
        # edge 01 is symmetric; 0->2, 0->3 and 3->1 have no reverse
        ((0b1110, 0b0001, 0b0000, 0b0010), "(0, 2)"),
        # 2->1, 3->0 and 3->1 have no reverse: the least pair's one
        # arc leaves its larger end
        ((0b0000, 0b0000, 0b0010, 0b0011), "(0, 3)"),
    ])
    def test_asymmetry_names_the_least_pair(self, adj, pair):
        with pytest.raises(ValueError, match=re.escape(
                f"adjacency not symmetric at {pair}")):
            Graph(4, adj)

    def test_duplicate_edges_collapse(self):
        g = from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_hashable_and_equal_by_value(self):
        assert cycle_graph(4) == cycle_graph(4)
        assert hash(cycle_graph(4)) == hash(cycle_graph(4))


class TestGraph6:
    # hand-encoded per the format: header chr(n+63), column-order
    # upper-triangle bits, big-endian 6-bit groups, zero padding
    def test_two_vertices_no_edge(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.edge_count == 0

    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and list(g.edges()) == [(0, 1)]
        assert to_graph6(from_edges(2, [(0, 1)])) == "A_"

    def test_empty_graph_header_only(self):
        assert to_graph6(empty_graph(0)) == "?"
        assert parse_graph6("?").n == 0

    def test_c4_fixed_encoding(self):
        # bits x01..x23 = 1,0,1,1,0,1 -> 101101 = 45 -> chr(108) = 'l'
        assert to_graph6(cycle_graph(4)) == "Cl"

    def test_p4_fixed_encoding(self):
        # bits 1,0,1,0,0,1 -> 101001 = 41 -> chr(104) = 'h'
        assert to_graph6(path_graph(4)) == "Ch"

    def test_rejects_long_form_header(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph6("~??")
        assert exc.value.offset == 0

    def test_rejects_out_of_range_byte(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph6("A" + chr(10))
        assert exc.value.offset == 1

    def test_rejects_trailing_garbage(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph6("A__")
        assert exc.value.offset == 2

    def test_rejects_truncation(self):
        with pytest.raises(GraphParseError):
            parse_graph6("C")

    def test_rejects_nonzero_padding(self):
        # K2 body with a stray low bit set: 100001 -> chr(63+33) = '`';
        # n = 5 has ten pairs, so two padding bits, the first set by 'A'.
        # The offset is the last byte, where all padding bits sit.
        for line, offset in (("A`", 1), ("D?A", 2)):
            with pytest.raises(GraphParseError,
                               match="nonzero padding bits") as exc:
                parse_graph6(line)
            assert exc.value.offset == offset

    @pytest.mark.parametrize("p", [0.5, 0.1])
    def test_bit_order_matches_the_format_definition(self, p):
        # reference written from the format: one bit per pair (u, v), u < v,
        # in column order (v outer), packed into 6-bit groups most
        # significant bit first, zero-padded to a whole group
        rng = SplitMix64(0x6A09E667)
        for n in range(63):
            g = seeded_random_graph(n, rng, p)
            pairs = [g.adj[u] >> v & 1 for v in range(n) for u in range(v)]
            pairs += [0] * (-len(pairs) % 6)
            body = "".join(
                chr(63 + int("".join(map(str, pairs[i:i + 6])), 2))
                for i in range(0, len(pairs), 6))
            reference = chr(63 + n) + body
            assert to_graph6(g) == reference
            assert parse_graph6(reference) == g

    def test_rejects_size_above_62(self):
        with pytest.raises(ValueError):
            to_graph6(empty_graph(63))

    @given(graphs(max_n=13))
    def test_round_trip_graph_to_text(self, g):
        assert parse_graph6(to_graph6(g)) == g

    def test_round_trip_at_size_limit(self):
        g = from_edges(62, [(i, (i * 7 + 1) % 62) for i in range(62)
                            if i != (i * 7 + 1) % 62])
        assert parse_graph6(to_graph6(g)) == g

    def test_round_trip_text_to_text_exhaustive(self):
        for n in range(5):
            for g in exhaustive_graphs(n):
                s = to_graph6(g)
                assert to_graph6(parse_graph6(s)) == s


class TestEdgeList:
    def test_k2(self):
        assert parse_edge_list("2\n0 1") == from_edges(2, [(0, 1)])

    def test_c4(self):
        assert parse_edge_list("4\n0 1\n1 2\n2 3\n3 0") == cycle_graph(4)

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("2\n0 0")
        assert exc.value.line == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("2\n0 5")

    def test_missing_header(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("")

    def test_round_trip(self):
        for g in (cycle_graph(5), path_graph(3), complete_bipartite(2, 3)):
            assert parse_edge_list(to_edge_list(g)) == g


class TestNeighborhood:
    def test_c4_single(self, c4):
        assert neighborhood(c4, (0,)) == (1, 3)

    def test_c4_antipodal(self, c4):
        assert neighborhood(c4, (0, 2)) == (1, 3)

    def test_k33_side(self, k33):
        assert neighborhood(k33, (0,)) == (3, 4, 5)

    def test_may_intersect_sources(self, c4):
        assert neighborhood(c4, (0, 1)) == (0, 1, 2, 3)

    def test_out_of_range_rejected(self, c4):
        with pytest.raises(ValueError):
            neighborhood(c4, (9,))

    @given(graphs(max_n=9))
    def test_members_have_an_edge_into_sources(self, g):
        sources = tuple(range(0, g.n, 2))
        for w in neighborhood(g, sources):
            assert any(g.has_edge(w, s) for s in sources)


class TestMinDegree:
    def test_values(self, c4, k13):
        assert min_degree(from_edges(2, [(0, 1)])) == 1
        assert min_degree(c4) == 2
        assert min_degree(k13) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_degree(empty_graph(0))


class TestDeleteVertices:
    def test_c4_minus_one_is_path(self, c4):
        g, relabel = delete_vertices(c4, (0,))
        assert g == path_graph(3)
        assert relabel == {1: 0, 2: 1, 3: 2}

    def test_k33_minus_one_per_side(self, k33):
        g, _ = delete_vertices(k33, (0, 3))
        assert g == complete_bipartite(2, 2)

    def test_empty_deletion_is_identity(self, c4):
        g, relabel = delete_vertices(c4, ())
        assert g == c4
        assert relabel == {v: v for v in range(4)}

    @given(graphs(max_n=9))
    def test_survivor_edges_exactly_preserved(self, g):
        drop = tuple(range(0, g.n, 3))
        sub, relabel = delete_vertices(g, drop)
        assert sub.n == g.n - len(drop)
        expected = {(relabel[u], relabel[v]) for u, v in g.edges()
                    if u not in drop and v not in drop}
        canon = {(a, b) if a < b else (b, a) for a, b in expected}
        assert set(sub.edges()) == canon


class TestComponents:
    def test_cycle_single(self, c4):
        assert components(c4) == [(0, 1, 2, 3)]

    def test_two_k2(self):
        assert components(from_edges(4, [(0, 1), (2, 3)])) == [(0, 1), (2, 3)]

    def test_edgeless(self):
        assert components(empty_graph(3)) == [(0,), (1,), (2,)]

    @given(graphs(max_n=10))
    def test_partition_and_connectivity(self, g):
        comps = components(g)
        everything = [v for comp in comps for v in comp]
        assert sorted(everything) == list(range(g.n))
        assert len(set(everything)) == g.n
        lookup = {v: i for i, comp in enumerate(comps) for v in comp}
        for u, v in g.edges():
            assert lookup[u] == lookup[v]
        # each part is connected: BFS inside the part reaches all of it
        for comp in comps:
            seen = {comp[0]}
            frontier = [comp[0]]
            while frontier:
                frontier = [w for v in frontier for w in bits(g.adj[v])
                            if w not in seen and not seen.add(w)]
            assert seen == set(comp)


class TestBipartition:
    def test_c4(self, c4):
        assert bipartition(c4) == Bipartition((0, 2), (1, 3))

    def test_triangle_witness(self):
        out = bipartition(cycle_graph(3))
        assert isinstance(out, OddCycle)
        vs = out.vertices
        assert len(vs) % 2 == 1 and len(set(vs)) == len(vs)

    def test_k33(self, k33):
        assert bipartition(k33) == Bipartition((0, 1, 2), (3, 4, 5))

    def test_component_minimum_goes_to_x(self):
        g = from_edges(4, [(1, 0), (3, 2)])
        assert bipartition(g) == Bipartition((0, 2), (1, 3))

    @given(graphs(max_n=10))
    def test_valid_sides_or_odd_cycle(self, g):
        out = bipartition(g)
        if isinstance(out, Bipartition):
            check_bipartition(g, out)
        else:
            vs = out.vertices
            assert len(vs) % 2 == 1
            for i, v in enumerate(vs):
                assert g.has_edge(v, vs[(i + 1) % len(vs)])
