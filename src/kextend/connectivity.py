"""Vertex connectivity with cut witnesses.

Pairwise minimum vertex cuts come from unit-capacity max-flow on the
split-vertex digraph, kept implicit: node 2v is v's in-side, 2v+1 its
out-side, and ``pred[v]`` is the vertex whose path enters v, or -1 while v
is free.  The source-side residual cut, read off the last, failed search,
is the same for every maximum flow (Picard and Queyranne 1980), so it is
the canonical witness: the minimum separator closest to the source.  That
also frees each flow to start from any set of disjoint paths: it starts
from the two-edge paths through common neighbours and greedy three-edge
paths, read off the masks ``adj[s]`` and ``adj[t]``, before any search.
Two rules settle a pair from those masks without a search.  Each common
neighbour is a path of its own, so as many of them as the limit end the
flow before it starts.  Once the flow equals deg s, every neighbour of s
starts a path, so the residual search would reach exactly their in-sides:
the canonical cut is N(s).  Otherwise the cut is read off the last
search's masks of reached in-sides and out-sides.

Whether the connectivity is at least k is a threshold test after S. Even
(SIAM J. Comput. 1975): flows stop at k paths, warm ones included, and
only the pairs from each of the first k vertices to its non-neighbours
above it run, O(k n) flows in all.  The full connectivity scans every
non-adjacent pair in ascending order for its canonical witness, each
flow stopping one path above the least cut so far (at first, above the
minimum degree); it is computed only where that witness is reported.
"""

from __future__ import annotations

from typing import Optional

from .graphs import Graph, VertexSet, _Record, bits, components


class CutWitness(_Record):
    """Removing ``cut`` disconnects the two ``separated`` vertices."""

    _fields = ("cut", "separated")

    def __init__(self, cut: VertexSet, separated: tuple[int, int]):
        self.__dict__.update(cut=cut, separated=separated)


def vertex_connectivity(g: Graph) -> tuple[int, Optional[CutWitness]]:
    """Vertex connectivity with a witness cut whenever one exists, i.e.
    whenever the connectivity is below n - 1.  Conventions: complete graphs
    have connectivity n - 1, a single vertex 0, disconnected graphs 0 with
    an empty cut.  Each pair's flow, warm paths included, stops one path
    above the least cut so far."""
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    if g.n == 1:
        return 0, None
    comps = components(g)
    if len(comps) > 1:
        return 0, CutWitness((), (comps[0][0], comps[1][0]))
    if g.edge_count == g.n * (g.n - 1) // 2:
        return g.n - 1, None
    best: Optional[tuple[int, ...]] = None
    best_pair = (0, 0)
    # kappa <= delta, and its delta neighbours cut a least-degree vertex
    # from a non-neighbour; the limit keeps equal-size cuts in play, as
    # they compete on lexicographic order
    limit = min(m.bit_count() for m in g.adj) + 1
    for u in range(g.n):
        for v in bits(~g.adj[u] & (1 << g.n) - (2 << u)):  # non-neighbours
            cut = _pair_cut(g, u, v, limit=limit)
            if cut is None:
                continue
            if best is None or len(cut) < len(best) or (
                    len(cut) == len(best) and cut < best):
                best = cut
                best_pair = (u, v)
                limit = len(cut) + 1
    if best is None:
        raise RuntimeError("no pair cut in a connected non-complete graph")
    return len(best), CutWitness(best, best_pair)


def is_k_connected(g: Graph, k: int) -> bool:
    """Whether g has at least k + 1 vertices and no separator of fewer
    than k vertices, by Even's test.  A separator S with |S| < k misses
    some s < k, and S cuts s from some non-adjacent w; when w < s, w < k
    as well, so the flow from min(s, w) to max(s, w) sees S.  Each flow
    stops once k paths are found, counting its warm-start paths."""
    if k < 0:
        raise ValueError("connectivity level must be nonnegative")
    if g.n < k + 1:
        return False
    return all(_pair_cut(g, s, t, limit=k) is None for s in range(k)
               for t in bits(~g.adj[s] & (1 << g.n) - (2 << s)))


def _pair_cut(g: Graph, s: int, t: int,
              limit: int) -> tuple[int, ...] | None:
    """Source-side minimum s-t vertex cut for distinct non-adjacent s, t,
    by augmenting BFS on the implicit split digraph, warm-started from
    vertex-disjoint paths of two and three edges.  Gives up (returns None)
    once the flow value reaches ``limit``, warm paths included, possibly
    before any search: such a cut cannot improve on the current best, nor
    fall below a threshold."""
    adj = g.adj
    if (adj[s] & adj[t]).bit_count() >= limit:
        return None
    degree = adj[s].bit_count()
    pred = [-1] * g.n
    source, sink = 2 * s + 1, 2 * t
    # warm start: s-a-t through each common neighbour a; s-a-b-t pairing
    # each other neighbour a with the least unused b of t's own neighbours
    ends = adj[t] & ~adj[s]
    flow = 0
    for a in bits(adj[s]):
        if not adj[t] >> a & 1:
            b = adj[a] & ends
            if not b:
                continue
            b &= -b
            ends ^= b
            pred[b.bit_length() - 1] = a
        pred[a] = s
        flow += 1
    while True:
        if flow >= limit:
            return None
        if flow == degree:
            return tuple(bits(adj[s]))
        parent = [-1] * (2 * g.n)
        seen_in, seen_out = 0, 1 << s
        queue = [source]
        for a in queue:
            v = a >> 1
            if a & 1:  # to every neighbour's in-side, own in-side if used
                if pred[v] != -1 and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    parent[a - 1] = a
                    queue.append(a - 1)
                fresh = adj[v] & ~seen_in
                seen_in |= fresh
                while fresh:
                    low = fresh & -fresh
                    fresh ^= low
                    b = 2 * low.bit_length() - 2
                    parent[b] = a
                    queue.append(b)
                if parent[sink] != -1:
                    break
            else:  # to own out-side if free, else back along pred
                w = v if pred[v] == -1 else pred[v]
                if not seen_out >> w & 1:
                    seen_out |= 1 << w
                    parent[2 * w + 1] = a
                    queue.append(2 * w + 1)
        if parent[sink] == -1:
            break
        b = sink
        while b != source:
            a = parent[b]
            if a >> 1 != b >> 1:  # an edge arc: forward sets, backward clears
                if a & 1:
                    pred[b >> 1] = a >> 1
                else:
                    pred[a >> 1] = -1
            b = a
        flow += 1
    cut = tuple(bits(seen_in & ~seen_out))
    if len(cut) != flow:
        raise RuntimeError(f"cut size {len(cut)} differs from flow {flow}")
    return cut
