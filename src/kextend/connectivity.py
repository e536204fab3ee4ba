"""Vertex connectivity with cut witnesses.

Pairwise minimum vertex cuts come from unit-capacity max-flow on the
split-vertex digraph: vertex v becomes nodes 2v (in) and 2v+1 (out)
joined by a capacity-1 arc, and each undirected edge becomes two opposite
arcs of effectively unbounded capacity.  The source-side residual cut is
the canonical witness; everything scans in ascending order, so results
are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, VertexSet, components


@dataclass(frozen=True)
class CutWitness:
    """Removing ``cut`` disconnects the two ``separated`` vertices."""

    cut: VertexSet
    separated: tuple[int, int]


def min_vertex_cut(g: Graph, u: int, v: int) -> CutWitness:
    """Minimum-size vertex set, disjoint from {u, v}, separating u from v.
    Requires u and v distinct and non-adjacent."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise ValueError("endpoints must be distinct")
    if g.has_edge(u, v):
        raise ValueError("adjacent endpoints admit no finite vertex cut")
    cut = _pair_cut(g, u, v)
    return CutWitness(cut, (u, v))


def vertex_connectivity(g: Graph) -> tuple[int, Optional[CutWitness]]:
    """Vertex connectivity with a witness cut whenever one exists, i.e.
    whenever the connectivity is below n - 1.  Conventions: complete graphs
    have connectivity n - 1, a single vertex 0, disconnected graphs 0 with
    an empty cut."""
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
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.adj[u] >> v & 1:
                continue
            # keep equal-size cuts in play: they compete on lexicographic order
            limit = len(best) + 1 if best is not None else None
            cut = _pair_cut(g, u, v, limit=limit)
            if cut is None:
                continue
            if best is None or len(cut) < len(best) or (
                    len(cut) == len(best) and cut < best):
                best = cut
                best_pair = (u, v)
    if best is None:
        raise RuntimeError("no pair cut in a connected non-complete graph")
    return len(best), CutWitness(best, best_pair)


def is_k_connected(g: Graph, k: int) -> bool:
    if k < 0:
        raise ValueError("connectivity level must be nonnegative")
    if g.n == 0:
        return False
    if g.n < k + 1:
        return False
    return vertex_connectivity(g)[0] >= k


def _pair_cut(g: Graph, s: int, t: int,
              limit: int | None = None) -> tuple[int, ...] | None:
    """Source-side minimum s-t vertex cut via augmenting BFS on the split
    digraph.  With ``limit``, gives up (returns None) once the flow value
    reaches it, since such a cut cannot improve on the current best."""
    n2 = 2 * g.n
    inf = g.n + 1
    # arcs: in(v)=2v, out(v)=2v+1; adjacency and capacity as dense lists
    arcs_to: list[list[int]] = [[] for _ in range(n2)]
    cap: dict[tuple[int, int], int] = {}

    def add(a: int, b: int, c: int) -> None:
        arcs_to[a].append(b)
        arcs_to[b].append(a)
        cap[(a, b)] = c
        cap[(b, a)] = 0

    for v in range(g.n):
        add(2 * v, 2 * v + 1, inf if v in (s, t) else 1)
    for a, b in g.edges():
        add(2 * a + 1, 2 * b, inf)
        add(2 * b + 1, 2 * a, inf)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        if limit is not None and flow >= limit:
            return None
        parent = [-1] * n2
        parent[source] = source
        queue = deque([source])
        while queue:
            a = queue.popleft()
            for b in arcs_to[a]:
                if parent[b] == -1 and cap[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if parent[sink] == -1:
            break
        b = sink
        while b != source:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
    reachable = [False] * n2
    reachable[source] = True
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in arcs_to[a]:
            if not reachable[b] and cap[(a, b)] > 0:
                reachable[b] = True
                queue.append(b)
    cut = tuple(v for v in range(g.n)
                if v not in (s, t) and reachable[2 * v] and not reachable[2 * v + 1])
    if len(cut) != flow:
        raise RuntimeError(f"cut size {len(cut)} differs from flow {flow}")
    return cut
