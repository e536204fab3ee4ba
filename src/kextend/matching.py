"""Matchings: augmenting-path search with blossom contraction, matching
enumeration, perfect-matching extension, and the bipartite deficiency
witness.

The search engine follows the classic contracted-blossom scheme: grow an
alternating forest from the exposed vertices, contract odd cycles into
their base via a ``base[]`` array, and recover an explicit augmenting
path from the parent links.  All scans run in ascending vertex order so
results are reproducible; the greedy seed, the growth and the search walk
their set bits inline rather than through graphs.bits.

_perfect_without_pair is the certificate walk's one step: from a perfect
matching of the graph on a vertex mask it derives one of the mask minus
the two ends u and v of an edge.  Their partners a and b are then the
only exposed vertices, so such a matching exists exactly when an
augmenting path joins a and b.  The step tries the edge ab, a length-3
path and a length-5 path, by mask tests, before it pays for a blossom
search.  The path is simple, so its length is odd and below the number
of vertices left: with at most 6 left, the mask tests are exact and no
search runs.  The walk derives its prefixes' matchings with the step.
Its leaves only need a yes or no, which _extends_without_pair reads off
the prefix's matching with the same mask tests and no copy; only for a
mask of 8 or more vertices that those tests leave open does it copy the
match and run the blossom search, without repeating the tests.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional

from .graphs import (
    Bipartition,
    Edge,
    Graph,
    VertexSet,
    _Record,
    bits,
    check_bipartition,
    vertex_mask,
)


class Matching(_Record):
    """Pairwise vertex-disjoint edges in canonical sorted order."""

    _fields = ("edges",)

    def __init__(self, edges: tuple[Edge, ...]):
        self.__dict__.update(edges=edges)
        used = 0
        for u, v in edges:
            if not 0 <= u < v:
                raise ValueError(f"edge ({u}, {v}) not in canonical u < v form")
            pair = 1 << u | 1 << v
            if used & pair:
                raise ValueError(f"edge ({u}, {v}) shares a vertex")
            used |= pair
        if tuple(sorted(edges)) != edges:
            raise ValueError("edges must be sorted")

    @staticmethod
    def of(edges: Iterable[tuple[int, int]]) -> "Matching":
        canon = sorted((u, v) if u < v else (v, u) for (u, v) in edges)
        return Matching(tuple(canon))

    @property
    def size(self) -> int:
        return len(self.edges)

    def vertices(self) -> VertexSet:
        """V(M): every endpoint of a matched edge, sorted."""
        return tuple(bits(self.covered_mask()))

    def covered_mask(self) -> int:
        mask = 0
        for u, v in self.edges:
            mask |= 1 << u | 1 << v
        return mask


class AlternatingPath(_Record):
    """Augmenting path: endpoints exposed, edges alternating unmatched and
    matched, odd number of edges."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        self.__dict__.update(vertices=vertices)


class DeficiencyWitness(_Record):
    _fields = ("value", "witness")

    def __init__(self, value: int, witness: VertexSet):
        self.__dict__.update(value=value, witness=witness)


def validate_matching(g: Graph, m: Matching) -> None:
    for u, v in m.edges:
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")


def _match_array(g: Graph, m: Matching) -> list[int]:
    match = [-1] * g.n
    for u, v in m.edges:
        match[u] = v
        match[v] = u
    return match


def _matching_of_array(match: list[int]) -> Matching:
    return Matching(tuple((v, w) for v, w in enumerate(match) if -1 < v < w))


def _augmenting_path_from(adj: tuple[int, ...], n: int, mask: int,
                          match: list[int], root: int) -> list[int] | None:
    """Alternating-forest search from one exposed root, contracting
    blossoms through ``base``.  Returns an explicit augmenting path
    (root last) or None when the tree is Hungarian."""
    parent = [-1] * n
    base = list(range(n))
    queued = bytearray(n)
    queued[root] = 1
    queue = deque([root])
    while queue:
        v = queue.popleft()
        tos = adj[v] & mask
        while tos:
            low = tos & -tos
            tos ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                stem = _lowest_common_base(base, match, parent, v, to)
                in_blossom = bytearray(n)
                _mark_blossom(base, match, parent, in_blossom, v, stem, to)
                _mark_blossom(base, match, parent, in_blossom, to, stem, v)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not queued[i]:
                            queued[i] = 1
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return _recover_path(parent, match, to)
                queued[match[to]] = 1
                queue.append(match[to])
    return None


def _lowest_common_base(base: list[int], match: list[int], parent: list[int],
                        a: int, b: int) -> int:
    seen = set()
    v = base[a]
    while True:
        seen.add(v)
        if match[v] == -1:
            break
        v = base[parent[match[v]]]
    v = base[b]
    while v not in seen:
        v = base[parent[match[v]]]
    return v


def _mark_blossom(base: list[int], match: list[int], parent: list[int],
                  flags: bytearray, v: int, stem: int, child: int) -> None:
    while base[v] != stem:
        flags[base[v]] = 1
        flags[base[match[v]]] = 1
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _recover_path(parent: list[int], match: list[int], leaf: int) -> list[int]:
    path = [leaf]
    v = parent[leaf]
    while True:
        path.append(v)
        if match[v] == -1:
            break
        path.append(match[v])
        v = parent[match[v]]
    return path


def _grow_maximum(adj: tuple[int, ...], n: int, mask: int,
                  match: list[int]) -> None:
    """Augment ``match`` to maximum inside ``mask``, scanning exposed roots
    ascending.  A root with no augmenting path now never gains one."""
    roots = mask
    while roots:
        low = roots & -roots
        roots ^= low
        root = low.bit_length() - 1
        if match[root] != -1 or not adj[root] & mask:
            continue
        path = _augmenting_path_from(adj, n, mask, match, root)
        if path:
            _flip(match, path)


def _greedy_seed(adj: tuple[int, ...], mask: int, match: list[int]) -> None:
    """Match each vertex of ``mask`` that is still exposed, ascending, to
    its least exposed neighbour; ``match`` starts with no edge in ``mask``."""
    exposed = mask
    while exposed:
        low = exposed & -exposed
        exposed ^= low
        vs = adj[low.bit_length() - 1] & exposed
        if vs:
            w = vs & -vs
            exposed ^= w
            u, v = low.bit_length() - 1, w.bit_length() - 1
            match[u] = v
            match[v] = u


def _flip(match: list[int], path: list[int]) -> None:
    for i in range(0, len(path) - 1, 2):
        a, b = path[i], path[i + 1]
        match[a] = b
        match[b] = a


def _perfect_without_pair(adj: tuple[int, ...], n: int, mask: int,
                          match: list[int], u: int, v: int
                          ) -> list[int] | None:
    """A perfect match of the graph on ``mask`` minus u and v, for an edge
    uv inside ``mask``, derived in one step from ``match``, a perfect match
    there with -1 outside ``mask``; None when there is none.  Dropping u
    and v exposes at most their partners a and b, the only exposed
    vertices left, so a perfect match exists exactly when an augmenting
    path joins them.  The step flips the first it finds of the edge ab, a
    length-3 path a-x=y-b and a length-5 path a-x=y-x2=y2-b.  Such a path
    is simple, so its length is odd and below the number of vertices
    left: with at most 6 left the three tests decide, and only a larger
    mask pays for one augmenting-path search from a, which can only end at
    b, so when it fails the match is maximum and not perfect."""
    match = list(match)
    a, b = match[u], match[v]
    match[u] = match[v] = -1
    if a == v:
        return match
    mask &= ~(1 << u | 1 << v)
    match[a] = match[b] = -1
    if adj[a] >> b & 1:
        match[a], match[b] = b, a
        return match
    xs = adj[a] & mask
    while xs:
        low = xs & -xs
        xs ^= low
        x = low.bit_length() - 1
        y = match[x]
        if adj[b] >> y & 1:
            match[a], match[x], match[y], match[b] = x, a, b, y
            return match
    path = _path_of_length_5(adj, mask, match, a, b)
    if path is None and mask.bit_count() > 6:
        path = _augmenting_path_from(adj, n, mask, match, a)
    if path is None:
        return None
    _flip(match, path)
    return match


def _path_of_length_5(adj: tuple[int, ...], mask: int, match: list[int],
                      a: int, b: int) -> list[int] | None:
    """The least alternating path a-x=y-x2=y2-b inside ``mask``, x first,
    where ``match`` pairs every vertex of ``mask`` but a and b within it
    and no length-3 path a-x=y-b exists.  ``ends`` holds each x2 whose
    partner y2 is a neighbour of b.  Neither x nor y is in
    ``adj[y] & ends``: x would close a length-3 path, and y is not its own
    neighbour."""
    ends = 0
    ys = adj[b] & mask
    while ys:
        low = ys & -ys
        ys ^= low
        ends |= 1 << match[low.bit_length() - 1]
    xs = adj[a] & mask
    while xs:
        low = xs & -xs
        xs ^= low
        x = low.bit_length() - 1
        y = match[x]
        x2s = adj[y] & ends
        if x2s:
            x2 = (x2s & -x2s).bit_length() - 1
            return [a, x, y, x2, match[x2], b]
    return None


def _extends_without_pair(adj: tuple[int, ...], n: int, mask: int,
                          match: list[int], u: int, v: int) -> bool:
    """Whether _perfect_without_pair finds a perfect match of the graph on
    ``mask`` minus u and v, read off ``match`` with mask tests and no copy.
    With a and b the partners of u and v, it does when ab is an edge (a = v
    makes ab the edge uv) or an alternating path a-x=y-b or
    a-x=y-x2=y2-b joins them, and it does not when a has no neighbour
    left, or when at most 6 vertices are left, since an augmenting path
    between a and b then has length 5 at most.  Only a larger mask that
    these tests leave open runs the step's last resort alone: one
    augmenting-path search from a, on a copy with u, v, a and b exposed."""
    a, b = match[u], match[v]
    if adj[a] >> b & 1:
        return True
    mask &= ~(1 << u | 1 << v)
    xs = adj[a] & mask
    if not xs:
        return False
    while xs:
        x = xs & -xs
        xs ^= x
        if adj[b] >> match[x.bit_length() - 1] & 1:
            return True
    if _path_of_length_5(adj, mask, match, a, b) is not None:
        return True
    if mask.bit_count() <= 6:
        return False
    match = list(match)
    match[u] = match[v] = match[a] = match[b] = -1
    return _augmenting_path_from(adj, n, mask, match, a) is not None


def _mask_maximum_matching(adj: tuple[int, ...], n: int, mask: int) -> list[int]:
    match = [-1] * n
    _greedy_seed(adj, mask, match)
    _grow_maximum(adj, n, mask, match)
    return match


def find_augmenting_path(g: Graph, m: Matching) -> Optional[AlternatingPath]:
    """An augmenting path for ``m``, or None exactly when ``m`` is maximum.
    Roots are tried in ascending order; the path is oriented so its first
    endpoint is the smaller one."""
    validate_matching(g, m)
    match = _match_array(g, m)
    mask = (1 << g.n) - 1
    for root in range(g.n):
        if match[root] != -1 or not g.adj[root]:
            continue
        path = _augmenting_path_from(g.adj, g.n, mask, match, root)
        if path:
            if path[0] > path[-1]:
                path.reverse()
            return AlternatingPath(tuple(path))
    return None


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching, deterministic for a fixed graph: greedy seed in
    ascending order, then augmenting-path growth."""
    return _matching_of_array(_mask_maximum_matching(g.adj, g.n, (1 << g.n) - 1))


def matching_number(g: Graph) -> int:
    return maximum_matching(g).size


def has_perfect_matching(g: Graph) -> bool:
    return matching_number(g) * 2 == g.n


def extends_to_perfect(g: Graph, m: Matching) -> Optional[Matching]:
    """A perfect matching of g containing m, if one exists.  Equivalent to
    a perfect matching of the graph minus V(m), reported in the original
    labels."""
    validate_matching(g, m)
    mask = ((1 << g.n) - 1) & ~m.covered_mask()
    want = mask.bit_count()
    if want % 2:
        return None
    for v in bits(mask):
        if not g.adj[v] & mask:
            return None
    match = _mask_maximum_matching(g.adj, g.n, mask)
    if sum(1 for v in bits(mask) if match[v] != -1) != want:
        return None
    rest = [(v, w) for v, w in enumerate(match) if -1 < v < w]
    return Matching.of(list(m.edges) + rest)


def enumerate_matchings(g: Graph, k: int) -> Iterator[Matching]:
    """All matchings of size exactly k, each once, in lexicographic order
    of their canonical edge lists.  k=0 yields only the empty matching.
    It walks the sorted edge list, not the certificate engine's vertex
    walk, so tests can hold that walk's order against it."""
    if k < 0:
        raise ValueError("matching size must be nonnegative")
    yield from _extend_matchings(list(g.edges()), k, 0, 0, [])


def _extend_matchings(edges: list[Edge], k: int, start: int, used: int,
                      chosen: list[Edge]) -> Iterator[Matching]:
    """The size-k matchings that extend ``chosen``, covering ``used``, by
    edges from edges[start:].  A module function, not a closure that holds
    itself, so each enumeration is freed by reference counting."""
    if len(chosen) == k:
        yield Matching(tuple(chosen))
        return
    room = k - len(chosen)
    for i in range(start, len(edges) - room + 1):
        u, v = edges[i]
        pair = 1 << u | 1 << v
        if used & pair:
            continue
        chosen.append(edges[i])
        yield from _extend_matchings(edges, k, i + 1, used | pair, chosen)
        chosen.pop()


def koenig_ore_deficiency(g: Graph, bp: Bipartition) -> DeficiencyWitness:
    """Deficiency of X with a witness set attaining it.

    Runs in polynomial time: take a maximum matching, then collect the
    X-vertices reachable from the uncovered ones by alternating paths
    (unmatched towards Y, matched back towards X).  That set S satisfies
    |S| - |N(S)| = |X| - max-matching-size, the maximum possible.  When
    the deficiency is 0 the witness is the empty set."""
    check_bipartition(g, bp)
    match = _mask_maximum_matching(g.adj, g.n, (1 << g.n) - 1)
    x_mask = vertex_mask(bp.x)
    uncovered = 0
    for v in bits(x_mask):
        if match[v] == -1:
            uncovered |= 1 << v
    reach_x = uncovered
    reach_y = 0
    frontier = uncovered
    while frontier:
        ny = 0
        for v in bits(frontier):
            ny |= g.adj[v]
        ny &= ~reach_y
        reach_y |= ny
        nx = 0
        for y in bits(ny):
            if match[y] != -1:
                nx |= 1 << match[y]
        frontier = nx & ~reach_x
        reach_x |= frontier
    witness = tuple(bits(reach_x))
    return DeficiencyWitness(reach_x.bit_count() - reach_y.bit_count(), witness)
