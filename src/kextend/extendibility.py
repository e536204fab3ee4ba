"""k-extendibility certificates.

A graph is k-extendible when it has at least 2k+2 vertices, is connected,
has a perfect matching, and every matching of size k extends to a perfect
matching.  The definitional checker tests those four conditions in that
fixed order and reports the first failure, so reason codes are
deterministic; the 0-extendible case reduces to the first three conditions
because the only size-0 matching is empty.

Whether a matching M extends depends only on V(M), the vertices it
covers, so a level is decided once per covered vertex set.  The walk over
size-k matchings is lexicographic, so the blocked witness is the least
blocked matching, and it carries a stack: depth d < k holds a perfect
matching of G - V(prefix), derived from depth d - 1's by one short
alternating-path step when a leaf below first misses the memo.  A prefix
whose step fails has no perfect matching left, so every leaf below it is
blocked.  The leaves need only a yes or no: the last depth's own loop
reads each from its prefix's matching by mask tests for alternating paths
of length 5 at most, with no copy.  Those tests, and the step's, are exact
when at most 6 vertices are left, so a leaf or a step runs one blossom
search only on a larger mask that the tests leave open.  The
walk's recursive closure holds itself through its cell, so the cell is
emptied when the walk ends: the walk is then freed by reference counting,
and evaluating a graph leaves nothing for the cyclic collector.  The
exhibited extensions come from extends_to_perfect, computed when
``exhibit`` is first read.

GraphFacts is the one entry to that engine: it answers the preconditions
from the facts it holds and starts every level's stack, and that of each
G - u - v in G's labels, from one maximum matching.  The one-shots each
build one.  extendible_levels settles connectivity and the perfect
matching, which no level changes, before it asks any level.

For balanced bipartite graphs the same verdict follows from a surplus
condition on one side: |N(A)| >= |A| + k for every nonempty A within X of
size at most |X| - k.  The subset scan here is intentionally exponential;
it is the independent second route that the definitional checker is
differentially tested against.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .connectivity import CutWitness, is_k_connected, vertex_connectivity
from .graphs import (
    Bipartition,
    Edge,
    Graph,
    OddCycle,
    VertexSet,
    _Record,
    _component,
    _sides_record,
    _two_colouring,
    check_bipartition,
    delete_vertices,
    is_connected,
)
from .matching import (
    Matching,
    _extends_without_pair,
    _mask_maximum_matching,
    _perfect_without_pair,
    extends_to_perfect,
)

SIZE_TOO_SMALL = "SizeTooSmall"
DISCONNECTED = "Disconnected"
NO_PERFECT_MATCHING = "NoPerfectMatching"
BLOCKED_MATCHING = "BlockedMatching"

# yes-certificates carry at most this many (matching, extension) pairs
EXHIBIT_LIMIT = 2

HALL_SCAN_MAX_SIDE = 20


class _once:
    """functools.cached_property without the lock that Python 3.11 takes
    on each first read; a GraphFacts or a certificate is only ever read by
    the thread that built it."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class ExtendibilityCertificate(_Record):
    """Re-checkable verdict for one extendibility level.

    No-verdicts name the first failed condition; a BlockedMatching failure
    carries the lexicographically least size-k matching with no perfect
    extension.  Yes-verdicts carry a bounded sample of tested matchings,
    ``exhibited``, each extended in ``exhibit`` on first read."""

    _fields = ("verdict", "k", "reason", "witness", "exhibited")

    def __init__(self, verdict: bool, k: int, reason: Optional[str] = None,
                 witness: Optional[Matching] = None,
                 exhibited: tuple[tuple[Edge, ...], ...] = (),
                 graph: Optional[Graph] = None):
        self.__dict__.update(verdict=verdict, k=k, reason=reason,
                             witness=witness, exhibited=exhibited, graph=graph)

    @_once
    def exhibit(self) -> tuple[tuple[Matching, Matching], ...]:
        """(matching, one perfect extension) per exhibited matching."""
        ms = [Matching(edges) for edges in self.exhibited]
        return tuple((m, extends_to_perfect(self.graph, m)) for m in ms)


class HallViolator(_Record):
    """Subset of X with too small a neighborhood for level k."""

    _fields = ("a", "neighborhood_size")

    def __init__(self, a: VertexSet, neighborhood_size: int):
        self.__dict__.update(a=a, neighborhood_size=neighborhood_size)


class GraphFacts:
    """What is asked about one graph, each fact computed at most once, on
    first use.  Each equals its one-shot library call on the same graph:
    ``perfect`` is has_perfect_matching, ``is_k_connected(k)`` is the
    threshold test is_k_connected and ``connectivity`` is
    vertex_connectivity, the full value and witness, read only where the
    witness is reported.  One maximum matching feeds every matching fact.
    ``sides`` is _two_colouring's side masks: bipartiteness without a record,
    which ``bipartition`` then turns into one, so no graph is coloured twice.
    ``size_bound`` is (n-2)/2 rounded down, the highest level that the size
    condition n >= 2k + 2 admits."""

    def __init__(self, g: Graph):
        self.g = g
        self.size_bound = (g.n - 2) // 2
        self._certificates: dict[int, ExtendibilityCertificate] = {}
        self._k_connected: dict[int, bool] = {}
        self._levels: dict[int, tuple[int, ...]] = {}

    @_once
    def connected(self) -> bool:
        return is_connected(self.g)

    @_once
    def maximum(self) -> list[int]:
        """Match array of one maximum matching, -1 for an exposed vertex."""
        return _mask_maximum_matching(self.g.adj, self.g.n,
                                      (1 << self.g.n) - 1)

    @_once
    def matching_number(self) -> int:
        return (self.g.n - self.maximum.count(-1)) // 2

    @_once
    def perfect(self) -> bool:
        """Read off the maximum matching, which an odd n never needs."""
        return self.g.n % 2 == 0 and 2 * self.matching_number == self.g.n

    @_once
    def sides(self) -> Optional[tuple[int, int]]:
        return _two_colouring(self.g.adj)

    @_once
    def bipartition(self) -> Bipartition | OddCycle:
        return _sides_record(self.g, self.sides)

    @_once
    def connectivity(self) -> tuple[int, Optional[CutWitness]]:
        return vertex_connectivity(self.g)

    def is_k_connected(self, k: int) -> bool:
        """The threshold test is_k_connected, memoized per level."""
        answer = self._k_connected.get(k)
        if answer is None:
            answer = self._k_connected[k] = is_k_connected(self.g, k)
        return answer

    def _unmet_precondition(self, k: int
                            ) -> Optional[ExtendibilityCertificate]:
        """The no-certificate for the first failed condition among size,
        connectivity and perfect matching, in that order, else None."""
        if k > self.size_bound:
            return ExtendibilityCertificate(False, k, reason=SIZE_TOO_SMALL)
        if not self.connected:
            return ExtendibilityCertificate(False, k, reason=DISCONNECTED)
        if not self.perfect:
            return ExtendibilityCertificate(False, k,
                                            reason=NO_PERFECT_MATCHING)
        return None

    def certificate(self, k: int) -> ExtendibilityCertificate:
        """Definitional certificate at level k >= 0, memoized per level."""
        cert = self._certificates.get(k)
        if cert is None:
            cert = self._unmet_precondition(k)
            if cert is None:
                cert = _certificate(self.g, k, self.maximum,
                                    (1 << self.g.n) - 1)
            self._certificates[k] = cert
        return cert

    def extendible_levels(self, kmax: int) -> tuple[int, ...]:
        """The levels k in 1..kmax at which the graph is k-extendible,
        ascending, memoized per kmax.  Each level is decided outright, so
        monotonicity is never assumed; a graph that is disconnected or has
        no perfect matching fails every level, so none is asked."""
        levels = self._levels.get(kmax)
        if levels is None:
            top = min(kmax, self.size_bound)
            if top < 1 or not (self.connected and self.perfect):
                top = 0
            levels = self._levels[kmax] = tuple(
                k for k in range(1, top + 1) if self.certificate(k).verdict)
        return levels

    def peeled_certificate(self, u: int, v: int, k: int
                           ) -> ExtendibilityCertificate:
        """Certificate at level k of G - u - v in G's labels, for an edge uv
        of a graph with a perfect matching and k < size_bound, without
        exhibits.  Its memo is its own, since certificate(k + 1)'s holds each
        set it tests plus u and v: reading it would make P23 a tautology."""
        g, full = self.g, (1 << self.g.n) - 1
        rest = full & ~(1 << u | 1 << v)
        if _component(g.adj, rest) != rest:
            return ExtendibilityCertificate(False, k, reason=DISCONNECTED)
        base = _perfect_without_pair(g.adj, g.n, full, self.maximum, u, v)
        if base is None:
            return ExtendibilityCertificate(False, k,
                                            reason=NO_PERFECT_MATCHING)
        cert = _certificate(g, k, base, rest)
        return ExtendibilityCertificate(True, k) if cert.verdict else cert

    @_once
    def profile(self) -> tuple[ExtendibilityCertificate, ...]:
        """The certificates at levels 0..size_bound, ascending, each level
        decided outright, so monotonicity is never assumed."""
        return tuple(self.certificate(k) for k in range(self.size_bound + 1))

    @_once
    def extendibility_number(self) -> Optional[int]:
        """Largest k for which the graph is k-extendible, or None when it is
        not even 0-extendible, read off ``profile``."""
        passing = [k for k, cert in enumerate(self.profile) if cert.verdict]
        return max(passing) if passing else None


def is_k_extendible(g: Graph, k: int) -> ExtendibilityCertificate:
    if k < 0:
        raise ValueError("extendibility level must be nonnegative")
    return GraphFacts(g).certificate(k)


def _certificate(g: Graph, k: int, base: list[int], root: int
                 ) -> ExtendibilityCertificate:
    """Walk the size-k matchings of g[root], which meets every precondition,
    in lexicographic order.  matches[d] is a perfect match of g[root] -
    V(chosen[:d]) from matches[d - 1], base at d = 0, by _perfect_without_pair
    when a leaf below misses the memo; None blocks every leaf below.  The
    last depth has its own loop, which decides each leaf from
    matches[k - 1] by _extends_without_pair."""
    if k == 0:
        return ExtendibilityCertificate(True, 0, exhibited=((),), graph=g)
    adj, n, last = g.adj, g.n, k - 1
    extends: set[int] = set()  # covered masks that extend
    exhibited: list[tuple[Edge, ...]] = []
    chosen: list[Edge] = [(0, 0)] * k
    frees = [root] * k  # vertices of root outside each depth's prefix
    matches: list[Optional[list[int]]] = [base] * k
    ready = 1  # matches[:ready] belong to the current prefix

    def blocked_below(d: int, lo: int) -> bool:
        """Walk the extensions of chosen[:d] by edges (u, v), lo <= u < v."""
        nonlocal ready
        if d == last:
            return blocked_leaf(lo)
        free, need = frees[d], 2 * (k - d)
        us = free >> lo << lo
        while us:
            u = (us & -us).bit_length() - 1
            if (free >> u).bit_count() < need:
                break
            us &= us - 1
            vs = adj[u] & free >> u + 1 << u + 1
            while vs:
                low = vs & -vs
                vs ^= low
                chosen[d] = (u, low.bit_length() - 1)
                if ready > d + 1:
                    ready = d + 1
                frees[d + 1] = free & ~(1 << u | low)
                if blocked_below(d + 1, u + 1):
                    return True
        return False

    def blocked_leaf(lo: int) -> bool:
        """Decide the leaves chosen[:last] + [(u, v)], lo <= u < v.  Only
        the witness and the exhibits are written to chosen."""
        nonlocal ready
        free = frees[last]
        prefix = root & ~free
        spare = len(exhibited) < EXHIBIT_LIMIT
        match = None  # matches[last], derived on the first memo miss
        us = free >> lo << lo
        while us:
            u = (us & -us).bit_length() - 1
            if (free >> u).bit_count() < 2:
                break
            us &= us - 1
            vs = adj[u] & free >> u + 1 << u + 1
            pu = prefix | 1 << u
            while vs:
                low = vs & -vs
                vs ^= low
                if pu | low not in extends:
                    if match is None:
                        match = matches[ready - 1]
                        while ready < k and match is not None:
                            x, y = chosen[ready - 1]
                            match = matches[ready] = _perfect_without_pair(
                                adj, n, frees[ready - 1], match, x, y)
                            ready += 1
                    if match is None or not _extends_without_pair(
                            adj, n, free, match, u, low.bit_length() - 1):
                        chosen[last] = (u, low.bit_length() - 1)
                        return True
                    extends.add(pu | low)
                if spare:
                    chosen[last] = (u, low.bit_length() - 1)
                    exhibited.append(tuple(chosen))
                    spare = len(exhibited) < EXHIBIT_LIMIT
        return False

    blocked = blocked_below(0, 0)
    # blocked_below holds itself through this cell; emptying it frees the
    # walk's closures, cells and memo by reference counting
    del blocked_below
    if blocked:
        return ExtendibilityCertificate(False, k, reason=BLOCKED_MATCHING,
                                        witness=Matching(tuple(chosen)))
    return ExtendibilityCertificate(True, k, exhibited=tuple(exhibited),
                                    graph=g)


def extendibility_number(g: Graph) -> Optional[int]:
    """See GraphFacts.extendibility_number."""
    return GraphFacts(g).extendibility_number


def hall_surplus_check(g: Graph, bp: Bipartition,
                       k: int) -> Optional[HallViolator]:
    """Exhaustive surplus scan: None when |N(A)| >= |A| + k for every
    A within X, 1 <= |A| <= |X| - k; otherwise the lexicographically least
    violator of minimum size.  Vacuously None when |X| - k < 1."""
    check_bipartition(g, bp)
    if len(bp.x) != len(bp.y):
        raise ValueError("sides must be balanced; unbalanced graphs have no "
                         "perfect matching")
    if k < 1:
        raise ValueError("surplus level must be at least 1")
    if len(bp.x) > HALL_SCAN_MAX_SIDE:
        raise ValueError(f"subset scan limited to |X| <= {HALL_SCAN_MAX_SIDE}")
    for size in range(1, len(bp.x) - k + 1):
        for subset in combinations(bp.x, size):
            nbhd = 0
            for v in subset:
                nbhd |= g.adj[v]
            if nbhd.bit_count() < size + k:
                return HallViolator(subset, nbhd.bit_count())
    return None


def peel(g: Graph, e: tuple[int, int]) -> tuple[Graph, dict[int, int]]:
    """Remove both endpoints of an edge.  Returns the reduced graph and the
    old-to-new relabeling map of the survivors."""
    u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    return delete_vertices(g, (u, v))
