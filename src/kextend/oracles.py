"""Exhaustive reference oracles.

Everything here runs in exponential time on purpose: these routines decide
by enumeration only, sharing no search machinery with the polynomial
algorithms they validate.  They are deliverables, kept at desk scale
(n around 16 or below).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Optional

from .extendibility import (
    BLOCKED_MATCHING,
    DISCONNECTED,
    HALL_SCAN_MAX_SIDE,
    NO_PERFECT_MATCHING,
    SIZE_TOO_SMALL,
)
from .graphs import Bipartition, Edge, Graph, bits, check_bipartition


@lru_cache(maxsize=1 << 14)
def _max_matching_size(adj: tuple[int, ...], mask: int) -> int:
    """Maximum matching size inside ``mask`` by branching on the lowest
    active vertex: leave it uncovered, or pair it with each neighbor."""
    while mask:
        low = mask & -mask
        u = low.bit_length() - 1
        if adj[u] & mask:
            break
        mask ^= low
    else:
        return 0
    best = _max_matching_size(adj, mask & ~(1 << u))
    for v in bits(adj[u] & mask):
        size = 1 + _max_matching_size(adj, mask & ~(1 << u | 1 << v))
        if size > best:
            best = size
    return best


def brute_force_matching_number(g: Graph) -> int:
    return _max_matching_size(g.adj, (1 << g.n) - 1)


def brute_force_maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """Some maximum matching, reconstructed deterministically: scan vertices
    ascending, keep a vertex uncovered only when that already attains the
    optimum, else pair it with the least optimal neighbor."""
    mask = (1 << g.n) - 1
    out: list[tuple[int, int]] = []
    while mask:
        target = _max_matching_size(g.adj, mask)
        if target == 0:
            break
        u = next(v for v in bits(mask) if g.adj[v] & mask)
        if _max_matching_size(g.adj, mask & ~(1 << u)) == target:
            mask &= ~(1 << u)
            continue
        for v in bits(g.adj[u] & mask):
            rest = mask & ~(1 << u | 1 << v)
            if 1 + _max_matching_size(g.adj, rest) == target:
                out.append((u, v))
                mask = rest
                break
    return out


def count_matchings_brute_force(g: Graph, k: int) -> int:
    """Number of k-subsets of E(G) that are matchings, by direct scan of
    all k-subsets."""
    if k == 0:
        return 1
    edges = list(g.edges())
    count = 0
    for combo in combinations(edges, k):
        used = 0
        for u, v in combo:
            pair = 1 << u | 1 << v
            if used & pair:
                break
            used |= pair
        else:
            count += 1
    return count


def brute_force_is_k_extendible(g: Graph, k: int) -> tuple[
        bool, Optional[str], Optional[tuple[Edge, ...]]]:
    """(verdict, reason, witness) of k-extendibility by exhaustion: the size,
    connectivity and perfect-matching conditions in that order, then every
    k-subset of the sorted edges that is a matching, in lexicographic order,
    each decided by an exhaustive matching of its complement.  The witness
    is the first matching without a perfect extension."""
    full = (1 << g.n) - 1
    if g.n < 2 * k + 2:
        return False, SIZE_TOO_SMALL, None
    if _disconnects(g, ()):
        return False, DISCONNECTED, None
    if 2 * _max_matching_size(g.adj, full) != g.n:
        return False, NO_PERFECT_MATCHING, None
    for combo in combinations(sorted(g.edges()), k):
        used = 0
        for u, v in combo:
            if used & (1 << u | 1 << v):
                break
            used |= 1 << u | 1 << v
        else:
            rest = full & ~used
            if 2 * _max_matching_size(g.adj, rest) != rest.bit_count():
                return False, BLOCKED_MATCHING, combo
    return True, None, None


def brute_force_deficiency(g: Graph, bp: Bipartition) -> int:
    """max over S subseteq X of |S| - |N(S)|, scanning all 2^|X| subsets.
    The empty set contributes 0, so the result is never negative."""
    check_bipartition(g, bp)
    if len(bp.x) > HALL_SCAN_MAX_SIDE:
        raise ValueError(f"subset scan limited to |X| <= {HALL_SCAN_MAX_SIDE}")
    best = 0
    for size in range(1, len(bp.x) + 1):
        for subset in combinations(bp.x, size):
            nbhd = 0
            for v in subset:
                nbhd |= g.adj[v]
            value = size - nbhd.bit_count()
            if value > best:
                best = value
    return best


def brute_force_vertex_connectivity(g: Graph) -> int:
    """Least size of a vertex set whose removal disconnects the graph,
    scanning subsets by ascending size; n - 1 when none exists (complete
    graphs)."""
    if g.n == 0:
        raise ValueError("connectivity of the empty graph is undefined")
    for size in range(g.n - 1):
        for subset in combinations(range(g.n), size):
            if _disconnects(g, subset):
                return size
    return g.n - 1


def _disconnects(g: Graph, cut: tuple[int, ...]) -> bool:
    drop = 0
    for v in cut:
        drop |= 1 << v
    alive = [v for v in range(g.n) if not drop >> v & 1]
    if len(alive) < 2:
        return False
    seen = 1 << alive[0]
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v] & ~drop
        frontier = nxt & ~seen
        seen |= frontier
    return any(not seen >> v & 1 for v in alive)
