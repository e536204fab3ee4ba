"""Immutable simple graphs on dense vertex ids 0..n-1.

Adjacency is stored as one neighbor bitmask per vertex, which keeps every
downstream algorithm array-indexed and makes graphs hashable and safe to
share between workers.  All "mutations" (vertex deletion, induced
subgraphs) copy; deletions return a relabeling map so witnesses can be
reported in the original graph's labels.

The per-graph kernels work on those masks: is_connected is one search
from the least vertex (_component), and bipartition colours with one mask
per side, so neither builds a list only to count it.  Hot loops walk set
bits inline (low = mask & -mask); bits() is the readable form elsewhere.

Two text formats are supported:

* graph6, short form only (n <= 62): one printable line per graph.  The
  header byte is chr(n + 63); the upper-triangle adjacency bits follow in
  column order x(0,1), x(0,2), x(1,2), x(0,3), ..., packed big-endian into
  6-bit groups, zero-padded, each group emitted as chr(value + 63).
* plain edge lists: first token is n <= 1024, then one "u v" per line.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Optional

GRAPH6_MAX_N = 62
EDGE_LIST_MAX_N = 1024

VertexSet = tuple[int, ...]
Edge = tuple[int, int]


class GraphParseError(ValueError):
    """Malformed graph text.  ``offset`` is a byte offset for graph6 input,
    ``line`` a 1-based line number for edge-list input."""

    def __init__(self, message: str, *, offset: int | None = None,
                 line: int | None = None):
        super().__init__(message)
        self.offset = offset
        self.line = line


class _Record:
    """Immutable record: equality (within one class), hash and repr by the
    fields named in ``_fields``, which ``__init__`` stores in ``__dict__``."""

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Simple undirected graph: ``adj[v]`` is the neighbor bitmask of v."""

    _fields = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.__dict__.update(n=n, adj=adj)
        if n < 0 or len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << n) - 1
        # below[v] gathers the arcs u -> v with u < v, so it is complete
        # when v is reached and must equal v's arcs to lower vertices: one
        # pass over the arcs to higher vertices checks every pair
        below = [0] * n
        asymmetric = 0
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"vertex {v} has a neighbor out of range")
            if mask >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            bit = 1 << v
            asymmetric |= (mask & (bit - 1)) ^ below[v]
            higher = mask >> v << v
            while higher:
                low = higher & -higher
                below[low.bit_length() - 1] |= bit
                higher ^= low
        if asymmetric:
            u, v = next((u, v) for u, v in combinations(range(n), 2)
                        if (adj[u] >> v & 1) != (adj[v] >> u & 1))
            raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[Edge]:
        """Canonical edge stream: u < v, sorted lexicographically."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def as_vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Canonical form: sorted and duplicate-free."""
    return tuple(sorted(set(vertices)))


def check_vertex_set(g: Graph, s: Iterable[int]) -> VertexSet:
    out = as_vertex_set(s)
    for v in out:
        g._check_vertex(v)
    return out


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge iterable; duplicates collapse, orientation
    is normalized.  Self-loops are rejected."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with sides {0..a-1} and {a..a+b-1}."""
    return from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


# graph6 encoding: bit j of the integer ``code`` is the j-th pair in
# column order, so column v starts at bit v(v-1)/2.  A line packs each
# 6-bit group most significant bit first, hence the reversal table.

_REVERSED6 = [int(f"{group:06b}"[::-1], 2) for group in range(64)]


def parse_graph6(text: str) -> Graph:
    """Decode one canonical short-form graph6 line."""
    s = text.rstrip("\n")
    if not s:
        raise GraphParseError("empty graph6 string", offset=0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphParseError("non-ascii byte in graph6 string",
                              offset=exc.start) from None
    head = data[0]
    if head == 126:
        raise GraphParseError(
            "long-form graph6 header (n > 62) is not supported", offset=0)
    if not 63 <= head <= 126:
        raise GraphParseError(f"header byte {head} outside 63..126", offset=0)
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise GraphParseError(
            f"truncated graph6 body: expected {nbytes} bytes, got {len(body)}",
            offset=len(data))
    if len(body) > nbytes:
        raise GraphParseError("trailing garbage after graph6 body",
                              offset=1 + nbytes)
    code = 0
    for i, byte in enumerate(body):
        if not 63 <= byte <= 126:
            raise GraphParseError(f"body byte {byte} outside 63..126",
                                  offset=1 + i)
        code |= _REVERSED6[byte - 63] << 6 * i
    if code >> nbits:  # padding fills only the last byte
        raise GraphParseError("nonzero padding bits", offset=nbytes)
    adj = [0] * n
    for v in range(1, n):
        column = code >> v * (v - 1) // 2 & (1 << v) - 1
        adj[v] = column
        bit = 1 << v
        while column:
            low = column & -column
            adj[low.bit_length() - 1] |= bit
            column ^= low
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode as one canonical short-form graph6 line (n <= 62)."""
    if g.n > GRAPH6_MAX_N:
        raise ValueError(f"graph6 short form supports n <= {GRAPH6_MAX_N}, "
                         f"got n={g.n}")
    code = 0
    for v, mask in enumerate(g.adj):
        code |= (mask & (1 << v) - 1) << v * (v - 1) // 2
    nbytes = (g.n * (g.n - 1) // 2 + 5) // 6
    return chr(g.n + 63) + "".join([chr(_REVERSED6[code >> 6 * i & 63] + 63)
                                    for i in range(nbytes)])


# edge-list text


def parse_edge_list(text: str) -> Graph:
    """Parse "n" <= EDGE_LIST_MAX_N, then "u v" lines, in ASCII decimal
    digits.  Blank lines are skipped.  An error names its reason, and its
    1-based line in ``line``."""
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise GraphParseError("non-ascii byte in edge list", line=lineno)
        tokens = raw.split()
        if not tokens:
            continue
        if n is None:
            if len(tokens) != 1:
                raise GraphParseError("header must be a single vertex count",
                                      line=lineno)
            n = _decimal(tokens[0])
            if n is None:
                raise GraphParseError(f"vertex count {tokens[0]!r} is not a "
                                      f"nonnegative integer", line=lineno)
            if n > EDGE_LIST_MAX_N:
                raise GraphParseError(f"vertex count {n} exceeds "
                                      f"{EDGE_LIST_MAX_N}", line=lineno)
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"expected 'u v', got {raw!r}", line=lineno)
        u, v = _decimal(tokens[0]), _decimal(tokens[1])
        if u is None or v is None:
            raise GraphParseError(f"non-integer endpoint in {raw!r}",
                                  line=lineno)
        if u == v:
            raise GraphParseError(f"self-loop at {u}", line=lineno)
        if not (u < n and v < n):
            raise GraphParseError(f"endpoint out of range 0..{n - 1}",
                                  line=lineno)
        edges.append((u, v))
    if n is None:
        raise GraphParseError("missing vertex-count header")
    return from_edges(n, edges)


def _decimal(token: str) -> Optional[int]:
    """The value of an ASCII token of decimal digits, else None; int()
    alone would also read '1_0' or '+2'."""
    try:
        return int(token) if token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines)


# neighborhoods, degrees, deletion, components


def neighborhood(g: Graph, s: Iterable[int]) -> VertexSet:
    """Vertices adjacent to at least one member of ``s``; may intersect
    ``s``."""
    out = 0
    for v in check_vertex_set(g, s):
        out |= g.adj[v]
    return tuple(bits(out))


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("minimum degree of the empty graph is undefined")
    return min(m.bit_count() for m in g.adj)


def delete_vertices(g: Graph, s: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V minus s, relabeled densely.  Returns the graph
    and the old-to-new relabeling map for the surviving vertices."""
    drop = vertex_mask(check_vertex_set(g, s))
    keep = [v for v in range(g.n) if not drop >> v & 1]
    relabel = {old: new for new, old in enumerate(keep)}
    adj = [0] * len(keep)
    for old in keep:
        new = relabel[old]
        for w in bits(g.adj[old] & ~drop):
            adj[new] |= 1 << relabel[w]
    return Graph(len(keep), tuple(adj)), relabel


def _component(adj: tuple[int, ...], within: int) -> int:
    """The piece of the graph on mask ``within`` holding its least vertex."""
    comp = frontier = within & -within
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~comp
        comp |= frontier
    return comp


def components(g: Graph) -> list[VertexSet]:
    """Maximal connected pieces, each sorted, ordered by minimum member."""
    left = (1 << g.n) - 1
    out: list[VertexSet] = []
    while left:
        comp = _component(g.adj, left)
        left &= ~comp
        out.append(tuple(bits(comp)))
    return out


def is_connected(g: Graph) -> bool:
    """Whether one search from the least vertex reaches every vertex; the
    graph on no vertices counts as connected."""
    full = (1 << g.n) - 1
    return _component(g.adj, full) == full


# bipartition


class Bipartition(_Record):
    """Ordered sides (X, Y): disjoint, covering, both independent."""

    _fields = ("x", "y")

    def __init__(self, x: VertexSet, y: VertexSet):
        self.__dict__.update(x=x, y=y)


class OddCycle(_Record):
    """Closed odd walk witnessing non-bipartiteness; ``vertices`` lists the
    cycle once, consecutive entries adjacent, last adjacent to first."""

    _fields = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        self.__dict__.update(vertices=vertices)


def check_bipartition(g: Graph, bp: Bipartition) -> None:
    x = check_vertex_set(g, bp.x)
    y = check_vertex_set(g, bp.y)
    if x != bp.x or y != bp.y:
        raise ValueError("bipartition sides must be sorted and duplicate-free")
    xm, ym = vertex_mask(x), vertex_mask(y)
    if xm & ym:
        raise ValueError("bipartition sides intersect")
    if (xm | ym) != (1 << g.n) - 1:
        raise ValueError("bipartition does not cover all vertices")
    for v in x:
        if g.adj[v] & xm:
            raise ValueError(f"edge inside X at vertex {v}")
    for v in y:
        if g.adj[v] & ym:
            raise ValueError(f"edge inside Y at vertex {v}")


def bipartition(g: Graph) -> Bipartition | OddCycle:
    """Two-color the graph.  Per component, the side holding its minimum
    vertex goes to X.  Returns an OddCycle witness when no 2-coloring
    exists.

    Each component is searched breadth first from its least vertex, each
    level in the order it was reached.  A level's vertices share one side,
    and only the other side grows while the level is scanned, so that side
    mask is the whole clash test: the first vertex of the level with a
    neighbour on its own side, with its least such neighbour, closes the
    odd cycle."""
    parent = [-1] * g.n
    sides = [0, 0]  # X, Y
    left = (1 << g.n) - 1  # not yet colored
    while left:
        low = left & -left
        left ^= low
        sides[0] |= low
        side = 0
        level = [low.bit_length() - 1]
        while level:
            own = sides[side]
            reached = 0
            nxt: list[int] = []
            for v in level:
                nbrs = g.adj[v]
                clash = nbrs & own
                if clash:
                    w = (clash & -clash).bit_length() - 1
                    return OddCycle(_odd_cycle(parent, v, w))
                new = nbrs & left
                left ^= new
                reached |= new
                while new:
                    low = new & -new
                    w = low.bit_length() - 1
                    parent[w] = v
                    nxt.append(w)
                    new ^= low
            side ^= 1
            sides[side] |= reached
            level = nxt
    return Bipartition(tuple(bits(sides[0])), tuple(bits(sides[1])))


def _odd_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    """Cycle through the conflicting edge (u, v) and the BFS-tree paths to
    their lowest common ancestor."""
    up, vp = [u], [v]
    seen = {u: 0}
    w = u
    while parent[w] != -1:
        w = parent[w]
        seen[w] = len(up)
        up.append(w)
    w = v
    while w not in seen:
        w = parent[w]
        vp.append(w)
    lca = w
    cycle = up[:seen[lca] + 1] + vp[-2::-1]
    return tuple(cycle)
