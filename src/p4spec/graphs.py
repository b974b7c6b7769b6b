"""Immutable simple graphs with bitmask adjacency rows.

Vertices are dense 0-indexed integers.  Adjacency rows are Python ints used as
bitsets, so one representation covers both small graphs (the common case) and
anything larger; a configurable vertex cap keeps the exhaustive algorithms
from being fed absurd inputs.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterable, Iterator

_DEFAULT_MAX_N = 64


def max_vertices() -> int:
    """Vertex cap enforced by graph builders; P4SPEC_MAX_N overrides it."""
    raw = os.environ.get("P4SPEC_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"P4SPEC_MAX_N must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"P4SPEC_MAX_N must be positive, got {value}")
    return value


def check_vertex_count(n: int) -> None:
    """Raise ValueError unless 0 <= n <= max_vertices().  Every graph builder
    calls this before it allocates anything for n vertices."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    cap = max_vertices()
    if n > cap:
        raise ValueError(f"{n} vertices exceeds the cap of {cap}"
                         " (set P4SPEC_MAX_N to raise it)")


@lru_cache(maxsize=None)
def pair_order(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs (u, v) with u < v in upper-triangle column-major order.

    This is the single source of truth for edge-mask bit positions:
    (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...  `constructions.mask_to_graph`
    and `graph_to_mask` read it, and the graph enumerator and the graph6
    codec go through them.  Two places rely on the layout without reading
    it: `canonical_form` builds its leaf codes in this bit order, and
    `theorems._classes` puts the pairs (u, n - 1) of a new vertex at the top
    n - 1 bits of the mask.
    """
    return tuple((u, v) for v in range(n) for u in range(v))


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """A simple undirected graph.  Treat instances as immutable.

    `derived(fn)` keeps fn(g) per graph, so the P4s, the complement and the
    spectrum are computed once however many predicates read them; equality
    and hashing read only n and adj.
    """

    __slots__ = ("n", "adj", "_memo")

    def __init__(self, n: int, adj: Iterable[int], validate: bool = True):
        self.n = n
        self.adj = tuple(adj)
        self._memo = None  # made on the first derived() call
        if validate:
            check_vertex_count(n)
            if len(self.adj) != n:
                raise ValueError("adjacency row count does not match n")
            full = (1 << n) - 1
            for v, row in enumerate(self.adj):
                if row & ~full:
                    raise ValueError(f"adjacency row {v} has bits outside 0..{n - 1}")
                if row >> v & 1:
                    raise ValueError(f"self-loop at vertex {v}")
            for u in range(n):
                for v in range(u + 1, n):
                    if (self.adj[u] >> v & 1) != (self.adj[v] >> u & 1):
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    def derived(self, fn):
        """fn(self), computed on first use and kept; every caller gets the
        same value, so treat it as read-only.  The memo is keyed by the
        function object the caller passes, so a wrapped or replaced
        function gets its own entry."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        if fn in memo:
            return memo[fn]
        value = memo[fn] = fn(self)
        return value

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from vertex count and an iterable of edges.

    Duplicate edges collapse silently; self-loops and out-of-range endpoints
    raise ValueError.
    """
    check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, validate=False)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    # a list, not a generator: see spectral.IntMatrix.__init__
    return Graph(g.n, [~row & full & ~(1 << v) for v, row in enumerate(g.adj)],
                 validate=False)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G + H with H's vertices shifted up by g.n."""
    n = g.n + h.n
    check_vertex_count(n)
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, rows, validate=False)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    n = g.n + h.n
    check_vertex_count(n)
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj]
    rows += [(row << g.n) | gmask for row in h.adj]
    return Graph(n, rows, validate=False)


def induced_subgraph(g: Graph, selection: int | Iterable[int]) -> Graph:
    """Subgraph induced by a vertex bitmask (or iterable), relabeled ascending."""
    mask = selection if isinstance(selection, int) else mask_of(selection)
    if mask & ~g.full_mask:
        raise ValueError("selection includes vertices outside the graph")
    kept = list(bits(mask))
    index = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = g.adj[v] & mask
        rows.append(mask_of(index[w] for w in bits(row)))
    return Graph(len(kept), rows, validate=False)


def _components(rows, mask: int) -> list[int]:
    """Vertex bitmasks of the components of the subgraph that the adjacency
    rows induce on mask, ordered by lowest vertex."""
    comps = []
    while mask:
        comp = 0
        frontier = mask & -mask
        while frontier:
            comp |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= rows[u]
            frontier = nxt & mask & ~comp
        comps.append(comp)
        mask &= ~comp
    return comps


def connected_components(g: Graph) -> list[int]:
    """Vertex bitmasks of the components, ordered by lowest vertex."""
    return _components(g.adj, g.full_mask)


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def canonical_form(g: Graph) -> tuple[int, int]:
    """(code, aut_order): a canonical edge mask of g's isomorphism class and
    the order of its automorphism group.

    Individualization-refinement (McKay 1981, "Practical graph isomorphism"):
    the unit partition is refined to an equitable ordered partition, then
    each vertex of the first non-singleton cell is individualized in turn
    and the partition refined again, down to discrete partitions.  A leaf
    orders the vertices; its code is the edge mask, in pair_order bit
    positions, of g relabeled in that order.  The code is the largest leaf
    code, so mask_to_graph(n, code) is the class representative.

    Refinement commutes with relabeling, so Aut(g) acts freely on the leaves
    and the leaves with the largest code form one orbit: their number is
    |Aut(g)|.  The whole tree is searched, without automorphism pruning, so
    the cost grows with |Aut(g)|; this is meant for graphs on at most about
    ten vertices.
    """
    n = g.n
    if n < 2:
        return 0, 1
    adj = g.adj
    best = -1
    count = 0

    def refine(cells: list[int], splitters: list[int]) -> list[int]:
        # split every cell by the number of neighbours each vertex has in a
        # splitter; new fragments become splitters, ordered by that count
        while splitters and len(cells) < n:
            w = splitters.pop()
            out = []
            for cell in cells:
                if cell & (cell - 1):
                    groups = {}
                    rest = cell
                    while rest:
                        low = rest & -rest
                        k = (adj[low.bit_length() - 1] & w).bit_count()
                        groups[k] = groups.get(k, 0) | low
                        rest ^= low
                    if len(groups) > 1:
                        parts = [groups[k] for k in sorted(groups)]
                        out += parts
                        splitters += parts
                        continue
                out.append(cell)
            cells = out
        return cells

    def search(cells: list[int]):
        nonlocal best, count
        if len(cells) == n:
            order = [cell.bit_length() - 1 for cell in cells]
            code = 0
            shift = 0
            for v in range(1, n):
                row = adj[order[v]]
                for u in range(v):
                    if row >> order[u] & 1:
                        code |= 1 << (shift + u)
                shift += v
            if code > best:
                best, count = code, 1
            elif code == best:
                count += 1
            return
        i = 0
        while not cells[i] & (cells[i] - 1):
            i += 1
        target = cells[i]
        for v in bits(target):
            single = 1 << v
            search(refine(cells[:i] + [single, target ^ single] + cells[i + 1:], [single]))

    full = g.full_mask
    search(refine([full], [full]))
    return best, count
