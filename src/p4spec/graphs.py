"""Immutable simple graphs with bitmask adjacency rows.

Vertices are dense 0-indexed integers.  Adjacency rows are Python ints used as
bitsets, so one representation covers both small graphs (the common case) and
anything larger; a configurable vertex cap keeps the exhaustive algorithms
from being fed absurd inputs.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from functools import lru_cache

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
    """Raise ValueError unless 0 <= n <= max_vertices().  Graph(...),
    from_edge_list, _attach, standard and thin_spider call it before they
    allocate; mask_to_graph's callers and verify_theorems check n first."""
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
    reads it, and the graph6 codec goes through `mask_to_graph` and
    `graph_to_mask`.  `graph_to_mask`, `_search` and `theorems._orbit_min`
    rely on the layout without reading it: the pairs (u, v) of one v, u < v,
    are the block of bits from v(v-1)/2 on, so `graph_to_mask` copies row
    v's lower neighbours as one block, the pairs (u, n - 1) of the last
    vertex are the top n - 1 bits of a leaf code, and the orbit minimum is
    placed one label's block at a time from the top.
    """
    return tuple((u, v) for v in range(n) for u in range(v))


def _byte_table(offset: int) -> list[tuple[int, ...]]:
    """The set-bit tuple of every byte m, each index plus offset, at index m:
    the bytes with top bit b are those below 2^b, each with b appended."""
    table = [()]
    for b in range(offset, offset + 8):
        table += [t + (b,) for t in table]
    return table


_LOW, _HIGH = _byte_table(0), _byte_table(8)


def bits(mask: int) -> tuple[int, ...]:
    """Indices of set bits of a nonnegative mask, ascending.

    Below 2^16 the tuple is read from the byte tables; above, it is built
    from a list, never from a generator (see spectral.laplacian).
    """
    if mask < 256:
        return _LOW[mask]
    if mask < 65536:
        return _LOW[mask & 255] + _HIGH[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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

    def __init__(self, n: int, adj: Iterable[int]):
        check_vertex_count(n)
        self.n = n
        self.adj = tuple(adj)
        self._memo = None  # made on the first derived() call
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
        elif fn in memo:
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


def _trusted(n: int, rows) -> Graph:
    """A Graph on rows built valid for n vertices, unchecked: the package's
    builders come through here, and Graph(...) validates outside input."""
    g = object.__new__(Graph)
    g.n = n
    g.adj = tuple(rows)
    g._memo = None
    return g


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
    return _trusted(n, rows)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    # a list, not a generator: see spectral.laplacian
    return _trusted(g.n, [~row & full & ~(1 << v) for v, row in enumerate(g.adj)])


def _attach(g: Graph, mask: int, h: Graph) -> Graph:
    """g plus h, with h's vertex v renumbered g.n + v and joined to the
    vertices of g in mask.  The one composition step: disjoint union, join,
    spider heads and midpoint heads all go through it."""
    base = g.n
    n = base + h.n
    check_vertex_count(n)
    head = ((1 << h.n) - 1) << base
    rows = [row | head if mask >> v & 1 else row for v, row in enumerate(g.adj)]
    rows += [(row << base) | mask for row in h.adj]
    return _trusted(n, rows)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G + H with H's vertices shifted up by g.n."""
    return _attach(g, 0, h)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    return _attach(g, g.full_mask, h)


def induced_subgraph(g: Graph, selection: int | Iterable[int]) -> Graph:
    """Subgraph induced by a vertex bitmask (or iterable), relabeled ascending."""
    mask = selection if isinstance(selection, int) else mask_of(selection)
    if mask & ~g.full_mask:
        raise ValueError("selection includes vertices outside the graph")
    kept = bits(mask)
    index = {v: i for i, v in enumerate(kept)}
    rows = []
    for v in kept:
        row = g.adj[v] & mask
        rows.append(mask_of(index[w] for w in bits(row)))
    return _trusted(len(kept), rows)


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


def _refine(adj, n: int, cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition (cells as vertex bitmasks) until it is
    equitable: split every cell by the number of neighbours each vertex has
    in a splitter, the fragments in place and ordered by that count, and
    make the fragments splitters.  Refinement commutes with relabeling."""
    while splitters and len(cells) < n:
        w = splitters.pop()
        out = []
        if not w & (w - 1):
            # one vertex: a cell splits into its non-neighbours, then its
            # neighbours
            row = adj[w.bit_length() - 1]
            for cell in cells:
                hit = cell & row
                if hit and hit != cell:
                    parts = [cell ^ hit, hit]
                    out += parts
                    splitters += parts
                else:
                    out.append(cell)
            cells = out
            continue
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            vs = bits(cell)
            k = (adj[vs[0]] & w).bit_count()
            for v in vs:
                if (adj[v] & w).bit_count() != k:
                    break
            else:
                out.append(cell)  # every vertex has k neighbours in w
                continue
            groups = {}
            for v in vs:
                k = (adj[v] & w).bit_count()
                groups[k] = groups.get(k, 0) | 1 << v
            parts = [groups[k] for k in sorted(groups)]
            out += parts
            splitters += parts
        cells = out
    return cells


def _absorb(orbits: list[int] | None, gens, cell: int, fixed: int, n: int) -> list[int]:
    """Merge, on the vertices of cell, the orbits (orbits[v] is the bitmask
    of v's orbit; None for all singletons) of the automorphisms (perm,
    fixed-point mask) in gens that fix every vertex of the bitmask fixed."""
    if orbits is None:
        orbits = [1 << u for u in range(n)]
    for perm, fix in gens:
        if fixed & ~fix:
            continue
        for v in bits(cell):
            w = perm[v]
            if not orbits[v] >> w & 1:
                merged = orbits[v] | orbits[w]
                for u in bits(merged):
                    orbits[u] = merged
    return orbits


def _search(adj, n: int, root: list[int]):
    """The search tree below the refined root partition, pruned by the
    automorphisms it finds (McKay & Piperno 2014, "Practical graph
    isomorphism, II").

    A node individualizes each vertex of its first non-singleton cell in
    turn and refines again; a leaf is a discrete partition, an order of
    the vertices, and its code is the edge mask, in pair_order bit
    positions, of g relabeled in that order.  Two leaves with one code
    give the automorphism that maps one order onto the other.  A node skips
    a child in the orbit of a child it explored, under the automorphisms
    found so far that fix the node's individualized vertices: both
    subtrees hold the same codes.  A leaf off the first path with the
    first leaf's code maps its whole subtree onto the first path's, so the
    search unwinds to the first-path node where the two paths part.  At
    each first-path node the automorphisms found then give the full orbit
    of the first path's child under the stabilizer of the node's
    individualized vertices, and |Aut| is the product of those orbit sizes.

    Returns (code, aut_order, gens, order): the largest leaf code, |Aut|,
    the automorphisms found as (perm, fixed-point mask) pairs, which
    generate Aut, and the best leaf's order of the vertices.
    """
    gens = []
    first_code = best = -1
    first_order = best_order = None
    aut = 1

    def found(src, dst):
        perm = [0] * n
        fix = 0
        for a, b in zip(src, dst):
            perm[a] = b
            if a == b:
                fix |= 1 << a
        gens.append((perm, fix))

    def search(cells, depth, fixed, k):
        # k is the depth of the last first-path node on this path (depth
        # itself on the first path); returns the depth to unwind to, or n
        nonlocal first_code, first_order, best, best_order, aut
        if len(cells) == n:
            order = [cell.bit_length() - 1 for cell in cells]
            code = 0
            shift = 0
            for v in range(1, n):
                row = adj[order[v]]
                for u in range(v):
                    if row & cells[u]:
                        code |= 1 << (shift + u)
                shift += v
            if first_order is None:
                first_code = best = code
                first_order = best_order = order
            elif code == first_code:
                found(first_order, order)
                return k
            elif code > best:
                best, best_order = code, order
            elif code == best:
                found(best_order, order)
            return n
        i = 0
        while not cells[i] & (cells[i] - 1):
            i += 1
        target = cells[i]
        head = cells[:i]
        tail = cells[i + 1:]
        explored = 0
        orbits = None
        seen = 0  # generators merged into orbits
        for v in bits(target):
            if explored:
                if len(gens) > seen:
                    orbits = _absorb(orbits, gens[seen:], target, fixed, n)
                    seen = len(gens)
                if orbits is not None and orbits[v] & explored:
                    continue
            single = 1 << v
            child_k = depth + 1 if not explored and depth == k else k
            explored |= single
            back = search(_refine(adj, n, head + [single, target ^ single] + tail, [single]),
                          depth + 1, fixed | single, child_k)
            if back < depth:
                return back
        if depth == k:
            if len(gens) > seen:
                orbits = _absorb(orbits, gens[seen:], target, fixed, n)
            if orbits is not None:
                aut *= orbits[(target & -target).bit_length() - 1].bit_count()
        return n

    search(root, 0, 0, 0)
    # search reaches itself through its closure cell; breaking that cycle
    # lets reference counting free the search without the cyclic collector
    search = None
    return best, aut, gens, best_order


def _canonical_deletion(g: Graph, gens: bool = True) -> tuple[bool, tuple | None]:
    """Whether the vertex n - 1 is the canonical deletion of g (McKay 1998,
    "Isomorph-free exhaustive generation"): whether it is in the Aut(g)-orbit
    of the vertex that the best leaf places last, so that g is the canonical
    way to grow g - (n - 1) by one vertex.

    Returns (searched, kept).  searched tells whether _search ran: that
    orbit lies in the last cell of the root refinement, whose vertices have
    the largest degree, so a vertex n - 1 outside it is rejected before the
    search.  kept is None on a rejection, else (code, aut_order, gens): code
    is the largest leaf code of the search from the refined unit partition
    (McKay 1981, "Practical graph isomorphism"), a canonical edge mask of
    g's isomorphism class, aut_order is |Aut(g)|, and gens are generators
    of the automorphism group of the class representative mask_to_graph(n, code),
    each a tuple perm mapping vertex i to perm[i].  The representative's
    vertex i is g's vertex order[i] in the best leaf's order, so an
    automorphism perm of g becomes pos[perm[order[i]]], pos inverting order.
    The generators only let the next level of class generation form its
    neighbourhood orbits, so with gens false none is converted and gens is
    () (the search still finds them: its pruning and the orbit test read
    them).
    """
    n = g.n
    if n < 2:
        return False, (0, 1, ())
    adj = g.adj
    full = g.full_mask
    root = _refine(adj, n, [full], [full])
    last_cell = root[-1]
    if not last_cell >> (n - 1) & 1:
        return False, None
    code, aut, found, order = _search(adj, n, root)
    orbits = _absorb(None, found, last_cell, 0, n)
    if not orbits[order[-1]] >> (n - 1) & 1:
        return True, None
    if not gens:
        return True, (code, aut, ())
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return True, (code, aut, tuple(tuple(pos[perm[v]] for v in order) for perm, _ in found))
