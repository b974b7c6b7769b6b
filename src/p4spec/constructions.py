"""Graph constructors: standard families, spiders, the 5-vertex catalog,
midpoint extensions and edge masks."""

from __future__ import annotations

from functools import lru_cache

from . import MAX_N
from .graphs import Graph, _attach, _trusted, bits, check_vertex_count, complement, \
    from_edge_list, pair_order
from .p4 import _midpoint_split
from .spectral import IntPolynomial


# =========================================================================
# standard graphs
# =========================================================================

def standard(kind: str, n: int) -> Graph:
    """path / cycle / complete / empty on n vertices."""
    check_vertex_count(n)
    if kind == "path":
        if n < 1:
            raise ValueError("a path needs at least 1 vertex")
        return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "cycle":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "complete":
        if n < 1:
            raise ValueError("a complete graph needs at least 1 vertex")
        return complement(from_edge_list(n, []))
    if kind == "empty":
        return from_edge_list(n, [])
    raise ValueError(f"unknown standard graph kind {kind!r}")


# =========================================================================
# spiders
# =========================================================================

def thin_spider(k: int, head: Graph | None = None) -> Graph:
    """Thin spider: body clique 0..k-1, legs k..2k-1, head from 2k on.

    Leg k+i is adjacent to body vertex i only; the head joins the whole body
    and avoids the legs.
    """
    if k < 2:
        raise ValueError("a spider needs k >= 2")
    check_vertex_count(2 * k)
    body_m = (1 << k) - 1
    rows = [0] * (2 * k)
    for i in range(k):
        rows[i] = (body_m ^ (1 << i)) | (1 << (k + i))
        rows[k + i] = 1 << i
    spider = _trusted(2 * k, rows)
    return spider if head is None else _attach(spider, body_m, head)


def thick_spider(k: int, head: Graph | None = None) -> Graph:
    """Thick spider: legs 0..k-1, body clique k..2k-1, head from 2k on.

    Leg i is adjacent to every body vertex except k+i; the head joins the
    whole body and avoids the legs.  It is the complement of the thin spider
    with the complemented head.
    """
    return complement(thin_spider(k, None if head is None else complement(head)))


# =========================================================================
# the 5-vertex catalog (plus P4)
# =========================================================================

FAMILY_IDS = ("P4", "F0", "F1", "F2", "F3", "F4", "F5", "F6")

_F3_EDGES = ((0, 1), (0, 2), (0, 3), (1, 4))
_F5_EDGES = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 3))


def family(fid: str) -> Graph:
    """Member of the fixed catalog: P4 plus the seven 5-vertex graphs F0..F6.

    F0 is the 5-cycle, F1 the 5-path, F2 its complement (the house); F4 and
    F6 are the complements of F5 and F3.
    """
    if fid == "P4":
        return standard("path", 4)
    if fid == "F0":
        return standard("cycle", 5)
    if fid == "F1":
        return standard("path", 5)
    if fid == "F2":
        return complement(standard("path", 5))
    if fid == "F3":
        return from_edge_list(5, _F3_EDGES)
    if fid == "F5":
        return from_edge_list(5, _F5_EDGES)
    if fid == "F4":
        return complement(from_edge_list(5, _F5_EDGES))
    if fid == "F6":
        return complement(from_edge_list(5, _F3_EDGES))
    raise ValueError(f"unknown family id {fid!r}; expected one of {FAMILY_IDS}")


CASE_IV_KINDS = ("P4", "F3", "F4", "F5", "F6")


def case_iv_graph(kind: str, head: Graph | None = None) -> Graph:
    """A catalog seed with every head vertex attached to the seed's midpoints.

    The midpoints are the inner vertices of the seed's induced P4s; every
    other seed vertex is an end of one.  The head keeps its internal edges and
    is joined to exactly the midpoints, never to the ends.
    """
    if kind not in CASE_IV_KINDS:
        raise ValueError(f"unknown seed kind {kind!r}; expected one of {CASE_IV_KINDS}")
    seed = family(kind)
    if head is None:
        return seed
    mids, _ = _midpoint_split(seed, seed.full_mask)
    return _attach(seed, mids, head)


def case_iv_polynomials(j: int) -> tuple[IntPolynomial, IntPolynomial]:
    """The degree-5 factor of the F3 midpoint extension with a j-vertex head,
    and its quartic cofactor after splitting off the root 1.

    Returns (quintic, quartic) with quintic = (x - 1) * quartic.  The quartic
    is negative at 0 and positive at 1, so it has a root strictly inside
    (0, 1).
    """
    if j < 1:
        raise ValueError("head size j must be at least 1")
    quintic = IntPolynomial([2, -2, -(j * j + 5 * j + 6), j * j + 3 * j + 1,
                             2 * j + 4, 1])
    quartic = IntPolynomial([-2, 0, j * j + 5 * j + 6, 2 * j + 5, 1])
    return quintic, quartic


# =========================================================================
# edge masks
# =========================================================================

# mask_to_graph decodes through tables up to this many vertices, 8 mask bits
# a lookup up to MAX_N and 4 above.  Per n they grow as n^4 (by tracemalloc
# 21 KB at n = 7, 31 KB at 8, 27 KB at 16; 3 MB at 64), so a larger graph,
# which only the graph6 reader builds, is decoded edge by edge.
_TABLE_MAX_N = 16


@lru_cache(maxsize=None)
def _decode_tables(n: int) -> tuple[int, int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(width, its mask, tables, row offsets u*n) for n-vertex edge masks: for
    each width bits from the lowest, the packed rows of each of their values."""
    pairs = pair_order(n)
    width = 8 if n <= MAX_N else 4
    tables = []
    for base in range(0, len(pairs), width):
        table = [0]
        for u, v in pairs[base:base + width]:
            bit = 1 << (u * n + v) | 1 << (v * n + u)
            table += [packed | bit for packed in table]
        tables.append(tuple(table))
    return width, (1 << width) - 1, tuple(tables), tuple([u * n for u in range(n)])


def mask_to_graph(n: int, mask: int) -> Graph:
    """Graph from an edge mask in pair_order bit positions.

    n is trusted: every scanned graph comes through the tables, which do not
    read the vertex cap again.  The callers, formats.parse_graph6 and
    theorems.verify_theorems, check n against it first.
    """
    if mask < 0 or mask >> n * (n - 1) // 2:
        raise ValueError(f"edge mask out of range for n = {n}")
    if n > _TABLE_MAX_N:
        pairs = pair_order(n)
        return from_edge_list(n, [pairs[i] for i in bits(mask)])
    width, low, tables, offsets = _decode_tables(n)
    packed = 0
    for table in tables:
        packed |= table[mask & low]
        mask >>= width
    full = (1 << n) - 1
    return _trusted(n, [packed >> offset & full for offset in offsets])


def graph_to_mask(g: Graph) -> int:
    """Edge mask of g in pair_order bit positions; inverse of mask_to_graph."""
    mask = 0
    for v, row in enumerate(g.adj):
        mask |= (row & ((1 << v) - 1)) << v * (v - 1) // 2
    return mask


def head_catalog() -> dict[str, Graph]:
    """Small named heads used throughout the test grids."""
    return {
        "K1": standard("complete", 1),
        "K2": standard("complete", 2),
        "E2": standard("empty", 2),
        "E3": standard("empty", 3),
        "P3": standard("path", 3),
        "K3": standard("complete", 3),
        "P4": standard("path", 4),
        "C5": standard("cycle", 5),
    }
