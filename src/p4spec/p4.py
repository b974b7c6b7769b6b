"""Induced-P4 structure: enumeration, recognition of P4-flavored classes.

Every induced P4 a-b-c-d has exactly one middle edge b-c, the edge between
its two inner vertices.  `enumerate_p4` walks each edge as a candidate
middle and pairs an end a in N(b) minus N[c] with an end d in N(c) minus
N[b] that is not adjacent to a, so each induced P4 is found once and the
cost grows with the edges and the P4s, not with the 4-sets.  It returns
only the vertex masks; the inner vertices of a P4 are the two with two
neighbours inside its mask (`_midpoints`), and the p-components are the
closures of the P4s under sharing a vertex (`_p4_components`).  The class
predicates all read that one pass, and the complement, through
`Graph.derived`, so `classify` and the theorem scans enumerate once per
graph however many predicates they ask.  `recognize_spider` reads g's
degrees once, before it builds the complement, which it needs only for a
thick spider; the complement's degrees are n - 1 - d.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .graphs import Graph, _components, bits, complement, mask_of
from .spectral import exact_spectrum


def enumerate_p4(g: Graph) -> list[int]:
    """The vertex masks of all induced P4s, one per vertex set.

    Each edge b-c with b < c is tried as the middle edge; the list is
    ordered by that edge, then by the end a at b, then by the end d at c.
    `_midpoints` reads a P4's inner vertices back from its mask.
    """
    adj = g.adj
    out = []
    for b in range(g.n):
        nb = adj[b]
        bm = 1 << b
        later = nb >> (b + 1) << (b + 1)
        while later:
            cm = later & -later
            later ^= cm
            nc = adj[cm.bit_length() - 1]
            ends_b = nb & ~(nc | cm)
            if not ends_b:
                continue
            ends_c = nc & ~(nb | bm)
            if not ends_c:
                continue
            bc = bm | cm
            while ends_b:
                am = ends_b & -ends_b
                ends_b ^= am
                ds = ends_c & ~adj[am.bit_length() - 1]
                while ds:
                    dm = ds & -ds
                    ds ^= dm
                    out.append(bc | am | dm)
    return out


def _midpoints(adj: list[int], wm: int) -> int:
    """The inner vertices of the induced P4 on the vertex mask wm, as a
    mask: each has two neighbours in wm, each end has one."""
    mids = 0
    rest = wm
    while rest:
        vm = rest & -rest
        rest ^= vm
        if (adj[vm.bit_length() - 1] & wm).bit_count() == 2:
            mids |= vm
    return mids


def _midpoint_split(g: Graph, dm: int) -> tuple[int, int]:
    """(mids, ends): the vertices inner to, and the vertices at an end of,
    some induced P4 of g inside the vertex mask dm, as masks."""
    mids = ends = 0
    for wm in g.derived(enumerate_p4):
        if wm & ~dm == 0:
            inner = _midpoints(g.adj, wm)
            mids |= inner
            ends |= wm ^ inner
    return mids, ends


def p4_count(g: Graph) -> int:
    return len(g.derived(enumerate_p4))


# =========================================================================
# cographs
# =========================================================================

def is_cograph(g: Graph) -> bool:
    """True iff g has no induced P4.

    Uses the recursive characterization (every induced subgraph with at least
    two vertices is disconnected or has a disconnected complement) rather than
    enumerating P4s; the two definitions agree and `classify` holds them
    together.
    """
    adj = g.adj
    co = g.derived(complement).adj
    # an explicit stack, as a cotree can be as deep as g has vertices
    stack = [g.full_mask]
    while stack:
        mask = stack.pop()
        if mask.bit_count() <= 3:
            continue  # a P4 needs 4 vertices
        comps = _components(adj, mask)
        if len(comps) == 1:
            comps = _components(co, mask)
            if len(comps) == 1:
                return False
        stack.extend(comps)
    return True


# =========================================================================
# (q, t) classes
# =========================================================================

@lru_cache(maxsize=None)
def _subset_masks(n: int, q: int) -> tuple[int, ...]:
    return tuple(mask_of(s) for s in itertools.combinations(range(n), q))


def satisfies_q_t(g: Graph, q: int, t: int) -> bool:
    """True iff every q-subset of vertices induces at most t P4s.

    Vacuously true when q exceeds the vertex count.  A walk over the unions
    of P4s within q vertices decides it, and hands over to testing every
    q-subset once the unions it has seen would cost more than a quarter of
    that.
    """
    if q < 4:
        raise ValueError("q must be at least 4")
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = g.n
    p4masks = g.derived(enumerate_p4)
    if len(p4masks) <= t or q > n:
        return True
    if q == n:
        return False  # V itself holds every P4
    # a union costs about four q-subset tests
    crowded = _crowded_union(p4masks, q, t, math.comb(n, q) // 4)
    if crowded is None:
        crowded = any(_holds_more(sm, p4masks, t) for sm in _subset_masks(n, q))
    return not crowded


def _holds_more(sm: int, p4masks: list[int], t: int) -> bool:
    """True iff more than t of the P4 masks lie inside sm."""
    count = 0
    for m in p4masks:
        if m & ~sm == 0:
            count += 1
            if count > t:
                return True
    return False


def _crowded_union(p4masks: list[int], q: int, t: int, budget: int) -> bool | None:
    """Does some union of P4 masks within q vertices hold more than t of them?

    A q-set S holds more than t P4s iff the union of the P4s inside S does
    (it has at most q vertices), and that union is reached from any one of
    those P4s by adding, one at a time, masks inside S that bring a new
    vertex.  So a depth-first walk over distinct unions, from each mask,
    each union grown only by masks that add a vertex and keep it within q,
    decides the question.  A union is not grown when the masks that fit with
    it within q vertices number at most t: any q-set around it holds only
    those.  Each union carries a lower bound on the masks inside it (one
    more than its parent held); once that bound reaches t, any mask that
    still fits makes more than t.  Returns None once more than `budget` unions
    have been seen.
    """
    if len(p4masks) > budget:
        return None
    seen: set[int] = set()  # grown unions; the masks themselves are distinct
    for start in p4masks:
        stack = [(start, 1)]
        while stack:
            u, known = stack.pop()
            inside = 0
            grow = []
            for m in p4masks:
                if m & ~u == 0:
                    inside += 1
                elif (u | m).bit_count() <= q:
                    if known >= t:
                        return True
                    grow.append(u | m)
            if inside > t:
                return True
            if inside + len(grow) <= t:
                continue
            for v in grow:
                if v not in seen:
                    if len(seen) + len(p4masks) >= budget:
                        return None
                    seen.add(v)
                    stack.append((v, inside + 1))
    return False


def is_p4_sparse(g: Graph) -> bool:
    """True iff no 5 vertices induce more than one P4."""
    return satisfies_q_t(g, 5, 1)


def is_p4_extendible(g: Graph) -> bool:
    """True iff every induced P4 has at most one extension vertex.

    A vertex x outside a P4 on vertex set W extends W when x lies on some
    induced P4 that shares vertices with W.  Reading "some vertices" as
    "exactly three" admits graphs (the net, for one) that break the
    exactly-one structure theorem, so the overlap is any nonempty one.
    """
    p4masks = g.derived(enumerate_p4)
    for wm in p4masks:
        outside = 0
        for m in p4masks:
            if m & wm:
                outside |= m & ~wm
                if outside & (outside - 1):
                    return False
    return True


def is_p4_reducible(g: Graph) -> bool:
    """True iff g is both P4-sparse and P4-extendible."""
    return is_p4_sparse(g) and is_p4_extendible(g)


def _p4_components(p4masks: list[int]) -> Iterator[int]:
    """The p-components as vertex masks, the one holding p4masks[0] first:
    each is the closure of a P4 under adding every P4 that meets it, and
    the P4s it leaves out are disjoint from it."""
    while p4masks:
        reach = p4masks[0]
        last = 0
        while last != reach:
            last = reach
            for m in p4masks:
                if m & reach:
                    reach |= m
        yield reach
        p4masks = [m for m in p4masks if not m & reach]


def is_p4_connected(g: Graph) -> bool:
    """True iff every vertex bipartition is crossed by some induced P4, that
    is, iff V is one p-component; no graph on fewer than 2 vertices is."""
    return g.n >= 2 and next(_p4_components(g.derived(enumerate_p4)), 0) == g.full_mask


# =========================================================================
# spiders
# =========================================================================

class SpiderSpec(namedtuple("SpiderSpec", "kind legs body head")):
    """Spider partition: kind "thin" or "thick", then legs (stable set), body
    (clique) and a possibly empty head, each a tuple of vertices."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.legs)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "legs": list(self.legs),
                "body": list(self.body), "head": list(self.head)}


def _thin_witness(g: Graph, degrees: list[int]) -> tuple[tuple[int, ...], tuple[int, ...],
                                                         tuple[int, ...]] | None:
    """Partition of g as a thin spider, if one exists; degrees are g's.

    In a thin spider the legs are exactly the degree-1 vertices, so the
    candidate partition is forced and the check is linear in edges.
    """
    # a spider has at least two legs
    if g.n < 4 or degrees.count(1) < 2:
        return None
    legs_m = 0
    for v, d in enumerate(degrees):
        if d == 1:
            legs_m |= 1 << v
    body_m = 0
    for s in bits(legs_m):
        c = g.adj[s]  # single bit: the leg's unique neighbor
        if c & legs_m or c & body_m:
            return None
        body_m |= c
    head_m = g.full_mask & ~legs_m & ~body_m
    for c in bits(body_m):
        if g.adj[c] & body_m != body_m ^ (1 << c):
            return None
    for r in bits(head_m):
        if g.adj[r] & body_m != body_m:
            return None
    return bits(legs_m), bits(body_m), bits(head_m)


def recognize_spider(g: Graph) -> SpiderSpec | None:
    """Recognize g as a thin or thick spider, thin preferred (they coincide
    at k = 2).

    Thick recognition goes through the complement: the complement of a thin
    spider is a thick spider on the same partition with legs and body swapped.
    """
    degrees = [row.bit_count() for row in g.adj]
    w = _thin_witness(g, degrees)
    if w is not None:
        return SpiderSpec("thin", *w)
    # the complement's legs would be g's vertices of degree n - 2, and a
    # spider has at least two legs: _thin_witness's first test, read off g
    if degrees.count(g.n - 2) < 2:
        return None
    w = _thin_witness(g.derived(complement), [g.n - 1 - d for d in degrees])
    if w is not None:
        legs, body, head = w
        return SpiderSpec("thick", legs=body, body=legs, head=head)
    return None


# =========================================================================
# classification report
# =========================================================================

class ClassificationReport(namedtuple(
        "ClassificationReport", "n m p4_count is_cograph is_p4_sparse is_p4_extendible "
        "is_p4_reducible is_p4_connected spider l_integral spectrum")):
    """What classify finds: counts and flags, the SpiderSpec or None, and the
    ExactSpectrum.  The fields, in order, lay out to_dict and analyze's text
    report."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "spider": self.spider.to_dict() if self.spider else None,
                "spectrum": self.spectrum.to_dict()}


def classify(g: Graph) -> ClassificationReport:
    """Full structural and spectral classification of g."""
    count = p4_count(g)
    cog = is_cograph(g)
    if cog != (not count):
        raise ArithmeticError("recursive and P4-free cograph checks disagree")
    sparse = is_p4_sparse(g)
    extendible = is_p4_extendible(g)
    spec = exact_spectrum(g)
    return ClassificationReport(
        n=g.n,
        m=g.edge_count,
        p4_count=count,
        is_cograph=cog,
        is_p4_sparse=sparse,
        is_p4_extendible=extendible,
        is_p4_reducible=sparse and extendible,
        is_p4_connected=is_p4_connected(g),
        spider=recognize_spider(g),
        l_integral=spec.is_integral,
        spectrum=spec,
    )
