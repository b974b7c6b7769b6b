"""Exhaustive and sampled verification of the structural theorems.

Each theorem is a per-graph (or per-pair) assertion checked over every
labeled graph up to a vertex bound.  The graph theorems are invariant under
relabeling, so an exhaustive population is scanned once per isomorphism
class: the n-vertex classes are grown from the (n-1)-vertex ones by
canonical augmentation, which finds each class exactly once, and each class
stands for its n!/|Aut| labeled graphs.  Only the classes with at most half
the C(n,2) edges are searched for; the rest are their complements, which
have the same automorphism groups.  A unit of an exhaustive population is
a class with at most half the edges, checked together with its complement,
and the two graphs hold each other as their derived complement, so each
value they share is computed once, from its own graph.  Sampled
populations come from one seeded global sequence of labeled edge masks,
drawn with replacement and one chunk at a time, so a scan's memory does
not grow with the sample; they are not paired.
Theorem h draws seeded union pairs with replacement; each distinct pair is
checked once and counts once per draw.  Every population, theorem h's pairs
included, is a stream of (key, weight) units that _scan_chunk checks chunk
by chunk, theorem by theorem, in this process or in a pool.  Shard k of K
checks chunks k, k+K, k+2K, ... of the one chunk stream, which keeps
aggregate counts independent of the shard count.  Only the failures at the
smallest failing n are kept, so a failing scan's memory is bounded too.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import time
from collections import Counter, namedtuple
from collections.abc import Iterator

from . import MAX_N, THEOREMS
from .constructions import mask_to_graph
from .graphs import Graph, _canonical_deletion, _trusted, bits, check_vertex_count, \
    complement, connected_components
from .p4 import _midpoint_split, _p4_components, enumerate_p4, is_p4_connected, \
    is_p4_extendible, recognize_spider, satisfies_q_t
from .spectral import check_union_relation, is_l_integral

PAIRS_PER_N = 100
_CHUNK = 64  # units per chunk; a chunk of paired class units holds half


# The checks share a graph's P4s, complement, spider, P4-extendibility and
# L-integrality through Graph.derived, so each is computed once per graph
# whichever checks run.

def _check_a(g: Graph) -> bool:
    if g.derived(enumerate_p4):
        return True
    return g.derived(is_l_integral)


def _check_b(g: Graph) -> bool:
    if not g.derived(enumerate_p4) or not satisfies_q_t(g, 5, 1):
        return True
    return not g.derived(is_l_integral)


def _check_c(g: Graph) -> bool:
    if not g.derived(enumerate_p4) or not g.derived(is_p4_extendible):
        return True
    return not g.derived(is_l_integral)


def _check_d(g: Graph) -> bool:
    if g.derived(recognize_spider) is None:
        return True
    return not g.derived(is_l_integral)


def _has_midpoint_extension(g: Graph) -> bool:
    """Some proper p-component D is split by its P4s into midpoints and
    ends, and every vertex outside D is adjacent to exactly the midpoints.

    In a P4-extendible graph, the only kind _check_e asks about, D is a P4
    or has 5 vertices; on 5 vertices the split holds exactly for F3..F6, so
    D induces a catalog seed.
    """
    for dm in _p4_components(g.derived(enumerate_p4)):
        mids, ends = _midpoint_split(g, dm)
        if dm != g.full_mask and not mids & ends \
                and all(g.adj[x] & dm == mids for x in bits(g.full_mask & ~dm)):
            return True
    return False


def _check_e(g: Graph) -> bool:
    if g.n < 2 or not g.derived(is_p4_extendible):
        return True
    disconnected = len(connected_components(g)) > 1
    co_disconnected = len(connected_components(g.derived(complement))) > 1
    # a graph on 4 or 5 vertices is p4-connected iff it is P4 or one of F0..F6
    catalog_member = g.n <= 5 and is_p4_connected(g)
    return disconnected + co_disconnected + catalog_member + _has_midpoint_extension(g) == 1


def _check_f(g: Graph) -> bool:
    if g.n < 7 or not satisfies_q_t(g, 7, 3) or not is_p4_connected(g):
        return True
    spider = g.derived(recognize_spider)
    if spider is None or spider.head:
        return False
    return not g.derived(is_l_integral)


def _check_g(g: Graph) -> bool:
    return g.derived(is_l_integral) == g.derived(complement).derived(is_l_integral)


DEFAULT_CHECKS = {
    "a": _check_a,
    "b": _check_b,
    "c": _check_c,
    "d": _check_d,
    "e": _check_e,
    "f": _check_f,
    "g": _check_g,
}


class TheoremResult(namedtuple("TheoremResult", "theorem description population checked "
                                                "violations counterexample check_s")):
    """One theorem's report.  check_s is the time in its checks, timed once
    per chunk and summed over workers; it includes the shared P4, complement
    and spectrum work the theorem is first to ask for."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def __dataclass_fields__(self):
        # only for perfbench/test_perfbench.py, which calls dataclasses.replace
        # on a result; delete once it calls _replace.  Built when read, so a
        # scan never imports dataclasses
        import dataclasses
        return dataclasses.make_dataclass("TheoremResult", self._fields).__dataclass_fields__

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if k != "check_s"}


class _Tally:
    __slots__ = ("checked", "violations", "failed", "time")

    def __init__(self):
        self.checked = 0
        self.violations = 0
        # (n, keys): the smallest n where a unit failed, and the failing
        # class representatives' masks there, or the smallest failing
        # sampled mask or drawn pair (n1, m1, n2, m2)
        self.failed = None
        self.time = 0.0

    def merge(self, other: "_Tally", exhaustive):
        """Add other's counts, and keep the failures at the smallest n only:
        every failing class if n is in exhaustive, else the smallest key."""
        self.checked += other.checked
        self.violations += other.violations
        self.time += other.time
        if other.failed is None or self.failed and self.failed[0] < other.failed[0]:
            return
        n, keys = other.failed
        if self.failed and self.failed[0] == n:
            self.failed[1].extend(keys)
            keys = self.failed[1]
        self.failed = n, keys if n in exhaustive else [min(keys)]


def _orbit_branches(adj, cells: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """One step of _orbit_min: the smallest block the highest free label can
    have, and the cells left by each vertex of the top cell that gives it.

    cells are the still-unlabeled vertices as masks, lowest labels first.
    A vertex y given the highest label has its neighbours on the lowest
    labels of each cell, so its block has bit-count(adj[y] & cell) ones
    from each cell's first label; the top cell's ones are the most
    significant.  Labeling y splits each cell into its neighbours (lower)
    and the rest.
    """
    sizes = [c.bit_count() for c in cells]
    best, ties = None, []
    for y in bits(cells[-1]):
        row = adj[y]
        block = lo = 0
        for c, size in zip(cells, sizes):
            block |= ((1 << (row & c).bit_count()) - 1) << lo
            lo += size
        if best is None or block < best:
            best, ties = block, [y]
        elif block == best:
            ties.append(y)
    children = []
    for y in ties:
        row = adj[y]
        parts = []
        for c in cells:
            c &= ~(1 << y)
            parts += [p for p in (c & row, c & ~row) if p]
        children.append(tuple(parts))
    return best, children


def _orbit_min(n: int, mask: int) -> int:
    """Smallest edge mask among the n! relabelings of mask_to_graph(n, mask).

    Labels are placed from n - 1 down.  The pairs (i, j), i < j, of label j
    are the block of bits from j(j - 1)/2 up, above every lower label's
    block, so the vertex labeled j must give the smallest block that the
    labels placed so far allow (_orbit_branches).  The search branches only
    on ties, and drops a branch once its placed blocks exceed the same bits
    of the best mask found.  The bits below the placed blocks depend only on
    the cells left, so a branch that reaches cells already searched from
    placed blocks no larger is dropped too; depth first, that search has
    finished.
    """
    adj = mask_to_graph(n, mask).adj
    best = mask
    # (unlabeled vertices as cells, their count f, the placed blocks)
    stack = [(((1 << n) - 1,) if n else (), n, 0)]
    seen = {}  # cells -> the smallest placed blocks they were searched from
    while stack:
        cells, f, placed = stack.pop()
        low = f * (f - 1) // 2  # the first bit of label f's block
        if placed >> low > best >> low or cells in seen and seen[cells] <= placed:
            continue
        seen[cells] = placed
        if not f:
            best = placed
            continue
        block, children = _orbit_branches(adj, cells)
        placed |= block << (f - 1) * (f - 2) // 2
        stack += [(c, f - 1, placed) for c in children]
    return best


def _classes(n: int, prev: list[tuple]) -> tuple[list[tuple], int]:
    """The isomorphism classes on n vertices, grown from the classes prev on
    n - 1 vertices by canonical augmentation (McKay 1998), and the number
    of canonical searches that took.

    A class is a triple (code, aut_order, gens), gens generating the
    automorphism group of its representative mask_to_graph(n, code); the
    list is in code order.  Only the classes with 2m <= C(n,2) edges are
    searched for, and their codes are canonical; each other class is the
    complement of one with 2m < C(n,2), entered as (code ^ full, aut, gens).
    That is every class once: complement is a bijection on the n-vertex
    classes, and a permutation keeps the edges iff it keeps the non-edges,
    so a class and its complement have one automorphism group on the same
    labels.

    Each class on n - 1 vertices gets vertex n - 1 with one neighbourhood
    from each orbit of its automorphism group on vertex subsets, and a
    candidate is kept only if vertex n - 1 is in the Aut-orbit of the
    vertex that the canonical labeling places last
    (graphs._canonical_deletion).  Every class has such a vertex, deleting
    it leaves a graph isomorphic to one class in prev, and two
    neighbourhoods of that class give one class with vertex n - 1 in that
    orbit only if an automorphism maps one onto the other, so every class
    is found exactly once.  None of this reads a parent's code as
    canonical: any representative of the parent's class serves, with
    generators of its group on the representative's labels, and a kept
    child's code comes from its own search.  The deleted vertex has the
    largest degree d, so a neighbourhood whose new vertex does not is
    skipped before any graph is built; the test is invariant under
    automorphisms, so it runs first.  A child with m edges grows from its
    canonical parent, which has m - d <= m edges, by d edges; so every
    child with 2m <= C(n,2) has d <= C(n,2)//2 - m(parent), and none is
    lost when a larger neighbourhood is skipped, or a parent whose largest
    degree, a lower bound on d, is above that room.
    Certificate: no code may occur twice, and the class weights n!/|Aut|,
    complements included, must add up to the 2^C(n,2) labeled graphs, else
    ArithmeticError (an explicit raise, so it survives python -O).
    """
    new = 1 << (n - 1)  # vertex n - 1 as a bit
    pairs = n * (n - 1) // 2
    half = pairs // 2
    found = []
    searches = 0
    # one tuple per distinct generator set, shared by the classes that have
    # it: 400 of them for the 12,346 classes at n = 8
    shared = {}
    for code, _, gens in prev:
        # the most edges the new vertex may bring, and still 2m <= C(n, 2)
        room = half - code.bit_count()
        rows = mask_to_graph(n - 1, code).adj
        degrees = [row.bit_count() for row in rows]
        top = max(degrees, default=0)
        if top > room:
            continue  # the new vertex needs the largest degree
        # at_least[d]: the parent's vertices of degree d or more
        at_least = [sum(1 << u for u, du in enumerate(degrees) if du >= d)
                    for d in range(n)]
        # images[k][u]: the bit of vertex u under the k-th generator
        images = [[1 << w for w in perm] for perm in gens]
        seen = bytearray(new)  # subsets in an orbit already tried
        for nbrs in range(new):
            d = nbrs.bit_count()
            # no old vertex may end with a degree above d, the new vertex's
            if d < top or d > room or nbrs & at_least[d] or seen[nbrs]:
                continue
            if images:
                # nbrs stands for its orbit under the parent's group
                seen[nbrs] = 1
                orbit = [nbrs]
                for s in orbit:
                    for image in images:
                        t = 0
                        for u, bit in enumerate(image):
                            if s >> u & 1:
                                t |= bit
                        if not seen[t]:
                            seen[t] = 1
                            orbit.append(t)
            adj = [row | new if nbrs >> u & 1 else row for u, row in enumerate(rows)]
            adj.append(nbrs)
            searched, kept = _canonical_deletion(_trusted(n, adj))
            searches += searched
            if kept is not None:
                child, aut, child_gens = kept
                found.append((child, aut, shared.setdefault(child_gens, child_gens)))
    full = (1 << pairs) - 1
    found += [(code ^ full, aut, gens) for code, aut, gens in found
              if 2 * code.bit_count() < pairs]
    found.sort()
    for a, b in zip(found, found[1:]):
        if a[0] == b[0]:
            raise ArithmeticError(f"class {a[0]} on {n} vertices found twice")
    fact = math.factorial(n)
    total = 0
    for _, aut, _ in found:
        if aut < 1 or fact % aut:
            raise ArithmeticError(f"automorphism group order {aut} does not divide {n}!")
        total += fact // aut
    if total != 1 << pairs:
        raise ArithmeticError(f"class weights on {n} vertices sum to {total}, "
                              f"not 2^{pairs}")
    return found, searches


def _class_units(n: int, classes: list[tuple]) -> Iterator[tuple[int, int]]:
    """(code, n!/|Aut|) of each class on n vertices with 2m <= C(n,2) edges;
    a class with fewer stands for its complement as well (_with_complements)."""
    fact = math.factorial(n)
    pairs = n * (n - 1) // 2
    for code, aut, _ in classes:
        if 2 * code.bit_count() <= pairs:
            yield code, fact // aut


def _with_complements(n: int, units: list[tuple[int, int]]) -> tuple[list, list]:
    """The graphs of a chunk of class units and their (key, weight) units,
    each class with 2m < C(n,2) edges followed by its complement at the
    same weight.  Each graph of a pair is the other's derived complement,
    so a check that reads the complement's P4s or L-integrality reads the
    values its partner computes from its own graph."""
    pairs = n * (n - 1) // 2
    full = (1 << pairs) - 1
    subjects, out = [], []
    for code, weight in units:
        g = mask_to_graph(n, code)
        subjects.append(g)
        out.append((code, weight))
        if 2 * code.bit_count() < pairs:
            h = complement(g)
            g._memo = {complement: h}
            h._memo = {complement: g}
            subjects.append(h)
            out.append((code ^ full, weight))
    return subjects, out


def _scan_chunk(args) -> dict[str, _Tally]:
    """Run the checks of theorem ids `enabled` over one chunk of units.

    A unit (key, weight) stands for weight members of an n-vertex
    population.  For the graph theorems the key is the mask of the graph
    mask_to_graph(n, key), and the weight n!/|Aut| for a class in an
    exhaustive population, 1 for a sampled labeled mask.  A chunk of
    classes is paired: its units are the classes with 2m <= C(n,2) edges,
    and each with fewer is checked with its complement
    (_with_complements).  For theorem h, which runs in chunks of its own,
    the key is a drawn union pair (n1, m1, n2, m2) and the weight its
    number of draws.  The chunk is checked theorem by theorem, each over
    every unit, and timed once per theorem; the units are walked again only
    for a theorem that failed on some of them, to record the failing units.
    """
    n, units, enabled, paired = args
    if enabled == "h":
        subjects = [key for key, _ in units]
        checks = [("h", lambda pair: _check_pair(*pair))]
    else:
        if paired:
            subjects, units = _with_complements(n, units)
        else:
            subjects = [mask_to_graph(n, mask) for mask, _ in units]
        checks = [(tid, DEFAULT_CHECKS[tid]) for tid in enabled]
    weight = sum(w for _, w in units)
    perf = time.perf_counter
    tallies = {}
    for tid, check in checks:
        tally = tallies[tid] = _Tally()
        t0 = perf()
        results = list(map(check, subjects))
        tally.time = perf() - t0
        tally.checked = weight
        if not all(results):
            failed = [unit for unit, ok in zip(units, results) if not ok]
            tally.violations = sum(w for _, w in failed)
            tally.failed = n, [key for key, _ in failed]
    if paired:
        # a pair's memos hold each other; unlinked, the chunk's graphs are
        # freed by reference counting instead of the cyclic collector
        for g in subjects:
            g._memo = None
    return tallies


def _sample_masks(space: int, count: int, seed: int, n: int) -> Iterator[int]:
    """count seeded draws from range(space), with replacement, one at a time."""
    rng = random.Random(f"{seed}:samples:{n}")
    return map(rng.randrange, itertools.repeat(space, count))


def _pair_population(n: int, seed: int) -> list[tuple[int, int, int, int]]:
    rng = random.Random(f"{seed}:pairs:{n}")
    out = []
    for _ in range(PAIRS_PER_N):
        n1 = rng.randint(1, n - 1)
        n2 = n - n1
        m1 = rng.randrange(1 << (n1 * (n1 - 1) // 2))
        m2 = rng.randrange(1 << (n2 * (n2 - 1) // 2))
        out.append((n1, m1, n2, m2))
    return out


def _check_pair(n1: int, m1: int, n2: int, m2: int) -> bool:
    return check_union_relation(mask_to_graph(n1, m1), mask_to_graph(n2, m2))


def verify_theorems(n_max: int, theorems: str | None = None, *,
                    shards: int = 1, shard_id: int = 0,
                    sample: int | None = None, workers: int = 1,
                    seed: int = 0, progress=None) -> list[TheoremResult]:
    """Check the selected theorems over all labeled graphs with 1..n_max
    vertices.  theorems is a string of ids from THEOREMS; None selects all
    of them, and an empty selection is a ValueError.

    Every population is exhaustive unless sample is given: then the
    populations with more than sample labeled graphs are drawn uniformly
    from a seeded RNG instead.  An exhaustive population is checked once
    per isomorphism class, and `checked` and `violations` add up the class
    weights n!/|Aut|, so they still count labeled graphs; the counterexample
    is the smallest labeled edge mask of a failing graph, as a labeled scan
    would report it.  The populations form one stream of chunks, and shard
    shard_id of shards checks chunks shard_id, shard_id + shards, ... of it;
    summing the shards reproduces the full counts exactly.  workers > 1
    checks the chunks in a pool of one process per chunk among the shard's
    first min(workers, cores), so never more than the cores or the chunks;
    the report is the same.
    The checks in DEFAULT_CHECKS must be invariant under relabeling, since
    each sees one graph per class.  progress, if given, receives one line
    per population as it is set up, and one counting theorem h's distinct
    pairs once they are drawn.
    """
    if not (1 <= n_max <= MAX_N):
        raise ValueError(f"n_max must be in 1..{MAX_N}")
    check_vertex_count(n_max)
    if shards < 1 or not (0 <= shard_id < shards):
        raise ValueError("need shards >= 1 and 0 <= shard_id < shards")
    if sample is not None and sample < 1:
        raise ValueError("sample size must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    enabled = "".join(sorted(THEOREMS if theorems is None else set(theorems)))
    if not enabled:
        raise ValueError("empty theorem selection")
    for tid in enabled:
        if tid not in THEOREMS:
            raise ValueError(f"unknown theorem id {tid!r}")
    graph_ids = enabled.replace("h", "")

    tallies = {tid: _Tally() for tid in enabled}
    populations = []
    sources = []  # (n, theorem ids, iterator over the units, paired)
    exhaustive = set()  # the n whose graph population is checked per class
    classes = [(0, 1, ())]  # the graph on no vertices
    # a graph population is set up only when a graph theorem runs
    for n in range(1, n_max + 1) if graph_ids else ():
        space = 1 << (n * (n - 1) // 2)
        if sample is None or space <= sample:
            exhaustive.add(n)
            populations.append(f"n={n} exhaustive ({space})")
            t0 = time.perf_counter()
            classes, searches = _classes(n, classes)
            units = _class_units(n, classes)
            if progress:
                progress(f"{populations[-1]}: {len(classes)} classes, "
                         f"generated in {time.perf_counter() - t0:.3f}s "
                         f"({searches} canonical searches)")
        else:
            populations.append(f"n={n} sampled ({sample})")
            # drawn chunk by chunk, so a scan holds one chunk of the sample
            units = zip(_sample_masks(space, sample, seed, n), itertools.repeat(1))
            if progress:
                progress(populations[-1])
        sources.append((n, graph_ids, units, n in exhaustive))
    if "h" in enabled:
        distinct = draws = 0
        for n in range(2, n_max + 1):
            # pairs are drawn with replacement: check each distinct pair once
            # and count it once per draw
            pairs = Counter(_pair_population(n, seed))
            distinct += len(pairs)
            draws += pairs.total()
            sources.append((n, "h", iter(pairs.items()), False))
        if progress:
            progress(f"theorem h: {distinct} distinct pairs of {draws} draws")

    def chunks():
        for n, ids, units, paired in sources:
            # a paired unit holds up to two graphs
            size = _CHUNK // 2 if paired else _CHUNK
            while chunk := list(itertools.islice(units, size)):
                yield n, chunk, ids, paired

    work = itertools.islice(chunks(), shard_id, None, shards)
    # more processes than cores or chunks would only wait
    head = list(itertools.islice(work, min(workers, os.cpu_count() or 1)))
    with contextlib.ExitStack() as stack:
        scan = map
        if len(head) > 1:
            import multiprocessing  # about 1 MB of modules a serial scan never needs
            mp = multiprocessing.get_context("fork")
            scan = stack.enter_context(mp.Pool(len(head))).imap_unordered
        for result in scan(_scan_chunk, itertools.chain(head, work)):
            for tid, tally in result.items():
                tallies[tid].merge(tally, () if tid == "h" else exhaustive)

    if any(tally.failed for tally in tallies.values()):
        # formats costs a cold start about 2 ms; only a counterexample needs it
        from .formats import serialize_graph6
    results = []
    for tid in enabled:
        tally = tallies[tid]
        counterexample = None
        if tally.failed and tid == "h":
            n1, m1, n2, m2 = tally.failed[1][0]
            counterexample = (serialize_graph6(mask_to_graph(n1, m1)) + "|"
                              + serialize_graph6(mask_to_graph(n2, m2)))
        elif tally.failed:
            # a failing class reports the smallest mask in its orbit
            n, keys = tally.failed
            best = min(_orbit_min(n, key) for key in keys) if n in exhaustive else keys[0]
            counterexample = serialize_graph6(mask_to_graph(n, best))
        population = (f"seeded graph pairs, {PAIRS_PER_N} per n in 2..{n_max}"
                      if tid == "h" else "; ".join(populations))
        results.append(TheoremResult(
            theorem=tid, description=THEOREMS[tid], population=population,
            checked=tally.checked, violations=tally.violations,
            counterexample=counterexample, check_s=tally.time))
    return results
