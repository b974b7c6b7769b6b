import itertools
import math
import random

import pytest

import oracles
from p4spec import p4, theorems
from p4spec.constructions import (
    case_iv_graph,
    family,
    head_catalog,
    mask_to_graph,
    masks_to_graphs,
    standard,
    thick_spider,
    thin_spider,
)
from p4spec.graphs import Graph, complement, disjoint_union, from_edge_list, join, mask_of
from p4spec.p4 import (
    classify,
    enumerate_p4,
    is_cograph,
    is_p4_connected,
    is_p4_extendible,
    is_p4_reducible,
    is_p4_sparse,
    p4_count,
    recognize_spider,
    satisfies_q_t,
)
from p4spec.theorems import _classes, _sample_masks, verify_theorems

NET = from_edge_list(6, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4), (0, 5)])


def _sampled_graphs(seed, count, n_lo, n_hi):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        yield mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))


# -------------------------------------------------------------- enumeration

def test_enumerate_p4_examples():
    assert len(enumerate_p4(standard("path", 4))) == 1
    assert len(enumerate_p4(standard("cycle", 5))) == 5
    assert enumerate_p4(standard("complete", 4)) == []
    assert p4_count(standard("cycle", 6)) == 6


def test_enumerate_p4_path_orientation():
    # each mask's midpoints are the inner vertices of its path; the order of
    # the masks is unspecified
    assert enumerate_p4(standard("path", 4)) == [0b1111]
    assert p4._midpoints(standard("path", 4).adj, 0b1111) == 0b0110
    for n in (5, 6, 7):
        _assert_p4_entries_match_oracle(standard("cycle", n))
        _assert_p4_entries_match_oracle(standard("path", n))


def _assert_p4_entries_match_oracle(g):
    masks = enumerate_p4(g)
    paths = oracles.p4_paths(g)
    got = [frozenset(v for v in range(g.n) if m >> v & 1) for m in masks]
    assert len(set(got)) == len(got), "two entries share a vertex set"
    assert set(got) == set(paths)
    for m, w in zip(masks, got):
        a, b, c, d = paths[w]
        assert p4._midpoints(g.adj, m) == (1 << b) | (1 << c), (g, paths[w])


def test_enumerate_p4_against_oracle():
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            _assert_p4_entries_match_oracle(g)
    for g in _sampled_graphs(101, 300, 7, 12):
        _assert_p4_entries_match_oracle(g)


# ------------------------------------------------------------------ cograph

def test_is_cograph_examples():
    assert not is_cograph(standard("path", 4))
    assert is_cograph(standard("cycle", 4))
    assert is_cograph(standard("complete", 5))
    assert is_cograph(standard("empty", 5))
    assert not is_cograph(standard("cycle", 5))


def test_cograph_closed_under_union_and_join():
    rng = random.Random(102)
    cographs = [g for g in oracles.labeled_graphs(4) if is_cograph(g)]
    for _ in range(30):
        a, b = rng.choice(cographs), rng.choice(cographs)
        assert is_cograph(disjoint_union(a, b))
        assert is_cograph(join(a, b))


def test_cograph_recursive_equals_definitional():
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            assert is_cograph(g) == (not enumerate_p4(g))


def test_is_cograph_walks_a_cotree_as_deep_as_the_graph(monkeypatch):
    # vertex v is joined to every earlier vertex iff v is odd: a threshold
    # graph, whose cotree has a level per vertex
    n = 600
    monkeypatch.setenv("P4SPEC_MAX_N", str(n))
    adj = [0] * n
    for v in range(1, n, 2):
        adj[v] = (1 << v) - 1
        for u in range(v):
            adj[u] |= 1 << v
    assert is_cograph(Graph(n, adj))
    # without the edge 1-3, vertices 0..3 induce the P4 1-0-3-2 at the
    # deepest level
    adj[1] ^= 1 << 3
    adj[3] ^= 1 << 1
    assert not is_cograph(Graph(n, adj))


def test_labeled_cograph_counts():
    # 1, 2, 8, 52 labeled cographs on 1..4 vertices
    counts = [sum(is_cograph(g) for g in oracles.labeled_graphs(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 2, 8, 52]


# ------------------------------------------------------------- (q, t) and co

def test_satisfies_q_t_validation():
    g = standard("path", 4)
    with pytest.raises(ValueError):
        satisfies_q_t(g, 3, 1)
    with pytest.raises(ValueError):
        satisfies_q_t(g, 5, -1)


def test_satisfies_q_t_against_oracle():
    # every graph with n <= 6, then seeded graphs at n = 7..12 over a range
    # of densities, plus spiders, whose many P4s leave them (5, 1) anyway
    graphs = [g for n in range(0, 7) for g in oracles.labeled_graphs(n)]
    graphs += _sampled_graphs(103, 80, 4, 7)
    rng = random.Random(105)
    for n in range(7, 13):
        for density in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(2):
                pairs = n * (n - 1) // 2
                graphs.append(mask_to_graph(n, sum(1 << i for i in range(pairs)
                                                   if rng.random() < density)))
        k = n // 2
        head = standard("empty", n - 2 * k) if n > 2 * k else None
        graphs += [thin_spider(k, head), thick_spider(k, head)]
    for g in graphs:
        sets = list(oracles.p4_paths(g))
        for q, t in ((5, 1), (7, 3), (6, 2), (4, 1)):
            assert satisfies_q_t(g, q, t) == oracles.q_t_holds(g.n, sets, q, t), (g, q, t)


def _most_p4s_in_a_q_set(g, q):
    masks = enumerate_p4(g)
    return max(sum(1 for m in masks if m & ~mask_of(s) == 0)
               for s in itertools.combinations(range(g.n), q))


def test_satisfies_q_t_at_the_largest_count():
    # t at and just below the most P4s any q-set holds, for every q < n: the
    # walk over unions must go deep here, and past C(n, q) unions the test
    # falls back to the q-subsets; both searches are checked on their own
    for g in _sampled_graphs(107, 40, 6, 12):
        masks = enumerate_p4(g)
        for q in range(4, g.n):
            top = _most_p4s_in_a_q_set(g, q)
            for t in range(top + 1):
                assert p4._crowded_union(masks, q, t, math.inf) == (t < top), (g, q, t)
            assert satisfies_q_t(g, q, top)
            assert top == 0 or not satisfies_q_t(g, q, top - 1)
    # thousands of P4s and t in the thousands, with q = n - 1
    g = next(_sampled_graphs(109, 1, 24, 24))
    top = _most_p4s_in_a_q_set(g, 23)
    assert top > 1000
    assert satisfies_q_t(g, 23, top)
    assert not satisfies_q_t(g, 23, top - 1)


def test_p4_sparse_examples():
    assert is_p4_sparse(standard("path", 4))
    # C5 packs five P4s into its only 5-subset
    assert not is_p4_sparse(standard("cycle", 5))
    assert not is_p4_sparse(standard("cycle", 6))
    assert is_p4_sparse(standard("complete", 6))
    assert is_p4_sparse(thin_spider(3, standard("empty", 2)))


def test_p4_sparse_matches_oracle_exhaustive():
    for n in range(0, 6):
        for g in oracles.labeled_graphs(n):
            assert is_p4_sparse(g) == oracles.satisfies_q_t(g, 5, 1)


def test_p4_sparse_complement_closed():
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            if is_p4_sparse(g) != is_p4_sparse(complement(g)):
                pytest.fail(f"complement closure broken at {g!r}")
    for g in _sampled_graphs(104, 300, 7, 7):
        assert is_p4_sparse(g) == is_p4_sparse(complement(g))


# --------------------------------------------------------------- extendible

def test_p4_extendible_examples():
    assert is_p4_extendible(standard("cycle", 5))
    assert is_p4_extendible(standard("complete", 6))
    for fid in ("P4", "F0", "F1", "F2", "F3", "F4", "F5", "F6"):
        assert is_p4_extendible(family(fid)), fid
    for kind in ("P4", "F3", "F4", "F5", "F6"):
        for head in head_catalog().values():
            assert is_p4_extendible(case_iv_graph(kind, head)), kind
    # 2.C5 and 3.C5: p-components of 5 vertices, and 5 * (n // 4) P4s, the
    # most a P4-extendible graph on n vertices has
    c5 = standard("cycle", 5)
    for g in (disjoint_union(c5, c5), disjoint_union(disjoint_union(c5, c5), c5)):
        assert is_p4_extendible(g)
        assert p4_count(g) == 5 * (g.n // 4)


def test_net_is_not_extendible():
    # triangle with three pendants: every P4 overlaps another one, so each
    # P4 has two extension vertices
    assert not is_p4_extendible(NET)


def test_p4_extendible_against_oracle():
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            assert is_p4_extendible(g) == oracles.is_p4_extendible(g), g.adj
    # densities 1/8, 1/2 and 7/8, so that extendible graphs are common
    rng = random.Random(105)
    for _ in range(300):
        n = rng.randint(7, 13)
        width = n * (n - 1) // 2
        sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
        for mask in (sparse, rng.getrandbits(width), sparse ^ (1 << width) - 1):
            g = mask_to_graph(n, mask)
            assert is_p4_extendible(g) == oracles.is_p4_extendible(g), g.adj


def test_p4_extendible_complement_closed():
    for n in range(0, 7):

        for g in oracles.labeled_graphs(n):
            assert is_p4_extendible(g) == is_p4_extendible(complement(g))
    for g in _sampled_graphs(106, 300, 7, 7):
        assert is_p4_extendible(g) == is_p4_extendible(complement(g))


def test_p4_extendible_union_closed():
    rng = random.Random(107)
    pool = [g for g in _sampled_graphs(108, 60, 2, 5)]
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        assert is_p4_extendible(disjoint_union(a, b)) == (
            is_p4_extendible(a) and is_p4_extendible(b))


def test_p4_reducible():
    assert is_p4_reducible(standard("path", 4))
    assert is_p4_reducible(standard("complete", 5))
    # C5 is P4-extendible but not P4-sparse
    assert not is_p4_reducible(standard("cycle", 5))
    for n in range(0, 6):
        for g in oracles.labeled_graphs(n):
            assert is_p4_reducible(g) == (is_p4_sparse(g) and is_p4_extendible(g))


# ------------------------------------------------------------- p4-connected

def test_p4_connected_examples():
    assert not is_p4_connected(standard("empty", 1))
    assert not is_p4_connected(standard("complete", 4))
    assert is_p4_connected(standard("path", 4))
    assert is_p4_connected(standard("cycle", 5))
    assert is_p4_connected(standard("cycle", 6))
    assert is_p4_connected(standard("path", 5))
    two_paths = disjoint_union(standard("path", 4), standard("path", 4))
    assert not is_p4_connected(two_paths)
    assert list(p4._p4_components(enumerate_p4(two_paths))) == [0x0F, 0xF0]
    dangling = disjoint_union(standard("path", 4), standard("empty", 1))
    assert not is_p4_connected(dangling)
    # relabeled long paths: their P4s chain along the path in an order the
    # enumeration does not follow
    rng = random.Random(5)
    for n in (12, 20, 40):
        order = rng.sample(range(n), n)
        path = from_edge_list(n, zip(order, order[1:]))
        assert is_p4_connected(path)
        assert not is_p4_connected(disjoint_union(path, standard("path", 4)))


def test_p4_connected_against_oracle():
    for n in range(1, 7):
        for g in oracles.labeled_graphs(n):
            assert is_p4_connected(g) == oracles.is_p4_connected(g)
    for g in _sampled_graphs(109, 300, 7, 10):
        assert is_p4_connected(g) == oracles.is_p4_connected(g)


def _union_find_components(g):
    """The vertex masks of the classes of the oracle's induced P4s under
    sharing a vertex, by union-find, in ascending order."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    on_p4 = set()
    for quad in oracles.p4_paths(g):
        on_p4 |= quad
        first, *rest = quad
        for v in rest:
            parent[root(v)] = root(first)
    comps = {}
    for v in on_p4:
        comps[root(v)] = comps.get(root(v), 0) | 1 << v
    return sorted(comps.values())


def _check_p4_components(g):
    p4masks = enumerate_p4(g)
    comps = list(p4._p4_components(p4masks))
    assert sorted(comps) == _union_find_components(g), g.adj
    # the first p-component holds the first P4
    assert not p4masks or comps[0] & p4masks[0] == p4masks[0]
    # theorem e's case iv relies on this: P4-extendible iff every
    # p-component has at most 5 vertices
    assert is_p4_extendible(g) == all(c.bit_count() <= 5 for c in comps), g.adj
    return len(comps)


def test_p4_components_match_union_find():
    for n in range(1, 7):
        for g in oracles.labeled_graphs(n):
            _check_p4_components(g)
    # two p-components need 8 vertices: two random sides with or without a
    # P4, and a third side of 1 to 3 vertices, each joined or not
    rng = random.Random(20)
    ops = (disjoint_union, join)
    split = 0
    for a, b, c in zip(_sampled_graphs(21, 200, 4, 6), _sampled_graphs(22, 200, 4, 6),
                       _sampled_graphs(23, 200, 1, 3)):
        split += _check_p4_components(rng.choice(ops)(rng.choice(ops)(a, b), c)) == 2
    assert split > 0
    # a tree whose second P4, 0-2-6-8, meets the closure of the first,
    # 3-1-5-4, only through P4s listed after it, so the closure needs a
    # second pass over the list
    tree = from_edge_list(9, [(0, 2), (1, 3), (1, 5), (2, 6), (3, 8), (4, 5), (5, 8), (6, 8)])
    assert list(p4._p4_components(enumerate_p4(tree))) == [0b101111111]


# ------------------------------------------------------------------- spiders

def _spider_layout(kind, k, n):
    """The (kind, legs, body, head) that thin_spider or thick_spider lays
    out on n vertices: thin puts the body first, thick the legs, and the
    head follows from 2k.  The complement of one layout is the other."""
    low, high = tuple(range(k)), tuple(range(k, 2 * k))
    legs, body = (high, low) if kind == "thin" else (low, high)
    return kind, legs, body, tuple(range(2 * k, n))


def test_recognize_spider_thin():
    spec = recognize_spider(thin_spider(4, standard("complete", 3)))
    assert spec == _spider_layout("thin", 4, 11)
    assert spec.k == 4


def test_recognize_spider_thick():
    spec = recognize_spider(thick_spider(4, standard("complete", 3)))
    assert spec == _spider_layout("thick", 4, 11)
    assert spec.k == 4


def test_p4_is_thin_headless_spider():
    spec = recognize_spider(standard("path", 4))
    assert spec is not None
    assert spec.kind == "thin"
    assert spec.k == 2
    assert spec.head == ()


def test_c6_is_not_a_spider():
    assert recognize_spider(standard("cycle", 6)) is None


def _assert_spider_matches_oracle(g):
    partitions = oracles.spider_partitions(g)
    spec = recognize_spider(g)
    if spec is None:
        assert not partitions, (g, partitions)
    else:
        assert spec in partitions, (g, spec, partitions)
        # thin is preferred: at k = 2 every partition is both kinds
        if any(kind == "thin" for kind, *_ in partitions):
            assert spec.kind == "thin"


def test_recognize_spider_against_oracle():
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            _assert_spider_matches_oracle(g)
    # _classes lists the classes with at most half the edges; with their
    # complements, that is every class on 7 vertices
    classes = [(0, 1, ())]
    for n in range(1, 8):
        classes, _ = _classes(n, classes)
    for code, _, _ in classes:
        g = mask_to_graph(7, code)
        _assert_spider_matches_oracle(g)
        _assert_spider_matches_oracle(complement(g))
    # dense graphs have vertices of degree n - 2, the complement's legs, so
    # the degree test before the complement passes on some and fails on most
    rng = random.Random(111)
    for n in range(7, 13):
        pairs = n * (n - 1) // 2
        for density in (0.3, 0.5, 0.7, 0.85, 0.93):
            g = mask_to_graph(n, sum(1 << i for i in range(pairs) if rng.random() < density))
            _assert_spider_matches_oracle(g)
            _assert_spider_matches_oracle(complement(g))


def test_recognize_constructed_spiders():
    # spiders and their complements, k = 2..5 with every catalog head; at
    # k = 2 thin and thick coincide on one partition and thin wins
    for k in range(2, 6):
        for name, head in head_catalog().items():
            for build, kind in ((thin_spider, "thin"), (thick_spider, "thick")):
                g = build(k, head)
                co_kind = {"thin": "thick", "thick": "thin"}[kind]
                for h, want in ((g, kind), (complement(g), co_kind)):
                    _, legs, body, rest = _spider_layout(want, k, h.n)
                    spec = recognize_spider(h)
                    assert spec == ("thin" if k == 2 else want, legs, body, rest), \
                        (k, name, kind)


def test_recognize_spider_reads_degrees_before_the_complement(monkeypatch):
    built = []
    real = p4.complement

    def counting(g):
        built.append(g.n)
        return real(g)

    co_p7 = complement(standard("path", 7))
    monkeypatch.setattr(p4, "complement", counting)
    # every vertex of C7 has degree 2, so its complement has no leg
    assert recognize_spider(standard("cycle", 7)) is None
    assert built == []
    # the ends of P7 have degree 5 = n - 2 in its complement, as two legs of
    # the complement would, but no vertex has degree k - 1 = 1
    assert sorted(map(int.bit_count, co_p7.adj)) == [4, 4, 4, 4, 4, 5, 5]
    assert recognize_spider(co_p7) is None
    assert built == []
    spec = recognize_spider(thick_spider(3, standard("path", 3)))
    assert spec is not None and spec.kind == "thick"
    assert built == [9]
    # the n = 7 draws of scan-n7-p4 at seed 1: 5,922 have two vertices of
    # degree n - 2, but only the 16 thick spiders among the 93 spiders pass
    # the thick count and fail the thin witness
    built.clear()
    graphs = masks_to_graphs(7, list(_sample_masks(1 << 21, 40000, 1, 7)))
    assert sum([row.bit_count() for row in g.adj].count(5) >= 2 for g in graphs) == 5922
    specs = list(map(recognize_spider, graphs))
    assert sum(spec is not None for spec in specs) == 93
    assert sum(spec is not None and spec.kind == "thick" for spec in specs) == 16
    assert built == [7] * 16


def test_spider_complement_swaps_kind():
    for k in (2, 3, 4):
        for head in (None, standard("empty", 2), standard("complete", 3)):
            thin = recognize_spider(thin_spider(k, head))
            co = recognize_spider(complement(thin_spider(k, head)))
            assert thin is not None and co is not None
            assert co.k == thin.k
            assert len(co.head) == len(thin.head)
            if k >= 3:
                assert thin.kind == "thin" and co.kind == "thick"


# ------------------------------------------------------------ classification

def test_classify_c6():
    rep = classify(standard("cycle", 6))
    assert rep.n == 6
    assert rep.m == 6
    assert rep.p4_count == 6
    assert not rep.is_cograph
    assert not rep.is_p4_sparse
    assert not rep.is_p4_extendible
    assert not rep.is_p4_reducible
    assert rep.is_p4_connected
    assert rep.spider is None
    assert rep.l_integral
    assert rep.spectrum.integer_roots == ((4, 1), (3, 2), (1, 2), (0, 1))


def test_classify_to_dict_fields():
    doc = classify(standard("path", 4)).to_dict()
    assert doc["n"] == 4
    assert doc["m"] == 3
    assert doc["is_cograph"] is False
    assert doc["l_integral"] is False
    assert doc["spider"]["kind"] == "thin"
    assert doc["spectrum"]["integer_roots"] == [[2, 1], [0, 1]]
    assert doc["spectrum"]["residual"] == [2, -4, 1]


def test_classify_cograph_flags_consistent():
    for g in _sampled_graphs(110, 60, 1, 6):
        rep = classify(g)
        if rep.is_cograph:
            assert rep.is_p4_sparse and rep.is_p4_extendible and rep.l_integral
        assert rep.is_p4_reducible == (rep.is_p4_sparse and rep.is_p4_extendible)


def test_no_result_reads_the_p4_order(monkeypatch):
    # the lanes (n <= MAX_N) and the edge walk (above) list the P4s in
    # different orders, and neither order is specified: every report and
    # scan result must read the same with the list reversed
    rng = random.Random(111)
    keys = []
    for n in range(4, 13):
        width = n * (n - 1) // 2
        for _ in range(4):
            sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
            keys += [(n, sparse), (n, rng.getrandbits(width)), (n, sparse ^ (1 << width) - 1)]

    def graphs():
        # fresh graphs, so that no derived value is read from a memo;
        # several p-components, a P4-extendible graph above MAX_N, and one
        # whose first P4 has one extension vertex and whose last has two
        c5 = standard("cycle", 5)
        return [mask_to_graph(n, mask) for n, mask in keys] + [
            disjoint_union(c5, standard("path", 4)),
            disjoint_union(disjoint_union(c5, c5), standard("path", 4)),
            disjoint_union(standard("path", 4), NET),
            thick_spider(4, standard("path", 3))]

    reports = [classify(g).to_dict() for g in graphs()]
    results = [r.to_dict() for r in verify_theorems(6)]
    forward = p4.enumerate_p4
    sizes = set()

    def backward(g):
        sizes.add(g.n)
        return forward(g)[::-1]

    for module in (p4, theorems):
        monkeypatch.setattr(module, "enumerate_p4", backward)
    assert [classify(g).to_dict() for g in graphs()] == reports
    assert [r.to_dict() for r in verify_theorems(6)] == results
    assert sizes >= set(range(4, 13))
