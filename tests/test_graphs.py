import gc
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from oracles import are_isomorphic
from p4spec.graphs import (
    Graph,
    _attach,
    _canonical_deletion,
    _refine,
    _search,
    bits,
    complement,
    connected_components,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    is_connected,
    join,
    pair_order,
)
from p4spec.constructions import mask_to_graph, standard

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_pair_order_is_column_major():
    assert pair_order(4) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


def test_bits_lists_set_bits_ascending():
    rng = random.Random(25)
    masks = [*range(1 << 16)] + [rng.getrandbits(rng.randint(17, 64)) for _ in range(2000)]
    for mask in masks:
        got = bits(mask)
        assert type(got) is tuple
        assert got == tuple([i for i in range(mask.bit_length()) if mask >> i & 1]), mask


def test_from_edge_list_basics():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count == 3
    assert g.degree(1) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_from_edge_list_rejects_bad_edges():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(-1, 2)])


def test_duplicate_edges_collapse():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self loop
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # out of range bit
    with pytest.raises(TypeError):
        Graph(2, (0b10, 0b00), validate=False)  # no way around the checks


def test_equality_and_hash():
    g = standard("path", 4)
    h = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != standard("cycle", 4)


def test_complement_involution():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 9)
        g = mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        assert complement(complement(g)) == g


def test_complement_of_complete_is_empty():
    assert complement(standard("complete", 5)) == standard("empty", 5)


def test_disjoint_union_shifts_labels():
    g = disjoint_union(standard("complete", 2), standard("complete", 2))
    assert sorted(g.edges()) == [(0, 1), (2, 3)]
    assert len(connected_components(g)) == 2


def test_join_adds_all_cross_edges():
    g = join(standard("empty", 2), standard("empty", 2))
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert is_connected(g)


def _random_graph(rng, n):
    return mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))


def test_join_is_complement_of_union_of_complements():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_graph(rng, rng.randint(0, 6))
        b = _random_graph(rng, rng.randint(0, 5))
        lhs = join(a, b)
        rhs = complement(disjoint_union(complement(a), complement(b)))
        assert lhs == rhs


def _attached_edge_by_edge(g, mask, h):
    edges = list(g.edges()) + [(g.n + u, g.n + v) for u, v in h.edges()]
    edges += [(u, g.n + v) for u in range(g.n) if mask >> u & 1 for v in range(h.n)]
    return from_edge_list(g.n + h.n, edges)


def test_attach_matches_edge_by_edge_build():
    # h's vertex v becomes g.n + v and is joined to exactly the vertices of
    # g in the mask; union and join are the masks 0 and g.full_mask
    rng = random.Random(21)
    none = Graph(0, [])
    for _ in range(300):
        g = _random_graph(rng, rng.randint(0, 6))
        for h in (_random_graph(rng, rng.randint(1, 5)), none):
            for mask in (0, g.full_mask, rng.getrandbits(g.n), rng.getrandbits(g.n)):
                want = _attached_edge_by_edge(g, mask, h)
                assert _attach(g, mask, h) == want, (g.adj, mask, h.adj)
            assert disjoint_union(g, h) == _attached_edge_by_edge(g, 0, h)
            assert join(g, h) == _attached_edge_by_edge(g, g.full_mask, h)
        assert _attach(g, g.full_mask, none) == disjoint_union(none, g) == join(none, g) == g


def test_induced_subgraph_relabels():
    g = standard("cycle", 5)
    h = induced_subgraph(g, [1, 2, 3])
    assert h.n == 3
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    assert induced_subgraph(g, 0b01110) == h


def test_connected_components_ordering():
    g = from_edge_list(6, [(1, 4), (2, 3)])
    comps = connected_components(g)
    assert comps == [0b000001, 0b010010, 0b001100, 0b100000]
    assert not is_connected(g)
    assert is_connected(standard("path", 6))
    assert is_connected(standard("empty", 1))
    assert not is_connected(standard("empty", 0))


def test_is_connected_against_oracle():
    rng = random.Random(17)
    graphs = [g for n in range(0, 6) for g in oracles.labeled_graphs(n)]
    for _ in range(300):
        n = rng.randint(6, 12)
        width = n * (n - 1) // 2
        # density 1/8 and 1/2, so both answers are common
        sparse = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
        graphs += [mask_to_graph(n, sparse), _random_graph(rng, n)]
    assert {0, 1} <= {g.n for g in graphs}
    for g in graphs:
        assert is_connected(g) == oracles.is_connected(g), g.adj


def test_are_isomorphic_small_cases():
    p4 = standard("path", 4)
    relabeled = from_edge_list(4, [(2, 0), (0, 3), (3, 1)])
    assert are_isomorphic(p4, relabeled)
    assert not are_isomorphic(p4, standard("cycle", 4))
    assert not are_isomorphic(p4, standard("path", 3))
    # same degree sequence, different graphs: C6 vs two triangles
    c6 = standard("cycle", 6)
    kk = disjoint_union(standard("complete", 3), standard("complete", 3))
    assert not are_isomorphic(c6, kk)


def test_isomorphism_invariant_under_random_relabeling():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert are_isomorphic(g, h)


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return _relabel(g, perm)


def _petersen():
    return from_edge_list(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _paley9():
    # GF(9) = Z3[i] / (i^2 + 1); a + b*i is vertex 3a + b, and two vertices
    # are adjacent when their difference is a nonzero square
    field = [(a, b) for a in range(3) for b in range(3)]
    squares = {((a * a - b * b) % 3, (2 * a * b) % 3) for a, b in field[1:]}
    return from_edge_list(9, [(3 * a + b, 3 * c + d) for (a, b), (c, d)
                              in itertools.combinations(field, 2)
                              if ((a - c) % 3, (b - d) % 3) in squares])


def _automorphisms(g):
    return sum(_relabel(g, perm) == g for perm in itertools.permutations(range(g.n)))


def canonical_form(g):
    """(code, aut_order): the largest leaf code of the pruned search from
    the refined unit partition, a canonical edge mask of g's class, and
    |Aut(g)|.  test_theorems.py reads it too."""
    if g.n < 2:
        return 0, 1
    code, aut, _, _ = _search(g.adj, g.n, _refine(g.adj, g.n, [g.full_mask], [g.full_mask]))
    return code, aut


def test_canonical_form_regular_graphs():
    # refinement splits nothing in a regular graph, so every vertex is a branch
    k33 = join(standard("empty", 3), standard("empty", 3))
    cases = [(standard("cycle", n), 2 * n) for n in range(3, 11)]
    cases += [(k33, 72), (_petersen(), 120), (_paley9(), 72)]
    rng = random.Random(5)
    for g, aut in cases:
        assert len({g.degree(v) for v in range(g.n)}) == 1
        code, order = canonical_form(g)
        assert order == aut
        assert are_isomorphic(mask_to_graph(g.n, code), g)
        for _ in range(3):
            h = _shuffled(rng, g)
            assert are_isomorphic(g, h)
            assert canonical_form(h) == (code, order)
    assert canonical_form(k33)[0] != canonical_form(standard("cycle", 6))[0]
    assert canonical_form(_paley9())[0] != canonical_form(standard("cycle", 9))[0]


def test_canonical_form_against_oracle():
    rng = random.Random(11)
    same = differ = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        g = mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
        code, order = canonical_form(g)
        assert canonical_form(_shuffled(rng, g)) == (code, order)
        assert are_isomorphic(mask_to_graph(n, code), g)
        # move one edge: sometimes isomorphic to g, mostly not
        edges = list(g.edges())
        gaps = [p for p in itertools.combinations(range(n), 2) if not g.has_edge(*p)]
        if edges and gaps:
            edges.remove(rng.choice(edges))
            h = _shuffled(rng, from_edge_list(n, edges + [rng.choice(gaps)]))
            iso = are_isomorphic(g, h)
            assert (canonical_form(h)[0] == code) == iso
            same += iso
            differ += not iso
    assert same > 10 and differ > 100


def test_canonical_form_aut_order_small_graphs():
    for n in range(0, 6):
        for g in oracles.labeled_graphs(n):
            assert canonical_form(g)[1] == _automorphisms(g)
    rng = random.Random(13)
    for _ in range(30):
        g = mask_to_graph(6, rng.getrandbits(15))
        assert canonical_form(g)[1] == _automorphisms(g)


def test_canonical_form_matches_full_tree_oracle():
    # the pruned search finds the largest leaf code of the whole tree and
    # |Aut| on every labeled graph with n <= 6 and on seeded larger ones
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            assert canonical_form(g) == oracles.canonical_form(g), (n, g.adj)
    rng = random.Random(29)
    for n in (7, 8, 9):
        for _ in range(60):
            g = mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
            assert canonical_form(g) == oracles.canonical_form(g), (n, g.adj)


def _clique_union(*sizes):
    g = standard("empty", 0)
    for size in sizes:
        g = disjoint_union(g, standard("complete", size))
    return g


def test_canonical_form_high_symmetry_matches_oracle():
    e3 = standard("empty", 3)
    cases = [standard(kind, n) for kind in ("empty", "complete") for n in range(2, 9)]
    cases += [_clique_union(3, 3), _clique_union(2, 2, 2, 2), _clique_union(1, 2, 2, 3),
              _clique_union(3, 3, 3), complement(_clique_union(3, 3, 3)),
              join(join(e3, e3), e3), _petersen()]
    rng = random.Random(31)
    for g in cases:
        expected = oracles.canonical_form(g)
        assert canonical_form(g) == expected
        assert canonical_form(_shuffled(rng, g)) == expected
    assert canonical_form(join(join(e3, e3), e3))[1] == 6 ** 3 * 6  # K_{3,3,3}
    assert canonical_form(_clique_union(3, 3, 3))[1] == 6 ** 3 * 6


@pytest.mark.parametrize("n", [12, 16])
def test_canonical_form_edgeless_and_complete_are_fast(n):
    # a full search would visit n! leaves: hours at n = 12
    t0 = time.perf_counter()
    assert canonical_form(standard("empty", n)) == (0, math.factorial(n))
    assert canonical_form(standard("complete", n)) == ((1 << n * (n - 1) // 2) - 1,
                                                       math.factorial(n))
    assert time.perf_counter() - t0 < 5.0


def test_canonical_form_against_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    rng = random.Random(37)
    same = differ = 0
    for n in (10, 11, 12):
        for i in range(30):
            # every third graph sparse, where a moved edge is often isomorphic
            pairs = n * (n - 1) // 2
            mask = rng.getrandbits(pairs)
            if i % 3 == 0:
                mask &= rng.getrandbits(pairs) & rng.getrandbits(pairs)
            g = mask_to_graph(n, mask)
            code = canonical_form(g)[0]
            relabeled = _shuffled(rng, g)
            assert nx.is_isomorphic(to_nx(g), to_nx(relabeled))
            assert canonical_form(relabeled)[0] == code
            # move one edge: isomorphic to g only now and then
            edges = list(g.edges())
            gaps = [p for p in itertools.combinations(range(n), 2) if not g.has_edge(*p)]
            edges.remove(rng.choice(edges))
            h = _shuffled(rng, from_edge_list(n, edges + [rng.choice(gaps)]))
            iso = nx.is_isomorphic(to_nx(g), to_nx(h))
            assert (canonical_form(h)[0] == code) == iso
            same += iso
            differ += not iso
    assert same > 5 and differ > 50


def test_canonical_deletion_keeps_a_new_vertex_in_the_orbit_of_the_last():
    # a candidate that class generation tries at n = 8: its new vertex 7 is
    # not the vertex the best leaf places last, 6, but an automorphism maps
    # one onto the other, so vertex 7 is a canonical deletion.  No candidate
    # tried on 7 or fewer vertices is like this, so the class lists there do
    # not test the orbit
    g = Graph(8, (32, 132, 2, 192, 192, 65, 56, 26))
    full = g.full_mask
    code, aut, gens, order = _search(g.adj, 8, _refine(g.adj, 8, [full], [full]))
    assert order[-1] == 6
    assert any(perm[6] == 7 for perm, _ in gens)
    searched, kept = _canonical_deletion(g)
    assert searched and kept[:2] == (code, aut) == canonical_form(g)


def test_canonical_searches_leave_no_reference_cycles():
    # a cycle per search would hold its frames, generators and leaf orders
    # until the cyclic collector runs
    rng = random.Random(17)
    graphs = [mask_to_graph(5, m) for m in range(1 << 10)]
    graphs += [mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
               for n in (6, 7, 8) for _ in range(50)]
    graphs += [standard("empty", 8), standard("complete", 8)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            canonical_form(g)
            _canonical_deletion(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


BLOCKS_SCRIPT = r"""
import random
import sys

from p4spec.constructions import mask_to_graph, thin_spider
from p4spec.graphs import complement
from p4spec.p4 import recognize_spider
from p4spec.spectral import char_poly, laplacian

rng = random.Random(16)
graphs = [mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))
          for n in range(1, 13) for _ in range(5)]
spiders = [thin_spider(k) for k in range(2, 7)]
for build, items in ((laplacian, graphs), (complement, graphs),
                     (recognize_spider, spiders),
                     (char_poly, [laplacian(g) for g in graphs])):
    for g in items:
        build(g)
    before = sys.getallocatedblocks()
    for _ in range(50):
        for g in items:
            build(g)
    print(build.__name__, sys.getallocatedblocks() - before)
"""


def test_per_graph_constructors_keep_allocated_blocks_flat():
    # tuple() of a generator allocates room for 10 items and shrinks; the
    # shrunk tuple goes to a free list that a later generator never draws
    # from, so each call leaves a block behind until the free lists fill
    # (about 1 MB of peak RSS per 20,000 classify calls).  Functions that run
    # once per graph must make their tuples from lists.  Seen on CPython
    # 3.10-3.13.  The count runs in a fresh interpreter, whose free lists
    # no earlier test has filled.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", BLOCKS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown = dict(line.split() for line in proc.stdout.splitlines())
    assert sorted(grown) == ["char_poly", "complement", "laplacian", "recognize_spider"]
    for name, blocks in grown.items():
        assert int(blocks) < 100, (name, blocks)
