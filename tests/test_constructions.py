import itertools
import random

import pytest

from oracles import are_isomorphic, p4_paths, poly_remainder
from p4spec.constructions import (
    CASE_IV_KINDS,
    FAMILY_IDS,
    case_iv_graph,
    case_iv_polynomials,
    family,
    graph_to_mask,
    head_catalog,
    mask_to_graph,
    standard,
    thick_spider,
    thin_spider,
)
from p4spec.graphs import Graph, complement, disjoint_union, from_edge_list, join, pair_order
from p4spec.p4 import enumerate_p4, is_cograph, recognize_spider
from p4spec.spectral import IntPolynomial, char_poly, laplacian


# ----------------------------------------------------------------- standard

def test_standard_families():
    assert list(standard("path", 4).edges()) == [(0, 1), (1, 2), (2, 3)]
    assert standard("cycle", 3) == standard("complete", 3)
    assert standard("empty", 4).edge_count == 0
    assert standard("complete", 5).edge_count == 10
    for n in range(1, 9):
        assert standard("complete", n) == from_edge_list(n, itertools.combinations(range(n), 2))


def test_standard_validation():
    with pytest.raises(ValueError):
        standard("path", 0)
    with pytest.raises(ValueError):
        standard("cycle", 2)
    with pytest.raises(ValueError):
        standard("complete", 0)
    with pytest.raises(ValueError):
        standard("wheel", 5)
    assert standard("empty", 0).n == 0


# ------------------------------------------------------------------ spiders

def test_thin_spider_structure():
    g = thin_spider(3, standard("empty", 2))
    assert g.n == 8
    # body 0..2 is a clique joined to the head, legs 3..5 pendant
    for u, v in itertools.combinations(range(3), 2):
        assert g.has_edge(u, v)
    for i in range(3):
        assert g.degree(3 + i) == 1
        assert g.has_edge(i, 3 + i)
    for r in (6, 7):
        assert set(range(3)) <= {v for v in range(8) if g.has_edge(r, v)}


def test_thick_spider_structure():
    g = thick_spider(3, None)
    assert g.n == 6
    # legs 0..2, body 3..5: leg i misses only body 3+i
    for i in range(3):
        for j in range(3):
            assert g.has_edge(i, 3 + j) == (i != j)
    # legs 0..2 independent, body 3..5 a clique, head 6..7 joined to the
    # whole body and to no leg, with its own edges kept
    g = thick_spider(3, standard("complete", 2))
    assert g.n == 8
    for u, v in itertools.combinations(range(3), 2):
        assert not g.has_edge(u, v)
    for u, v in itertools.combinations(range(3, 6), 2):
        assert g.has_edge(u, v)
    for h in (6, 7):
        assert [g.has_edge(h, v) for v in range(6)] == [False] * 3 + [True] * 3
    assert g.has_edge(6, 7)


def test_spider_head_edges_copied():
    g = thin_spider(2, standard("complete", 3))
    head = [4, 5, 6]
    for u, v in itertools.combinations(head, 2):
        assert g.has_edge(u, v)


def test_spider_validation():
    with pytest.raises(ValueError):
        thin_spider(1, None)
    with pytest.raises(ValueError):
        thick_spider(0, standard("empty", 1))


def test_head_attach_respects_vertex_cap(monkeypatch):
    # union, join, spider heads and case-iv heads all attach through one
    # routine, which checks the total vertex count
    monkeypatch.setenv("P4SPEC_MAX_N", "10")
    k3 = standard("complete", 3)
    e5, e6 = standard("empty", 5), standard("empty", 6)
    assert thin_spider(3, k3).n == thick_spider(3, k3).n == 9
    assert case_iv_graph("F3", e5).n == 10
    assert disjoint_union(e5, e5).n == join(e5, e5).n == 10
    for build in (disjoint_union, join):
        with pytest.raises(ValueError, match="exceeds the cap of 10"):
            build(e5, e6)
    with pytest.raises(ValueError, match="exceeds the cap of 10"):
        thin_spider(4, k3)
    with pytest.raises(ValueError, match="exceeds the cap of 10"):
        thick_spider(4, k3)
    with pytest.raises(ValueError, match="exceeds the cap of 10"):
        case_iv_graph("F3", e6)
    with pytest.raises(ValueError, match="exceeds the cap of 10"):
        thin_spider(6, None)


def test_headless_thin_spider_k2_is_p4():
    assert are_isomorphic(thin_spider(2, None), standard("path", 4))


def test_spider_complement_identity():
    for k in range(2, 7):
        for head in [None] + list(head_catalog().values()):
            thin = thin_spider(k, head)
            co_head = None if head is None else complement(head)
            assert complement(thin) == thick_spider(k, co_head)


def test_spider_recognition_round_trip():
    for k in (2, 3, 5):
        for head in (None, standard("empty", 2), standard("complete", 2)):
            spec = recognize_spider(thin_spider(k, head))
            assert spec is not None and spec.k == k
            spec = recognize_spider(thick_spider(k, head))
            assert spec is not None and spec.k == k


# ------------------------------------------------------------------ families

def test_family_ids_and_sizes():
    assert FAMILY_IDS == ("P4", "F0", "F1", "F2", "F3", "F4", "F5", "F6")
    assert family("P4").n == 4
    for fid in FAMILY_IDS[1:]:
        assert family(fid).n == 5
    with pytest.raises(ValueError):
        family("F7")


def test_family_shapes():
    assert are_isomorphic(family("F0"), standard("cycle", 5))
    assert are_isomorphic(family("F1"), standard("path", 5))
    assert are_isomorphic(family("F2"), complement(standard("path", 5)))
    assert sorted(family("F3").edges()) == [(0, 1), (0, 2), (0, 3), (1, 4)]
    assert sorted(family("F5").edges()) == [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3)]


def test_family_complement_pairings():
    assert are_isomorphic(complement(family("F0")), family("F0"))
    assert are_isomorphic(complement(family("F1")), family("F2"))
    assert are_isomorphic(complement(family("F3")), family("F6"))
    assert are_isomorphic(complement(family("F5")), family("F4"))
    assert are_isomorphic(complement(family("P4")), family("P4"))


# ------------------------------------------------------------------- case iv

def _midpoints(g):
    return {v for _, b, c, _ in p4_paths(g).values() for v in (b, c)}


def _endpoints(g):
    return {v for a, _, _, d in p4_paths(g).values() for v in (a, d)}


def test_case_iv_kinds():
    assert CASE_IV_KINDS == ("P4", "F3", "F4", "F5", "F6")
    with pytest.raises(ValueError):
        case_iv_graph("F0")


def test_case_iv_attaches_heads_to_midpoints():
    for kind in CASE_IV_KINDS:
        seed = family(kind)
        mids = _midpoints(seed)
        ends = _endpoints(seed)
        assert mids and mids.isdisjoint(ends)
        g = case_iv_graph(kind, standard("path", 3))
        d = seed.n
        for h in range(d, g.n):
            nbrs = {v for v in range(d) if g.has_edge(h, v)}
            assert nbrs == mids, kind


def test_case_iv_without_head_is_seed():
    for kind in CASE_IV_KINDS:
        assert case_iv_graph(kind) == family(kind)


def test_case_iv_p4_seed_is_thin_spider():
    for head in (standard("empty", 1), standard("complete", 3)):
        assert are_isomorphic(case_iv_graph("P4", head), thin_spider(2, head))


def test_case_iv_polynomial_identity():
    for j in range(1, 11):
        quintic, quartic = case_iv_polynomials(j)
        assert quintic.degree == 5 and quartic.degree == 4
        x_minus_1 = IntPolynomial([-1, 1])
        assert x_minus_1 * quartic == quintic
        assert quartic(0) == -2
        assert quartic(1) == j * j + 7 * j + 10


def test_case_iv_polynomials_divide_f3_char_poly():
    # the quintic lives in the substituted variable x = 1 - lambda, so
    # -quintic(1 - lambda) is the monic factor cut out of the char poly
    sub = IntPolynomial([1, -1])
    for j in (1, 2, 3, 5):
        quintic, _ = case_iv_polynomials(j)
        factor = [0] * 6
        for i, c in enumerate(quintic.coeffs):
            for t, b in enumerate((sub ** i).coeffs):
                factor[t] -= c * b
        assert factor[-1] == 1
        g = case_iv_graph("F3", standard("empty", j))
        assert not any(poly_remainder(char_poly(laplacian(g)).coeffs, factor))


def test_case_iv_polynomials_validation():
    with pytest.raises(ValueError):
        case_iv_polynomials(0)


# ------------------------------------------------------------------- cotrees
# A cotree nests disjoint unions and joins over single vertices.

def test_cotree_build():
    # join of a vertex with two isolated vertices: the star K_{1,2}
    k1 = standard("complete", 1)
    g = join(k1, disjoint_union(k1, k1))
    assert are_isomorphic(g, standard("path", 3))
    assert g.n == 3
    assert is_cograph(g)


def test_cotree_random_builds_are_cographs():
    rng = random.Random(42)

    def random_tree(depth):
        """A random cotree's graph and its leaf count."""
        if depth == 0 or rng.random() < 0.3:
            return standard("complete", 1), 1
        op = disjoint_union if rng.random() < 0.5 else join
        children = [random_tree(depth - 1) for _ in range(rng.randint(2, 3))]
        g, leaves = children[0]
        for h, count in children[1:]:
            g, leaves = op(g, h), leaves + count
        return g, leaves

    for _ in range(25):
        g, leaves = random_tree(3)
        assert g.n == leaves
        assert is_cograph(g)
        assert not enumerate_p4(g)


# ------------------------------------------------------------------- helpers

def test_mask_round_trip():
    for n in range(0, 6):
        for mask in range(0, 1 << (n * (n - 1) // 2), 7):
            g = mask_to_graph(n, mask)
            assert graph_to_mask(g) == mask


def _decode_by_pairs(n, mask):
    """The rows of mask_to_graph(n, mask), edge by edge through pair_order."""
    rows = [0] * n
    for i, (u, v) in enumerate(pair_order(n)):
        if mask >> i & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows


def test_mask_to_graph_matches_pair_order():
    # bit i of the mask is the edge pair_order(n)[i] in each regime of the
    # decoder: 8-bit tables up to 8 vertices, 4-bit tables from 9 to 16 and
    # edge by edge above; the rows form a valid Graph, and graph_to_mask
    # encodes them back
    rng = random.Random(31)
    for n in range(0, 19):
        width = n * (n - 1) // 2
        masks = range(1 << width) if n <= 5 else [0, (1 << width) - 1] + [
            rng.getrandbits(width) for _ in range(2000)]
        for mask in masks:
            g = mask_to_graph(n, mask)
            assert g == Graph(n, _decode_by_pairs(n, mask)), (n, mask)
            assert graph_to_mask(g) == mask, (n, mask)
    for n in (0, 1, 8, 9, 16, 17):
        for bad in (-1, 1 << n * (n - 1) // 2):
            with pytest.raises(ValueError, match="out of range"):
                mask_to_graph(n, bad)


def test_head_catalog():
    cat = head_catalog()
    assert set(cat) == {"K1", "K2", "E2", "E3", "P3", "K3", "P4", "C5"}
    assert cat["K1"].n == 1
    assert cat["P4"].n == 4
    assert cat["C5"].edge_count == 5
