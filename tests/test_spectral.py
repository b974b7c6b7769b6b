import itertools
import math
import os
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import oracles
from p4spec import spectral
from p4spec.constructions import mask_to_graph, standard, thin_spider
from p4spec.graphs import Graph, bits, complement, disjoint_union, join
from p4spec.spectral import (
    ExactSpectrum,
    IntMatrix,
    IntPolynomial,
    SurdEigenvalue,
    char_poly,
    check_union_relation,
    exact_spectrum,
    extract_integer_roots,
    is_l_integral,
    laplacian,
    numeric_spectrum,
    quotient_matrix,
    thin_spider_closed_form,
)
from test_theorems import _class_lists, _every_class

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _random_graph(rng, n):
    return mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))


def _product(spec):
    # the residual times (x - r)^m for every integer root r of multiplicity m
    p = spec.residual
    for root, mult in spec.integer_roots:
        p = p * IntPolynomial([-root, 1]) ** mult
    return p


# ---------------------------------------------------------------- polynomials

def test_polynomial_normalization():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    z = IntPolynomial([0, 0])
    assert z.coeffs == (0,)
    assert z.degree == 0


def test_polynomial_arithmetic():
    p = IntPolynomial([1, 1])       # 1 + x
    q = IntPolynomial([-1, 1])      # -1 + x
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p ** 3).coeffs == (1, 3, 3, 1)
    assert p(3) == 4
    assert (p * q)(5) == 24


def test_deflate():
    p = IntPolynomial([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    q, rem = p.deflate(2)
    assert rem == 0
    assert q(1) == 0 and q(3) == 0 and q.degree == 2
    _, rem4 = p.deflate(4)
    assert rem4 == p(4) != 0


def test_polynomial_str():
    assert str(IntPolynomial([2, -4, 1])) == "x^2 - 4*x + 2"
    assert str(IntPolynomial([0])) == "0"
    assert str(IntPolynomial([0, 1])) == "x"
    assert str(IntPolynomial([-1, 0, -1])) == "-x^2 - 1"


# ------------------------------------------------------- exact char poly path

def test_laplacian_p3_golden():
    p = char_poly(laplacian(standard("path", 3)))
    assert p.coeffs == (0, 3, -4, 1)


def test_laplacian_row_sums_vanish():
    rng = random.Random(1)
    for _ in range(20):
        g = _random_graph(rng, rng.randint(1, 8))
        assert all(sum(row) == 0 for row in laplacian(g).rows)


def test_char_poly_matches_interpolation_oracle():
    rng = random.Random(2)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(0, 9))
        fast = char_poly(laplacian(g))
        slow = oracles.char_poly_coeffs(oracles.laplacian_rows(g))
        assert list(fast.coeffs) == slow


def test_char_poly_raises_on_an_inexact_trace_division():
    # a bound that understates K4's row sums packs 2-bit fields, too narrow
    # for its entries, so a trace that k does not divide is read back; the
    # remainder raises rather than being dropped
    m = laplacian(standard("complete", 4))._replace(bound=0)
    try:
        char_poly(m)
    except ArithmeticError as exc:
        assert "trace division" in str(exc)
    else:
        raise AssertionError("an inexact trace division was dropped")


def test_char_poly_empty_graph():
    assert char_poly(laplacian(standard("empty", 0))).coeffs == (1,)
    # K1's one row sums to zero, but at n = 1 c_0 is the initial coefficient
    # -tr M, not a step that a zero row sum lets char_poly skip: x, not x^2
    assert char_poly(laplacian(standard("empty", 1))).coeffs == (0, 1)
    assert char_poly(laplacian(standard("empty", 3))).coeffs == (0, 0, 0, 1)


def test_char_poly_c0_when_the_rows_do_not_all_sum_to_zero():
    # a Laplacian with one diagonal entry raised by 1 has one row that does
    # not sum to zero, so step n runs.  c_0 = (-1)^n det M, and det M is the
    # number of spanning trees on a connected graph (matrix-tree theorem),
    # else 0
    rng = random.Random(34)
    nonzero = 0
    for _ in range(80):
        n = rng.randint(2, 8)
        lap = laplacian(_random_graph(rng, n))
        i = rng.randrange(n)
        m = lap._replace(diag=lap.diag[:i] + (lap.diag[i] + 1,) + lap.diag[i + 1:],
                         bound=lap.bound + 1)
        rows = [list(row) for row in m.rows]
        det = oracles.bareiss_det(rows)
        assert char_poly(m).coeffs[0] == (-1) ** n * det, rows
        assert list(char_poly(m).coeffs) == oracles.char_poly_coeffs(rows), rows
        nonzero += det != 0
    assert nonzero > 40
    # rows that sum to zero in total but not one by one: det = -1
    m = IntMatrix((2, 0), ((1,), (0,)), 3)
    assert m.rows == ((2, -1), (-1, 0))
    assert char_poly(m) == IntPolynomial([-1, -2, 1])


def test_exact_spectrum_goldens():
    c6 = exact_spectrum(standard("cycle", 6))
    assert c6.integer_roots == ((4, 1), (3, 2), (1, 2), (0, 1))
    assert c6.residual.degree == 0
    assert c6.is_integral

    k4 = exact_spectrum(standard("complete", 4))
    assert k4.integer_roots == ((4, 3), (0, 1))
    assert k4.is_integral

    p4 = exact_spectrum(standard("path", 4))
    assert not p4.is_integral
    assert p4.residual.coeffs == (2, -4, 1)
    assert p4.integer_roots == ((2, 1), (0, 1))


def test_exact_spectrum_reconstructs_char_poly():
    rng = random.Random(3)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(0, 8))
        spec = exact_spectrum(g)
        assert _product(spec) == char_poly(laplacian(g))
        assert sum(m for _, m in spec.integer_roots) + spec.residual.degree == g.n


def test_zero_multiplicity_counts_components():
    from p4spec.graphs import connected_components
    rng = random.Random(4)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 8))
        spec = exact_spectrum(g)
        zero_mult = dict(spec.integer_roots).get(0, 0)
        assert zero_mult == len(connected_components(g))


def test_extract_integer_roots_range():
    p = IntPolynomial([-6, 11, -6, 1])  # roots 1, 2, 3
    spec = extract_integer_roots(p, 2)
    assert spec.integer_roots == ((2, 1), (1, 1))
    assert spec.residual.coeffs == (-3, 1)


def test_is_l_integral_examples():
    assert is_l_integral(standard("cycle", 6))
    assert is_l_integral(standard("complete", 7))
    assert not is_l_integral(standard("path", 4))
    assert not is_l_integral(standard("cycle", 5))


# ------------------------- L-integrality by the minimal-polynomial certificate

@lru_cache(maxsize=None)
def _classes_and_complements(n_max):
    """A graph of every isomorphism class with 1..n_max vertices, and its
    complement."""
    out = []
    for n, classes in _class_lists(n_max).items():
        for code, _, _ in _every_class(n, classes):
            g = mask_to_graph(n, code)
            out += [g, complement(g)]
    return tuple(out)


@lru_cache(maxsize=None)
def _cographs(n_max):
    """Cographs with 1..n_max vertices: K1, then every disjoint union and
    join of two smaller ones, so every cograph up to relabeling, some more
    than once."""
    by_n = {1: [standard("complete", 1)]}
    for n in range(2, n_max + 1):
        by_n[n] = [op(g, h) for i in range(1, n // 2 + 1)
                   for g in by_n[i] for h in by_n[n - i] for op in (disjoint_union, join)]
    return tuple(g for graphs in by_n.values() for g in graphs)


def _disagreements(graphs):
    return [g for g in graphs if is_l_integral(g) != exact_spectrum(g).is_integral]


def test_is_l_integral_agrees_with_exact_spectrum_to_n7():
    graphs = _classes_and_complements(7)
    assert len(graphs) == 2 * (1 + 2 + 4 + 11 + 34 + 156 + 1044)
    assert not _disagreements(graphs)


def test_is_l_integral_accepts_every_cograph_to_n8():
    # every cograph is L-integral (Merris 1998)
    graphs = _cographs(8)
    assert {g.n for g in graphs} == set(range(1, 9))
    assert not _disagreements(graphs)
    assert all(map(is_l_integral, graphs))


def test_prefix_closed_forms_match_faddeev_leverrier():
    graphs = [g for n in range(6) for g in oracles.labeled_graphs(n)]
    graphs += _classes_and_complements(7)
    rng = random.Random(28)
    for n in range(8, 13):
        for _ in range(100):
            a, b = rng.getrandbits(n * (n - 1) // 2), rng.getrandbits(n * (n - 1) // 2)
            # densities 1/4, 1/2 and 3/4, so from few triangles to many
            graphs += [mask_to_graph(n, mask) for mask in (a & b, a, a | b)]
    assert [spectral._prefix(g) for g in graphs] == [oracles.fl_prefix(g) for g in graphs]


def test_integral_table_holds_every_root_multiset():
    # rebuilt from each spectrum's polynomial x * prod (x - r): every multiset
    # R of n - 1 integers in [0, n] has its prefix in the table, its mask
    # holds 0 and every root of every R with that prefix, and nothing else
    for n in range(1, 9):
        want = {}
        for roots in itertools.combinations_with_replacement(range(n + 1), n - 1):
            p = IntPolynomial([0, 1])
            for r in roots:
                p = p * IntPolynomial([-r, 1])
            c = [*reversed(p.coeffs), 0, 0, 0]
            prefix = (-c[1], c[2], -c[3])
            want[prefix] = want.get(prefix, 1) | sum(1 << r for r in set(roots))
        table = spectral._integral_prefixes(n)
        assert table == want
    assert len(table) == 6026  # prefixes at n = 8


def _dense_root_product(g, roots):
    lap = oracles.laplacian_rows(g)
    n = g.n
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for s in roots:
        p = [[sum((lap[i][l] - s * (i == l)) * p[l][j] for l in range(n)) for j in range(n)]
             for i in range(n)]
    return p


def _unpack(packed, w, n):
    # signed w-bit fields, lowest first; the row must hold nothing past n
    half = 1 << w - 1
    row = []
    for _ in range(n):
        x = (packed + half & (1 << w) - 1) - half
        row.append(x)
        packed = packed - x >> w
    assert packed == 0
    return row


def test_root_product_matches_dense_product():
    # every root set of up to n + 1 roots, the full [0, n] included, whose
    # product has the largest entries
    rng = random.Random(9)
    for n in range(1, spectral.MAX_N + 1):
        for _ in range(30):
            g = _random_graph(rng, n)
            for roots in (tuple(range(n + 1)),
                          tuple(sorted(rng.sample(range(n + 1), rng.randint(0, n + 1))))):
                # the width _root_product proves: r^k < 2^(w - 1) for k roots
                w = (max(n, 2 * max(map(int.bit_count, g.adj))) ** len(roots)).bit_length() + 1
                rows = spectral._root_product(laplacian(g), roots)
                assert [_unpack(x, w, n) for x in rows] == _dense_root_product(g, roots)


def test_certificate_values_are_ints():
    # no float in any decision: a float equal to an int compares and hashes
    # equal to it, so a float prefix would hit the table and no agreement
    # test could see it; only the types show it
    for g in _classes_and_complements(7):
        m = laplacian(g)
        prefix = spectral._prefix(g)
        spec = exact_spectrum(g)
        mask = spectral._integral_prefixes(g.n).get(prefix)
        rows = spectral._root_product(m, bits(mask)) if mask else []
        values = (*prefix, *char_poly(m).coeffs, *itertools.chain(*spec.integer_roots),
                  *spec.residual.coeffs, *rows)
        assert all(type(x) is int for x in values), g
        assert type(is_l_integral(g)) is bool


def test_is_l_integral_up_to_max_n_runs_no_faddeev_leverrier(monkeypatch):
    rng = random.Random(8)
    graphs = _classes_and_complements(6) + tuple(
        _random_graph(rng, n) for n in (7, spectral.MAX_N) for _ in range(100))
    graphs += (standard("complete", spectral.MAX_N), standard("path", spectral.MAX_N))
    want = [exact_spectrum(g).is_integral for g in graphs]
    assert True in want and False in want

    def no_fl(m):
        raise AssertionError(f"Faddeev-LeVerrier run at n = {m.n}")

    monkeypatch.setattr(spectral, "char_poly", no_fl)
    assert [is_l_integral(g) for g in graphs] == want


def test_is_l_integral_above_max_n_takes_the_exact_path(monkeypatch):
    def no_certificate(x):
        raise AssertionError(f"certificate used for {x}")

    monkeypatch.setattr(spectral, "_integral_prefixes", no_certificate)
    monkeypatch.setattr(spectral, "_prefix", no_certificate)
    n = spectral.MAX_N + 1
    assert is_l_integral(standard("complete", n))
    assert not is_l_integral(standard("path", n))
    assert is_l_integral(Graph(0, []))


def test_no_integral_table_is_built_at_import():
    code = ("from p4spec import spectral, theorems, cli\n"
            "print(spectral._integral_prefixes.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0\n"


# ----------------------------------------------------------------- numerics

def test_jacobi_against_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 12))
        want = np.linalg.eigvalsh(np.array(laplacian(g).rows, dtype=float)).tolist()
        assert numeric_spectrum(g) == pytest.approx(want, abs=1e-8)


def test_jacobi_sweep_cap(monkeypatch):
    from p4spec import spectral
    monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ArithmeticError, match="^Jacobi sweep cap reached without convergence$"):
        numeric_spectrum(standard("path", 4))


def test_numeric_spectrum_matches_exact_roots():
    rng = random.Random(6)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 8))
        numeric = numeric_spectrum(g)
        exact = sorted(r for r, m in exact_spectrum(g).integer_roots for _ in range(m))
        if exact_spectrum(g).is_integral:
            assert numeric == pytest.approx(exact, abs=1e-8)


# -------------------------------------------------------------- closed forms

def test_surd_eigenvalue():
    s = SurdEigenvalue(5, 29, 1)
    assert s.value() == pytest.approx((7 + math.sqrt(29)) / 2)
    assert str(s) == "(7+sqrt(29))/2"
    t = SurdEigenvalue(s.p, s.q, -s.sign)
    assert t.sign == -1
    assert str(t) == "(7-sqrt(29))/2"
    quad = s.pair_quadratic()
    assert quad(s.value()) == pytest.approx(0.0, abs=1e-9)
    assert quad(t.value()) == pytest.approx(0.0, abs=1e-9)


def test_surd_validation():
    with pytest.raises(ValueError):
        SurdEigenvalue(3, 4, 1)  # perfect square
    with pytest.raises(ValueError):
        SurdEigenvalue(3, 0, 1)
    with pytest.raises(ValueError):
        SurdEigenvalue(3, 5, 2)
    with pytest.raises(ValueError):
        SurdEigenvalue(1, 2, 1)  # (1 + 2)^2 - 2 = 7 is not divisible by 4


def test_closed_form_matches_exact_char_poly():
    for k in range(2, 5):
        for j in range(0, 4):
            head = standard("empty", j) if j else None
            g = thin_spider(k, head)
            cf = thin_spider_closed_form(k, j)
            assert sum(m for _, m in cf.entries) == 2 * k + j
            assert cf.char_poly() == char_poly(laplacian(g))


def test_closed_form_matches_numeric_spectrum():
    for k in range(2, 6):
        for j in range(0, 4):
            head = standard("empty", j) if j else None
            numeric = numeric_spectrum(thin_spider(k, head))
            want = sorted(cf_val for cf_val in
                          thin_spider_closed_form(k, j).values())
            assert numeric == pytest.approx(want, abs=1e-8)


def test_closed_form_headless_shape():
    cf = thin_spider_closed_form(3, 0)
    by_str = {str(v): m for v, m in cf.entries}
    assert by_str == {"(5+sqrt(13))/2": 2, "(5-sqrt(13))/2": 2, "2": 1, "0": 1}


def test_closed_form_rejects_bad_args():
    with pytest.raises(ValueError):
        thin_spider_closed_form(1, 2)
    with pytest.raises(ValueError):
        thin_spider_closed_form(2, -1)


def test_quotient_matrix_divides_spider_char_poly():
    for k in range(2, 5):
        for j in range(1, 4):
            q = quotient_matrix(k, j)
            assert q.rows == ((j + 1, -1, -j), (-1, 1, 0), (-k, 0, k))
            assert q.bound == max(sum(map(abs, row)) for row in q.rows)
            full = char_poly(laplacian(thin_spider(k, standard("empty", j))))
            assert not any(oracles.poly_remainder(full.coeffs, char_poly(q).coeffs))


def test_quotient_matrix_requires_head():
    with pytest.raises(ValueError):
        quotient_matrix(2, 0)
    with pytest.raises(ValueError):
        quotient_matrix(1, 1)


def test_quotient_matrix_is_held_to_the_vertex_cap(monkeypatch):
    # its minus rows hold k + j + 2 columns, so the spider's 2k + j vertices
    # obey the default cap of 64, as thin_spider's do
    monkeypatch.delenv("P4SPEC_MAX_N", raising=False)
    with pytest.raises(ValueError):
        quotient_matrix(32, 1)
    assert quotient_matrix(31, 2).n == 3


# ------------------------------------------------- complement/union relations

def test_complement_relation_random():
    rng = random.Random(8)
    for _ in range(60):
        g = _random_graph(rng, rng.randint(1, 9))
        assert oracles.complement_relation_holds(g)


def test_union_relation_random():
    rng = random.Random(9)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(0, 7))
        h = _random_graph(rng, rng.randint(0, 7))
        assert check_union_relation(g, h)


def test_union_relation_is_exact_product():
    g = standard("path", 3)
    h = standard("complete", 4)
    u = disjoint_union(g, h)
    assert char_poly(laplacian(u)) == char_poly(laplacian(g)) * char_poly(laplacian(h))


def test_small_poly_tables_hold_every_labeled_graph_on_at_most_4_vertices():
    for n in range(5):
        table = spectral._small_polys(n)
        assert len(table) == 2 ** math.comb(n, 2)
        assert set(table) == {g.adj for g in oracles.labeled_graphs(n)}
        for adj, p in table.items():
            rows = oracles.laplacian_rows(Graph(n, adj))
            assert list(p.coeffs) == oracles.char_poly_coeffs(rows), adj


# ------------------------------------------------ packed-row char_poly kernel

def _z_matrix(rows):
    # the IntMatrix of square dense rows with no positive entry off the
    # diagonal: an entry -a at column l puts l into minus a times
    n = len(rows)
    assert all(len(row) == n for row in rows), rows
    assert all(row[l] <= 0 for i, row in enumerate(rows) for l in range(n) if l != i), rows
    return IntMatrix(tuple([row[i] for i, row in enumerate(rows)]),
                     tuple([tuple([l for l in range(n) if l != i for _ in range(-row[l])])
                            for i, row in enumerate(rows)]),
                     max([sum(map(abs, row)) for row in rows], default=0))


def _random_z_matrix(rng, n, bound):
    # non-symmetric, a mixed-sign diagonal, off-diagonal weights 0..-9, about
    # a third of the entries zero
    return [[(rng.randint(-bound, bound) if i == j else rng.randint(-9, -1))
             if rng.random() < 0.7 else 0 for j in range(n)] for i in range(n)]


def _assert_dense_round_trip(rows):
    # the diagonal and the minus columns give back every entry
    assert _z_matrix(rows).rows == tuple(map(tuple, rows)), rows


def test_int_matrix_rows_round_trip():
    for rows in ([], [[0]], [[-1]], [[2, -1, 0], [0, 0, 0], [-3, 0, 3]],
                 [[0, 0], [-1, 5]], [[-4, -9, -2], [0, 7, -1], [-2, -2, 0]]):
        _assert_dense_round_trip(rows)
    # a column repeated in minus is one entry of that many units
    m = IntMatrix((3, 1, 3), ((1, 2, 2), (0,), (0, 0, 0)), 6)
    assert m.n == 3 and m.rows == ((3, -1, -2), (-1, 1, 0), (-3, 0, 3))


def test_char_poly_identity_matrices():
    # r = 1 packs the narrowest fields of all, yet the entries of B_k reach
    # C(n - 1, k - 1)
    for n in range(1, 11):
        m = IntMatrix((1,) * n, ((),) * n, 1)
        assert char_poly(m) == IntPolynomial([-1, 1]) ** n, n


def test_char_poly_random_integer_matrices_match_oracle():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(1, 10)
        bound = (1, 9, 1000, 10 ** 6)[trial % 4]
        rows = _random_z_matrix(rng, n, bound)
        _assert_dense_round_trip(rows)
        assert list(char_poly(_z_matrix(rows)).coeffs) == oracles.char_poly_coeffs(rows), rows


def test_char_poly_extreme_entries_match_oracle():
    # every diagonal entry at +-10^6 and every other one at -9 makes the
    # packed fields as wide as they get
    rng = random.Random(12)
    for n in range(1, 11):
        rows = [[rng.choice((-10 ** 6, 10 ** 6)) if i == j else -9 for j in range(n)]
                for i in range(n)]
        _assert_dense_round_trip(rows)
        assert list(char_poly(_z_matrix(rows)).coeffs) == oracles.char_poly_coeffs(rows)


def test_char_poly_complete_graph_laplacians():
    # K_n has the largest Laplacian entries for its order: x (x - n)^(n - 1)
    for n in range(1, 17):
        lap = laplacian(standard("complete", n))
        expected = IntPolynomial([0, 1]) * IntPolynomial([-n, 1]) ** (n - 1)
        assert char_poly(lap) == expected
        assert list(char_poly(lap).coeffs) == oracles.char_poly_coeffs(list(lap.rows))


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(13)
    matrices = [_random_z_matrix(rng, rng.randint(1, 8), rng.choice((3, 10 ** 6)))
                for _ in range(25)]
    matrices += [list(laplacian(standard("complete", n)).rows) for n in (8, 12, 16)]
    for rows in matrices:
        ref = sympy.Matrix(rows).charpoly(x).all_coeffs()
        assert list(char_poly(_z_matrix(rows)).coeffs) == [int(c) for c in reversed(ref)]


# ---------------------------------------- Laplacians and off-diagonal 0 or -1

def test_char_poly_every_small_laplacian_matches_oracle():
    # the Laplacian step (off-diagonal entries 0 or -1 only) on every graph
    # with n <= 6; laplacian(g), built from the bitsets, is the very
    # IntMatrix that the oracle's dense rows give.  The oracle's
    # char_poly_coeffs interpolates Bareiss determinants of xI - L at
    # x = 0..n; comparing p(x) with them at the same points pins the same
    # degree-n polynomial, without the slow Fraction interpolation.
    for n in range(0, 7):
        for g in oracles.labeled_graphs(n):
            rows = oracles.laplacian_rows(g)
            lap = laplacian(g)
            assert lap.rows == tuple(map(tuple, rows))
            assert lap.bound == max([sum(map(abs, row)) for row in rows], default=0)
            p = char_poly(lap)
            assert p.degree == n and p.coeffs[-1] == 1
            assert _z_matrix(rows) == lap
            for x in range(n + 1):
                shifted = [[(x if i == j else 0) - rows[i][j] for j in range(n)]
                           for i in range(n)]
                assert p(x) == oracles.bareiss_det(shifted), (g.adj, x)


def test_laplacian_rows_match_oracle_beyond_six_vertices():
    # rows below 2^16 are read from the byte tables, wider ones by the bit loop
    rng = random.Random(16)
    for n in range(7, 21):
        for _ in range(10):
            g = _random_graph(rng, n)
            rows = oracles.laplacian_rows(g)
            lap = laplacian(g)
            assert lap.rows == tuple(map(tuple, rows))
            assert lap.bound == max(sum(map(abs, row)) for row in rows)


def test_char_poly_unit_off_diagonal_matrices_match_oracle():
    # off-diagonal entries 0 or -1 but an arbitrary diagonal: the Laplacian
    # step on matrices whose rows do not sum to zero
    rng = random.Random(14)
    for trial in range(150):
        n = rng.randint(1, 10)
        bound = (1, 9, 1000, 10 ** 6)[trial % 4]
        rows = [[rng.randint(-bound, bound) if i == j else -(rng.random() < 0.5)
                 for j in range(n)] for i in range(n)]
        _assert_dense_round_trip(rows)
        assert list(char_poly(_z_matrix(rows)).coeffs) == oracles.char_poly_coeffs(rows), rows


# --------------------------------------------------- integer-root splitting

def _split_by_plain_deflation(p, hi):
    # the reference: try every r in [0, hi] by synthetic division
    roots = []
    for r in range(hi + 1):
        mult = 0
        while True:
            q, rem = p.deflate(r)
            if rem:
                break
            p = q
            mult += 1
        if mult:
            roots.append((r, mult))
    roots.sort(key=lambda rm: -rm[0])
    return ExactSpectrum(tuple(roots), p)


# residuals without integer roots: x^2 - 2, x^2 + 1, x^2 - 4x + 2 (P4),
# 2x + 3, x^3 - x - 1, and the constant 1
_ROOTLESS = ([-2, 0, 1], [1, 0, 1], [2, -4, 1], [3, 2], [-1, -1, 0, 1], [1])


def test_extract_integer_roots_matches_plain_deflation():
    rng = random.Random(15)
    for _ in range(400):
        p = IntPolynomial(rng.choice(_ROOTLESS))
        for _ in range(rng.randint(0, 5)):
            p = p * IntPolynomial([-rng.randint(-6, 8), 1]) ** rng.randint(1, 3)
        hi = rng.randint(0, 9)
        assert extract_integer_roots(p, hi) == _split_by_plain_deflation(p, hi), (p, hi)


def test_extract_integer_roots_cases():
    x = IntPolynomial([0, 1])
    cases = [
        (IntPolynomial([-3, 1]) ** 4 * IntPolynomial([1, 1]), 5),   # repeated root
        (IntPolynomial([-7, 1]) * IntPolynomial([-2, 1]), 5),       # 7 lies above hi
        (IntPolynomial([-2, 0, 1]) * IntPolynomial([-3, 1]), 6),    # rootless residual
        (x ** 3 * IntPolynomial([-2, 1]), 4),                       # zero c0
    ]
    for p, hi in cases:
        spec = extract_integer_roots(p, hi)
        assert spec == _split_by_plain_deflation(p, hi), (p, hi)
        assert _product(spec) == p
    assert extract_integer_roots(x ** 3 * IntPolynomial([-2, 1]), 4).integer_roots == ((2, 1), (0, 3))
