"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints `criterion N: PASS` or `criterion N: FAIL` straight to the
terminal (bypassing capture) so a full run doubles as a checklist.  The two
n = 7 exhaustive scans dominate the runtime; they share one pass where the
theorems allow it.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

import oracles
from p4spec.constructions import (
    FAMILY_IDS,
    case_iv_graph,
    case_iv_polynomials,
    family,
    head_catalog,
    mask_to_graph,
    standard,
    thick_spider,
    thin_spider,
)
from p4spec.graphs import complement
from p4spec.p4 import classify, is_p4_connected, is_p4_extendible, recognize_spider
from p4spec.spectral import (
    IntPolynomial,
    char_poly,
    check_union_relation,
    is_l_integral,
    laplacian,
    numeric_spectrum,
    quotient_matrix,
    thin_spider_closed_form,
)
from p4spec.theorems import verify_theorems

# spider grid shared by criteria 2, 3 and 4
GRID = [(k, j) for k in range(2, 7) for j in range(0, 5)]

# labeled graphs on 1..7 vertices
N7_POPULATION = sum(2 ** (n * (n - 1) // 2) for n in range(1, 8))


@contextmanager
def _verdict(capsys, num):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {num}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\ncriterion {num}: PASS", flush=True)


def _random_graph(rng, n):
    return mask_to_graph(n, rng.getrandbits(n * (n - 1) // 2))


def _edgeless_head(j):
    return standard("empty", j) if j else None


@pytest.fixture(scope="module")
def scan_abf():
    results = verify_theorems(7, "abf")
    return {r.theorem: r for r in results}


def test_criterion_01_c6_golden_spectrum(capsys):
    with _verdict(capsys, 1):
        g = standard("cycle", 6)
        best = math.inf
        for _ in range(50):
            t0 = time.perf_counter()
            report = classify(g)
            best = min(best, time.perf_counter() - t0)
        assert report.spectrum.integer_roots == ((4, 1), (3, 2), (1, 2), (0, 1))
        assert report.spectrum.residual.degree == 0
        assert report.l_integral
        assert best < 1e-3, f"classify took {best * 1e3:.3f} ms"


def test_criterion_02_thin_spider_closed_form(capsys):
    with _verdict(capsys, 2):
        t0 = time.perf_counter()
        for k, j in GRID:
            g = thin_spider(k, _edgeless_head(j))
            expanded = thin_spider_closed_form(k, j).char_poly()
            assert expanded == char_poly(laplacian(g)), (k, j)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_03_quotient_matrix_divides(capsys):
    with _verdict(capsys, 3):
        for k, j in GRID:
            if j == 0:
                continue
            full = char_poly(laplacian(thin_spider(k, _edgeless_head(j))))
            part = char_poly(quotient_matrix(k, j))
            assert not any(oracles.poly_remainder(full.coeffs, part.coeffs)), (k, j)


def test_criterion_04_eigenvector_residual(capsys):
    # w = [u, ((p + sqrt(q))/2) u, 0_j] with u a random unit vector
    # orthogonal to all-ones satisfies L w = ((p + 2 - sqrt(q))/2) w
    with _verdict(capsys, 4):
        rng = random.Random(11)
        for k, j in GRID:
            g = thin_spider(k, _edgeless_head(j))
            rows = laplacian(g).rows
            p = k + j
            root = math.sqrt(p * p + 4)
            lam = (p + 2 - root) / 2.0
            u = [0.0] * k
            while math.fsum(x * x for x in u) < 1e-12:
                u = [rng.gauss(0.0, 1.0) for _ in range(k)]
                mean = math.fsum(u) / k
                u = [x - mean for x in u]
            norm = math.sqrt(math.fsum(x * x for x in u))
            u = [x / norm for x in u]
            scale = (p + root) / 2.0
            w = u + [scale * x for x in u] + [0.0] * j
            residual = math.sqrt(math.fsum(
                (math.fsum(rows[i][l] * w[l] for l in range(len(w)))
                 - lam * w[i]) ** 2
                for i in range(len(w))))
            assert residual <= 1e-9, (k, j, residual)


def test_criterion_05_sparse_integral_iff_cograph_n7(capsys, scan_abf):
    with _verdict(capsys, 5):
        for tid in "ab":
            r = scan_abf[tid]
            assert r.checked == N7_POPULATION
            assert r.violations == 0, r
        # sharding partitions the same population
        base = {r.theorem: (r.checked, r.violations)
                for r in verify_theorems(6, "ab")}
        merged = {}
        for sid in range(3):
            for r in verify_theorems(6, "ab", shards=3, shard_id=sid):
                c, v = merged.get(r.theorem, (0, 0))
                merged[r.theorem] = (c + r.checked, v + r.violations)
        assert merged == base


def test_criterion_06_extendible_integral_iff_cograph(capsys):
    with _verdict(capsys, 6):
        r = verify_theorems(7, "c")[0]
        assert r.checked == N7_POPULATION
        assert "n=7 exhaustive (2097152)" in r.population
        assert r.violations == 0, r


def test_criterion_07_q7_t3_headless_spiders_n7(capsys, scan_abf):
    with _verdict(capsys, 7):
        r = scan_abf["f"]
        assert r.checked == N7_POPULATION
        assert r.violations == 0, r


def test_criterion_08_spiders_never_integral(capsys):
    with _verdict(capsys, 8):
        heads = [None] + list(head_catalog().values())
        assert len(heads) == 9
        for k in range(2, 6):
            for head in heads:
                for builder in (thin_spider, thick_spider):
                    assert not is_l_integral(builder(k, head)), (builder, k)


def test_criterion_09_head_growth_polynomials(capsys):
    with _verdict(capsys, 9):
        for j in range(1, 11):
            quintic, quartic = case_iv_polynomials(j)
            assert IntPolynomial([-1, 1]) * quartic == quintic
            assert quartic(0) == -2
            assert quartic(1) == j * j + 7 * j + 10
            assert quartic(0) < 0 < quartic(1)
            # the quartic's root in (0, 1) is 1 - mu for exactly one
            # Laplacian eigenvalue mu of the F3 midpoint extension
            spectrum = numeric_spectrum(
                case_iv_graph("F3", standard("empty", j)))
            roots = [mu for mu in spectrum
                     if 0.0 < 1.0 - mu < 1.0 and abs(quartic(1.0 - mu)) < 1e-10]
            assert len(roots) == 1, (j, spectrum)


def test_criterion_10_family_structure(capsys):
    with _verdict(capsys, 10):
        partner = {"P4": "P4", "F0": "F0", "F1": "F2", "F2": "F1",
                   "F3": "F6", "F6": "F3", "F4": "F5", "F5": "F4"}
        for fid in FAMILY_IDS:
            g = family(fid)
            assert is_p4_extendible(g), fid
            assert not is_l_integral(g), fid
            assert oracles.are_isomorphic(complement(g), family(partner[fid])), fid


def test_criterion_11_complement_and_union_relations(capsys):
    with _verdict(capsys, 11):
        rng = random.Random(23)
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(1, 10))
            h = _random_graph(rng, rng.randint(0, 10))
            assert oracles.complement_relation_holds(g)
            assert check_union_relation(g, h)


def test_criterion_12_oracle_equivalence(capsys):
    with _verdict(capsys, 12):
        rng = random.Random(31)
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(1, 12))
            fast = char_poly(laplacian(g)).coeffs
            slow = tuple(oracles.char_poly_coeffs(oracles.laplacian_rows(g)))
            assert fast == slow
        for n in range(0, 7):
            for g in oracles.labeled_graphs(n):
                assert is_p4_connected(g) == oracles.is_p4_connected(g)
                spec = recognize_spider(g)
                kinds = oracles.spider_kinds(g)
                if spec is None:
                    assert not kinds
                else:
                    assert spec.kind in kinds
