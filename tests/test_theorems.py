import hashlib
import math
import random
import tracemalloc
from collections import Counter

import pytest

import oracles
from p4spec import graphs, p4, spectral, theorems
from p4spec.constructions import FAMILY_IDS, family, mask_to_graph, standard
from p4spec.formats import parse_graph6, serialize_graph6
from p4spec.graphs import Graph, complement, connected_components
from p4spec.theorems import (
    THEOREMS,
    _classes,
    _pair_population,
    verify_theorems,
)
from test_graphs import canonical_form

# isomorphism classes of graphs on n = 1..7 vertices (OEIS A000088)
CLASS_COUNTS = [1, 2, 4, 11, 34, 156, 1044]
# isomorphism classes of cographs on n = 1..7 vertices (OEIS A000084)
COGRAPH_COUNTS = [1, 2, 4, 10, 24, 66, 180]


def _class_lists(n_max):
    """{n: [(code, aut_order, gens), ...]} for n = 1..n_max, as _classes
    lists them: only the classes with 2m <= C(n,2) edges."""
    out = {}
    classes = [(0, 1, ())]
    for n in range(1, n_max + 1):
        classes, _ = _classes(n, classes)
        out[n] = classes
    return out


def _every_class(n, classes):
    """Every class on n vertices, in code order, from a _classes list: each
    class with 2m < C(n,2) edges brings its complement (code ^ full,
    aut_order, gens), under the same labels and with the same group."""
    pairs = n * (n - 1) // 2
    full = (1 << pairs) - 1
    return sorted(classes + [(code ^ full, aut, gens) for code, aut, gens in classes
                             if 2 * code.bit_count() < pairs])


def _canonical(n, classes):
    """[(code, aut_order), ...] of every class that a _classes list stands
    for, each code canonical, in code order: a complement goes through the
    search here."""
    pairs = n * (n - 1) // 2
    return sorted((canonical_form(mask_to_graph(n, code))[0] if 2 * code.bit_count() > pairs
                   else code, aut) for code, aut, _ in _every_class(n, classes))


def _by_id(results):
    return {r.theorem: r for r in results}


def test_all_theorems_hold_up_to_n5():
    results = verify_theorems(5)
    assert sorted(r.theorem for r in results) == sorted(THEOREMS)
    for r in results:
        assert r.violations == 0, r
        assert r.counterexample is None
        assert r.passed
    graph_counts = {r.theorem: r.checked for r in results if r.theorem != "h"}
    assert set(graph_counts.values()) == {1 + 2 + 8 + 64 + 1024}
    assert _by_id(results)["h"].checked == 100 * 4  # pairs for n in 2..5


def test_selected_theorems_only():
    results = verify_theorems(4, "ag")
    assert [r.theorem for r in results] == ["a", "g"]


def test_shard_counts_sum_to_unsharded():
    base = {r.theorem: (r.checked, r.violations) for r in verify_theorems(5)}
    for shards in (2, 3, 5):
        merged = {}
        for sid in range(shards):
            for r in verify_theorems(5, shards=shards, shard_id=sid):
                c, v = merged.get(r.theorem, (0, 0))
                merged[r.theorem] = (c + r.checked, v + r.violations)
        assert merged == base, shards


def test_sampling_caps_population():
    results = verify_theorems(5, "a", sample=100, seed=1)
    r = _by_id(results)["a"]
    # n = 5 space (1024) is sampled at 100, smaller spaces stay exhaustive
    assert r.checked == 1 + 2 + 8 + 64 + 100
    assert "sampled" in r.population


def test_sampling_is_seed_deterministic():
    a = verify_theorems(5, "a", sample=50, seed=7)[0]
    b = verify_theorems(5, "a", sample=50, seed=7)[0]
    assert a.checked == b.checked
    assert a.population == b.population


# sha256 of repr(list(_sample_masks(1 << 21, 40000, 1, 7))): the n = 7
# draws of scan-n7-p4 at seed 1, as they were drawn into one list
SAMPLES_7_SEED_1_SHA256 = "fd81aa7c35cc8867671d15c5dac48122c6abea606c2c0bf2d51eb02e0c65a9d3"


def test_sample_stream_is_pinned_and_striped_by_shards(monkeypatch):
    draws = list(theorems._sample_masks(1 << 21, 40000, 1, 7))
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == SAMPLES_7_SEED_1_SHA256
    # the chunks a scan checks, in order, as (n, keys)
    seen = []
    scan_chunk = theorems._scan_chunk

    def record(args):
        n, units = args[:2]
        seen.append((n, [key for key, _ in units]))
        return scan_chunk(args)

    monkeypatch.setattr(theorems, "_scan_chunk", record)
    verify_theorems(5, "a", sample=300, seed=2)
    full = seen[:]
    # one chunk of classes for each of n = 1..4, then the n = 5 draws in
    # order, cut into chunks of 64
    assert [n for n, _ in full] == [1, 2, 3, 4, 5, 5, 5, 5, 5]
    assert [len(keys) for _, keys in full[4:]] == [64, 64, 64, 64, 44]
    assert [key for n, keys in full if n == 5 for key in keys] == \
        list(theorems._sample_masks(1 << 10, 300, 2, 5))
    for shards in (2, 3, 7):
        together = []
        for sid in range(shards):
            seen.clear()
            verify_theorems(5, "a", sample=300, seed=2, shards=shards, shard_id=sid)
            # whole chunks sid, sid + shards, ... of the unsharded stream
            assert seen == full[sid::shards]
            together += seen
        assert sorted(together) == sorted(full)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_scan_memory_does_not_grow_with_the_sample(monkeypatch):
    for failing in (False, True):
        if failing:
            # about half of every population fails, so the scan keeps a
            # failure record, which must not grow with the sample either
            monkeypatch.setitem(theorems.DEFAULT_CHECKS, "d", lambda g: not g.edge_count % 2)
        verify_theorems(7, "d", sample=2000)  # fills the caches both runs share
        small = _traced_peak(lambda: verify_theorems(7, "d", sample=2000))
        large = _traced_peak(lambda: verify_theorems(7, "d", sample=20000))
        assert large - small < 64 * 1024, (failing, small, large)


def _odd_at_five(g):
    return not (g.n == 5 and g.edge_count % 2)


def test_failing_units_match_a_per_unit_reference(monkeypatch):
    # theorem a fails on the n = 5 draws with an odd edge count, which lie
    # in both chunks of the sample; theorem d runs beside it and holds
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", _odd_at_five)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    checked = 0
    failing = []
    for n in range(1, 6):
        space = 1 << n * (n - 1) // 2
        masks = range(space) if space <= 100 else theorems._sample_masks(space, 100, 3, n)
        for mask in masks:
            checked += 1
            if not _odd_at_five(mask_to_graph(n, mask)):
                failing.append((n, mask))
    assert 0 < len(failing) < 100
    for workers in (1, 2):
        a, d = verify_theorems(5, "ad", sample=100, seed=3, workers=workers)
        assert (a.checked, a.violations) == (checked, len(failing))
        assert a.counterexample == serialize_graph6(mask_to_graph(*min(failing)))
        assert (d.checked, d.violations, d.counterexample) == (checked, 0, None)
        assert a.check_s > 0 and d.check_s > 0


def test_pair_population_is_deterministic():
    full = _pair_population(5, seed=0)
    assert len(full) == 100
    assert _pair_population(5, seed=0) == full


def test_union_pairs_are_checked_once_and_counted_per_draw(monkeypatch):
    # all 100 draws at n = 2 are the pair K1, K1: one check, 100 violations
    calls = Counter()

    def failing_on_two(n1, m1, n2, m2):
        calls[n1 + n2] += 1
        return n1 + n2 != 2

    monkeypatch.setattr(theorems, "_check_pair", failing_on_two)
    r = verify_theorems(4, "h")[0]
    assert calls[2] == 1
    assert r.violations == 100
    assert r.checked == 100 * 3
    assert r.counterexample == "@|@"
    for n in (3, 4):
        assert calls[n] == len(set(_pair_population(n, 0)))
    for shards in (2, 3):
        parts = [verify_theorems(4, "h", shards=shards, shard_id=sid)[0]
                 for sid in range(shards)]
        assert sum(p.checked for p in parts) == r.checked
        assert sum(p.violations for p in parts) == r.violations
        assert r.counterexample in {p.counterexample for p in parts}


def test_failing_union_pairs_report_the_same_in_a_pool(monkeypatch):
    # the forked workers inherit the patched _check_pair; the pairs fail
    # from n = 3 on, in several chunks, so the pool must merge the failures
    # and pick the smallest pair as the serial scan does
    def failing_odd(n1, m1, n2, m2):
        return n1 + n2 < 3 or not (m1 ^ m2) & 1

    monkeypatch.setattr(theorems, "_check_pair", failing_odd)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    serial = [r.to_dict() for r in verify_theorems(6, "dh", seed=1)]
    h = serial[-1]
    assert h["theorem"] == "h" and 0 < h["violations"] < h["checked"] == 100 * 5
    assert h["counterexample"].count("|") == 1
    assert [r.to_dict() for r in verify_theorems(6, "dh", seed=1, workers=2)] == serial


def test_theorem_h_alone_sets_up_no_graph_population(monkeypatch):
    def no_samples(*args):
        raise AssertionError("theorem h drew sampled masks")

    monkeypatch.setattr(theorems, "_sample_masks", no_samples)
    lines = []
    r = verify_theorems(7, "h", sample=100, progress=lines.append)[0]
    assert (r.checked, r.violations) == (100 * 6, 0)
    assert lines == ["theorem h: 281 distinct pairs of 600 draws"]


def test_validation_errors():
    with pytest.raises(ValueError):
        verify_theorems(0)
    with pytest.raises(ValueError):
        verify_theorems(9)
    with pytest.raises(ValueError):
        verify_theorems(4, "az")
    with pytest.raises(ValueError):
        verify_theorems(2, "")
    with pytest.raises(ValueError):
        verify_theorems(4, shards=2, shard_id=2)
    with pytest.raises(ValueError):
        verify_theorems(4, shards=0)
    with pytest.raises(ValueError):
        verify_theorems(4, sample=0)
    with pytest.raises(ValueError):
        verify_theorems(4, workers=0)


def test_injected_violation_is_counted_and_witnessed(monkeypatch):
    # flag exactly the triangle on three vertices; the engine must count it
    # once and report the smallest (n, mask) witness as graph6
    def no_triangles(g):
        return not (g.n == 3 and g.edge_count == 3)

    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", no_triangles)
    results = verify_theorems(4, "a")
    r = results[0]
    assert not r.passed
    assert r.violations == 1
    assert r.counterexample == "Bw"
    assert parse_graph6(r.counterexample) == standard("complete", 3)


def test_injected_violation_counterexample_is_minimal(monkeypatch):
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "b", lambda g: False)
    r = verify_theorems(3, "b")[0]
    assert r.violations == 1 + 2 + 8
    # smallest graph is the single vertex
    assert r.counterexample == "@"
    # a sampled population reports the smallest failing mask it drew as it
    # is, not relabeled: at seed 4 the n = 4 draws start at mask 8, whose
    # orbit minimum is mask 1
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "b", lambda g: g.n < 4)
    r = verify_theorems(4, "b", sample=20, seed=4)[0]
    assert r.violations == 20
    assert r.counterexample == serialize_graph6(mask_to_graph(4, 8))


def test_multiprocess_matches_single_process():
    base = {r.theorem: (r.checked, r.violations)
            for r in verify_theorems(4, "adh", seed=3)}
    multi = {r.theorem: (r.checked, r.violations)
             for r in verify_theorems(4, "adh", seed=3, workers=2)}
    assert base == multi


def test_pool_never_outnumbers_cores_or_chunks(monkeypatch):
    import multiprocessing

    from p4spec.cli import main

    pools = []  # (processes asked for, chunks mapped)

    class Pool:
        """Records its size and the chunks it gets; maps in this process."""

        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            items = list(items)
            pools.append((self.processes, len(items)))
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: type("Context", (), {"Pool": Pool}))
    cores = 64
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: cores)
    serial = [r.to_dict() for r in verify_theorems(3, "adh", seed=3)]
    # one chunk of graphs for each of n = 1, 2, 3, and one of theorem h's
    # pairs for each of n = 2, 3
    assert [r.to_dict() for r in verify_theorems(3, "adh", seed=3, workers=50)] == serial
    assert main(["verify-theorems", "--n-max", "3", "--workers", str(10 ** 9)]) == 0
    assert pools == [(5, 5), (5, 5)]
    pools.clear()
    # n = 1..4 exhaustive, one chunk each, then 1000 samples at n = 5 in 16
    verify_theorems(5, "d", sample=1000, workers=10 ** 9)
    # shard 1 of 3: chunks 1, 4, ..., 19 of those 20
    verify_theorems(5, "d", sample=1000, shards=3, shard_id=1, workers=10 ** 9)
    cores = 8
    verify_theorems(5, "d", sample=1000, workers=10 ** 9)
    assert pools == [(20, 20), (7, 7), (8, 20)]
    # one core, or a count the platform cannot tell, scans in this process
    for cores in (1, None):
        verify_theorems(5, "d", sample=1000, workers=10 ** 9)
    assert len(pools) == 3


def test_graph_derived_values_are_cached():
    g = standard("cycle", 6)
    assert g.derived(p4.enumerate_p4) is g.derived(p4.enumerate_p4)
    assert g.derived(complement) is g.derived(complement)
    assert g.derived(complement) == complement(g)
    assert g.derived(spectral.is_l_integral)
    assert g.derived(complement).derived(spectral.is_l_integral)
    # the cached values take no part in equality or hashing
    fresh = standard("cycle", 6)
    assert g == fresh and hash(g) == hash(fresh)
    assert len({g, fresh}) == 1


def _failing_on_class_of(n, mask):
    code = canonical_form(mask_to_graph(n, mask))[0]

    def check(g):
        return not (g.n == n and canonical_form(g)[0] == code)
    return check


@pytest.mark.parametrize("mask", [50, 3, 60])  # P4, P3 plus a vertex, K_{1,3}
def test_class_scan_reports_orbit_violations(mask, monkeypatch):
    # a check failing on one class fails on every labeled graph of its orbit
    orbit = oracles.orbit(4, mask)
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", _failing_on_class_of(4, mask))
    r = verify_theorems(5, "a")[0]
    assert r.checked == 1 + 2 + 8 + 64 + 1024
    assert r.violations == len(orbit) == math.factorial(4) // canonical_form(
        mask_to_graph(4, mask))[1]
    assert r.counterexample == serialize_graph6(mask_to_graph(4, min(orbit)))
    sharded = [verify_theorems(5, "a", shards=3, shard_id=sid)[0] for sid in range(3)]
    assert sum(s.checked for s in sharded) == r.checked
    assert sum(s.violations for s in sharded) == r.violations
    # the shard holding the failing class reports the smallest witness
    assert r.counterexample in {s.counterexample for s in sharded}


def test_orbit_min_matches_brute_force():
    for n in range(6):
        for mask in range(1 << n * (n - 1) // 2):
            assert theorems._orbit_min(n, mask) == min(oracles.orbit(n, mask)), (n, mask)
    rng = random.Random(25)
    for n, count in ((6, 60), (7, 12), (8, 3)):
        pairs = n * (n - 1) // 2
        masks = [rng.getrandbits(pairs) for _ in range(count)]
        if n < 8:
            masks += [0, (1 << pairs) - 1]  # every vertex ties at every label
        for mask in masks:
            assert theorems._orbit_min(n, mask) == min(oracles.orbit(n, mask)), (n, mask)


def test_failing_scan_finds_counterexamples_without_relabeling_every_class(monkeypatch):
    # every class on 8 vertices with an odd edge count fails: 6,168 classes,
    # whose n! relabelings would be about 2.5e8 masks; the search expands
    # 92,382 nodes
    steps = 0
    branches = theorems._orbit_branches

    def counted(adj, cells):
        nonlocal steps
        steps += 1
        return branches(adj, cells)

    monkeypatch.setattr(theorems, "_orbit_branches", counted)
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "b",
                        lambda g: g.n < 8 or g.edge_count % 2 == 0)
    r = verify_theorems(8, "b")[0]
    assert r.violations == 2 ** 27
    # the one-edge graph, edge (0, 1)
    assert r.counterexample == serialize_graph6(mask_to_graph(8, 1))
    assert 0 < steps <= 120_000


def test_class_counts_match_oeis():
    lists = _class_lists(7)
    assert [len(_every_class(n, lists[n])) for n in range(1, 8)] == CLASS_COUNTS
    assert [sum(p4.is_cograph(mask_to_graph(n, code)) for code, _, _ in _every_class(n, lists[n]))
            for n in range(1, 8)] == COGRAPH_COUNTS
    for n, classes in lists.items():
        pairs = n * (n - 1) // 2
        every = _every_class(n, classes)
        assert sum(math.factorial(n) // aut for _, aut, _ in every) == 2 ** pairs
        # a complement has the automorphism group of its class
        for code, aut, _ in every:
            assert canonical_form(mask_to_graph(n, code))[1] == aut


def test_listed_classes_have_canonical_codes():
    # _classes lists each class with at most half the edges once, by its
    # canonical code; a complement is never an entry
    for n, classes in _class_lists(7).items():
        for code, aut, _ in classes:
            assert canonical_form(mask_to_graph(n, code)) == (code, aut), (n, code)
            assert 2 * code.bit_count() <= n * (n - 1) // 2


def test_class_generation_search_count(monkeypatch):
    # n = 6 has 1,088 candidates (34 classes, 32 neighbourhoods each); the
    # half-edge bound, the degree test, one neighbourhood per parent orbit
    # and the root-cell test leave 78 of them for a full search, one per
    # class with at most 7 of the 15 edges; the 78 others are their
    # complements.  At n = 7 they leave 523 for the 522 classes with at most
    # 10 of the 21 edges
    searches = []
    real_search = graphs._search

    def counted(adj, n, root):
        searches.append(n)
        return real_search(adj, n, root)

    monkeypatch.setattr(graphs, "_search", counted)
    classes = [(0, 1, ())]
    reported = []
    for n in range(1, 8):
        classes, count = _classes(n, classes)
        reported.append(count)
    assert [searches.count(n) for n in range(1, 8)] == [0, 1, 2, 7, 20, 78, 523]
    assert reported == [0, 1, 2, 7, 20, 78, 523]


def test_classes_without_generators_list_the_same_classes():
    # gens=False converts no generator: the same classes, |Aut| and
    # searches as the list built with them, and () for every class's gens
    lists = _class_lists(7)
    for n in range(1, 8):
        prev = lists[n - 1] if n > 1 else [(0, 1, ())]
        bare, searches = _classes(n, prev, gens=False)
        assert [(code, aut) for code, aut, _ in bare] == \
            [(code, aut) for code, aut, _ in lists[n]], n
        assert searches == _classes(n, prev)[1]
        assert all(gens == () for _, _, gens in bare)
        assert n < 2 or any(gens for _, _, gens in lists[n])


def test_scan_asks_for_generators_only_to_grow_another_level(monkeypatch):
    # at the largest exhaustive n no next level reads them; with a sample of
    # 100, n = 5 (1,024 labeled graphs) is sampled, so the last exhaustive
    # level is n = 4
    asked = []
    real = theorems._classes

    def recorded(n, prev, *, gens=True):
        asked.append(gens)
        return real(n, prev, gens=gens)

    monkeypatch.setattr(theorems, "_classes", recorded)
    verify_theorems(5, "a")
    assert asked == [True, True, True, True, False]
    asked.clear()
    verify_theorems(6, "a", sample=100)
    assert asked == [True, True, True, False]


# sha256 of repr(_canonical(7, classes)): the canonical (code, aut_order) of
# the 1,044 classes on 7 vertices
CLASSES_7_SHA256 = "7a0bff75da1808869b8122614be5a068acdad2f17d44061db9f81003a038bf05"


def test_class_lists_match_labeled_reference():
    # every labeled graph on n <= 6 vertices, through canonical_form alone
    lists = _class_lists(7)
    for n in range(1, 7):
        reference = sorted({canonical_form(g) for g in oracles.labeled_graphs(n)})
        assert _canonical(n, lists[n]) == reference, n
    pinned = repr(_canonical(7, lists[7]))
    assert hashlib.sha256(pinned.encode()).hexdigest() == CLASSES_7_SHA256


def test_class_generators_generate_the_automorphism_group():
    for n, classes in _class_lists(6).items():
        for code, aut, gens in classes:
            edges = set(mask_to_graph(n, code).edges())
            for perm in gens:
                assert {tuple(sorted((perm[u], perm[v]))) for u, v in edges} == edges
            # the group the generators generate, as the closure of the identity
            group = {tuple(range(n))}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for q in gens:
                    r = tuple(q[v] for v in p)
                    if r not in group:
                        group.add(r)
                        frontier.append(r)
            assert len(group) == aut, (n, code)


def _parents_with(n, code, gens):
    """The classes on n vertices with the generators of class code replaced."""
    return [(c, aut, gens if c == code else old) for c, aut, old in _class_lists(n)[n]]


def test_non_automorphism_generator_loses_a_class():
    # P3 + K1 (code 48, vertex 0 isolated, vertex 3 the centre): swapping
    # vertices 0 and 3 is no automorphism; added to the true generator, it
    # puts neighbourhoods that give different classes in one orbit, and the
    # diamond plus an isolated vertex (5 of the 10 edges, |Aut| = 4) is
    # never tried
    code, aut, gens = next(c for c in _class_lists(4)[4] if c[0] == 48)
    assert aut == 2 and gens == ((0, 2, 1, 3),)
    bad = gens + ((3, 1, 2, 0),)
    with pytest.raises(ArithmeticError, match="sum to 994, not 2"):
        _classes(5, _parents_with(4, 48, bad))


def test_missing_generators_find_a_class_twice():
    # without the automorphism swapping vertices 0 and 1 of K1 + K1 (code
    # 0), its neighbourhoods {0} and {1} both give K2 + K1 (code 4)
    with pytest.raises(ArithmeticError, match="class 4 on 3 vertices found twice"):
        _classes(3, _parents_with(2, 0, ()))


def test_classes_match_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() == 7]
    assert len(atlas) == 1044
    codes = set()
    for h in atlas:
        rows = [0] * 7
        for u, v in h.edges():
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        codes.add(canonical_form(Graph(7, rows))[0])
    assert codes == {code for code, _ in _canonical(7, _class_lists(7)[7])}


def test_class_scan_matches_labeled_scan():
    # the oracle checks all 33,867 labeled graphs on n <= 6 one by one
    classes = [r.to_dict() for r in verify_theorems(6, "abcdefg")]
    assert classes == oracles.labeled_scan(6)


def test_paired_units_hold_each_other_as_derived_complement():
    # the 34 classes on 5 vertices: 14 units with fewer than 5 of the 10
    # edges, each followed by its complement, and 6 units with 5 edges
    n, pairs = 5, 10
    classes = _class_lists(5)[5]
    units = list(theorems._class_units(n, classes))
    assert len(units) == 20
    subjects, expanded = theorems._with_complements(n, units)
    assert len(subjects) == len(expanded) == 34
    weights = {code: math.factorial(n) // aut for code, aut, _ in _every_class(n, classes)}
    assert sorted(expanded) == sorted(weights.items())
    for i, (g, (key, _)) in enumerate(zip(subjects, expanded)):
        assert g == mask_to_graph(n, key)
        h = g.derived(complement)
        assert h == complement(g)
        if 2 * key.bit_count() == pairs:
            assert not any(h is other for other in subjects)
            continue
        partner = subjects[i + 1] if 2 * key.bit_count() < pairs else subjects[i - 1]
        assert h is partner and partner.derived(complement) is g


def test_tally_merge_keeps_every_failing_class_at_the_smallest_n():
    def parts():
        # (checked, failed) of five chunks; the failures at n = 4 are split
        # over two chunks
        for checked, failed in ((10, (5, [7, 3])), (4, None), (6, (4, [9])),
                                (2, (4, [1, 8])), (3, (6, [0]))):
            tally = theorems._Tally()
            tally.checked = checked
            tally.violations = len(failed[1]) if failed else 0
            tally.failed = failed
            yield tally

    for exhaustive, keys in (({4, 5, 6}, [1, 8, 9]), ((), [1])):
        for order in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 3, 1)):
            chunks = list(parts())
            total = theorems._Tally()
            for i in order:
                total.merge(chunks[i], exhaustive)
            assert (total.checked, total.violations) == (25, 6)
            assert (total.failed[0], sorted(total.failed[1])) == (4, keys), (exhaustive, order)


def _at_most_half_the_edges_at_five(g):
    return g.n != 5 or 2 * g.edge_count <= 10


def test_failing_complements_report_the_labeled_counterexample(monkeypatch):
    # only graphs on 5 vertices with 6 or more edges fail: the complements of
    # the listed classes, never checked under their own canonical codes
    checks = {"a": _at_most_half_the_edges_at_five}
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", checks["a"])
    got = [r.to_dict() for r in verify_theorems(5, "a")]
    assert got == oracles.labeled_scan(5, checks)
    assert got[0]["violations"] == sum(math.comb(10, m) for m in range(6, 11))
    # the smallest labeled mask with 6 edges
    assert got[0]["counterexample"] == serialize_graph6(mask_to_graph(5, 0b111111))
    sharded = [verify_theorems(5, "a", shards=2, shard_id=sid)[0] for sid in range(2)]
    assert sum(s.violations for s in sharded) == got[0]["violations"]
    assert got[0]["counterexample"] in {s.counterexample for s in sharded}


def test_all_theorem_scan_is_the_same_on_workers_and_shards(monkeypatch):
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    serial = [r.to_dict() for r in verify_theorems(6)]
    assert [r.to_dict() for r in verify_theorems(6, workers=2)] == serial
    for shards in (2, 3):
        parts = [verify_theorems(6, shards=shards, shard_id=sid) for sid in range(shards)]
        for i, r in enumerate(serial):
            assert sum(p[i].checked for p in parts) == r["checked"]
            assert sum(p[i].violations for p in parts) == r["violations"] == 0


def test_sampled_populations_are_not_paired(monkeypatch):
    # each draw is one graph, checked once: no complement is added, and the
    # draws come in the pinned stream's order, 64 to a chunk; the classes
    # before them come 32 units to a chunk
    seen = []
    counted = []
    scan_chunk = theorems._scan_chunk

    def record(args):
        n, units, _, paired = args
        seen.append((n, paired, [key for key, _ in units]))
        return scan_chunk(args)

    def count(g):
        counted.append(g.n)
        return True

    monkeypatch.setattr(theorems, "_scan_chunk", record)
    monkeypatch.setitem(theorems.DEFAULT_CHECKS, "a", count)
    r = verify_theorems(6, "a", sample=1500, seed=3)[0]
    assert r.checked == 1 + 2 + 8 + 64 + 1024 + 1500
    assert counted.count(6) == 1500
    assert counted.count(5) == 34  # every class once, its complement included
    assert [(n, paired, len(keys)) for n, paired, keys in seen if n == 5] == \
        [(5, True, 20)]
    sampled = [(paired, len(keys)) for n, paired, keys in seen if n == 6]
    assert sampled == [(False, 64)] * 23 + [(False, 28)]
    assert [key for n, _, keys in seen if n == 6 for key in keys] == \
        list(theorems._sample_masks(1 << 15, 1500, 3, 6))


def test_midpoint_split_on_five_vertices_holds_exactly_for_the_seeds():
    # The P4s of a 5-vertex graph split its vertices into midpoints and ends
    # exactly when it is F3, F4, F5 or F6, so theorem e names a 5-vertex seed
    # by that split alone.
    seeds = [family(kind) for kind in ("F3", "F4", "F5", "F6")]
    split = 0
    for g in oracles.labeled_graphs(5):
        paths = oracles.p4_paths(g).values()
        mids = {v for _, b, c, _ in paths for v in (b, c)}
        ends = {v for a, _, _, d in paths for v in (a, d)}
        holds = not mids & ends and mids | ends == set(range(5))
        assert holds == any(oracles.are_isomorphic(g, s) for s in seeds), serialize_graph6(g)
        split += holds
    # 5!/|Aut| labeled copies of each seed
    assert split == sum(120 // oracles.canonical_form(s)[1] for s in seeds) == 240


def test_p4_connected_on_four_or_five_vertices_is_the_catalog():
    # theorem e's case iii: a graph on 4 or 5 vertices is p4-connected
    # exactly when it is isomorphic to P4 or one of F0..F6
    catalog = [family(fid) for fid in FAMILY_IDS]
    found = 0
    for n in (4, 5):
        for g in oracles.labeled_graphs(n):
            member = any(oracles.are_isomorphic(g, f) for f in catalog)
            assert p4.is_p4_connected(g) == member, serialize_graph6(g)
            found += member
    assert found == 384


def test_midpoint_extension_matches_seed_oracle():
    # theorem e asks only about P4-extendible graphs; on the others a
    # proper p-component is not always a P4 or a 5-set, and the predicate
    # may differ from the definition
    found = 0
    for n, classes in _class_lists(7).items():
        for code, _, _ in _every_class(n, classes):
            g = mask_to_graph(n, code)
            if not p4.is_p4_extendible(g):
                continue
            want = oracles.has_midpoint_extension(g)
            assert theorems._has_midpoint_extension(g) == want, serialize_graph6(g)
            found += want
    assert found == 19


def test_check_e_matches_definition_oracle():
    # every class on n <= 7 vertices, once; a P4-extendible graph on 2 or
    # more vertices must be in exactly one of the four cases
    cases = Counter()
    for n, classes in _class_lists(7).items():
        for code, _, _ in _every_class(n, classes):
            g = mask_to_graph(n, code)
            want = True
            if n >= 2 and oracles.is_p4_extendible(g):
                hits = oracles.theorem_e_cases(g)
                cases[hits] += 1
                want = sum(hits) == 1
            assert theorems._check_e(g) == want, serialize_graph6(g)
    # theorem e holds, and each case occurs
    assert cases == {(True, False, False, False): 194, (False, True, False, False): 194,
                     (False, False, True, False): 8, (False, False, False, True): 19}


def _complement_connected(g):
    return len(connected_components(g.derived(complement))) == 1


def _p4_free(g):
    return not g.derived(p4.enumerate_p4)


def _few_p4s(g):
    return len(g.derived(p4.enumerate_p4)) < 4


def _complement_l_integral(g):
    return g.derived(complement).derived(spectral.is_l_integral)


def test_custom_invariant_checks_match_labeled_scan(monkeypatch):
    # relabeling-invariant checks whose smallest failing graphs have 2, 4,
    # 5 and 4 vertices
    checks = {"a": _complement_connected, "b": _p4_free, "c": _few_p4s,
              "d": _complement_l_integral}
    for tid, check in checks.items():
        monkeypatch.setitem(theorems.DEFAULT_CHECKS, tid, check)
    for n_max, failing in ((4, "abd"), (6, "abcd")):
        got = [r.to_dict() for r in verify_theorems(n_max, "abcd")]
        assert got == oracles.labeled_scan(n_max, checks)
        assert "".join(r["theorem"] for r in got if r["violations"]) == failing


def test_exhaustive_scan_computes_each_spectrum_once(monkeypatch):
    # one Faddeev-LeVerrier run per polynomial theorem h reads, and one
    # L-integrality certificate per graph, which every other check reuses
    runs, certificates = [], []
    real_fl, real_prefix = spectral.char_poly, spectral._prefix

    def counting_fl(m):
        runs.append(m.n)
        return real_fl(m)

    def counting_prefix(g):
        certificates.append(g.n)
        return real_prefix(g)

    monkeypatch.setattr(spectral, "char_poly", counting_fl)
    monkeypatch.setattr(spectral, "_prefix", counting_prefix)
    spectral._small_polys.cache_clear()  # so the table builds count here
    results = verify_theorems(5)
    lists = {n: _every_class(n, entries) for n, entries in _class_lists(5).items()}
    classes = sum(map(len, lists.values()))
    # a class with exactly half the edges is checked without a partner, so
    # theorem g builds and certifies its complement on the side
    unpaired = sum(2 * code.bit_count() == math.comb(n, 2)
                   for n, entries in lists.items() for code, _, _ in entries)
    assert (classes, unpaired) == (52, 1 + 3 + 6)  # n = 1, 4 and 5
    assert _by_id(results)["h"].checked == 100 * 4
    pairs = {pair for n in range(2, 6) for pair in _pair_population(n, 0)}
    assert len(pairs) < 100 * 4
    # theorem g asks for the L-integrality of each class and of its
    # complement, with no Faddeev-LeVerrier run; a class and its partner
    # each certify their own graph once.  Theorem h's parts (1..4
    # vertices) and unions of 2..4 vertices read the tables for n = 1..4, one
    # run per labeled graph: 1 + 2 + 8 + 64.  Only a graph on 5 vertices,
    # here always the union, is an FL run of its own, once per distinct pair.
    tables = sum(2 ** math.comb(n, 2) for n in range(1, 5))
    large = sum((n1 + n2 > 4) + (n1 > 4) + (n2 > 4) for n1, _, n2, _ in pairs)
    assert len(runs) == tables + large
    assert len(certificates) == classes + unpaired
    runs.clear()
    certificates.clear()
    verify_theorems(5, "abcdef")
    assert not runs
    assert 0 < len(certificates) <= classes  # no complements without g


def test_ce_scan_decides_p4_extendibility_once_per_graph(monkeypatch):
    # theorems c and e share it through Graph.derived; the list keeps every
    # graph alive, so no two of them share an id
    asked = []
    real = theorems.is_p4_extendible

    def counting(g):
        asked.append(g)
        return real(g)

    monkeypatch.setattr(theorems, "is_p4_extendible", counting)
    results = verify_theorems(6, "ce")
    assert not any(r.violations for r in results)
    # theorem e asks on every class with at least 2 vertices, c only on
    # classes with a P4, all of which have 4 or more
    assert len(asked) == len({id(g) for g in asked}) == sum(CLASS_COUNTS[1:6])


def test_wrong_small_poly_entry_fails_theorem_h(monkeypatch):
    # the labeled P4 0-1-2-3 is a part of two drawn pairs at n = 5
    path, k1 = standard("path", 4), standard("complete", 1)
    wrong = spectral._small_polys(4)[standard("complete", 4).adj]
    monkeypatch.setitem(spectral._small_polys(4), path.adj, wrong)
    result = _by_id(verify_theorems(5, "h"))["h"]
    assert result.violations > 0 and result.counterexample is not None
    assert not spectral.check_union_relation(path, k1)
    assert not spectral.check_union_relation(k1, path)


def test_exhaustive_scan_enumerates_p4s_once_per_graph(monkeypatch):
    calls = []
    real = p4.enumerate_p4

    def counting(g):
        calls.append(g.n)
        return real(g)

    complements = []
    real_complement = p4.complement

    def counting_complement(g):
        complements.append(g.n)
        return real_complement(g)

    monkeypatch.setattr(p4, "enumerate_p4", counting)
    monkeypatch.setattr(theorems, "enumerate_p4", counting)
    monkeypatch.setattr(p4, "complement", counting_complement)
    verify_theorems(5, "abcdef")
    assert len(calls) == 1 + 2 + 4 + 11 + 34  # once per isomorphism class
    calls.clear()
    complements.clear()
    p4.classify(standard("cycle", 6))
    assert calls == [6]
    assert complements == [6]  # is_cograph and recognize_spider share it


def test_result_to_dict_has_no_timing():
    r = verify_theorems(3, "a")[0]
    doc = r.to_dict()
    assert set(doc) == {"theorem", "description", "population", "checked",
                        "violations", "counterexample"}
    assert isinstance(r.check_s, float)
