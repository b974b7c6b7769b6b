import pytest

from p4spec import p4, spectral, theorems
from p4spec.constructions import graph_to_mask, mask_to_graph, standard
from p4spec.formats import parse_graph6, serialize_graph6
from p4spec.graphs import complement
from p4spec.theorems import (
    THEOREMS,
    ScanContext,
    TheoremResult,
    _pair_population,
    verify_theorems,
)


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


def test_pair_population_shards_partition():
    full = _pair_population(5, seed=0)
    assert len(full) == 100
    striped = []
    for sid in range(4):
        striped.extend(full[sid::4])
    assert sorted(striped) == sorted(full)
    assert _pair_population(5, seed=0) == full  # deterministic


def test_validation_errors():
    with pytest.raises(ValueError):
        verify_theorems(0)
    with pytest.raises(ValueError):
        verify_theorems(9)
    with pytest.raises(ValueError):
        verify_theorems(4, "az")
    with pytest.raises(ValueError):
        verify_theorems(4, shards=2, shard_id=2)
    with pytest.raises(ValueError):
        verify_theorems(4, shards=0)
    with pytest.raises(ValueError):
        verify_theorems(4, sample=0)
    with pytest.raises(ValueError):
        verify_theorems(4, workers=0)
    with pytest.raises(ValueError):
        verify_theorems(4, checks={"a": lambda ctx: True}, workers=2)


def test_injected_violation_is_counted_and_witnessed():
    # flag exactly the triangle on three vertices; the engine must count it
    # once and report the smallest (n, mask) witness as graph6
    def no_triangles(ctx):
        return not (ctx.g.n == 3 and ctx.g.edge_count == 3)

    results = verify_theorems(4, "a", checks={"a": no_triangles})
    r = results[0]
    assert not r.passed
    assert r.violations == 1
    assert r.counterexample == "Bw"
    assert parse_graph6(r.counterexample) == standard("complete", 3)


def test_injected_violation_counterexample_is_minimal():
    def reject_everything(ctx):
        return False

    r = verify_theorems(3, "b", checks={"b": reject_everything})[0]
    assert r.violations == 1 + 2 + 8
    # smallest graph is the single vertex
    assert r.counterexample == "@"


def test_multiprocess_matches_single_process():
    base = {r.theorem: (r.checked, r.violations)
            for r in verify_theorems(4, "adh", seed=3)}
    multi = {r.theorem: (r.checked, r.violations)
             for r in verify_theorems(4, "adh", seed=3, workers=2)}
    assert base == multi


def test_scan_context_caches():
    ctx = ScanContext(standard("cycle", 6))
    assert ctx.p4s is ctx.p4s
    assert ctx.co is ctx.co
    assert ctx.lint() and ctx.lint_co()


def test_scan_context_partners_share_results():
    ctx = ScanContext(standard("path", 4))
    partner = ctx.partner
    assert partner.partner is ctx
    assert ctx.co is partner.g and partner.co is ctx.g
    assert ctx.co == complement(ctx.g)
    assert ctx.lint_co() == partner.lint() and partner.lint_co() == ctx.lint()
    single = ScanContext(standard("empty", 1))
    assert single.partner is single


def _failing_at(n, masks):
    def check(ctx):
        return not (ctx.g.n == n and graph_to_mask(ctx.g) in masks)
    return check


@pytest.mark.parametrize("masks, violations, counterexample", [
    ({50}, 1, "CR"),         # upper half: checked as the partner of mask 13
    ({40, 60}, 2, "CD"),     # both upper; 60's partner 3 is scanned first
    ({3, 60}, 2, "Co"),      # a lower mask and its own partner
])
def test_paired_scan_reports_upper_half_violations(masks, violations, counterexample):
    # the figures are those of the unpaired scan over all 2^6 masks at n = 4
    r = verify_theorems(5, "a", checks={"a": _failing_at(4, masks)})[0]
    assert r.checked == 1 + 2 + 8 + 64 + 1024
    assert r.violations == violations
    assert r.counterexample == counterexample
    assert r.counterexample == serialize_graph6(mask_to_graph(4, min(masks)))
    sharded = [verify_theorems(5, "a", shards=3, shard_id=sid,
                               checks={"a": _failing_at(4, masks)})[0] for sid in range(3)]
    assert sum(s.checked for s in sharded) == r.checked
    assert sum(s.violations for s in sharded) == violations
    # the shard holding the smallest witness reports it
    assert counterexample in {s.counterexample for s in sharded}


def test_exhaustive_scan_computes_each_spectrum_once(monkeypatch):
    calls = []
    real = spectral.char_poly

    def counting(m):
        calls.append(m.n)
        return real(m)

    monkeypatch.setattr(spectral, "char_poly", counting)
    results = verify_theorems(5)
    graphs = 1 + 2 + 8 + 64 + 1024
    pairs = _by_id(results)["h"].checked
    assert pairs == 100 * 4
    # one spectrum per graph (theorem g included), three per union pair
    assert len(calls) == graphs + 3 * pairs


def test_exhaustive_scan_enumerates_p4s_once_per_graph(monkeypatch):
    calls = []
    real = p4.enumerate_p4

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(p4, "enumerate_p4", counting)
    monkeypatch.setattr(theorems, "enumerate_p4", counting)
    verify_theorems(5, "abcdef")
    assert len(calls) == 1 + 2 + 8 + 64 + 1024
    calls.clear()
    p4.classify(standard("cycle", 6))
    assert calls == [6]


def test_result_to_dict_has_no_timing():
    r = verify_theorems(3, "a")[0]
    doc = r.to_dict()
    assert set(doc) == {"theorem", "description", "population", "checked",
                        "violations", "counterexample"}
    assert isinstance(r.check_s, float)
