"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import dataclasses
import itertools
import json
import signal
import time

import run

run.use_checkout(run.ROOT)

import mix  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import RawClock  # noqa: E402
from measure import layer_metric_specs  # noqa: E402
from scans import ScanWorkload  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

import p4spec  # noqa: E402
from p4spec import constructions, dsl, formats, p4, theorems  # noqa: E402

MINI_SCAN = ScanWorkload(4, None, None, 1)
MINI_MIX = mix.MixWorkload()


def _outputs():
    graphs, generate = mix.pool_inputs(3)
    reports = [p4.classify(formats.load_document(mix.encode(n, adj, "g6")).graph).to_dict()
               for n, adj in graphs]
    texts = [formats.serialize(dsl.parse_dsl(e.text), e.fmt)
             for e in generate if not e.text.startswith("complement(")]
    scan = [r.to_dict() for r in theorems.verify_theorems(4, seed=3)]
    return reports, texts, scan


def test_tracing_leaves_outputs_unchanged(monkeypatch):
    monkeypatch.setattr(mix, "POOL_SIZE", 8)
    plain = _outputs()
    originals = (p4.enumerate_p4, theorems.enumerate_p4, p4spec.classify,
                 constructions.mask_to_graph)
    tracer = Tracer()
    with instrument(tracer):
        assert theorems.enumerate_p4 is not originals[1]
        traced = _outputs()
    assert traced == plain
    assert (p4.enumerate_p4, theorems.enumerate_p4, p4spec.classify,
            constructions.mask_to_graph) == originals
    stats, _ = tracer.summary()
    # reached through the theorems binding and through p4's own globals
    assert stats["p4.enumerate_p4"][0] > 0 and stats["theorems.verify_theorems"][0] == 1
    assert stats["spectral.char_poly"][0] > 0 and stats["dsl.parse_dsl"][0] > 0


def test_request_stream_is_deterministic_per_seed(monkeypatch):
    monkeypatch.setattr(mix, "POOL_SIZE", 16)

    def first(seed, k=300):
        graphs, generate = mix.pool_inputs(seed)
        return list(itertools.islice(mix.requests(seed, graphs, generate), k))

    assert first(5) == first(5)
    assert first(5) != first(6)


def test_printed_metric_names_are_in_benchmark_json(monkeypatch):
    monkeypatch.setattr(mix, "POOL_SIZE", 6)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer_units = {name: unit for name, unit, _ in layer_metric_specs()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units
    for workload in (MINI_SCAN, MINI_MIX):
        line = run.result_line(workload.run(run.ROOT, 1, 0.2), run.E2E_UNITS)
        assert line["correct"] and line["attempted"] > 0
        assert all(m["value"] > 0 for m in line["metrics"].values())
        line = run.result_line(workload.trace(run.ROOT, 1, 0.2), layer_units)
        assert line["correct"]


def test_wrong_answer_raises_error_rate(monkeypatch):
    monkeypatch.setattr(mix, "POOL_SIZE", 6)
    pool = mix.build_pool(1)
    honest = mix.report(mix.closed_loop(1, pool, RawClock(), count=200))
    serve = mix.serve

    def lying(req):
        out = serve(req)
        if req.kind != "analyze":
            return out
        d = json.loads(out)
        d["is_cograph"] = not d["is_cograph"]
        return json.dumps(d)

    monkeypatch.setattr(mix, "serve", lying)
    faked = mix.report(mix.closed_loop(1, pool, RawClock(), count=200))
    assert honest["correct"] and honest["failed"] == honest["known_defect"]
    assert not faked["correct"] and faked["failed"] > honest["failed"]

    results = theorems.verify_theorems(4, seed=1)
    reference = [r.to_dict() for r in results]
    assert MINI_SCAN.failures(results, reference) == 0
    broken = [dataclasses.replace(results[0], violations=1)] + results[1:]
    assert MINI_SCAN.failures(broken, reference) == 1


def test_spider_partition_check_rejects_a_bad_partition():
    g = constructions.thin_spider(3, constructions.head_catalog()["K2"])
    spec = p4.recognize_spider(g).to_dict()
    assert mix.spider_partition_holds(g.n, g.adj, spec)
    swapped = dict(spec, legs=spec["body"], body=spec["legs"])
    assert not mix.spider_partition_holds(g.n, g.adj, swapped)


def test_host_speed_clock_scales_and_skips_the_kernel(monkeypatch):
    # a host at half the reference speed, whose kernel takes no wall time
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: 2 * hostspeed.REFERENCE_S)
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as clock:
        t0, r0 = clock.now(), clock.raw()
        time.sleep(0.35)
        ref, raw = clock.now() - t0, clock.raw() - r0
    assert clock.samples >= 2 and abs(ref - raw / 2) < 1e-4
    assert 0.34 < raw < 0.5
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
