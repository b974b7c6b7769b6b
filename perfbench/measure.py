"""Measurement helpers shared by the workloads: statistics, CPU and memory
from getrusage, cold-start timing, and the per-layer metrics of a trace."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import BARE_ARGV, BARE_REFERENCE_S
from tracer import LAYERS, Tracer

SETUP_RUNS = 9


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cpu_s(who=resource.RUSAGE_SELF) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process and of every child it has
    reaped so far (Linux reports ru_maxrss in KiB)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def cold_start_s(root: Path, argv: list[str], stdin: str = "") -> float:
    """Median time of `python <argv>` in a fresh interpreter that sees the
    checkout's src/, from spawn to exit, in reference seconds.

    Spawns of a bare interpreter (hostspeed.BARE_ARGV) alternate with the
    timed ones, and each timed wall time is scaled by BARE_REFERENCE_S over
    the mean of the bare starts just before and just after it.  One untimed
    warm-up first.  A nonzero exit is an error, not a timing.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src

    def spawn(args: list[str], text: str = "") -> float:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, *args], input=text, capture_output=True,
                              text=True, env=env, cwd=root, timeout=60)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"cold start {args} exited {proc.returncode}: {proc.stderr}")
        return dt

    times = []
    bare = spawn(BARE_ARGV)
    for i in range(SETUP_RUNS + 1):
        dt = spawn(argv, stdin)
        after = spawn(BARE_ARGV)
        if i:
            times.append(dt * BARE_REFERENCE_S * 2 / (bare + after))
        bare = after
    return statistics.median(times)


# Per-layer metrics: span name -> the fields reported for it.
#   calls_per_graph  calls / graphs handled (checked graphs, or requests)
#   calls            call count
#   us_per_call      mean duration of one call, children included, in us
#   self_s           duration minus the time covered by child spans, in s
SPAN_FIELDS = {
    "spectral.char_poly": ("calls_per_graph", "us_per_call", "self_s"),
    "spectral.exact_spectrum": ("calls", "self_s"),
    "spectral.extract_integer_roots": ("us_per_call",),
    "spectral.laplacian": ("us_per_call",),
    "p4.enumerate_p4": ("calls_per_graph", "us_per_call", "self_s"),
    "p4.is_cograph": ("self_s",),
    "p4.satisfies_q_t": ("self_s",),
    "p4.is_p4_extendible": ("self_s",),
    "p4.is_p4_connected": ("self_s",),
    "p4.recognize_spider": ("self_s",),
    "p4.classify": ("self_s",),
    "graphs.complement": ("calls_per_graph", "us_per_call"),
    "graphs.connected_components": ("calls",),
    "graphs.are_isomorphic": ("calls",),
    "constructions.mask_to_graph": ("us_per_call",),
    "theorems.verify_theorems": ("self_s",),
    "formats.load_document": ("us_per_call",),
    "formats.serialize": ("us_per_call",),
    "dsl.parse_dsl": ("us_per_call",),
}
FIELD_UNITS = {"calls_per_graph": "count", "calls": "count", "us_per_call": "us",
               "self_s": "s"}

# Metrics that are not a field of one span: (name, unit, better).
OTHER_LAYER_METRICS = (
    [("spectral.integral_ratio", "ratio", "higher"),
     ("theorems.pool.cpu_util", "ratio", "higher"),
     ("theorems.pool.parent_cpu_s", "s", "lower")]
    + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("bench.self_s", "s", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.{field}", FIELD_UNITS[field], "lower")
             for span, fields in SPAN_FIELDS.items() for field in fields]
    return specs + OTHER_LAYER_METRICS


def layer_metrics(tracer: Tracer, graphs: int, traced_wall: float,
                  untraced_wall: float, pool_cpu_util: float,
                  parent_cpu: float) -> dict[str, float]:
    """Every per-layer metric of one traced region.

    graphs is the number of graphs the region handled; untraced_wall is the
    wall time of the same work with tracing off.  A span that never ran
    reports 0.  The module self times plus bench.self_s add up to
    trace.wall_s; that holds only if every span lies inside its parent and
    the root spans inside the region, which is checked here.
    """
    stats, roots = tracer.summary()
    out = {}
    for span, fields in SPAN_FIELDS.items():
        calls, total, own = stats.get(span, (0, 0.0, 0.0))
        values = {"calls": calls, "calls_per_graph": calls / graphs,
                  "us_per_call": total / calls * 1e6 if calls else 0.0, "self_s": own}
        for field in fields:
            out[f"{span}.{field}"] = values[field]
    spectra = stats.get("spectral.exact_spectrum", (0,))[0]
    out["spectral.integral_ratio"] = (tracer.useful["spectral.exact_spectrum"] / spectra
                                      if spectra else 0.0)
    out["theorems.pool.cpu_util"] = pool_cpu_util
    out["theorems.pool.parent_cpu_s"] = parent_cpu
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, own) in stats.items():
        by_layer[name.split(".", 1)[0]] += own
    for layer, own in by_layer.items():
        out[f"layer.{layer}.self_s"] = own
    out["bench.self_s"] = traced_wall - roots
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    slack = -1e-9 * max(1, len(tracer.start))
    least_self = min((own for _, _, own in stats.values()), default=0.0)
    if out["bench.self_s"] < slack or least_self < slack:
        raise RuntimeError("trace accounting: a span is not inside its parent or region")
    return out
