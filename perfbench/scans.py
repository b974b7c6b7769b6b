"""verify-theorems scan workloads.

One request is one `verify_theorems` call, which is what a user of
`p4spec verify-theorems` waits for.  The operations counted in `attempted`
are the theorem results: a result fails when its `checked` count is not the
population size, when it reports a violation or counterexample, or when it
differs from the same theorem's result elsewhere in the run (a repeated scan,
or a scan with another worker layout).
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass
from time import perf_counter

from hostspeed import HostSpeed, RawClock
from measure import cold_start_s, cpu_s, layer_metrics, peak_rss_mb, percentile
from tracer import Tracer, instrument

PAIRS_PER_N = 100  # theorem h's documented population: 100 seeded pairs per n
SETUP_ARGV = ["-c", "import p4spec; p4spec.verify_theorems(1)"]


@dataclass(frozen=True)
class Scan:
    results: list
    wall: float  # on the scan's clock
    raw: float  # wall s, the clock's kernel left out
    parent_cpu: float
    child_cpu: float


@dataclass(frozen=True)
class ScanWorkload:
    n_max: int
    theorems: str | None  # None runs all eight
    sample: int | None  # sample size for populations above it (n <= 7 only)
    workers: int

    def population(self) -> dict[str, int]:
        """Expected `checked` per theorem id."""
        graphs = 0
        for n in range(1, self.n_max + 1):
            space = 1 << (n * (n - 1) // 2)
            graphs += space if self.sample is None or space <= self.sample else self.sample
        ids = self.theorems or "abcdefgh"
        return {t: PAIRS_PER_N * (self.n_max - 1) if t == "h" else graphs for t in ids}

    def scan(self, seed: int, workers: int, clock) -> Scan:
        """One verify_theorems call, timed on clock; its CPU figures leave
        out the clock's kernel and are scaled like its wall time."""
        from p4spec import verify_theorems
        p0, c0, k0 = cpu_s(), cpu_s(resource.RUSAGE_CHILDREN), clock.kernel_cpu
        t0, r0 = clock.now(), clock.raw()
        results = verify_theorems(self.n_max, self.theorems, sample=self.sample,
                                  workers=workers, seed=seed)
        wall, raw = clock.now() - t0, clock.raw() - r0
        scale = wall / raw
        return Scan(results, wall, raw, (cpu_s() - p0 - (clock.kernel_cpu - k0)) * scale,
                    (cpu_s(resource.RUSAGE_CHILDREN) - c0) * scale)

    def failures(self, results, reference) -> int:
        """Failed theorem results: off-population counts, violations, or a
        mismatch against the reference result dicts."""
        expected = self.population()
        if [r.theorem for r in results] != list(expected):
            return len(expected)
        bad = 0
        for r, ref in zip(results, reference):
            d = r.to_dict()
            if (d["checked"] != expected[r.theorem] or d["violations"] != 0
                    or d["counterexample"] is not None or d != ref):
                bad += 1
        return bad

    def graphs(self) -> int:
        return max(v for t, v in self.population().items() if t != "h")

    def run(self, root, seed: int, seconds: float) -> dict:
        """For a pool layout, one scan in that layout whose results are
        checked but not timed; then single-worker scans, timed, for seconds.

        A pool of two workers on a two-vCPU shared host measures the
        scheduler and the other vCPU as much as the program, and a kernel
        run in the parent cannot scale it, so the pool's time is reported
        only by the traced run (theorems.pool.*).  Peak RSS is read after
        the first timed scan, so that it covers the same work in every run
        and not the number of scans the host's speed allowed.
        """
        runs = [self.scan(seed, self.workers, RawClock()).results] if self.workers > 1 else []
        scans = []
        with HostSpeed() as clock:
            start = clock.raw()
            while not scans or clock.raw() - start < seconds:
                scans.append(self.scan(seed, 1, clock))
                if len(scans) == 1:
                    rss = peak_rss_mb()
        runs += [s.results for s in scans]
        reference = [r.to_dict() for r in runs[0]]
        attempted = sum(len(r) for r in runs)
        failed = sum(self.failures(r, reference) for r in runs)
        walls = [s.wall for s in scans]
        wall = statistics.median(walls)
        cpu = statistics.median(s.parent_cpu + s.child_cpu for s in scans)
        graphs = self.graphs()
        metrics = {
            "setup_s": cold_start_s(root, SETUP_ARGV),
            "graphs_per_s": graphs / wall,
            "cpu_us_per_graph": cpu / graphs * 1e6,
            "req_per_s": 1 / wall,
            "req_p50_ms": wall * 1e3,
            "req_p99_ms": percentile(walls, 0.99) * 1e3,
            "peak_rss_mb": rss,
        }
        return {"attempted": attempted, "failed": failed, "samples": len(walls),
                "host_scale": sum(walls) / sum(s.raw for s in scans), "metrics": metrics}

    def trace(self, root, seed: int, seconds: float) -> dict:
        """An untraced scan in the configured worker layout (pool metrics),
        then single-worker scans untraced, traced and untraced again; the
        tracing overhead is taken against the mean of the two that bracket
        the traced one.  All their results must agree."""
        clock = RawClock()
        configured = self.scan(seed, self.workers, clock)
        before = configured if self.workers == 1 else self.scan(seed, 1, clock)
        tracer = Tracer()
        with instrument(tracer):
            from p4spec import verify_theorems  # the traced binding
            t0 = perf_counter()
            traced = verify_theorems(self.n_max, self.theorems, sample=self.sample,
                                     workers=1, seed=seed)
            wall = perf_counter() - t0
        after = self.scan(seed, 1, clock)
        reference = [r.to_dict() for r in configured.results]
        runs = [configured.results, traced, after.results]
        if before is not configured:
            runs.append(before.results)
        util = configured.child_cpu / (self.workers * configured.wall) if self.workers > 1 else 0.0
        metrics = layer_metrics(tracer, self.graphs(), wall, (before.wall + after.wall) / 2,
                                util, configured.parent_cpu)
        return {"attempted": sum(len(r) for r in runs),
                "failed": sum(self.failures(r, reference) for r in runs),
                "samples": 1, "metrics": metrics}
