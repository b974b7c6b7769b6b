"""p4spec benchmark: one workload per invocation.

    python3 perfbench/run.py --workload scan-n6-all --seed 1 --seconds 20 --trace 0

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics (untraced); with --trace 1 it carries the per-layer metrics of a
traced run.  Workloads, metric names, units and bounds are listed in
BENCHMARK.json at the root of the repository; perfbench/README.md says what
each metric should move.  The benchmark runs the package from the
checkout's src/ and needs tests/oracles.py; without them it exits with code
2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

E2E_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "cpu_us_per_graph": "us",
    "req_per_s": "req/s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def workloads() -> dict:
    from mix import MixWorkload
    from scans import ScanWorkload
    return {
        # all eight theorems, exhaustive n <= 6, serial scan over mask ranges
        "scan-n6-all": ScanWorkload(6, None, None, 1),
        # theorems d, e, f; n <= 6 exhaustive plus a uniform n = 7 sample
        # (>= 32768, so n = 6 stays exhaustive) on a 2-worker pool
        "scan-n7-p4": ScanWorkload(7, "def", 40_000, 2),
        "analyze-mix": MixWorkload(),
    }


def use_checkout(root: Path) -> None:
    """Import p4spec from root/src and the oracles from root/tests."""
    for sub in ("src/p4spec/__init__.py", "tests/oracles.py"):
        if not (root / sub).is_file():
            raise FileNotFoundError(f"{root / sub} is missing; run from a full checkout")
    sys.path[:0] = [str(root / "src"), str(root / "tests")]


def result_line(result: dict, units: dict) -> dict:
    """The JSON result line: every metric named in units, nothing else."""
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": result.get("correct", result["failed"] == 0),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout(ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(table)}",
              file=sys.stderr)
        return 2
    workload = table[args.workload]
    if args.trace:
        from measure import layer_metric_specs
        units = {name: unit for name, unit, _ in layer_metric_specs()}
        result = workload.trace(ROOT, args.seed, args.seconds)
    else:
        units = E2E_UNITS
        result = workload.run(ROOT, args.seed, args.seconds)
    line = result_line(result, units)
    error_rate = line["failed"] / line["attempted"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted={line['attempted']} "
          f"failed={line['failed']} error_rate={error_rate:.4f} "
          f"known_defect={result.get('known_defect', 0)} samples={result['samples']}"
          + (f" host_scale={result['host_scale']:.3f}" if "host_scale" in result else ""),
          file=sys.stderr)
    for err in result.get("errors", [])[:5]:
        print(f"  {err}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
