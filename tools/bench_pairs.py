"""Paired before/after runs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py BASE CHANGE --out BENCH.json \\
        --workload scan-n6-all:10 --workload analyze-mix:5:11 --n8 5

BASE and CHANGE are git revisions of this repository.  Each is exported with
`git archive` into a temporary directory, which is removed at the end.  A
workload NAME:PAIRS[:SEED] runs PAIRS pairs of the exported
perfbench/run.py for the run_seconds of CHANGE's BENCHMARK.json, end-to-end
metrics only; pair i gives both sides the seed SEED + i (SEED defaults to 1)
and alternates which side runs first, so a drift of the host falls on both.
For each end-to-end metric named in CHANGE's BENCHMARK.json a series holds
each side's median and quartiles, the ratio of the medians (CHANGE over
BASE) and the number of pairs CHANGE wins in the direction the metric calls
better.  `--n8 PAIRS` adds the wall time
of `verify-theorems --n-max 8`, serial and on 2 workers, a scan no workload
runs; the two sides' stdout must be byte-identical.  `--append` adds the
series to an existing file made from the same commits.  The runs inherit
this process's environment, and each series records PYTHONDONTWRITEBYTECODE.
Each side records its commit and the git object ids of the paths a run
reads (TREES), so a later commit with the same ids ran the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# what perfbench/run.py reads: the package, the bench, its config, and the
# oracles perfbench/mix.py imports from tests/
TREES = ("src", "perfbench", "BENCHMARK.json", "tests")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> dict:
    """Write the files of commit rev under dest; what identifies them."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", commit],
                             check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"rev": rev, "commit": commit,
            "trees": {path: git("rev-parse", f"{commit}:{path}") for path in TREES}}


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"system": f"{platform.system()} {platform.release()}",
            "machine": platform.machine(), "cpu_model": model, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in checkout root: its JSON result line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{root.name} {workload} seed {seed}: {proc.stderr}")
    line = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def run_n8(root: Path, workers: int) -> tuple[dict, str]:
    """Wall time of one verify-theorems --n-max 8 in a fresh interpreter, and
    its stdout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "p4spec.cli", "verify-theorems",
                           "--n-max", "8", "--workers", str(workers)],
                          cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"{root.name} verify-theorems: {proc.stderr}")
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": wall}}, proc.stdout


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def series(name: str, seeds: list[int], runs: list[dict], better: dict[str, str]) -> dict:
    metrics = {}
    for metric, direction in better.items():
        sides = {s: [r[s]["metrics"][metric] for r in runs] for s in SIDES}
        wins = sum((c < b) if direction == "lower" else (c > b)
                   for b, c in zip(sides["base"], sides["change"]))
        stats = {s: summary(v) for s, v in sides.items()}
        metrics[metric] = {"better": direction, **stats,
                           "ratio": stats["change"]["median"] / stats["base"]["median"],
                           "wins": wins, "pairs": len(runs)}
    return {"workload": name, "seeds": seeds,
            "env": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
            "runs": runs, "metrics": metrics}


def paired(roots: dict, count: int, one) -> list[dict]:
    """count pairs of one(root, pair index), the side that runs first alternating."""
    runs = []
    for i in range(count):
        run = {"first": SIDES[i % 2]}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run[side] = one(roots[side], i)
        runs.append(run)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME:PAIRS[:SEED]")
    parser.add_argument("--n8", type=int, default=0, metavar="PAIRS")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {s: Path(tmp) / s for s in SIDES}
        commits = {s: export(rev, roots[s]) for s, rev in zip(SIDES, (args.base, args.change))}
        bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        doc = {"base": commits["base"], "change": commits["change"], "host": host(),
               "run_seconds": seconds, "series": []}
        if args.append:
            doc = json.loads(args.out.read_text())
            if [doc[s]["commit"] for s in SIDES] != [commits[s]["commit"] for s in SIDES]:
                raise SystemExit(f"{args.out} compares other commits")

        def log(msg):
            print(msg, file=sys.stderr, flush=True)

        for spec in args.workload:
            name, count, *first = spec.split(":")
            first_seed = int(first[0]) if first else 1
            seeds = list(range(first_seed, first_seed + int(count)))

            def one(root, i):
                result = run_bench(root, name, seeds[i], seconds)
                log(f"{name} seed {seeds[i]} {root.name}: {result['metrics']}")
                return {"seed": seeds[i], **result}

            doc["series"].append(series(name, seeds, paired(roots, len(seeds), one), better))
        for workers in (1, 2) if args.n8 else ():
            outputs = {}

            def one(root, i):
                result, out = run_n8(root, workers)
                outputs.setdefault(out, root.name)
                log(f"n8 workers={workers} {root.name}: {result['metrics']}")
                return result

            name = f"verify-theorems --n-max 8 --workers {workers}"
            doc["series"].append(series(name, [], paired(roots, args.n8, one),
                                        {"wall_s": "lower"}))
            if len(outputs) != 1:
                raise SystemExit(f"{name}: the two sides print different reports")
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for s in doc["series"]:
        for metric, m in s["metrics"].items():
            log(f"{s['workload']} {metric}: {m['base']['median']:.6g} -> "
                f"{m['change']['median']:.6g} (x{m['ratio']:.3f}, {m['wins']}/{m['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
