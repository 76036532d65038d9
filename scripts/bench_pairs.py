"""Paired before/after runs of the benchmark, written as a BENCH_*.json trend file.

Usage, from the root of the repository:

    git archive --format=tar --prefix=base/ <parent-commit> | tar -x -C /tmp
    python3 scripts/bench_pairs.py --base /tmp/base --change . \
        --seed 701 --out BENCH_2.json

For every workload of ``BENCHMARK.json`` and each of ten seeds (``--seed``
upwards), the script runs ``perfbench/run.py`` for the benchmark's
``run_seconds`` once in each checkout, one process at a time, alternating
which checkout goes first. It records, for every
end-to-end metric, each checkout's median and quartiles over the pairs and
the number of pairs the change won. Then it runs three traced passes per
checkout (``--trace 1``, first seed), again alternating which checkout goes
first, and keeps each per-layer metric's median over a checkout's passes,
so that machine drift during one pass does not read as a layer's change.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Pairs per workload: the benchmark's rule for a claimed gain asks for ten.
PAIRS = 10
# Traced passes per checkout and workload; each per-layer metric keeps the median.
TRACED = 3


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode or not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"(status {proc.returncode})")
    result["env"] = json.loads(lines[0])["env"]
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(base: list[dict], change: list[dict], name: str, better: str) -> dict:
    b = [r[name]["value"] for r in base]
    c = [r[name]["value"] for r in change]
    pairs = list(zip(b, c))
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in pairs)
    return {"unit": base[0][name]["unit"], "base": quartiles(b),
            "change": quartiles(c), "change_wins": wins,
            "ties": sum(x == y for x, y in pairs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="checkout before the change")
    parser.add_argument("--change", type=Path, required=True,
                        help="checkout with the change")
    parser.add_argument("--seed", type=int, required=True,
                        help="first of the pair seeds")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.seed, args.seed + PAIRS))
    report = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    env = None
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                result = run(getattr(args, side), workload, seed, seconds, 0)
                env = env or result["env"]
                runs[side].append(result["metrics"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        end_to_end = {m["name"]: compare(runs["base"], runs["change"], m["name"],
                                         m["better"])
                      for m in bench["end_to_end"]}
        passes = {"base": [], "change": []}
        for i in range(TRACED):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                result = run(getattr(args, side), workload, seeds[0], seconds, 1)
                passes[side].append(result["metrics"])
        traced = {side: {k: statistics.median(r[k]["value"] for r in runs) for k in runs[0]}
                  for side, runs in passes.items()}
        report["workloads"][workload] = {"end_to_end": end_to_end, "traced": traced}
    report["env"] = {k: env[k] for k in ("python", "numpy", "nproc", "cpu_model")}
    report["env"]["machine"] = platform.machine()
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
