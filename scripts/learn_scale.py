"""Learner cost as t grows: one JSON line per t = 2**k.

Usage, from the root of the repository:

    python3 scripts/learn_scale.py 16 20 24 --seed 1

For each k, a child process draws a disjoint (t, 3, 2) instance with
``random_disjoint_instance``, learns it with ``learn_detailed`` from this
checkout's ``src`` and prints one line: the learner's CPU seconds
(``time.process_time`` around the run), its query count and the child's
peak RSS (``ru_maxrss``). A fresh process per t keeps each peak its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# s*l = 6 vertices need t >= 8. All three searches ask their queries
# through one frame over the found vertices, made from their sorted tuple,
# with the vertices outside them counted by rank and the known edges held as
# index masks of the frame, so neither time nor memory grows with t.
# random_disjoint_instance samples from range(1, t + 1), whose length must
# fit in sys.maxsize = 2**63 - 1, so t = 2**63 cannot be drawn.
MIN_K, MAX_K = 3, 62


def measure(k: int, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    from hhl import FamilyParams, Oracle, learn_detailed, random_disjoint_instance

    params = FamilyParams(2**k, 3, 2)
    hidden = random_disjoint_instance(params, seed=seed)
    oracle = Oracle(hidden)
    start = time.process_time()
    report = learn_detailed(oracle, params)
    cpu_s = time.process_time() - start
    if report.hypergraph != hidden:
        raise SystemExit(f"error: t={params.t} seed {seed}: learned {report.hypergraph}")
    return {
        "t": params.t,
        "s": params.s,
        "l": params.l,
        "seed": seed,
        "cpu_s": round(cpu_s, 4),
        "queries": report.queries_total,
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("k", type=int, nargs="+", help=f"exponents, t = 2**k, k in {MIN_K}..{MAX_K}")
    parser.add_argument("--seed", type=int, default=1, help="instance seed")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bad = [k for k in args.k if not MIN_K <= k <= MAX_K]
    if bad:
        parser.error(f"k must be in {MIN_K}..{MAX_K}, got {bad}")
    if args.child:
        print(json.dumps(measure(args.k[0], args.seed)))
        return 0
    for k in args.k:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--seed", str(args.seed), str(k)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode:
            return proc.returncode
        print(proc.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
