"""Benchmark of the hhl package: one workload per process, printed as JSON.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload learn-deep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in its own fresh process, one after
another, and merges their last lines, prefixing each metric with its
workload's name.

The load is a closed loop with one client: one instance after another, in
one thread. Set-up generates a fixed pool of instances from ``--seed``;
the timed loop runs the whole pool at least once and keeps cycling through
it until ``--seconds`` have passed. Every result is checked outside the
timed region. A wrong result, or an exception raised by the program, makes
the command exit with status 1.

Per-instance time is process CPU time: the program is single-threaded, and
on a shared machine wall time of identical runs can differ by 2x. CPU time
moves too, by up to 1.8x within seconds, as neighbours come and go. So every
reported time is scaled to a fixed machine speed, measured by reference work
sampled every 0.1 s of instance time (see ``Calibration``). Raw CPU and wall
times are printed beside the scaled ones. Set-up is timed five times, each
repeat with its imports in a fresh child interpreter and scaled by reference
samples taken right around it; the median is reported. The time percentiles
and the throughput are taken over pool instances, each instance's time being
the median of its runs.
Query metrics are taken over the pool's first pass, so they repeat exactly
for a fixed seed.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` an untraced loop is followed by one traced pass over the pool,
and the last line carries the per-layer metrics, including the tracing
overhead (traced / untraced median instance CPU time). Earlier lines hold
the environment, the figure-of-merit table and other diagnostics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Run by a fresh interpreter to time the imports a run starts with.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import workloads, tracing
print(time.process_time())
"""
# Tail percentiles tried from the highest down; the report uses the highest
# one with at least ten pool instances beyond it, so a workload reports the
# same percentile in every run and on every commit.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# Instance CPU time between two samples of the reference work.
CALIBRATION_INTERVAL_S = 0.1
END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_cpu_s": "1/s",
    "instance_cpu_ms_p50": "ms",
    "instance_cpu_ms_tail": "ms",
    "queries_mean": "queries",
    "queries_tail": "queries",
    "queries_over_lb": "ratio",
    "trials_per_instance": "trials/inst",
    "peak_rss_mb": "MB",
}


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least 10 of n samples above it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:  # 99.9 is not exact in binary
            return p
    raise ValueError(f"{n} samples leave fewer than 10 beyond the median")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(ceil(p / 100.0 * len(ordered)), 1) - 1]


def _import_hhl():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hhl" / "__init__.py").is_file():
        raise SystemExit(f"error: no hhl package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hhl

    if Path(hhl.__file__).resolve().parent != (src / "hhl").resolve():
        raise SystemExit(f"error: imported hhl from {hhl.__file__}, not from {src}")


def environment(args) -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model,
    }


class Calibration:
    """Speed of the machine for this process, from fixed reference work.

    The reference work uses no code of the package, so its CPU time tracks
    only the speed the machine gives this process at that moment. It is an
    interpreter loop over small ints and one over the set bits of a 4096-bit
    int: of the kinds tried, these tracked the CPU time of all four
    workloads most closely as that speed moved. A sample's speed factor is
    NOMINAL_S over its CPU time; multiplying a CPU time by it gives the time
    at the speed where the reference work takes NOMINAL_S (about its time
    on a 2-vCPU Xeon VM).
    """

    NOMINAL_S = 0.003

    def __init__(self) -> None:
        self._bits = (1 << 4096) - 1
        self.factors: list[float] = []
        # The first runs of the reference work are slower (cold caches, the
        # interpreter not yet specialised), so they are not kept.
        for _ in range(2):
            self.sample()
        self.factors.clear()

    def sample(self) -> float:
        c0 = time.process_time()
        n = 0
        for i in range(20_000):
            n += i * 7 % 13
        m = self._bits
        while m:
            low = m & -m
            n += low.bit_length()
            m ^= low
        self.factors.append(self.NOMINAL_S / (time.process_time() - c0))
        return self.factors[-1]

    def recent(self) -> float:
        """Median factor of the last three samples."""
        return statistics.median(self.factors[-3:])


class Loop:
    """Timed closed loop over a pool, with the correctness check outside the timing."""

    def __init__(self, workload, pool, tracer=None) -> None:
        self.workload = workload
        self.pool = pool
        self.tracer = tracer
        self.calibration = None
        self._since_sample = 0.0  # instance CPU time since the last reference sample
        self.cpu_s: list[float] = []
        self.indices: list[int] = []  # pool index of each timed instance
        self.factors: list[float] = []  # machine speed factor at each instance
        self.wall_s: list[float] = []
        self.outcomes = {}  # first-pass outcome per pool index
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def one(self, inst) -> None:
        """Run, time and check one instance.

        An exception from the program is a wrong result, like a wrong output:
        every instance is a member of its family, on which the learners stay
        within their budgets. A two-stage trial declares its failures in its
        report, and those are checked, and counted as failed, by the workload.
        """
        from workloads import WrongResult

        # Each instance starts from an empty collector, so its time does not
        # depend on garbage left by the instances and checks before it. The
        # reference work runs after the collection for the same reason.
        gc.collect()
        if self.calibration is not None:
            if self._since_sample >= CALIBRATION_INTERVAL_S:
                self.calibration.sample()
                self._since_sample = 0.0
            self.factors.append(self.calibration.recent())
        if self.tracer is not None:
            self.tracer.start_instance(inst.index)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = self.workload.run(inst)
        except Exception as exc:
            result = exc
        c1, w1 = time.process_time(), time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_instance()
        self.attempted += 1
        self.indices.append(inst.index)
        self.cpu_s.append(c1 - c0)
        self.wall_s.append(w1 - w0)
        self._since_sample += c1 - c0
        if isinstance(result, Exception):
            self.wrong.append(f"instance {inst.index}: raised {result!r}")
            return
        try:
            outcome = self.workload.check(inst, result)
        except WrongResult as exc:
            self.wrong.append(str(exc))
            return
        self.failed += outcome.failed
        self.outcomes.setdefault(inst.index, outcome)

    def run(self, seconds: float) -> None:
        """One pass over the pool, then whole shape cycles until ``seconds`` have passed."""
        self.calibration = Calibration()
        self._since_sample = CALIBRATION_INTERVAL_S
        deadline = time.perf_counter() + seconds
        n, cycle = len(self.pool), self.workload.cycle
        i = 0
        while i < n or i % cycle or time.perf_counter() < deadline:
            self.one(self.pool[i % n])
            i += 1

    def instance_ms(self, scaled: bool = True) -> list[float]:
        """Each pool instance's median CPU time in ms over its runs in the loop.

        Scaled times are at the nominal machine speed. A burst of
        interference that slows one run of an instance then does not reach
        the percentiles or the throughput, which are taken over pool
        instances.
        """
        factors = self.factors if scaled else [1.0] * len(self.cpu_s)
        runs: dict[int, list[float]] = {}
        for index, c, f in zip(self.indices, self.cpu_s, factors):
            runs.setdefault(index, []).append(c * f * 1e3)
        return [statistics.median(v) for v in runs.values()]


def figure_of_merit(workload, outcomes: dict, pool) -> dict:
    """Queries per shape next to the bounds they are set against."""
    p = workload.params
    rows = {}
    for inst in pool:
        o = outcomes.get(inst.index)
        if o is None:
            continue
        row = rows.setdefault(inst.shape, {"instances": 0, "queries": [], "phases": {}})
        row["instances"] += 1
        row["queries"].append(o.queries)
        for k, v in o.phases.items():
            row["phases"][k] = row["phases"].get(k, 0) + v
    table = {}
    for shape, row in rows.items():
        table[shape] = {
            "share": row["instances"] / len(pool),
            "queries_mean": statistics.fmean(row["queries"]),
            "queries_max": max(row["queries"]),
            **{f"{k}_mean": v / row["instances"] for k, v in row["phases"].items()},
        }
    queries = [o.queries for o in outcomes.values()] or [0]
    return {
        "workload": workload.name,
        "t": p.t, "s": p.s, "l": p.l,
        "queries_mean": statistics.fmean(queries),
        "queries_max": max(queries),
        "info_lower_bound": workload.lower_bound,
        "s_l_ceil_log2_t": p.s * p.l * (p.t - 1).bit_length(),
        "worst_case_query_budget": workload.budget,
        "shapes": table,
    }


def measure_setup(workload, seed: int, work_dir: Path):
    """Time set-up: a fresh interpreter's imports, then the pool and one warm instance.

    Imports run once per process, so each repeat times them in a child
    interpreter. Each repeat is scaled by reference samples taken right
    around it, and the median repeat is reported, so that neither a slow
    repeat nor a change of machine speed between set-up and the timed loop
    decides setup_s. Returns the scaled median, the last pool, the warm-up
    loops (their results are checked too) and the raw times.
    """
    calibration = Calibration()
    scaled, raw, loops = [], [], []
    for _ in range(SETUP_REPEATS):
        factors = [calibration.sample() for _ in range(2)]
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT)],
                               stdout=subprocess.PIPE, text=True, check=True)
        import_s = float(probe.stdout)
        c0 = time.process_time()
        pool = workload.setup(seed, work_dir)
        warm = Loop(workload, pool)
        warm.one(pool[0])
        build_s = time.process_time() - c0
        factors += [calibration.sample() for _ in range(2)]
        scaled.append((import_s + build_s) * statistics.median(factors))
        raw.append({"import": import_s, "build": build_s})
        loops.append(warm)
    return statistics.median(scaled), pool, loops, raw


def end_to_end(loop: Loop, workload, setup_s: float) -> dict:
    """The gated metrics."""
    outcomes = list(loop.outcomes.values())
    queries = [o.queries for o in outcomes] or [0]
    instance_ms = loop.instance_ms()
    values = {
        "setup_s": setup_s,
        "instances_per_cpu_s": 1e3 * len(instance_ms) / sum(instance_ms),
        "instance_cpu_ms_p50": statistics.median(instance_ms),
        "instance_cpu_ms_tail": percentile(instance_ms, tail_percentile(len(loop.pool))),
        "queries_mean": statistics.fmean(queries),
        "queries_tail": percentile(queries, tail_percentile(len(loop.pool))),
        "queries_over_lb": sum(queries) / (len(queries) * workload.lower_bound),
        "trials_per_instance": statistics.fmean(o.trials for o in outcomes) if outcomes else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def diagnostics(loop: Loop, label: str) -> dict:
    """Raw times beside the scaled ones.

    ``instance_cpu_ms_p50_raw`` and ``instance_cpu_ms_p50_scaled`` are taken
    the same way as the gated p50, without and with the speed factor. Between
    two commits run on the same machine, their ratios should agree; if the
    scaled ratio moves less than the raw one, the program moved the factor.
    """
    return {
        "phase": label,
        "samples": len(loop.cpu_s),
        "pool": len(loop.pool),
        "tail_percentile": tail_percentile(len(loop.pool)),
        "cpu_s_total": sum(loop.cpu_s),
        "wall_s_total": sum(loop.wall_s),
        "wall_ms_p50": statistics.median(loop.wall_s) * 1e3,
        "cpu_ms_p50": statistics.median(loop.cpu_s) * 1e3,
        "instance_cpu_ms_p50_raw": statistics.median(loop.instance_ms(scaled=False)),
        "instance_cpu_ms_p50_scaled": statistics.median(loop.instance_ms()),
        "calibration_samples": len(loop.calibration.factors),
        "speed_factor_p50": statistics.median(loop.calibration.factors),
    }


def run_all(args) -> int:
    """Run each workload in a fresh child process; exit nonzero if any child does."""
    _import_hhl()
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return child.returncode or 1
        status = status or child.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    _import_hhl()
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOAD_NAMES)}")
    print(json.dumps({"env": environment(args)}))

    work_dir = WORK_DIR / str(os.getpid())
    try:
        workload = workloads.make_workload(args.workload)
        setup_s, pool, checked, setup_raw = measure_setup(workload, args.seed, work_dir)

        loop = Loop(workload, pool)
        loop.run(args.seconds / 2 if args.trace else args.seconds)
        checked.append(loop)
        print(json.dumps({"diagnostics": diagnostics(loop, "untraced")}))

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                pool = workload.setup(args.seed, work_dir)
                traced = Loop(workload, pool, tracer)
                traced.run(0)
            finally:
                tracer.uninstall()
            checked.append(traced)
            print(json.dumps({"diagnostics": diagnostics(traced, "traced")}))
            WORK_DIR.mkdir(exist_ok=True)
            span_file = WORK_DIR / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write(span_file)
            print(json.dumps({"spans": str(span_file.relative_to(ROOT)),
                              "count": len(tracer.spans)}))
            metrics = tracing.layer_metrics(tracer.spans, len(traced.cpu_s),
                                            tracer.retained_bytes,
                                            statistics.median(traced.factors))
            metrics["trace.overhead"] = (
                statistics.median(traced.instance_ms()) / statistics.median(loop.instance_ms()),
                "ratio")
        else:
            metrics = end_to_end(loop, workload, setup_s)
            print(json.dumps({"setup_raw_cpu_s": setup_raw}))
        print(json.dumps({"figure_of_merit": figure_of_merit(workload, loop.outcomes, pool)}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wrong = [w for lp in checked for w in lp.wrong]
    for w in wrong:
        print(f"wrong result: {w}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(lp.attempted for lp in checked),
        "failed": sum(lp.failed for lp in checked),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
