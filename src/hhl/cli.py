"""Command-line front end: instance generation, learning runs, benchmark
sweeps, bound tables, cover-free verification, and two-stage trials.

Every flag can also be supplied through the environment with the HHL_
prefix (--max-n becomes HHL_MAX_N); explicit flags win over the
environment, which wins over built-in defaults. An environment value is
checked only by the subcommand that runs, so a bad HHL_KIND cannot break
hhl bounds; only that subcommand's options are built. --seed exists on
gen, bench, twostage and cf-search only. --jobs is capped at the CPU count
and at the number of tasks.

Each command returns its JSON payload and its CSV rows; main encodes them
once and writes them to stdout (or --out), diagnostics to stderr. JSON is
the canonical format; CSV is a flat projection of the same rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from ._numpy import np
from .bounds import ceil_log2, family_size_exact, info_lower_bound, rate_point
from .core import (
    FamilyParams,
    load_hypergraph,
    hypergraph_to_dict,
    random_disjoint_instance,
    random_family_instance,
    save_hypergraph,
)
from .coverfree import (
    cf_rate_bounds,
    find_violation,
    load_code,
    save_code,
    search_random_cf_code,
)
from .learner import learn_detailed, worst_case_query_budget
from .oracle import Oracle
from .twostage import two_stage_trial

ENV_PREFIX = "HHL_"

BENCH_COLUMNS = (
    "t",
    "s",
    "l",
    "seed",
    "queries",
    "lower_bound",
    "rate",
    "budget",
    "within_budget",
)
TRIAL_COLUMNS = (
    "t",
    "s",
    "l",
    "seed",
    "epsilon",
    "layers",
    "stage1_queries",
    "stage2_queries",
    "success",
    "recovered_edges",
)


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()


def _opt(sub: argparse.ArgumentParser, flag: str, *, type=str, default=None,
         choices=None, required: bool = False, help: str = "") -> None:
    env = _env_name(flag)
    # A string default goes through `type` only when the flag is absent, and
    # only in the subcommand that runs; argparse never checks it against
    # `choices`, so `type` does that.
    default = os.environ.get(env, default)
    if choices is not None:
        def type(text: str) -> str:
            if text not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {text!r} (choose from {', '.join(choices)})")
            return text
    sub.add_argument(flag, type=type, default=default, choices=choices,
                     required=required and default is None,
                     help=f"{help} [env {env}]")


def _csv_text(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = dict(row)
        for key, val in flat.items():
            if isinstance(val, (list, dict, bool)) or val is None:
                flat[key] = json.dumps(val)
        writer.writerow(flat)
    return buf.getvalue()


def _parse_sweep(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad sweep {text!r}, expected t_min:t_max:factor")
    t_min, t_max, factor = (int(p) for p in parts)
    if t_min < 2 or t_max < t_min or factor < 2:
        raise ValueError(f"bad sweep {text!r}: need 2 <= t_min <= t_max, factor >= 2")
    values = []
    t = t_min
    while t <= t_max:
        values.append(t)
        t *= factor
    return values


def _map_ordered(fn, items, jobs: int) -> list:
    jobs = min(jobs, os.cpu_count() or 1, len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _bench_trial(cfg: tuple[int, int, int, int, bool]) -> dict:
    t, s, l, seed, enforce = cfg
    params = FamilyParams(t, s, l)
    hidden = random_family_instance(params, sperner_only=True, seed=seed)
    budget = worst_case_query_budget(params)
    oracle = Oracle(hidden, budget=budget if enforce else None)
    report = learn_detailed(oracle, params)
    return {
        "t": t,
        "s": s,
        "l": l,
        "seed": seed,
        "queries": report.queries_total,
        "lower_bound": info_lower_bound(params),
        "rate": rate_point(t, report.queries_total),
        "budget": budget,
        "within_budget": report.queries_total <= budget,
    }


def _twostage_one(cfg: tuple[int, int, int, int, float, int | None]) -> dict:
    t, s, l, seed, epsilon, layers = cfg
    params = FamilyParams(t, s, l)
    hidden = random_disjoint_instance(params, seed=seed)
    oracle = Oracle(hidden)
    report = two_stage_trial(oracle, params, epsilon, seed, n_layers=layers)
    row = report.to_dict()
    row["seed"] = seed
    return row


def _cmd_gen(args, parser) -> tuple[object, list[dict]] | None:
    params = FamilyParams(args.t, args.s, args.l)
    if args.kind == "disjoint":
        hidden = random_disjoint_instance(params, seed=args.seed)
    else:
        hidden = random_family_instance(
            params, sperner_only=(args.kind == "sperner"), seed=args.seed
        )
    if args.out:
        save_hypergraph(args.out, hidden)  # compact JSON, unlike stdout
        return None
    payload = hypergraph_to_dict(hidden)
    return payload, [payload]


def _cmd_learn(args, parser) -> tuple[object, list[dict]]:
    hidden = load_hypergraph(getattr(args, "in"))
    params = FamilyParams(hidden.t, args.s, args.l)
    budget = worst_case_query_budget(params) if args.budget_enforce == "on" else None
    oracle = Oracle(hidden, budget=budget)
    report = learn_detailed(oracle, params)
    if args.transcript:
        oracle.write_transcript(args.transcript)
    payload = report.to_dict()
    return payload, [payload]


def _cmd_bounds(args, parser) -> tuple[object, list[dict]]:
    size = family_size_exact(FamilyParams(args.t, args.s, args.l))
    payload = {
        "t": args.t,
        "s": args.s,
        "l": args.l,
        "family_size": size,
        "lower_bound_queries": ceil_log2(size),
    }
    return payload, [payload]


def _cmd_bench(args, parser) -> tuple[object, list[dict]]:
    if args.sweep is None and args.t is None:
        parser.error("bench needs --sweep or --t")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    ts = _parse_sweep(args.sweep) if args.sweep else [args.t]
    enforce = args.budget_enforce == "on"
    configs = [
        (t, args.s, args.l, args.seed + i, enforce)
        for t in ts
        for i in range(args.trials)
    ]
    rows = _map_ordered(_bench_trial, configs, args.jobs)
    return rows, rows


def _cmd_twostage(args, parser) -> tuple[object, list[dict]]:
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if not 0 < args.epsilon < 1:
        parser.error("--epsilon must lie in (0, 1)")
    configs = [
        (args.t, args.s, args.l, args.seed + i, args.epsilon, args.layers)
        for i in range(args.trials)
    ]
    np.ndarray  # loads numpy before workers fork, so they inherit it
    rows = _map_ordered(_twostage_one, configs, args.jobs)
    successes = [r for r in rows if r["success"]]
    aggregate = {
        "trials": len(rows),
        "success_rate": len(successes) / len(rows),
        "mean_stage1": sum(r["stage1_queries"] for r in rows) / len(rows),
        "mean_stage2": (
            sum(r["stage2_queries"] for r in successes) / len(successes)
            if successes
            else 0.0
        ),
    }
    return {"trials": rows, "aggregate": aggregate}, rows


def _cmd_cf_verify(args, parser) -> tuple[object, list[dict]]:
    code = load_code(getattr(args, "in"))
    violation = find_violation(code, args.s, args.l, work_limit=args.work_limit)
    payload = {
        "n_rows": code.n_rows,
        "n_cols": code.n_cols,
        "s": args.s,
        "l": args.l,
        "cover_free": violation is None,
        "violation": (
            None
            if violation is None
            else {"zero_cols": list(violation[0]), "one_cols": list(violation[1])}
        ),
    }
    return payload, [payload]


def _cmd_cf_search(args, parser) -> tuple[object, list[dict]]:
    code = search_random_cf_code(args.t, args.s, args.l, args.max_n, seed=args.seed)
    payload = {
        "t": args.t,
        "s": args.s,
        "l": args.l,
        "found": code is not None,
        "n_rows": None if code is None else code.n_rows,
    }
    if code is not None and args.out:
        save_code(args.out, code)
    args.out = None  # --out took the code file; the summary always goes to stdout
    return payload, [payload]


def _cmd_cf_bounds(args, parser) -> tuple[object, list[dict]]:
    lower, upper = cf_rate_bounds(args.s, args.l)
    payload = {"s": args.s, "l": args.l, "rate_lower": lower, "rate_upper": upper}
    return payload, [payload]


def _need(flag: str, help: str, type=int) -> tuple[str, dict]:
    return flag, {"type": type, "required": True, "help": help}


_T, _S, _L = (_need("--t", "number of vertices"), _need("--s", "maximum number of edges"),
              _need("--l", "maximum edge size"))
_CF_S, _CF_L = _need("--s", "all-zero column set size"), _need("--l", "all-one column set size")
_FIRST_SEED = _need("--seed", "RNG seed of the first trial")
_JOBS = ("--jobs", {"type": int, "default": 1, "help": "parallel worker processes"})

# Each subcommand's add_parser keywords, its options as (flag, _opt keywords)
# in help order, and its set_defaults keywords. Every subcommand then takes
# --out, and all but gen --format.
SUBCOMMANDS = {
    "gen": ({"help": "generate a hidden hypergraph instance"}, [
        _T, _S, _L, _need("--seed", "RNG seed"),
        ("--kind", {"default": "sperner", "choices": ("sperner", "family", "disjoint"),
                    "help": "sperner: antichain member; family: any member; "
                            "disjoint: s disjoint edges of size exactly l"}),
    ], {"func": _cmd_gen}),
    "learn": ({"help": "run the adaptive learner on an instance file"}, [
        _need("--in", "hidden hypergraph JSON file", str), _S, _L,
        ("--budget-enforce", {"default": "off", "choices": ("on", "off"), "help":
                              "make the oracle fail the run past the worst-case budget"}),
        ("--transcript", {"help": "write the query transcript (JSON lines) here"}),
    ], {"func": _cmd_learn}),
    "bounds": ({"help": "family size and query lower bound"}, [_T, _S, _L],
               {"func": _cmd_bounds}),
    "bench": ({"help": "learner query-count sweep; CSV columns: " + ",".join(BENCH_COLUMNS)}, [
        ("--t", {"type": int, "help": "single vertex count (alternative to --sweep)"}),
        _S, _L, _FIRST_SEED,
        ("--sweep", {"help": "t_min:t_max:factor geometric sweep of t"}),
        ("--trials", {"type": int, "default": 10, "help": "instances per t"}),
        _JOBS,
        ("--budget-enforce", {"default": "off", "choices": ("on", "off"), "help":
                              "make the oracle fail runs past the worst-case budget"}),
    ], {"func": _cmd_bench, "columns": BENCH_COLUMNS}),
    "twostage": ({"help": "two-stage trials; CSV columns: " + ",".join(TRIAL_COLUMNS)}, [
        _T, _need("--s", "number of disjoint edges"), _need("--l", "edge size"), _FIRST_SEED,
        ("--epsilon", {"type": float, "default": 0.05,
                       "help": "stage-one failure probability target"}),
        ("--trials", {"type": int, "default": 10, "help": "number of trials"}),
        ("--layers", {"type": int, "help": "override the computed layer count"}),
        _JOBS,
    ], {"func": _cmd_twostage, "columns": TRIAL_COLUMNS}),
    "cf-verify": ({"help": "verify a code file is cover-free"}, [
        _need("--in", "code file: first line 'N t', then N rows of 0/1", str), _CF_S, _CF_L,
        ("--work-limit", {"type": int, "default": 100_000_000,
                          "help": "refuse verifications above this many pair-row checks"}),
    ], {"func": _cmd_cf_verify}),
    "cf-search": ({"help": "randomized search for a cover-free code",
                   "description": "--out stores the found code file; the JSON/CSV "
                                  "summary always goes to stdout."}, [
        _need("--t", "code size (columns)"), _CF_S, _CF_L, _need("--seed", "RNG seed"),
        ("--max-n", {"type": int, "default": 64, "help": "largest code length to try"}),
    ], {"func": _cmd_cf_search}),
    "cf-bounds": ({"help": "numeric cover-free rate bound guides"}, [_CF_S, _CF_L],
                  {"func": _cmd_cf_bounds}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The hhl parser, with only command's subparser when command names one
    and with all of them otherwise."""
    parser = argparse.ArgumentParser(
        prog="hhl",
        description=(
            "Learn hidden hypergraphs through simulated edge-detecting "
            "queries: adaptive learner, information-theoretic bounds, "
            "cover-free codes, and the two-stage strategy."
        ),
    )
    one = command in SUBCOMMANDS
    names = [command] if one else list(SUBCOMMANDS)
    # The top-level usage line, under which an unknown flag is reported,
    # lists every subcommand however many were built. No error names the
    # metavar, as the one subcommand built is the one given.
    every = "{" + ",".join(SUBCOMMANDS) + "}" if one else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        keywords, options, defaults = SUBCOMMANDS[name]
        p = sub.add_parser(name, **keywords)
        for flag, spec in options:
            _opt(p, flag, **spec)
        _opt(p, "--out", help="write output to this path instead of stdout")
        if name != "gen":
            _opt(p, "--format", default="json", choices=("json", "csv"),
                 help="output encoding")
        p.set_defaults(**defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        result = args.func(args, parser)
        if result is None:
            return 0
        payload, rows = result
        # A family size runs to as many digits as bounds' work cap admits
        # (71,230 at --t 1000 --s 16000 --l 3), past Python's int-to-str
        # limit, so the limit is lifted while output, and no input, is
        # formatted. Python before 3.10.7 has no limit: int() is 0.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            if getattr(args, "format", "json") == "csv":
                text = _csv_text(rows, getattr(args, "columns", None) or rows[0].keys())
            else:
                text = json.dumps(payload, indent=2) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, RuntimeError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
