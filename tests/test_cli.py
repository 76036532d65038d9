from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import limit_address_space
from hhl import FamilyParams, bounds, cf_rate_bounds, cli, info_lower_bound, load_hypergraph
from hhl.cli import main


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def exit_status(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_bounds_example(capsys):
    out = run_json(capsys, ["bounds", "--t", "4", "--s", "1", "--l", "2"])
    assert out == {
        "t": 4,
        "s": 1,
        "l": 2,
        "family_size": 11,
        "lower_bound_queries": 4,
    }


def test_bounds_csv(capsys):
    assert main(["bounds", "--t", "4", "--s", "1", "--l", "2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,s,l,family_size,lower_bound_queries"
    assert lines[1] == "4,1,2,11,4"


def test_bounds_counts_the_family_once(capsys, monkeypatch):
    # The count is the slow part at large s: 0.6-0.8 s at (1000, 16000, 3).
    calls = []
    count = bounds.family_size_exact

    def counted(params):
        calls.append(params)
        return count(params)

    monkeypatch.setattr(bounds, "family_size_exact", counted)
    monkeypatch.setattr(cli, "family_size_exact", counted)
    out = run_json(capsys, ["bounds", "--t", "1000", "--s", "40", "--l", "3"])
    assert calls == [FamilyParams(1000, 40, 3)]
    assert out["family_size"] == count(FamilyParams(1000, 40, 3))
    assert out["lower_bound_queries"] == info_lower_bound(FamilyParams(1000, 40, 3))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bounds_prints_a_family_size_past_the_int_digit_limit(capsys, fmt):
    # At t = 10**1000 two edges of size at most 3 give a 5999-digit family
    # size, past Python's default limit of 4300 digits, which stays set.
    t = 10**1000
    n = t + t * (t - 1) // 2 + t * (t - 1) * (t - 2) // 6
    want = 1 + n + n * (n - 1) // 2
    limit = sys.get_int_max_str_digits()
    assert main(["bounds", "--t", "1" + "0" * 1000, "--s", "2", "--l", "3",
                 "--format", fmt]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    if fmt == "json":
        size = out.split('"family_size": ')[1].split(",")[0]
        bound = out.split('"lower_bound_queries": ')[1].split()[0]
    else:
        size, bound = out.splitlines()[1].split(",")[3:]
    assert bound == str((want - 1).bit_length())
    sys.set_int_max_str_digits(0)
    try:
        assert size == str(want)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--t", "8", "--s", "1", "--l", "1"], id="gen"),
    pytest.param(["learn", "--s", "1", "--l", "1"], id="learn"),
    pytest.param(["bounds", "--s", "1", "--l", "2"], id="bounds"),
    pytest.param(["bench", "--t", "16", "--s", "2", "--seed", "1"], id="bench"),
    pytest.param(["twostage", "--s", "2", "--l", "2", "--seed", "1"], id="twostage"),
    pytest.param(["cf-verify", "--in", "code.txt", "--l", "1"], id="cf-verify"),
    pytest.param(["cf-search", "--t", "8", "--s", "1", "--l", "1"], id="cf-search"),
    pytest.param(["cf-bounds", "--s", "1"], id="cf-bounds"),
])
def test_bounds_missing_required(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gen", "learn", "bounds", "bench", "twostage",
                                     "cf-verify", "cf-search", "cf-bounds"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "HHL_OUT" in capsys.readouterr().out


def exit_outcome(capsys, parse) -> tuple:
    """The exit status, stdout and stderr of parse(), which must exit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse()
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def subcommands(parser) -> list[str]:
    return [name for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for name in action.choices]


# main builds only the running subcommand's parser; what it prints and how it
# exits must not tell, so each case runs against the parser of all eight.
@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in cli.SUBCOMMANDS),
    [], ["--help"], ["bogus"], ["-h", "learn"], ["learn"],
    ["learn", "--in", "inst.json", "--s", "two", "--l", "1"],
    # Unknown flags and arguments are reported under the top-level usage line.
    ["bounds", "--t", "4", "--s", "1", "--l", "2", "--bogus", "1"],
    ["cf-bounds", "--s", "1", "--l", "1", "extra"],
], ids=lambda argv: "_".join(argv) or "no-args")
def test_main_parses_like_the_parser_of_every_subcommand(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser()
    assert subcommands(full) == list(cli.SUBCOMMANDS)
    want = exit_outcome(capsys, lambda: full.parse_args(argv))
    assert exit_outcome(capsys, lambda: main(argv)) == want
    built = subcommands(cli.build_parser(argv[0] if argv else None))
    assert built == ([argv[0]] if argv and argv[0] in cli.SUBCOMMANDS else subcommands(full))


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--t", "4", "--s", "1", "--l", "2", "--bogus", "1"])
    assert exc.value.code == 2


def test_env_fallback_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("HHL_T", "4")
    out = run_json(capsys, ["bounds", "--s", "1", "--l", "2"])
    assert out["family_size"] == 11
    out = run_json(capsys, ["bounds", "--t", "5", "--s", "1", "--l", "2"])
    assert out["t"] == 5
    monkeypatch.setenv("HHL_SEED", "9")
    rows = run_json(capsys, ["bench", "--t", "8", "--s", "1", "--l", "1",
                             "--trials", "1"])
    assert rows[0]["seed"] == 9


# A bad HHL_ value fails only the subcommand that has the flag, and only when
# the flag itself is absent.
@pytest.mark.parametrize("env, value, argv, status", [
    pytest.param("HHL_T", "four", ["bounds", "--s", "1", "--l", "2"], 2,
                 id="bounds-t"),
    pytest.param("HHL_FORMAT", "xml", ["bounds", "--t", "4", "--s", "1", "--l", "2"], 2,
                 id="bounds-format-choice"),
    pytest.param("HHL_T", "four", ["bounds", "--t", "4", "--s", "1", "--l", "2"], 0,
                 id="bounds-flag-wins"),
    pytest.param("HHL_KIND", "bogus", ["bounds", "--t", "4", "--s", "1", "--l", "2"], 0,
                 id="bounds-other-kind"),
    pytest.param("HHL_T", "four", ["cf-bounds", "--s", "4", "--l", "1"], 0,
                 id="cf-bounds-other-t"),
])
def test_env_bad_value(monkeypatch, capsys, env, value, argv, status):
    monkeypatch.setenv(env, value)
    assert exit_status(argv) == status


def test_gen_learn_round_trip(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    argv = ["gen", "--t", "32", "--s", "2", "--l", "2", "--seed", "7",
            "--out", str(instance)]
    assert main(argv) == 0
    hidden = load_hypergraph(str(instance))

    transcript = tmp_path / "queries.jsonl"
    report = run_json(capsys, [
        "learn", "--in", str(instance), "--s", "2", "--l", "2",
        "--budget-enforce", "on", "--transcript", str(transcript),
    ])
    assert report["result_edges"] == [list(e) for e in hidden.sorted_edges()]
    assert report["queries_total"] == (
        report["queries_vertex_search"]
        + report["queries_edge_search"]
        + report["queries_query_search"]
    )
    records = [json.loads(ln) for ln in transcript.read_text().splitlines()]
    assert len(records) == report["queries_total"]
    assert records[0]["i"] == 1 and records[0]["a"] in (0, 1)


def test_learn_csv_projection(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    assert main(["gen", "--t", "16", "--s", "1", "--l", "2", "--seed", "2",
                 "--out", str(instance)]) == 0
    assert main(["learn", "--in", str(instance), "--s", "1", "--l", "2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("t,s,l,queries_total")
    assert len(lines) == 2


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--t", "64", "--s", "2", "--l", "2", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_disjoint_kind(capsys):
    out = run_json(capsys, ["gen", "--t", "12", "--s", "3", "--l", "2",
                            "--seed", "1", "--kind", "disjoint"])
    edges = [set(e) for e in out["edges"]]
    assert len(edges) == 3
    assert all(len(e) == 2 for e in edges)


def test_bench_csv_deterministic(capsys):
    argv = ["bench", "--sweep", "16:64:2", "--s", "2", "--l", "2",
            "--seed", "11", "--trials", "3", "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "t,s,l,seed,queries,lower_bound,rate,budget,within_budget"
    assert len(lines) == 1 + 3 * 3  # three t values, three trials each
    assert all(ln.endswith("true") for ln in lines[1:])


def test_bench_needs_sweep_or_t():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--s", "2", "--l", "2", "--seed", "1"])
    assert exc.value.code == 2


def test_bench_seed_mandatory():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--t", "16", "--s", "2", "--l", "2"])
    assert exc.value.code == 2


def test_bench_bad_sweep_is_usage_failure(capsys):
    assert main(["bench", "--sweep", "16:8:2", "--s", "1", "--l", "1",
                 "--seed", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_twostage_negative_seed_names_the_seed(capsys):
    assert main(["twostage", "--t", "16", "--s", "2", "--l", "2", "--seed", "-1",
                 "--trials", "1"]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: seed must be non-negative, got -1\n")


@pytest.mark.parametrize("cpus, trials, pool_sizes", [
    pytest.param(3, 8, [3], id="capped-at-cpus"),
    pytest.param(64, 2, [2], id="capped-at-tasks"),
    pytest.param(1, 8, [], id="one-cpu-serial"),
    pytest.param(None, 8, [], id="unknown-cpus-serial"),
])
def test_jobs_capped_at_cpus_and_tasks(monkeypatch, capsys, cpus, trials, pool_sizes):
    sizes = []

    class SerialPool:
        """Records the worker count it is asked for and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    argv = ["bench", "--t", "16", "--s", "1", "--l", "2", "--seed", "5",
            "--trials", str(trials)]
    serial = run_json(capsys, argv)
    assert run_json(capsys, argv + ["--jobs", "1000000"]) == serial
    assert sizes == pool_sizes


def test_bench_jobs_parallel_matches_serial(capsys):
    argv = ["bench", "--t", "32", "--s", "1", "--l", "2", "--seed", "5",
            "--trials", "4"]
    serial = run_json(capsys, argv)
    parallel = run_json(capsys, argv + ["--jobs", "2"])
    assert serial == parallel


def test_twostage_singleton_always_succeeds(capsys):
    out = run_json(capsys, ["twostage", "--t", "24", "--s", "1", "--l", "2",
                            "--seed", "2", "--trials", "5"])
    assert out["aggregate"]["success_rate"] == 1.0
    assert all(r["success"] for r in out["trials"])
    assert {r["stage1_queries"] for r in out["trials"]} == {1}


def test_twostage_csv(capsys):
    assert main(["twostage", "--t", "16", "--s", "2", "--l", "2", "--seed", "4",
                 "--trials", "2", "--layers", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("t,s,l,seed,epsilon,layers,stage1_queries")
    assert len(lines) == 3


def cli_error(argv, preexec_fn=None) -> str:
    """Run the CLI in a child process, check that it failed cleanly, and
    return its stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "hhl.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=preexec_fn,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    return proc.stderr


# (8, 3): 1 - s!/s**(s*l) rounds to 1.0. (6, 3): N is about 4 * 10**11 layers.
@pytest.mark.parametrize("s, l", [(8, 3), (6, 3)])
def test_twostage_hopeless_layer_count_is_an_error(s, l):
    cli_error(["twostage", "--t", "64", "--s", str(s), "--l", str(l),
               "--seed", "0", "--trials", "1"])


def test_twostage_oversized_block_design_is_an_error():
    # Stage-two blocks of about 32768 vertices have about 5.4e8 candidate
    # pairs, above coverfree.MAX_DESIGN_CANDIDATES.
    stderr = cli_error(["twostage", "--t", "65536", "--s", "2", "--l", "2",
                        "--seed", "0", "--trials", "1"])
    assert "candidate edges" in stderr


def test_cf_verify_over_the_column_set_cap_is_an_error(tmp_path):
    # 6000 + C(6000, 2) column sets of size <= 2 exceed the cap; the work
    # limit admits the 1.1e11 pair-row checks, so the cap is what refuses.
    code = tmp_path / "code.txt"
    code.write_text("1 6000\n" + "0" * 6000 + "\n")
    stderr = cli_error(["cf-verify", "--in", str(code), "--s", "1", "--l", "2",
                        "--work-limit", str(10**18)])
    assert "candidate edges" in stderr


HUGE_T = str(10**30)


@pytest.mark.parametrize("argv", [
    ["gen", "--t", HUGE_T, "--s", "1", "--l", "1", "--seed", "0",
     "--kind", "disjoint"],
    ["bench", "--t", HUGE_T, "--s", "1", "--l", "1", "--seed", "0",
     "--trials", "1"],
])
def test_huge_t_is_an_error(argv):
    cli_error(argv)


def test_oversized_family_count_is_an_error():
    # 10**5 terms of up to 2 * 10**7 bits each: minutes of big-int steps.
    stderr = cli_error(["bounds", "--t", str(10**20), "--s", "100000", "--l", "3"])
    assert "counting 100000 terms over a 197-bit number of candidate edges" in stderr


def test_cf_search_oversized_t_is_refused_before_drawing():
    # 2**40 columns are far above coverfree.MAX_DESIGN_CANDIDATES; a row of
    # 2**40 random draws would run for hours before the verifier refused it.
    stderr = cli_error(["cf-search", "--t", str(2**40), "--s", "1", "--l", "1",
                        "--seed", "0"], preexec_fn=limit_address_space)
    assert "candidate edges" in stderr


def test_learn_huge_t_is_learned(tmp_path):
    # Learner queries are run-coded, so nothing in a learn run is t bits
    # wide: a mask of 10**30 bits would not fit in any memory.
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"t": {HUGE_T}, "edges": [[1], [{HUGE_T}]]}}\n')
    proc = subprocess.run(
        [sys.executable, "-m", "hhl.cli", "learn", "--in", str(inst), "--s", "2",
         "--l", "1", "--budget-enforce", "on", "--format", "json"],
        capture_output=True, text=True, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["result_edges"] == [[1], [10**30]]
    # Two vertex searches of at most ceil(log2 t) = 100 queries each, then
    # 1 + 2 edge-search queries and three next-query probes.
    assert out["queries_total"] <= 2 * 100 + 3 + 3
    assert out["queries_edge_search"] == out["queries_query_search"] == 3


def test_learn_transcript_over_the_cap_is_an_error(tmp_path):
    # The first query of a learn run is the whole universe, whose 2**50
    # members would take petabytes of JSON: refused before any text is built.
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"t": {2**50}, "edges": []}}\n')
    stderr = cli_error(["learn", "--in", str(inst), "--s", "1", "--l", "1",
                        "--transcript", str(tmp_path / "transcript.jsonl")],
                       preexec_fn=limit_address_space)
    assert "transcript" in stderr and str(2**30) in stderr
    assert not (tmp_path / "transcript.jsonl").exists()


def test_cf_search_and_verify(tmp_path, capsys):
    code_file = tmp_path / "code.txt"
    out = run_json(capsys, ["cf-search", "--t", "8", "--s", "1", "--l", "1",
                            "--max-n", "16", "--seed", "0",
                            "--out", str(code_file)])
    assert out["found"] is True
    verdict = run_json(capsys, ["cf-verify", "--in", str(code_file),
                                "--s", "1", "--l", "1"])
    assert verdict["cover_free"] is True
    assert verdict["violation"] is None


def test_cf_verify_reports_violation(tmp_path, capsys):
    bad = tmp_path / "zeros.txt"
    bad.write_text("2 4\n0000\n0000\n")
    verdict = run_json(capsys, ["cf-verify", "--in", str(bad),
                                "--s", "1", "--l", "1"])
    assert verdict["cover_free"] is False
    assert len(verdict["violation"]["zero_cols"]) == 1
    assert len(verdict["violation"]["one_cols"]) == 1


def test_cf_bounds(capsys):
    out = run_json(capsys, ["cf-bounds", "--s", "4", "--l", "1"])
    lower, upper = cf_rate_bounds(4, 1)
    assert out["rate_lower"] == pytest.approx(lower)
    assert out["rate_upper"] == pytest.approx(upper)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hhl.cli",
         "bounds", "--t", "4", "--s", "1", "--l", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["family_size"] == 11


# Run by a fresh interpreter: import the CLI, run each argument list of the
# JSON in argv[1], and print the exit statuses, which of HEAVY were imported
# after the import and after the runs, and the process's thread count.
FRESH_RUN = """
import json, os, sys
from hhl.cli import main
HEAVY = ("numpy._core", "concurrent.futures.process")
loaded = [[m for m in HEAVY if m in sys.modules]]
statuses = [main(argv) for argv in json.loads(sys.argv[1])]
loaded.append([m for m in HEAVY if m in sys.modules])
threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps({"statuses": statuses, "loaded": loaded, "threads": threads}))
"""


def child_env() -> dict:
    # A child interpreter imports the hhl that this test imported, from any cwd.
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def fresh_run(cwd, *argvs) -> dict:
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(argvs)],
                          cwd=cwd, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_without_numpy_is_an_import_error():
    # numpy loads on first use, but its absence still shows at import.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.modules['numpy'] = None; import hhl"],
        env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "ModuleNotFoundError: No module named 'numpy'" in proc.stderr


def test_learner_commands_load_neither_numpy_nor_a_process_pool(tmp_path):
    # numpy's import costs more CPU than a learner run and starts BLAS
    # threads; none of these commands calls numpy or forks a worker.
    shape = ["--s", "3", "--l", "2"]
    out = fresh_run(
        tmp_path,
        ["gen", "--t", "4096", *shape, "--seed", "1", "--out", "inst.json"],
        ["learn", "--in", "inst.json", *shape, "--out", "learn.json"],
        ["learn", "--in", "inst.json", *shape, "--transcript", "transcript.jsonl",
         "--out", "learn.json"],
        ["bench", "--t", "4096", *shape, "--seed", "1", "--trials", "2",
         "--out", "bench.json"],
        ["bounds", "--t", "1024", *shape, "--out", "bounds.json"],
    )
    assert out["statuses"] == [0] * 5
    assert out["loaded"] == [[], []]
    if sys.platform == "linux":
        assert out["threads"] == 1
    records = (tmp_path / "transcript.jsonl").read_text().splitlines()
    assert len(records) == json.loads((tmp_path / "learn.json").read_text())["queries_total"]


@pytest.mark.parametrize("argv", [
    ["twostage", "--t", "64", "--s", "2", "--l", "2", "--seed", "1", "--trials", "2"],
    ["cf-verify", "--in", "code.txt", "--s", "1", "--l", "1"],
], ids=lambda argv: argv[0])
def test_numpy_commands_load_it_on_first_use(tmp_path, argv):
    (tmp_path / "code.txt").write_text("2 4\n0011\n0101\n")
    out = fresh_run(tmp_path, argv + ["--out", "out.json"])
    assert out["statuses"] == [0]
    assert out["loaded"] == [[], ["numpy._core"]]
    assert json.loads((tmp_path / "out.json").read_text())


# The CLI's output contract at fixed seeds: stdout and every file a run
# writes, byte for byte, for each subcommand in each of its formats. "{d}" is
# the run's directory, which holds CODE as code.txt and INST as inst.json.
CODE = "3 4\n0011\n0101\n1001\n"
INST = '{"t": 6, "edges": [[2, 5]]}\n'
PINNED = [
    pytest.param(
        ["gen", "--t", "12", "--s", "2", "--l", "2", "--seed", "0"],
        (
            '{\n'
            '  "t": 12,\n'
            '  "edges": [\n'
            '    [\n'
            '      1,\n'
            '      7\n'
            '    ]\n'
            '  ]\n'
            '}\n'
        ),
        {},
        id="gen-json",
    ),
    pytest.param(
        ["gen", "--t", "12", "--s", "2", "--l", "2", "--seed", "3", "--kind",
         "disjoint", "--out", "{d}/gen.json"],
        '',
        {
            'gen.json': '{"t": 12, "edges": [[3, 9], [4, 10]]}\n',
        },
        id="gen-out",
    ),
    pytest.param(
        ["learn", "--in", "{d}/inst.json", "--s", "2", "--l", "2", "--transcript",
         "{d}/q.jsonl"],
        (
            '{\n'
            '  "t": 6,\n'
            '  "s": 2,\n'
            '  "l": 2,\n'
            '  "queries_total": 15,\n'
            '  "queries_vertex_search": 6,\n'
            '  "queries_edge_search": 4,\n'
            '  "queries_query_search": 5,\n'
            '  "result_edges": [\n'
            '    [\n'
            '      2,\n'
            '      5\n'
            '    ]\n'
            '  ]\n'
            '}\n'
        ),
        {
            'q.jsonl': (
                '{"i": 1, "q": [1, 2, 3, 4, 5, 6], "a": 1}\n'
                '{"i": 2, "q": [1, 2, 3], "a": 0}\n'
                '{"i": 3, "q": [1, 2, 3, 4, 5], "a": 1}\n'
                '{"i": 4, "q": [1, 2, 3, 4], "a": 0}\n'
                '{"i": 5, "q": [5], "a": 0}\n'
                '{"i": 6, "q": [1, 2, 3, 4, 5, 6], "a": 1}\n'
                '{"i": 7, "q": [1, 2, 3, 5], "a": 1}\n'
                '{"i": 8, "q": [1, 2, 5], "a": 1}\n'
                '{"i": 9, "q": [1, 5], "a": 0}\n'
                '{"i": 10, "q": [2], "a": 0}\n'
                '{"i": 11, "q": [5], "a": 0}\n'
                '{"i": 12, "q": [2, 5], "a": 1}\n'
                '{"i": 13, "q": [1, 3, 4, 6], "a": 0}\n'
                '{"i": 14, "q": [1, 2, 3, 4, 6], "a": 0}\n'
                '{"i": 15, "q": [1, 3, 4, 5, 6], "a": 0}\n'
            ),
        },
        id="learn-json",
    ),
    pytest.param(
        ["learn", "--in", "{d}/inst.json", "--s", "2", "--l", "2", "--format", "csv",
         "--out", "{d}/r.csv"],
        '',
        {
            'r.csv': (
                't,s,l,queries_total,queries_vertex_search,queries_edge_search,queries_query_search,result_edges\n'
                '6,2,2,15,6,4,5,"[[2, 5]]"\n'
            ),
        },
        id="learn-csv",
    ),
    pytest.param(
        ["bounds", "--t", "6", "--s", "2", "--l", "2"],
        (
            '{\n'
            '  "t": 6,\n'
            '  "s": 2,\n'
            '  "l": 2,\n'
            '  "family_size": 232,\n'
            '  "lower_bound_queries": 8\n'
            '}\n'
        ),
        {},
        id="bounds-json",
    ),
    pytest.param(
        ["bounds", "--t", "6", "--s", "2", "--l", "2", "--format", "csv"],
        (
            't,s,l,family_size,lower_bound_queries\n'
            '6,2,2,232,8\n'
        ),
        {},
        id="bounds-csv",
    ),
    pytest.param(
        ["bench", "--t", "16", "--s", "1", "--l", "2", "--seed", "5", "--trials", "2"],
        (
            '[\n'
            '  {\n'
            '    "t": 16,\n'
            '    "s": 1,\n'
            '    "l": 2,\n'
            '    "seed": 5,\n'
            '    "queries": 17,\n'
            '    "lower_bound": 8,\n'
            '    "rate": 0.23529411764705882,\n'
            '    "budget": 24,\n'
            '    "within_budget": true\n'
            '  },\n'
            '  {\n'
            '    "t": 16,\n'
            '    "s": 1,\n'
            '    "l": 2,\n'
            '    "seed": 6,\n'
            '    "queries": 1,\n'
            '    "lower_bound": 8,\n'
            '    "rate": 4.0,\n'
            '    "budget": 24,\n'
            '    "within_budget": true\n'
            '  }\n'
            ']\n'
        ),
        {},
        id="bench-json",
    ),
    pytest.param(
        ["bench", "--sweep", "8:16:2", "--s", "2", "--l", "1", "--seed", "5",
         "--trials", "1", "--format", "csv", "--out", "{d}/b.csv"],
        '',
        {
            'b.csv': (
                't,s,l,seed,queries,lower_bound,rate,budget,within_budget\n'
                '8,2,1,5,12,6,0.25,20,true\n'
                '16,2,1,5,14,8,0.2857142857142857,22,true\n'
            ),
        },
        id="bench-csv",
    ),
    pytest.param(
        ["twostage", "--t", "16", "--s", "2", "--l", "2", "--seed", "4", "--trials",
         "2", "--layers", "1"],
        (
            '{\n'
            '  "trials": [\n'
            '    {\n'
            '      "t": 16,\n'
            '      "s": 2,\n'
            '      "l": 2,\n'
            '      "epsilon": 0.05,\n'
            '      "layers": 1,\n'
            '      "stage1_queries": 2,\n'
            '      "stage2_queries": 48,\n'
            '      "success": true,\n'
            '      "recovered_edges": [\n'
            '        [\n'
            '          2,\n'
            '          12\n'
            '        ],\n'
            '        [\n'
            '          5,\n'
            '          8\n'
            '        ]\n'
            '      ],\n'
            '      "seed": 4\n'
            '    },\n'
            '    {\n'
            '      "t": 16,\n'
            '      "s": 2,\n'
            '      "l": 2,\n'
            '      "epsilon": 0.05,\n'
            '      "layers": 1,\n'
            '      "stage1_queries": 2,\n'
            '      "stage2_queries": 0,\n'
            '      "success": false,\n'
            '      "recovered_edges": null,\n'
            '      "seed": 5\n'
            '    }\n'
            '  ],\n'
            '  "aggregate": {\n'
            '    "trials": 2,\n'
            '    "success_rate": 0.5,\n'
            '    "mean_stage1": 2.0,\n'
            '    "mean_stage2": 48.0\n'
            '  }\n'
            '}\n'
        ),
        {},
        id="twostage-json",
    ),
    pytest.param(
        ["twostage", "--t", "16", "--s", "2", "--l", "2", "--seed", "4", "--trials",
         "2", "--layers", "1", "--format", "csv"],
        (
            't,s,l,seed,epsilon,layers,stage1_queries,stage2_queries,success,recovered_edges\n'
            '16,2,2,4,0.05,1,2,48,true,"[[2, 12], [5, 8]]"\n'
            '16,2,2,5,0.05,1,2,0,false,null\n'
        ),
        {},
        id="twostage-csv",
    ),
    pytest.param(
        ["cf-verify", "--in", "{d}/code.txt", "--s", "1", "--l", "1"],
        (
            '{\n'
            '  "n_rows": 3,\n'
            '  "n_cols": 4,\n'
            '  "s": 1,\n'
            '  "l": 1,\n'
            '  "cover_free": false,\n'
            '  "violation": {\n'
            '    "zero_cols": [\n'
            '      4\n'
            '    ],\n'
            '    "one_cols": [\n'
            '      1\n'
            '    ]\n'
            '  }\n'
            '}\n'
        ),
        {},
        id="cf-verify-json",
    ),
    pytest.param(
        ["cf-verify", "--in", "{d}/code.txt", "--s", "2", "--l", "1", "--format", "csv"],
        (
            'n_rows,n_cols,s,l,cover_free,violation\n'
            '3,4,2,1,false,"{""zero_cols"": [1, 4], ""one_cols"": [2]}"\n'
        ),
        {},
        id="cf-verify-csv",
    ),
    pytest.param(
        ["cf-search", "--t", "4", "--s", "1", "--l", "1", "--max-n", "16", "--seed",
         "0", "--out", "{d}/found.txt"],
        (
            '{\n'
            '  "t": 4,\n'
            '  "s": 1,\n'
            '  "l": 1,\n'
            '  "found": true,\n'
            '  "n_rows": 16\n'
            '}\n'
        ),
        {
            'found.txt': (
                '16 4\n'
                '0000\n'
                '0101\n'
                '0111\n'
                '0011\n'
                '0000\n'
                '0001\n'
                '0100\n'
                '0000\n'
                '1000\n'
                '0101\n'
                '0010\n'
                '1101\n'
                '0110\n'
                '1000\n'
                '0100\n'
                '0110\n'
            ),
        },
        id="cf-search-found",
    ),
    pytest.param(
        ["cf-search", "--t", "8", "--s", "2", "--l", "2", "--max-n", "4", "--seed",
         "0", "--format", "csv", "--out", "{d}/none.txt"],
        (
            't,s,l,found,n_rows\n'
            '8,2,2,false,null\n'
        ),
        {},
        id="cf-search-none-csv",
    ),
    pytest.param(
        ["cf-bounds", "--s", "2", "--l", "1"],
        (
            '{\n'
            '  "s": 2,\n'
            '  "l": 1,\n'
            '  "rate_lower": 0.13268446135576076,\n'
            '  "rate_upper": 0.5\n'
            '}\n'
        ),
        {},
        id="cf-bounds-json",
    ),
    pytest.param(
        ["cf-bounds", "--s", "2", "--l", "1", "--format", "csv"],
        (
            's,l,rate_lower,rate_upper\n'
            '2,1,0.13268446135576076,0.5\n'
        ),
        {},
        id="cf-bounds-csv",
    ),
]


@pytest.mark.parametrize("argv, stdout, files", PINNED)
def test_cli_bytes_pinned(tmp_path, capsys, argv, stdout, files):
    (tmp_path / "code.txt").write_text(CODE)
    (tmp_path / "inst.json").write_text(INST)
    assert main([arg.format(d=tmp_path) for arg in argv]) == 0
    assert capsys.readouterr().out == stdout
    written = {p.name: p.read_bytes().decode() for p in tmp_path.iterdir()
               if p.name not in ("code.txt", "inst.json")}
    assert written == files
