"""Tests of the benchmark's own logic: the instance generator, the tail
percentile rule, self times and the per-layer metrics of a traced run.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hhl import learner  # noqa: E402
from hhl.core import FamilyParams, is_sperner, member_of_family  # noqa: E402
from hhl.oracle import Oracle  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PARAMS = [FamilyParams(2**20, 3, 2), FamilyParams(2**12, 4, 3), FamilyParams(2**12, 3, 2),
          FamilyParams(130, 2, 2)]


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"{p.t}-{p.s}-{p.l}")
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_pool_instances_are_sperner_family_members_of_their_shape(params, seed):
    t, s, l = params.t, params.s, params.l
    pool = workloads.instance_pool(params, 40, seed)
    boundary = set(workloads._boundary_vertices(t))
    sparse_counts = set()
    for i, (shape, h) in enumerate(pool):
        assert shape == workloads.SHAPES[i % len(workloads.SHAPES)]
        assert is_sperner(h) and member_of_family(h, params)
        edges = h.sorted_edges()
        union = [v for e in edges for v in e]
        if shape in ("disjoint", "mixed", "sparse", "boundary"):
            assert len(union) == len(set(union)), "edges must be pairwise disjoint"
        if shape == "disjoint":
            assert [len(e) for e in edges] == [l] * s
        elif shape == "sunflower":
            assert [len(e) for e in edges] == [l] * s
            core = set.intersection(*map(set, edges))
            assert len(core) == 1
            assert all(set(a) & set(b) == core for a in edges for b in edges if a != b)
        elif shape == "mixed":
            assert sorted(len(e) for e in edges) == sorted(1 + j % l for j in range(s))
        elif shape == "sparse":
            assert len(edges) < s
            sparse_counts.add(len(edges))
        elif shape == "boundary":
            assert [len(e) for e in edges] == [l] * s
            assert {1, t} <= set(union)
            assert set(union) - {1, t} <= boundary
    assert sparse_counts == set(range(s)), "sparse instances cover 0..s-1 edges"


def test_pool_is_deterministic_in_the_seed():
    p = PARAMS[1]
    assert workloads.instance_pool(p, 20, 3) == workloads.instance_pool(p, 20, 3)
    assert workloads.instance_pool(p, 20, 3) != workloads.instance_pool(p, 20, 4)


@pytest.mark.parametrize("n, k", [(100, 4), (7, 3), (5, 5), (1 << 20, 6)])
def test_spread_sample_draws_one_member_per_stratum(n, k):
    rng = random.Random(n + k)
    for _ in range(20):
        picks = sorted(workloads._spread_sample(rng, range(1, n + 1), k))
        assert all(j * n // k < v <= (j + 1) * n // k for j, v in enumerate(picks))


def test_boundary_vertices_sit_next_to_word_boundaries():
    assert workloads._boundary_vertices(200) == [64, 65, 128, 129, 192, 193]
    assert workloads._boundary_vertices(129) == [64, 65, 128]


def test_generator_rejects_impossible_shapes():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        workloads.generate_instance(FamilyParams(100, 2, 1), "sunflower", rng)
    with pytest.raises(ValueError):
        workloads.generate_instance(FamilyParams(100, 2, 2), "sparse", rng, n_edges=2)
    with pytest.raises(ValueError):
        workloads.generate_instance(FamilyParams(100, 2, 2), "star", rng)


@pytest.mark.parametrize("n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (50, 80.0), (99, 80.0),
                                  (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
                                  (10000, 99.9)])
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    assert n * (100 - p) / 100 >= 10 - 1e-9
    higher = [q for q in run.TAIL_LADDER if q > p]
    assert all(n * (100 - q) / 100 < 10 - 1e-9 for q in higher)


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 95) == 95
    assert run.percentile(values, 99.9) == 100
    assert run.percentile([3.0], 75) == 3.0


def _span(sid, parent, name, start, end, inst=0, val=None):
    return (sid, parent, inst, name, start, end, val)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(3, 1, "c", 15, 25),
        _span(1, 0, "a", 10, 40),
        _span(2, 0, "b", 50, 70),
        _span(0, -1, "root", 0, 100),
    ]
    assert tracing.self_times(spans) == {0: 50, 1: 20, 2: 20, 3: 10}


def test_layer_metrics_attribute_queries_to_enclosing_searches():
    spans = [
        _span(1, 0, "oracle.query", 1, 2, val=True),
        _span(2, 0, "oracle.query", 2, 4, val=False),
        _span(0, -1, "learner.edge_search", 0, 10),
        _span(4, 3, "core.split_lowest", 11, 12),
        _span(5, 3, "oracle.query", 12, 13, val=False),
        _span(3, -1, "learner.vertex_search", 10, 20),
        _span(6, -1, "bounds.lower_bound", 0, 8, inst=-1),
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans, 2, {0: 100, 1: 300}).items()}
    assert m["learner.edge_search.queries"] == 1.0  # 2 queries over 2 instances
    assert m["learner.edge_search.hit_ratio"] == 0.5
    assert m["learner.vertex_search.queries"] == 0.5
    assert m["oracle.query.calls"] == 1.5
    assert m["learner.edge_search.cpu_s"] == pytest.approx(7 / 2 / 1e9)
    assert m["core.split_lowest.cpu_s"] == pytest.approx(1 / 2 / 1e9)
    assert m["bounds.lower_bound.cpu_s"] == pytest.approx(8 / 1e9)
    assert m["oracle.transcript.bytes"] == 200.0


def test_traced_learn_run_accounts_for_every_query_and_restores_the_package():
    originals = (Oracle.query, Oracle.__init__, learner.find_next_query)
    params = FamilyParams(2**10, 2, 2)
    hidden = workloads.generate_instance(params, "sunflower", random.Random(5))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_instance(0)
        oracle = Oracle(hidden)
        report = learner.learn_detailed(oracle, params)
        tracer.end_instance()
    finally:
        tracer.uninstall()
    assert (Oracle.query, Oracle.__init__, learner.find_next_query) == originals
    assert report.hypergraph == hidden
    m = {k: v for k, (v, _) in tracing.layer_metrics(tracer.spans, 1,
                                                     tracer.retained_bytes).items()}
    assert m["oracle.query.calls"] == report.queries_total
    assert m["learner.vertex_search.queries"] == report.queries_vertex_search
    assert m["learner.edge_search.queries"] == report.queries_edge_search
    assert m["learner.query_search.queries"] == report.queries_query_search
    # Each positive next-query search yields one new active vertex.
    assert m["learner.query_search.hit_ratio"] == report.iterations / report.queries_query_search
    assert m["learner.edge_search.hit_ratio"] * report.queries_edge_search >= len(hidden.edges)
    assert m["oracle.transcript.bytes"] > 0


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS


class _Raising(workloads.Workload):
    """A workload whose program raises on every instance."""

    cycle = 1

    def run(self, inst):
        raise RuntimeError("budget exceeded")


def test_an_exception_from_the_program_is_a_wrong_result_not_a_failure():
    params = FamilyParams(2**10, 2, 2)
    wl = _Raising(params, 2)
    loop = run.Loop(wl, wl.setup(0, ROOT))
    loop.one(loop.pool[0])
    assert loop.attempted == 1 and loop.failed == 0
    assert loop.wrong and "budget exceeded" in loop.wrong[0]
    assert loop.outcomes == {}


def test_a_nonzero_cli_status_is_a_wrong_result():
    wl = workloads.make_workload("cli-transcript")
    inst = workloads.Instance(0, "disjoint", workloads.instance_pool(wl.params, 1, 0)[0][1])
    with pytest.raises(workloads.WrongResult, match="status 1"):
        wl.check(inst, 1)
