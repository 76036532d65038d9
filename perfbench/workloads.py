"""Instances and workloads of the hhl benchmark.

The generator here is the benchmark's own. ``hhl.random_family_instance``
returns the empty hypergraph in about a third of seeds at s=2 and almost
never draws an edge smaller than l, so it would leave mixed sizes,
overlapping edges and word-boundary vertices unmeasured. Learner instances
instead cycle through five stated shapes, one after another.

Each workload drives the package only through its public modules, and
looks functions up on those modules at call time so that the traced run
can wrap them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from hhl import bounds, cli, learner, twostage
from hhl.core import (
    FamilyParams,
    Hypergraph,
    is_sperner,
    member_of_family,
    random_disjoint_instance,
    save_hypergraph,
)
from hhl.oracle import Oracle

SHAPES = ("disjoint", "sunflower", "mixed", "sparse", "boundary")
WORD_BITS = 64


class WrongResult(RuntimeError):
    """The program returned an output that does not match the hidden instance."""


def _split(verts: list[int], sizes: list[int]) -> list[tuple[int, ...]]:
    edges, at = [], 0
    for size in sizes:
        edges.append(tuple(verts[at : at + size]))
        at += size
    return edges


def _spread_sample(rng: random.Random, population, k: int) -> list[int]:
    """k distinct members, one uniform draw from each of k equal strata, in random order.

    Learner cost depends on where the active vertices sit (bisection over a
    t-bit mask is cheaper when they are low), so uniform draws would make an
    instance's time depend on luck. Stratified draws give every instance
    the same spread of positions over the universe.
    """
    n = len(population)
    picks = [population[(j * n) // k + rng.randrange((j + 1) * n // k - (j * n) // k)]
             for j in range(k)]
    rng.shuffle(picks)
    return picks


def _boundary_vertices(t: int) -> list[int]:
    """Vertices next to a 64-bit word boundary of the VertexSet mask, 1 and t excluded."""
    out = []
    for base in range(WORD_BITS, t, WORD_BITS):
        out.extend(v for v in (base, base + 1) if 1 < v < t)
    return out


def generate_instance(
    params: FamilyParams, shape: str, rng: random.Random, n_edges: int = 0
) -> Hypergraph:
    """One Sperner member of the (t, s, l) family with the given shape.

    Vertices are drawn stratified over the universe (see ``_spread_sample``).

    - ``disjoint``: s pairwise disjoint edges of size l.
    - ``sunflower``: s edges of size l that share exactly one vertex.
    - ``mixed``: s disjoint edges whose sizes cycle through 1..l.
    - ``sparse``: ``n_edges`` < s disjoint edges whose sizes cycle down from l
      (0 gives the empty hypergraph).
    - ``boundary``: s disjoint l-edges on vertex 1, vertex t and vertices
      next to 64-bit word boundaries.
    """
    t, s, l = params.t, params.s, params.l
    if shape == "disjoint":
        sizes = [l] * s
        edges = _split(_spread_sample(rng, range(1, t + 1), sum(sizes)), sizes)
    elif shape == "sunflower":
        if l < 2:
            raise ValueError("a sunflower needs edges of size at least 2")
        core, *petals = _spread_sample(rng, range(1, t + 1), 1 + s * (l - 1))
        edges = [(core, *petal) for petal in _split(petals, [l - 1] * s)]
    elif shape == "mixed":
        sizes = [1 + i % l for i in range(s)]
        edges = _split(_spread_sample(rng, range(1, t + 1), sum(sizes)), sizes)
    elif shape == "sparse":
        if not 0 <= n_edges < s:
            raise ValueError(f"a sparse instance has 0..{s - 1} edges, not {n_edges}")
        sizes = [l - i % l for i in range(n_edges)]
        edges = _split(_spread_sample(rng, range(1, t + 1), sum(sizes)), sizes)
    elif shape == "boundary":
        ends = [1, t] if s * l > 1 else [rng.choice((1, t))]
        verts = ends + _spread_sample(rng, _boundary_vertices(t), s * l - len(ends))
        rng.shuffle(verts)
        edges = _split(verts, [l] * s)
    else:
        raise ValueError(f"unknown shape {shape!r}")
    h = Hypergraph(t, edges)
    if len(h.edges) != len(edges) or not is_sperner(h) or not member_of_family(h, params):
        raise RuntimeError(f"generator produced a bad {shape} instance: {h}")
    return h


def shape_cycle(params: FamilyParams) -> int:
    """Pool length after which shapes and edge sizes repeat.

    Edge sizes depend only on the shape and the position in the cycle, and
    only the vertices are random, so every whole cycle holds the same mix of
    query counts and timed loops stop only at the end of a cycle.
    """
    return len(SHAPES) * params.s


def instance_pool(params: FamilyParams, size: int, seed: int) -> list[tuple[str, Hypergraph]]:
    """``size`` instances whose shapes cycle through SHAPES; sparse ones cycle 0..s-1 edges."""
    rng = random.Random(seed)
    pool = []
    for i in range(size):
        shape = SHAPES[i % len(SHAPES)]
        n_edges = (i // len(SHAPES)) % params.s
        pool.append((shape, generate_instance(params, shape, rng, n_edges)))
    return pool


@dataclass
class Instance:
    index: int
    shape: str
    hidden: Hypergraph
    seed: int = 0
    path: str = ""


@dataclass
class Outcome:
    """What the correctness check read off one finished instance."""

    queries: int
    failed: bool = False
    trials: int = 1
    phases: dict[str, int] = field(default_factory=dict)


class Workload:
    """Base: a fixed pool of instances at one family size, run one at a time."""

    name = ""

    def __init__(self, params: FamilyParams, pool_size: int) -> None:
        self.params = params
        self.pool_size = pool_size
        if pool_size % self.cycle:
            raise ValueError(f"pool of {pool_size} is not whole cycles of {self.cycle}")
        self.lower_bound = 0
        self.budget = 0

    @property
    def cycle(self) -> int:
        """Instances after which the pool's mix of shapes and edge sizes repeats."""
        return shape_cycle(self.params)

    def setup(self, seed: int, work_dir: Path) -> list[Instance]:
        """Compute the bounds the figure of merit is set against, then make the pool."""
        self.lower_bound = bounds.info_lower_bound(self.params)
        self.budget = learner.worst_case_query_budget(self.params)
        return self.make_pool(seed, work_dir)

    def make_pool(self, seed: int, work_dir: Path) -> list[Instance]:
        return [
            Instance(i, shape, hidden)
            for i, (shape, hidden) in enumerate(instance_pool(self.params, self.pool_size, seed))
        ]

    def run(self, inst: Instance):
        raise NotImplementedError

    def check(self, inst: Instance, result) -> Outcome:
        raise NotImplementedError


class LearnWorkload(Workload):
    def run(self, inst: Instance):
        oracle = Oracle(inst.hidden, budget=self.budget)
        return learner.learn_detailed(oracle, self.params), oracle

    def check(self, inst: Instance, result) -> Outcome:
        report, oracle = result
        if report.hypergraph != inst.hidden:
            raise WrongResult(f"instance {inst.index}: learned {report.hypergraph}")
        if report.queries_total != oracle.count:
            raise WrongResult(f"instance {inst.index}: report counts {report.queries_total} "
                              f"queries, oracle answered {oracle.count}")
        return Outcome(report.queries_total, phases={
            "vertex_search": report.queries_vertex_search,
            "edge_search": report.queries_edge_search,
            "query_search": report.queries_query_search,
        })


class LearnWide(LearnWorkload):
    name = "learn-wide"


class LearnDeep(LearnWorkload):
    name = "learn-deep"


class CliTranscript(Workload):
    name = "cli-transcript"

    def make_pool(self, seed: int, work_dir: Path) -> list[Instance]:
        pool = super().make_pool(seed, work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.out_path = str(work_dir / "result.json")
        self.transcript_path = str(work_dir / "transcript.jsonl")
        for inst in pool:
            inst.path = str(work_dir / f"instance-{inst.index}.json")
            save_hypergraph(inst.path, inst.hidden)
        return pool

    def run(self, inst: Instance):
        code = cli.main([
            "learn", "--in", inst.path, "--s", str(self.params.s), "--l", str(self.params.l),
            "--budget-enforce", "on", "--format", "json",
            "--transcript", self.transcript_path, "--out", self.out_path,
        ])
        return code

    def check(self, inst: Instance, result) -> Outcome:
        if result != 0:
            raise WrongResult(f"instance {inst.index}: hhl learn exited with status {result}")
        with open(self.out_path, encoding="utf-8") as f:
            payload = json.load(f)
        expected = [list(e) for e in inst.hidden.sorted_edges()]
        if payload["result_edges"] != expected:
            raise WrongResult(f"instance {inst.index}: result_edges {payload['result_edges']}")
        edges = inst.hidden.sorted_edges()
        lines = 0
        with open(self.transcript_path, encoding="utf-8") as f:
            for lines, line in enumerate(f, start=1):
                record = json.loads(line)
                query = set(record["q"])
                answer = any(all(v in query for v in e) for e in edges)
                if record["i"] != lines or record["a"] != int(answer):
                    raise WrongResult(f"instance {inst.index}: transcript line {lines} "
                                      "does not replay")
        if lines != payload["queries_total"]:
            raise WrongResult(f"instance {inst.index}: {lines} transcript lines, "
                              f"{payload['queries_total']} queries")
        return Outcome(payload["queries_total"], phases={
            key: payload[f"queries_{key}"]
            for key in ("vertex_search", "edge_search", "query_search")
        })


class TwoStage(Workload):
    """Two-stage trials on s disjoint l-edges, the only family the strategy supports.

    A declared failure is the Monte-Carlo strategy's specified outcome, so an
    instance is retried with a fresh trial seed, as a user would, up to
    MAX_TRIALS times. Retries show in trials_per_instance and in the queries.
    """

    name = "twostage"
    EPSILON = 0.05
    MAX_TRIALS = 8
    cycle = 1  # every instance has the same shape

    def make_pool(self, seed: int, work_dir: Path) -> list[Instance]:
        self.layers = twostage.required_layers(self.EPSILON, self.params.s, self.params.l)
        rng = random.Random(seed)
        return [
            Instance(i, "disjoint",
                     random_disjoint_instance(self.params, seed=rng.getrandbits(32)),
                     seed=rng.getrandbits(32))
            for i in range(self.pool_size)
        ]

    def run(self, inst: Instance):
        oracle = Oracle(inst.hidden)
        reports = []
        for attempt in range(self.MAX_TRIALS):
            reports.append(twostage.two_stage_trial(
                oracle, self.params, self.EPSILON, inst.seed + attempt))
            if reports[-1].success:
                break
        return reports, oracle

    def check(self, inst: Instance, result) -> Outcome:
        reports, oracle = result
        s = self.params.s
        for rep in reports:
            if rep.layers != self.layers or rep.stage1_queries != s * self.layers:
                raise WrongResult(f"instance {inst.index}: stage one issued "
                                  f"{rep.stage1_queries} queries, expected {s * self.layers}")
            if rep.success and rep.hypergraph != inst.hidden:
                raise WrongResult(f"instance {inst.index}: recovered {rep.hypergraph}")
        stage1 = sum(rep.stage1_queries for rep in reports)
        stage2 = sum(rep.stage2_queries for rep in reports)
        if stage1 + stage2 != oracle.count:
            raise WrongResult(f"instance {inst.index}: reports count {stage1 + stage2} "
                              f"queries, oracle answered {oracle.count}")
        return Outcome(oracle.count, failed=not reports[-1].success, trials=len(reports),
                       phases={"stage1": stage1, "stage2": stage2})


def make_workload(name: str) -> Workload:
    """The four workloads, with pool sizes that fit one pass in a few CPU seconds."""
    if name == "learn-wide":
        return LearnWide(FamilyParams(2**20, 3, 2), 45)
    if name == "learn-deep":
        return LearnDeep(FamilyParams(2**12, 4, 3), 100)
    if name == "cli-transcript":
        return CliTranscript(FamilyParams(2**12, 3, 2), 60)
    if name == "twostage":
        return TwoStage(FamilyParams(256, 2, 2), 120)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("learn-wide", "learn-deep", "cli-transcript", "twostage")
