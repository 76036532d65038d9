from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import tracemalloc
from math import comb

import pytest

import hhl.learner
from conftest import (
    enumerate_family,
    limit_address_space,
    minimal_positive_subsets,
    reference_find_active_vertex,
    reference_find_edges_on,
    reference_find_next_query,
)
from hhl import (
    FamilyParams,
    Hypergraph,
    Oracle,
    SearchContractError,
    SearchStats,
    VertexSet,
    find_active_vertex,
    find_edges_on,
    find_next_query,
    learn,
    learn_detailed,
    random_disjoint_instance,
    random_family_instance,
    worst_case_query_budget,
)
from hhl.oracle import Frame


def learner_query(o: Oracle, found, chosen=()) -> tuple[Frame, int]:
    """A query as the main loop asks it: the frame over the found vertices,
    a VertexSet or a list, and the mask of the chosen ones plus every vertex
    outside them."""
    if not isinstance(found, VertexSet):
        found = VertexSet(o.hidden.t, found)
    frame = o.frame(found)
    n = len(frame.vertices)
    chosen = set(chosen)
    low = "".join("1" if v in chosen else "0" for v in reversed(frame.vertices))
    return frame, (o.hidden.t - n) << n | int(low or "0", 2)


def test_find_active_vertex_bisection():
    # {5} hides inside {1..8}: splits {1-4}/{5-8}, {5,6}/{7,8}, {5}/{6}
    o = Oracle(Hypergraph(8, [(5,)]))
    v = find_active_vertex(o, *learner_query(o, []))
    assert v == 5
    assert o.count == 3


def test_find_active_vertex_singleton_pool():
    o = Oracle(Hypergraph(4, [(1, 2)]))
    v = find_active_vertex(o, *learner_query(o, [1, 3, 4], [1]))
    assert v == 2
    assert o.count == 0


def test_find_active_vertex_with_found_set():
    o = Oracle(Hypergraph(4, [(3, 4)]))
    v = find_active_vertex(o, *learner_query(o, [3], [3]))
    assert v == 4


def test_find_active_vertex_debug_checks():
    o = Oracle(Hypergraph(8, [(5,)]))
    v = find_active_vertex(o, *learner_query(o, []), debug_checks=True)
    assert v == 5
    assert o.count == 3  # ground-truth checks issue no counted queries


def test_find_active_vertex_empty_pool():
    o = Oracle(Hypergraph(4, [(1,)]))
    with pytest.raises(SearchContractError):
        find_active_vertex(o, *learner_query(o, [1, 2, 3, 4], [1]))


def test_find_active_vertex_query_bound():
    rng = random.Random(5)
    for _ in range(100):
        t = rng.randint(2, 64)
        v_hidden = rng.randint(1, t)
        o = Oracle(Hypergraph(t, [(v_hidden,)]))
        stats = SearchStats()
        v = find_active_vertex(o, *learner_query(o, []), stats=stats)
        assert v == v_hidden
        (n, used) = stats.vertex_search_log[0]
        assert n == t
        assert used <= (n - 1).bit_length()


def test_find_active_vertex_debug_checks_report_broken_contracts():
    # An edge already inside s & f: the kept set is positive before any query.
    o = Oracle(Hypergraph(8, [(1, 2)]))
    with pytest.raises(SearchContractError, match="kept set is positive"):
        find_active_vertex(o, *learner_query(o, [1, 2], [1, 2]), debug_checks=True)
    assert o.count == 0
    # The same with a one-member pool, where no query is issued at all.
    o = Oracle(Hypergraph(8, [(1,)]))
    with pytest.raises(SearchContractError, match="kept set is positive"):
        find_active_vertex(o, *learner_query(o, [1, 2, 3, 4, 6, 7, 8], [1]), debug_checks=True)
    # s holds no edge: the pool query is negative.
    o = Oracle(Hypergraph(8, [(7, 8)]))
    with pytest.raises(SearchContractError, match="pool query is negative"):
        find_active_vertex(o, *learner_query(o, [7]), debug_checks=True)


class FlippingOracle(Oracle):
    """Returns the wrong answer to its flip-th query (and logs the true one)."""

    def __init__(self, hidden: Hypergraph, flip: int) -> None:
        super().__init__(hidden)
        self.flip = flip

    def query(self, s: VertexSet) -> bool:
        answer = super().query(s)
        return not answer if self.count == self.flip else answer


def frame_search(o: Oracle, s: VertexSet, f: VertexSet, **kwargs) -> int:
    """find_active_vertex on query s, which holds every vertex outside f,
    asked of a frame over f as the main loop asks it."""
    return find_active_vertex(o, *learner_query(o, f, s), **kwargs)


@pytest.mark.parametrize("t", [64, 130])
def test_find_active_vertex_debug_checks_catch_a_wrong_answer(t):
    # A wrong negative keeps a positive half (the kept set turns positive);
    # a wrong positive keeps a negative half (the pool query turns negative).
    # Both searches must fail at the same step with the same message.
    messages = set()
    s, f = VertexSet(t, range(1, t + 1)), VertexSet(t)
    for v in (1, 40, 64, t):
        hidden = Hypergraph(t, [(v,)])
        for flip in range(1, (t - 1).bit_length() + 1):
            got, want = (
                vertex_search_outcome(search, FlippingOracle(hidden, flip), s, f, True)
                for search in (frame_search, reference_find_active_vertex)
            )
            assert got == want
            if isinstance(got[0], str):
                messages.add(got[0])
    assert messages == {
        "bisection invariant broken: kept set is positive",
        "bisection invariant broken: pool query is negative",
    }


def vertex_search_cases(t: int, rng: random.Random):
    """(hidden, s, f) at t with s as the main loop asks it: a subset of f,
    the base, plus every vertex outside f, the pool. The found vertices f
    are none, sparse, random, all but three, all but one, or all of them,
    and touch vertices 1, t and 63/64/65 and both ends of the pool's runs.
    Most hidden hypergraphs keep the search's contract, an edge of base
    members and a pool member; the last two per f break it, one with an
    edge inside the base and one with no edge inside s. s and f come
    run-coded and mask-coded."""
    universe = range(1, t + 1)
    marks = sorted({v for v in (1, 2, 63, 64, 65, t // 2, t - 1, t) if 1 <= v <= t})
    mid = marks[len(marks) // 2]
    pools = [
        list(universe),
        [v for v in universe if v not in marks],
        [v for v in universe if v not in rng.sample(universe, min(t, 5))],
        sorted(rng.sample(universe, min(t, 3))),
        [marks[-1]],
        sorted({mid - 1, mid + 1} & set(universe)),
        sorted({1, t}),
        [],
    ]
    seen = []
    for pool in pools:
        if pool in seen:
            continue
        seen.append(pool)
        found = sorted(set(universe) - set(pool))
        picks = rng.sample(found, min(len(found), 4))
        inside, outside = picks[: len(picks) // 2], picks[len(picks) // 2 :]
        s_runs = VertexSet(t, pool + inside)
        f_runs = VertexSet(t, found)
        hiddens = []
        for a in sorted({pool[0], pool[-1], rng.choice(pool)} if pool else ()):
            edges = [(a, *inside[:2])]
            if outside:
                edges.append((pool[len(pool) // 2], outside[0]))
            hiddens.append(Hypergraph(t, edges))
        if inside:
            hiddens.append(Hypergraph(t, [tuple(inside), *[(v,) for v in pool[:1]]]))
        if outside:
            hiddens.append(Hypergraph(t, [(outside[0],)]))
        for s, f in ((s_runs, f_runs), (VertexSet._from_mask(t, s_runs.mask), f_runs),
                     (s_runs, VertexSet._from_mask(t, f_runs.mask))):
            for hidden in hiddens:
                yield hidden, s, f


def vertex_search_outcome(search, o, s, f, debug_checks):
    stats = SearchStats()
    try:
        out = search(o, s, f, debug_checks=debug_checks, stats=stats)
    except SearchContractError as e:
        out = str(e)
    return out, queries(o), stats.vertex_search_log


@pytest.mark.parametrize("t", [1, 2, 63, 64, 65, 4097, 2**16 + 3])
def test_find_active_vertex_matches_reference(t):
    rng = random.Random(t)
    n_cases = 0
    for hidden, s, f in vertex_search_cases(t, rng):
        for debug_checks in (False, True):
            got, want = (
                vertex_search_outcome(search, Oracle(hidden), s, f, debug_checks)
                for search in (frame_search, reference_find_active_vertex)
            )
            assert got == want, (hidden, s, f, debug_checks)
        n_cases += 1
    assert n_cases >= min(t, 10)


def test_find_edges_on_trace():
    o = Oracle(Hypergraph(4, [(1, 2)]))
    edges = find_edges_on(o, o.frame(VertexSet(4, [1, 2])), 2)
    assert edges == frozenset({(1, 2)})
    assert [(r.query.members(), r.answer) for r in o.transcript] == [
        ((1,), False),
        ((2,), False),
        ((1, 2), True),
    ]


def test_find_edges_on_nothing_inside():
    o = Oracle(Hypergraph(4, [(1, 2)]))
    assert find_edges_on(o, o.frame(VertexSet(4, [1])), 2) == frozenset()


def test_find_edges_on_skips_known_supersets():
    o = Oracle(Hypergraph(4, [(1,), (2, 3)]))
    edges = find_edges_on(o, o.frame(VertexSet(4, [1, 2, 3])), 2)
    assert edges == frozenset({(1,), (2, 3)})
    # {1,2} and {1,3} are skipped because {1} is already known
    assert o.count == 4


def test_find_edges_on_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        t = rng.randint(3, 10)
        p = FamilyParams(t, rng.randint(1, 3), rng.randint(1, 3))
        h = random_family_instance(p, sperner_only=False, seed=rng.randint(0, 9999))
        pool = sorted(rng.sample(range(1, t + 1), rng.randint(1, t)))
        o = Oracle(h)
        stats = SearchStats()
        got = find_edges_on(o, o.frame(VertexSet(t, pool)), p.l, stats=stats)
        assert got == minimal_positive_subsets(h, pool, p.l)
        assert stats.edge_deletions == 0


def test_find_next_query_all_edges_known():
    o = Oracle(Hypergraph(4, [(1, 2)]))
    assert find_next_query(o, o.frame(VertexSet(4, [1, 2])), [(1, 2)]) is None
    assert o.count == 3  # the three admissible candidates all answer 0


def test_find_next_query_finds_fresh_edge():
    o = Oracle(Hypergraph(4, [(1, 2), (3, 4)]))
    frame = o.frame(VertexSet(4, [1, 2]))
    m = find_next_query(o, frame, [(1, 2)])
    assert m == 2 << 2 and frame.vertex_set(m) == VertexSet(4, [3, 4])
    assert o.count == 1
    # A found vertex no known edge covers is in every candidate.
    o = Oracle(Hypergraph(8, [(1, 2), (5, 7)]))
    frame = o.frame(VertexSet(8, [1, 2, 5]))
    m = find_next_query(o, frame, [(1, 2)])
    assert m == 5 << 3 | 0b100 and frame.vertex_set(m) == VertexSet(8, range(3, 9))
    assert o.count == 1


def test_find_next_query_no_known_edges():
    o = Oracle(Hypergraph(3, [(2,)]))
    frame = o.frame(VertexSet(3))
    assert find_next_query(o, frame, []) == 3
    assert frame.vertex_set(3) == VertexSet(3, range(1, 4))
    assert o.count == 1


def test_exhaustive_searches_ask_one_frame_each(monkeypatch):
    # Every query of the edge search and the next-query search is a
    # (frame, index mask) pair of the one frame they are given, and neither
    # builds a set: the next-query search returns its positive mask.
    t = 64
    hidden = Hypergraph(t, [(1,), (3, 4), (10, 40, 64)])
    built = []
    vertex_set = Frame.vertex_set
    monkeypatch.setattr(Frame, "vertex_set", lambda frame, m: built.append(m) or vertex_set(frame, m))
    o = Oracle(hidden)
    frame = o.frame(VertexSet(t, [1, 3, 4, 10, 40, 64]))
    assert find_edges_on(o, frame, 3) == hidden.edges
    ends = [o.count]
    # Rank 58 asks for every vertex outside the six; 10, 40 and 64 are
    # bits 3-5, outside the covered {1, 3, 4}.
    assert find_next_query(o, frame, [(1,), (3, 4)]) == 58 << 6 | 0b111000
    ends.append(o.count)
    assert find_next_query(o, frame, hidden.sorted_edges()) is None
    assert built == []
    assert {q[0] for q, _ in o._log} == {frame}
    assert frame.vertex_set(58 << 6 | 0b111000) == VertexSet(t, set(range(1, t + 1)) - {1, 3, 4})
    # The edge search asks rank 0 and each next-query search rank 58.
    masks = [m for (_, m), _ in o._log]
    assert all(m < 1 << 6 for m in masks[: ends[0]])
    assert all(m >> 6 == 58 for m in masks[ends[0] :])


def test_vertex_search_asks_ranks_of_one_frame():
    # Every query of a vertex search holds the low bits of its query, the
    # found vertices in s, and a rank: rank r asks for those plus the r
    # smallest vertices outside the found ones, and the search returns the
    # vertex of the rank it ends on.
    t = 64
    o = Oracle(Hypergraph(t, [(3, 40)]))
    frame, m = learner_query(o, [3, 10, 50], [3, 10])
    assert m == 61 << 3 | 0b011
    assert find_active_vertex(o, frame, m) == 40
    assert {q[0] for q, _ in o._log} == {frame}
    ranks = [m >> 3 for (_, m), _ in o._log]
    assert {m & 0b111 for (_, m), _ in o._log} == {0b011}
    assert ranks == [31, 46, 39, 35, 37, 38]  # 40 has rank 38
    pool = [v for v in range(1, t + 1) if v not in (3, 10, 50)]
    assert [r.query for r in o.transcript] == [VertexSet(t, [3, 10, *pool[:r]]) for r in ranks]


def test_learn_makes_one_frame_per_found_vertex_and_one_more(monkeypatch):
    # One frame before the loop and one after each found vertex, and every
    # query of the run asks one of them.
    made = []
    frame = Oracle.frame
    monkeypatch.setattr(Oracle, "frame", lambda o, vs: made.append(frame(o, vs)) or made[-1])
    cases = [(Hypergraph(10), FamilyParams(10, 2, 2)),
             (Hypergraph(64, [(1, 2, 3), (1, 32, 64), (2, 33, 63)]), FamilyParams(64, 3, 3)),
             (random_disjoint_instance(FamilyParams(2**20, 3, 2), seed=1), FamilyParams(2**20, 3, 2))]
    for hidden, params in cases:
        made.clear()
        o = Oracle(hidden)
        report = learn_detailed(o, params)
        assert report.hypergraph == hidden
        assert len(made) == report.iterations + 1 == len({v for e in hidden.edges for v in e}) + 1
        assert {q[0] for q, _ in o._log} <= set(made)
        assert [len(f.vertices) for f in made] == list(range(report.iterations + 1))


def test_learn_empty_hypergraph():
    p = FamilyParams(10, 2, 2)
    o = Oracle(Hypergraph(10))
    assert learn(o, p) == Hypergraph(10)
    assert o.count == 1  # single probe of the whole vertex set


def test_learn_single_singleton():
    p = FamilyParams(8, 1, 1)
    o = Oracle(Hypergraph(8, [(7,)]))
    report = learn_detailed(o, p)
    assert report.hypergraph == Hypergraph(8, [(7,)])
    assert report.queries_total == 6
    assert report.queries_total <= worst_case_query_budget(p) == 7


def test_learn_two_disjoint_edges():
    p = FamilyParams(16, 2, 2)
    hidden = Hypergraph(16, [(1, 2), (3, 4)])
    o = Oracle(hidden)
    assert learn(o, p) == hidden


def test_learn_non_sperner_returns_minimal_antichain():
    p = FamilyParams(6, 2, 2)
    o = Oracle(Hypergraph(6, [(1,), (1, 2)]))
    assert learn(o, p) == Hypergraph(6, [(1,)])

    p3 = FamilyParams(6, 2, 3)
    o = Oracle(Hypergraph(6, [(1, 2), (1, 2, 3)]))
    assert learn(o, p3) == Hypergraph(6, [(1, 2)])


def test_budget_formula_values():
    assert worst_case_query_budget(FamilyParams(2**16, 2, 2)) == 172
    assert worst_case_query_budget(FamilyParams(2**14, 3, 2)) == 600


@pytest.mark.parametrize("t", [*range(1, 65), 2**40 + 3])
def test_budget_matches_written_out_formula(t):
    # ceil(log2 t) per vertex search, every subset of size <= l of s*l
    # vertices per edge search, every subset of them per next-query search.
    for s in range(1, 5):
        for l in range(1, 5):
            n = s * l
            edges = sum(comb(n, j) for j in range(1, l + 1))
            expected = n * ((t - 1).bit_length() + edges + 2**n + 1)
            assert worst_case_query_budget(FamilyParams(t, s, l)) == expected


def test_learn_exhaustive_small_family():
    p = FamilyParams(5, 2, 2)
    for hidden in enumerate_family(5, 2, 2, sperner_only=True):
        o = Oracle(hidden, budget=worst_case_query_budget(p))
        report = learn_detailed(o, p, debug_checks=True)
        assert report.hypergraph == hidden
        assert report.iterations <= p.s * p.l
        assert report.stats.edge_deletions == 0


def test_learn_brute_force_equivalence_suite():
    # every Sperner family member for t <= 12, s <= 2, l <= 2
    for t in range(2, 13):
        for s in (1, 2):
            for l in (1, 2):
                p = FamilyParams(t, s, l)
                budget = worst_case_query_budget(p)
                for hidden in enumerate_family(t, s, l, sperner_only=True):
                    o = Oracle(hidden, budget=budget)
                    assert learn(o, p) == hidden


def test_learn_random_large_instances():
    p = FamilyParams(4096, 2, 2)
    budget = worst_case_query_budget(p)
    for seed in range(25):
        hidden = random_family_instance(p, sperner_only=True, seed=seed)
        o = Oracle(hidden, budget=budget)
        report = learn_detailed(o, p)
        assert report.hypergraph == hidden
        for n, used in report.stats.vertex_search_log:
            assert used <= (n - 1).bit_length()


def test_learn_rejects_mismatched_universe():
    # The first probe, the whole universe, is refused before it is logged.
    oracle = Oracle(Hypergraph(5))
    with pytest.raises(ValueError, match=r"universe mismatch: 6 != 5"):
        learn(oracle, FamilyParams(6, 1, 1))
    assert oracle.count == 0


def queries(o: Oracle) -> list[tuple[int, bool]]:
    return [(r.query.mask, r.answer) for r in o.transcript]


def structured_edge_sets(t: int) -> list[list[tuple[int, ...]]]:
    """Sunflowers, mixed edge sizes, disjoint edges and non-Sperner inputs
    on vertices 1, t, the 64-bit word boundary 63/64/65 and t/2."""
    v = sorted({x for x in (1, 63, 64, 65, t // 2, t - 1, t) if 1 <= x <= t})
    sets = [
        [],
        [(v[0],)],
        [(v[-1],)],
        [tuple(v[:3])],
        [tuple(v[i : i + 2]) for i in range(0, len(v) - 1, 2)],  # disjoint
        [(v[0],), tuple(v[1:3]), tuple(v[3:6])],  # mixed sizes
        # sunflower with core v[2], for t >= 65
        [(v[2], *v[i : i + 2]) for i in (0, 3, 5) if len(v) >= max(i + 2, 5)],
        [(v[-1],), (v[0], v[-1]), tuple(v[:3])],  # non-Sperner
        [(v[0],), tuple(v[:2]), tuple(v[1:4])],  # non-Sperner
    ]
    out = []
    for edges in sets:
        edges = sorted({tuple(sorted(set(e))) for e in edges if e})
        if edges not in out:
            out.append(edges)
    return out


def structured_cases(t: int):
    """(hidden, params) for every structured edge set at t: s is the number of
    edges, so every case has exactly s edges, and l the largest edge size."""
    for edges in structured_edge_sets(t):
        hidden = Hypergraph(t, edges)
        params = FamilyParams(t, max(len(edges), 1), max(map(len, edges), default=1))
        yield hidden, params


def reference_edges_on_frame(oracle: Oracle, frame: Frame, max_edge_size: int, *,
                             stats: SearchStats | None = None) -> frozenset:
    """The reference edge search over the frame's vertices."""
    f = VertexSet(frame.t, frame.vertices)
    return reference_find_edges_on(oracle, f, max_edge_size, stats=stats)


def reference_next_query_on_frame(oracle: Oracle, frame: Frame, found_edges) -> int | None:
    """The reference next-query search, its positive set read as a mask of
    the frame: the found vertices in it, and its count of the rest."""
    s = reference_find_next_query(oracle, found_edges, frame.t)
    if s is None:
        return None
    low = sum(1 << i for i, v in enumerate(frame.vertices) if v in s)
    return (len(s) - low.bit_count()) << len(frame.vertices) | low


def assert_searches_match_reference(hidden: Hypergraph, l: int) -> None:
    # Each search asks a frame over the found vertices: the covered ones,
    # and those plus 1 and t, so a found vertex may lie outside every
    # known edge.
    t = hidden.t
    edges = hidden.sorted_edges()
    covered = sorted({v for e in edges for v in e})
    minimal = [e for e in edges if not any(set(d) < set(e) for d in edges)]
    for pool in (covered, sorted({1, t, *covered})):
        for size in range(1, l + 2):
            got, want = Oracle(hidden), Oracle(hidden)
            got_stats, want_stats = SearchStats(), SearchStats()
            f = VertexSet(t, pool)
            got_edges = find_edges_on(got, got.frame(f), size, stats=got_stats)
            assert got_edges == reference_find_edges_on(want, f, size, stats=want_stats)
            assert queries(got) == queries(want)
            assert got_stats == want_stats
        for known in [edges[:k] for k in range(len(edges) + 1)] + [minimal]:
            got, want = Oracle(hidden), Oracle(hidden)
            frame = got.frame(VertexSet(t, pool))
            m = find_next_query(got, frame, known)
            assert (m if m is None else frame.vertex_set(m)) == reference_find_next_query(
                want, known, t)
            assert queries(got) == queries(want)


def learn_with_reference_searches(
    hidden: Hypergraph, params: FamilyParams, monkeypatch
) -> tuple:
    o = Oracle(hidden)
    with monkeypatch.context() as m:
        m.setattr(hhl.learner, "find_edges_on", reference_edges_on_frame)
        m.setattr(hhl.learner, "find_next_query", reference_next_query_on_frame)
        report = learn_detailed(o, params)
    return report, queries(o)


@pytest.mark.parametrize("t", [1, 2, 64, 65, 4097, 2**16 + 3])
def test_searches_issue_reference_queries_on_structured_instances(t, monkeypatch):
    for hidden, params in structured_cases(t):
        assert_searches_match_reference(hidden, params.l)
        o = Oracle(hidden)
        report = learn_detailed(o, params)
        want_report, want_queries = learn_with_reference_searches(hidden, params, monkeypatch)
        assert queries(o) == want_queries
        assert report.to_dict() == want_report.to_dict()
        assert report.iterations == want_report.iterations


def test_searches_issue_reference_queries_on_random_instances(monkeypatch):
    rng = random.Random(8)
    for _ in range(40):
        t = rng.choice([3, 7, 63, 64, 65, 130])
        p = FamilyParams(t, rng.randint(1, 3), rng.randint(1, 3))
        h = random_family_instance(p, sperner_only=False, seed=rng.randint(0, 9999))
        assert_searches_match_reference(h, p.l)
        o = Oracle(h)
        report = learn_detailed(o, p)
        want_report, want_queries = learn_with_reference_searches(h, p, monkeypatch)
        assert queries(o) == want_queries
        assert report.to_dict() == want_report.to_dict()


# One instance of each shape the benchmark's learner workloads cycle through
# (perfbench/workloads.py, pool seed 1, at (t, s, l) = (4096, 4, 3)); the
# sparse one is the pool's three-edge instance. Each transcript digest is
# sha256 over one "<mask in hex> <answer 0|1>" line per query, as computed
# by the learner whose searches tests/conftest.py keeps as references.
PINNED_LEARN_TRANSCRIPTS = {
    "disjoint": (
        [(69, 2279, 2631), (633, 715, 1155), (1426, 3064, 3803), (1960, 3267, 3521)],
        (144, 1079, 2413),
        "9573b737fa6dbe2ab95f136cd5f31043646939784ecee354244698bef9d131a8",
    ),
    "sunflower": (
        [(163, 2553, 3637), (471, 2153, 3637), (922, 3637, 3836), (1379, 2735, 3637)],
        (108, 375, 376),
        "1e122ed1c8129adbbe5f3d44b5fa058ff7410a3d8cdd54498841ead1f152e235",
    ),
    "mixed": (
        [(567,), (824, 3396), (1524,), (1992, 2565, 3807)],
        (84, 57, 28),
        "3a1edd5512ddef46518ae698f1ead4a89c5a98f34a57f2cb68cba4d2ee975f78",
    ),
    "sparse": (
        [(129,), (1032, 3332), (1483, 2678, 3801)],
        (72, 50, 27),
        "52141d6ac9553f23ed183f5b2c0d7a3c1a3f6e6467c82daf6d19889b97e5a712",
    ),
    "boundary": (
        [(1, 2625, 3584), (65, 769, 1024), (1600, 1985, 3776), (2305, 3136, 4096)],
        (143, 1079, 2413),
        "ad0c535bbb8d3b46eb14009f1c1c3ca16011ac64bd97cafeabb5b62fa88a4f8f",
    ),
}


@pytest.mark.parametrize("shape", sorted(PINNED_LEARN_TRANSCRIPTS))
def test_learn_transcripts_pinned_on_benchmark_shapes(shape):
    edges, phases, digest = PINNED_LEARN_TRANSCRIPTS[shape]
    params = FamilyParams(4096, 4, 3)
    hidden = Hypergraph(4096, edges)
    o = Oracle(hidden)
    report = learn_detailed(o, params)
    assert report.hypergraph == hidden
    assert (
        report.queries_vertex_search,
        report.queries_edge_search,
        report.queries_query_search,
    ) == phases
    h = hashlib.sha256()
    for mask, answer in queries(o):
        h.update(f"{mask:x} {int(answer)}\n".encode())
    assert h.hexdigest() == digest


def test_learn_keeps_no_t_bit_state_per_query(monkeypatch):
    # At t = 2**22 a mask is 512 KiB. Every learner query is run-coded with
    # at most 2*(2*s*l + 1) toggles, no VertexSet mask is ever built, and
    # the whole run allocates less than one mask.
    t, s, l = 2**22, 3, 2
    params = FamilyParams(t, s, l)
    hidden_sets = [
        random_disjoint_instance(params, seed=1),
        Hypergraph(t, [(1, 64), (65, t), (t // 2, t // 2 + 1)]),  # word boundaries, 1 and t
        Hypergraph(t, [(2, 3), (3, t - 1), (64, 65)]),  # shared and adjacent vertices
    ]

    def no_mask(vs):
        raise AssertionError("a t-bit mask was built")

    for hidden in hidden_sets:
        o = Oracle(hidden)
        with monkeypatch.context() as m:
            m.setattr(VertexSet, "mask", property(no_mask))
            tracemalloc.start()
            try:
                report = learn_detailed(o, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert report.hypergraph == hidden
        assert peak < t // 8
        codes = [r.query._runs for r in o.transcript]
        assert all(type(c) is tuple for c in codes)
        assert max(map(len, codes)) <= 2 * (2 * s * l + 1)


def test_debug_checks_run_at_any_t():
    # The debug checks test run-coded sets, as the searches query them, so
    # a checked learn at t = 10**30 builds no mask, which would not fit in
    # any memory.
    code = (
        "from hhl import FamilyParams, Hypergraph, Oracle, learn_detailed\n"
        "t = 10**30\n"
        "report = learn_detailed(Oracle(Hypergraph(t, [(1,), (t,)])),\n"
        "                        FamilyParams(t, 2, 1), debug_checks=True)\n"
        "print(report.hypergraph.sorted_edges() == [(1,), (t,)])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
