from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhl import (
    BudgetExceededError,
    FamilyParams,
    Hypergraph,
    Oracle,
    QueryRecord,
    VertexSet,
    is_independent,
    learn_detailed,
    random_disjoint_instance,
    two_stage_trial,
)


def test_is_independent():
    h = Hypergraph(5, [(1, 2)])
    assert is_independent(h, VertexSet(5, [1, 3]))
    assert not is_independent(h, VertexSet(5, [1, 2, 4]))
    assert is_independent(Hypergraph(5), VertexSet(5, [1, 2, 3, 4, 5]))
    with pytest.raises(ValueError):
        is_independent(h, VertexSet(4, [1]))


def test_query_answers():
    o = Oracle(Hypergraph(5, [(2, 3)]))
    assert o.query(VertexSet(5, [1, 2, 3])) is True
    assert o.query(VertexSet(5, [2])) is False
    assert o.query(VertexSet.empty(5)) is False
    assert o.count == 3


def test_query_count():
    o = Oracle(Hypergraph(4, [(1,)]))
    assert o.count == 0
    for _ in range(3):
        o.query(VertexSet(4, [1]))
    assert o.count == 3


def test_repeated_queries_counted_separately():
    o = Oracle(Hypergraph(4, [(2,)]))
    s = VertexSet(4, [2, 3])
    assert o.query(s) and o.query(s)
    assert o.count == 2
    assert [r.answer for r in o.transcript] == [True, True]


def test_budget_enforced():
    o = Oracle(Hypergraph(4, [(1,)]), budget=2)
    o.query(VertexSet(4, [1]))
    o.query(VertexSet(4, [2]))
    with pytest.raises(BudgetExceededError):
        o.query(VertexSet(4, [3]))
    assert o.count == 2
    with pytest.raises(ValueError):
        Oracle(Hypergraph(4), budget=-1)


def test_universe_mismatch():
    o = Oracle(Hypergraph(4, [(1,)]))
    with pytest.raises(ValueError):
        o.query(VertexSet(5, [1]))


@st.composite
def hypergraph_and_universe(draw):
    t = draw(st.integers(min_value=2, max_value=12))
    n_edges = draw(st.integers(min_value=0, max_value=3))
    edges = []
    for _ in range(n_edges):
        size = draw(st.integers(min_value=1, max_value=min(3, t)))
        edges.append(tuple(draw(st.permutations(range(1, t + 1)))[:size]))
    return Hypergraph(t, set(map(lambda e: tuple(sorted(e)), edges)))


@given(hypergraph_and_universe(), st.data())
def test_monotonicity(h, data):
    sub = data.draw(st.sets(st.integers(min_value=1, max_value=h.t)))
    extra = data.draw(st.sets(st.integers(min_value=1, max_value=h.t)))
    small = VertexSet(h.t, sub)
    big = VertexSet(h.t, sub | extra)
    o = Oracle(h)
    if o.query(small):
        assert o.query(big)


@given(hypergraph_and_universe())
def test_full_and_empty_queries(h):
    o = Oracle(h)
    assert o.query(VertexSet.full(h.t)) == bool(h.edges)
    assert o.query(VertexSet.empty(h.t)) is False


def test_transcript_jsonl():
    o = Oracle(Hypergraph(4, [(2, 3)]))
    o.query(VertexSet(4, [2, 3]))
    o.query(VertexSet(4, [1]))
    lines = o.transcript_jsonl().splitlines()
    assert [json.loads(ln) for ln in lines] == [
        {"i": 1, "q": [2, 3], "a": 1},
        {"i": 2, "q": [1], "a": 0},
    ]


def reference_jsonl(o: Oracle) -> str:
    lines = [
        json.dumps({"i": r.index, "q": list(r.query), "a": int(r.answer)})
        for r in o.transcript
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def assert_reference_bytes(o: Oracle) -> None:
    got, want = o.transcript_jsonl(), reference_jsonl(o)
    if got != want:
        # Show the bytes around the first difference, not a diff of two
        # texts that can be megabytes long.
        i = len(os.path.commonprefix([got, want]))
        j = max(i - 60, 0)
        assert (got[j : i + 60], len(got)) == (want[j : i + 60], len(want))


def test_transcript_jsonl_no_queries():
    assert Oracle(Hypergraph(5, [(1,)])).transcript_jsonl() == ""


@pytest.mark.parametrize(
    "t", [1, 9, 10, 11, 64, 99, 100, 101, 128, 1000, 4097, 2**16 + 3]
)
def test_transcript_jsonl_bytes_match_json_dumps(t):
    o = Oracle(Hypergraph(t, [(t,)]))
    o.query(VertexSet.empty(t))
    o.query(VertexSet.full(t))
    o.query(VertexSet.singleton(t, 1))
    o.query(VertexSet.singleton(t, t))
    # Runs that start or end at word boundaries, at t, and where the
    # digit count changes.
    ends = sorted({v for v in (1, 9, 10, 63, 64, 65, 99, 100, 128, 1000, t) if v <= t})
    for a in ends:
        for b in ends:
            if a <= b:
                o.query(VertexSet(t, range(a, b + 1)))
    o.query(VertexSet(t, [v for v in ends if v % 2]))
    rng = random.Random(t)
    for p in (0.1, 0.5, 0.9):
        o.query(VertexSet(t, [v for v in range(1, t + 1) if rng.random() < p]))
    assert_reference_bytes(o)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 9, 10, 63, 64, 65, 100, 129, 1000]),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_transcript_jsonl_dense_sets(t, densities, rng):
    o = Oracle(Hypergraph(t, [(1,)]))
    for p in densities:
        o.query(VertexSet(t, [v for v in range(1, t + 1) if rng.random() < p]))
    assert_reference_bytes(o)


def test_transcript_jsonl_learner_and_two_stage_transcripts():
    params = FamilyParams(4096, 3, 2)
    for seed in range(3):
        o = Oracle(random_disjoint_instance(params, seed=seed))
        learn_detailed(o, params)
        assert_reference_bytes(o)
    params = FamilyParams(256, 2, 2)
    for seed in range(3):
        o = Oracle(random_disjoint_instance(params, seed=seed))
        two_stage_trial(o, params, 0.05, seed=seed)
        # Stage-one blocks are random, so their queries have many runs.
        runs = max(bin(r.query.mask ^ (r.query.mask << 1)).count("1") // 2
                   for r in o.transcript)
        assert runs > 20
        assert_reference_bytes(o)


def test_transcript_write(tmp_path):
    o = Oracle(Hypergraph(3, [(1,)]))
    o.query(VertexSet(3, [1, 2]))
    path = tmp_path / "t.jsonl"
    o.write_transcript(str(path))
    assert json.loads(path.read_text().strip()) == {"i": 1, "q": [1, 2], "a": 1}


def test_tags_recorded():
    o = Oracle(Hypergraph(3, [(1,)]))
    o.query(VertexSet(3, [1]))
    o.tag = "stage1"
    o.query(VertexSet(3, [2]))
    o.tag = None
    o.query(VertexSet(3, [3]))
    assert [r.tag for r in o.transcript] == [None, "stage1", None]


def test_transcript_is_tuple_of_frozen_records_built_from_the_log():
    h = Hypergraph(6, [(1, 2), (5,)])
    o = Oracle(h)
    sets = [VertexSet(6, m) for m in ([1, 2], [3], [4, 5], [], [1, 2, 3, 4, 5, 6])]
    tags = [None, "stage1", "stage1", "stage2", None]
    for s, tag in zip(sets, tags):
        o.tag = tag
        o.query(s)
        assert o.count == len(o.transcript)
    tr = o.transcript
    assert type(tr) is tuple
    assert all(type(r) is QueryRecord for r in tr)
    assert [r.index for r in tr] == list(range(1, o.count + 1))
    assert [r.query for r in tr] == sets
    assert [r.answer for r in tr] == [not is_independent(h, s) for s in sets]
    assert [r.tag for r in tr] == tags
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr[0].answer = False


def test_transcript_cannot_change_the_oracle():
    o = Oracle(Hypergraph(4, [(1,)]))
    o.query(VertexSet(4, [1]))
    o.query(VertexSet(4, [2]))
    before = o.transcript
    with pytest.raises(AttributeError):
        o.transcript = []
    with pytest.raises(TypeError):
        o.transcript[0] = None
    assert o.transcript == before
    assert o.transcript is not before  # built afresh on every read
    assert o.count == 2


def test_query_past_budget_records_nothing():
    o = Oracle(Hypergraph(4, [(1,)]), budget=1)
    o.tag = "stage1"
    o.query(VertexSet(4, [1]))
    jsonl = o.transcript_jsonl()
    with pytest.raises(BudgetExceededError):
        o.query(VertexSet(4, [2]))
    assert o.count == len(o.transcript) == 1
    assert o.transcript == (QueryRecord(1, VertexSet(4, [1]), True, "stage1"),)
    assert o.transcript_jsonl() == jsonl
    with pytest.raises(BudgetExceededError):
        Oracle(Hypergraph(4, [(1,)]), budget=0).query(VertexSet.empty(4))


def test_monotonicity_bulk_random():
    rng = random.Random(20240811)
    for _ in range(500):
        t = rng.randint(2, 16)
        edges = set()
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(1, min(3, t))
            edges.add(tuple(sorted(rng.sample(range(1, t + 1), size))))
        h = Hypergraph(t, edges)
        sub = [v for v in range(1, t + 1) if rng.random() < 0.4]
        sup = sorted(set(sub) | {v for v in range(1, t + 1) if rng.random() < 0.3})
        o = Oracle(h)
        if o.query(VertexSet(t, sub)):
            assert o.query(VertexSet(t, sup))
