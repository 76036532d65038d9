from __future__ import annotations

import dataclasses
import inspect
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hhl.oracle
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
from hhl.core import edge_mask
from hhl.oracle import _decimal_text, _mask_text_size

from conftest import limit_address_space, toggles_of


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
    assert o.query(VertexSet(5)) is False
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
    assert o.query(VertexSet(h.t, range(1, h.t + 1))) == bool(h.edges)
    assert o.query(VertexSet(h.t)) is False


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
    o.query(VertexSet(t))
    o.query(VertexSet(t, range(1, t + 1)))
    o.query(VertexSet(t, [1]))
    o.query(VertexSet(t, [t]))
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
        members = [v for v in range(1, t + 1) if rng.random() < p]
        o.query(VertexSet(t, members))
        o.query(VertexSet._from_mask(t, edge_mask(members)))
    assert_reference_bytes(o)


@pytest.fixture(scope="module")
def learner_and_two_stage_oracles() -> list[Oracle]:
    """Three learner runs at (4096,3,2), then three two-stage trials at (256,2,2)."""
    oracles = []
    params = FamilyParams(4096, 3, 2)
    for seed in range(3):
        oracles.append(Oracle(random_disjoint_instance(params, seed=seed)))
        learn_detailed(oracles[-1], params)
    params = FamilyParams(256, 2, 2)
    for seed in range(3):
        oracles.append(Oracle(random_disjoint_instance(params, seed=seed)))
        two_stage_trial(oracles[-1], params, 0.05, seed=seed)
    return oracles


def test_transcript_jsonl_learner_and_two_stage_transcripts(learner_and_two_stage_oracles):
    for o in learner_and_two_stage_oracles[3:]:
        # Stage-one blocks are random, so their queries have many runs.
        runs = max(bin(r.query.mask ^ (r.query.mask << 1)).count("1") // 2
                   for r in o.transcript)
        assert runs > 20
    for o in learner_and_two_stage_oracles:
        assert_reference_bytes(o)


@pytest.mark.parametrize("cap, queries, message", [
    pytest.param(20, [[30]], "lists vertex 30", id="text"),
    pytest.param(40, [range(1, 11)] * 3, "members take 87 bytes", id="members"),
])
def test_write_transcript_over_a_cap_creates_no_file(tmp_path, monkeypatch, cap, queries,
                                                     message):
    monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", cap)
    o = Oracle(Hypergraph(100, [(1,)]))
    for members in queries:
        o.query(VertexSet(100, members))
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match=message):
        o.write_transcript(str(path))
    assert not path.exists()


def test_write_transcript_holds_one_line_at_a_time(tmp_path):
    # The learner's first queries are the universe and its halves, so the
    # file is about 43 MB; no more than one line of it is held at once.
    params = FamilyParams(2**16, 3, 2)
    o = Oracle(random_disjoint_instance(params, seed=0))
    learn_detailed(o, params)
    path = tmp_path / "t.jsonl"
    tracemalloc.start()
    try:
        o.write_transcript(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 40 << 20
    assert peak < size / 4, (peak, size)


def test_transcript_write(tmp_path, learner_and_two_stage_oracles):
    o = Oracle(Hypergraph(3, [(1,)]))
    o.query(VertexSet(3, [1, 2]))
    path = tmp_path / "t.jsonl"
    o.write_transcript(str(path))
    assert json.loads(path.read_text().strip()) == {"i": 1, "q": [1, 2], "a": 1}
    # The file is streamed a line at a time, with transcript_jsonl's bytes.
    empty = Oracle(Hypergraph(5, [(1,)]))
    for k, o in enumerate([empty, *learner_and_two_stage_oracles]):
        path = tmp_path / f"{k}.jsonl"
        o.write_transcript(str(path))
        assert path.read_bytes() == o.transcript_jsonl().encode()


def assert_encodings_match(o: Oracle, path) -> None:
    """write_transcript's file, transcript_jsonl and json.dumps per record
    hold the same bytes."""
    assert_reference_bytes(o)
    o.write_transcript(str(path))
    same = path.read_bytes() == o.transcript_jsonl().encode()
    assert same, "write_transcript's bytes differ from transcript_jsonl's"


def encoder_cases(t: int) -> list[list[int]]:
    """Member lists: vertex 1 and vertex t, runs and pairs across each
    digit-count boundary, runs of 9 and of 10 members, and random sets."""
    cases = [[], [1], [t], [1, t], list(range(1, t + 1))]
    for b in (9, 99, 999, 9999):
        cases += [[b], [b + 1], [b, b + 1], list(range(b - 2, b + 3)),
                  list(range(1, b + 1)), list(range(b + 1, t + 1)), [1, b, b + 1, t]]
    for length in (9, 10):
        cases.append([v for a in range(1, t + 1, length + 2)
                      for v in range(a, min(a + length, t + 1))])
    rng = random.Random(t)
    for p in (0.1, 0.5, 0.9):
        cases.append([v for v in range(1, t + 1) if rng.random() < p])
    return [[v for v in members if v <= t] for members in cases]


@pytest.mark.parametrize("t", [10000, 10001])
def test_encoder_bytes_match_json_dumps(tmp_path, t):
    # Every case run-coded (sliced) and mask-coded (listed): the two ways of
    # writing a query give json.dumps' bytes.
    o = Oracle(Hypergraph(t, [(1,)]))
    for members in encoder_cases(t):
        o.query(VertexSet(t, members))
        o.query(VertexSet._from_mask(t, edge_mask(members)))
    assert {r.answer for r in o.transcript} == {False, True}
    assert_encodings_match(o, tmp_path / "t.jsonl")
    empty = Oracle(Hypergraph(t, [(1,)]))
    assert_encodings_match(empty, tmp_path / "empty.jsonl")
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


def test_only_run_coded_queries_build_the_decimal_text(monkeypatch):
    # The code alone picks the line rule: a run-coded query is sliced even
    # when its runs hold one member each, so the text runs up to its top;
    # a mask-coded query is listed even when its runs are long, so no text
    # is built for it.
    tops = []
    build = hhl.oracle._decimal_text
    monkeypatch.setattr(hhl.oracle, "_decimal_text", lambda top: tops.append(top) or build(top))
    t = 200
    singles = list(range(1, 150, 2))
    o = Oracle(Hypergraph(t, [(1,)]))
    o.query(VertexSet(t, singles))
    assert_reference_bytes(o)
    assert tops == [singles[-1]]
    long_runs = [v for a in range(1, 150, 40) for v in range(a, a + 30)]
    o = Oracle(Hypergraph(t, [(1,)]))
    o.query(VertexSet._from_mask(t, edge_mask(long_runs)))
    assert_reference_bytes(o)
    assert tops[1:] == [0]


def test_decimal_text_and_text_sizes_match_join(monkeypatch):
    for top in [*range(1203), 9999, 10000, 10001, 99_999, 100_000, 100_099, 100_100, 10**6 + 57]:
        assert _decimal_text(top) == ", ".join(map(str, range(1, top + 1))).encode(), top
    rng = random.Random(3)
    for t in (1, 9, 10, 11, 99, 100, 101, 1000, 1001, 10001):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            members = [v for v in range(1, t + 1) if rng.random() < p]
            size = len(", ".join(map(str, members)))
            assert _mask_text_size(edge_mask(members)) == size
            if not members:
                continue
            # The encoder's count for the run-coded set, from its runs' offsets:
            # logged until its members outweigh the text of 1..top, so the
            # member cap, set to that text's length, names their total.
            o = Oracle(Hypergraph(t, [(1,)]))
            text, n = len(_decimal_text(members[-1])), 0
            while n * size <= text:
                o.query(VertexSet(t, members))
                n += 1
            monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", text)
            with pytest.raises(ValueError, match=f"members take {n * size} bytes"):
                o.transcript_jsonl()


def test_transcript_jsonl_holds_the_output_at_most_twice():
    # The decoded lines and the string they are joined into; no bytes copy
    # of the whole output besides.
    params = FamilyParams(2**14, 3, 2)
    o = Oracle(random_disjoint_instance(params, seed=0))
    learn_detailed(o, params)
    tracemalloc.start()
    try:
        text = o.transcript_jsonl()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 8 << 20
    assert peak < 2.2 * len(text), (peak, len(text))


def test_transcript_is_tuple_of_frozen_records_built_from_the_log():
    h = Hypergraph(6, [(1, 2), (5,)])
    o = Oracle(h)
    sets = [VertexSet(6, m) for m in ([1, 2], [3], [4, 5], [], [1, 2, 3, 4, 5, 6])]
    for s in sets:
        o.query(s)
        assert o.count == len(o.transcript)
    tr = o.transcript
    assert type(tr) is tuple
    assert all(type(r) is QueryRecord for r in tr)
    assert [r.index for r in tr] == list(range(1, o.count + 1))
    assert [r.query for r in tr] == sets
    assert [r.answer for r in tr] == [not is_independent(h, s) for s in sets]
    assert [f.name for f in dataclasses.fields(QueryRecord)] == ["index", "query", "answer"]
    assert list(inspect.signature(Oracle.query).parameters) == ["self", "s"]
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


def test_log_keeps_the_mask_that_was_answered():
    o = Oracle(Hypergraph(4, [(1,)]))
    s = VertexSet._from_mask(4, 0b1)
    assert o.query(s)
    record = (QueryRecord(1, VertexSet(4, [1]), True),)
    jsonl = '{"i": 1, "q": [1], "a": 1}\n'
    assert o.transcript == record and o.transcript_jsonl() == jsonl
    # The log keeps the caller's set, which cannot be reassigned.
    assert o.transcript[0].query is s
    with pytest.raises(AttributeError):
        s.t = 5
    with pytest.raises(AttributeError):
        s.mask = 0b1110
    assert o.transcript == record
    assert o.transcript_jsonl() == jsonl


def test_hidden_is_read_only():
    # The answers come from the edge table built at construction, so a new
    # hidden hypergraph would not be the one answered from.
    hidden = Hypergraph(8, [(1, 2)])
    o = Oracle(hidden)
    with pytest.raises(AttributeError):
        o.hidden = Hypergraph(8, [(7, 8)])
    assert o.hidden is hidden
    assert learn_detailed(o, FamilyParams(8, 1, 2), debug_checks=True).hypergraph == hidden


@pytest.mark.parametrize("t", [1, 2, 63, 64, 65, 130, 4097])
def test_run_coded_queries_match_mask_coded(t):
    # One oracle is asked mask-coded sets, one the same sets run-coded
    # (with empty and touching runs), one the two codes in turn: same
    # answers, transcripts and bytes.
    rng = random.Random(t)
    marks = sorted({v for v in (1, 2, 63, 64, 65, t // 2, t // 2 + 1, t - 1, t) if 1 <= v <= t})
    for _ in range(8):
        edges = {
            tuple(sorted(set(rng.sample(marks, rng.randint(1, min(3, len(marks)))))))
            for _ in range(rng.randint(0, 3))
        }
        h = Hypergraph(t, edges)
        oracles = Oracle(h), Oracle(h), Oracle(h)
        for i in range(25):
            members = {v for v in marks if rng.random() < 0.7}
            start = rng.randint(1, t)
            members |= set(range(start, min(t + 1, start + rng.randint(0, 200))))
            members |= {v for v in range(1, t + 1) if rng.random() < 0.05}
            extra = [rng.randint(0, t) for _ in range(rng.randint(0, 3))]
            by_mask = VertexSet._from_mask(t, edge_mask(members))
            by_runs = VertexSet._from_runs(t, toggles_of(members, extra))
            want = any(set(e) <= members for e in edges)
            for o, s in zip(oracles, (by_mask, by_runs, (by_mask, by_runs)[i % 2])):
                assert o.query(s) == want
            assert is_independent(h, by_runs) == (not want)
            assert is_independent(h, by_mask) == (not want)
        first = oracles[0].transcript
        assert all(r.query._runs is None for r in first)  # the mask kernel answered
        assert all(o.transcript == first for o in oracles)
        assert all([r.query.members() for r in o.transcript]
                   == [r.query.members() for r in first] for o in oracles)
        assert all(o.transcript_jsonl() == oracles[0].transcript_jsonl() for o in oracles)
        assert_reference_bytes(oracles[1])
        assert_reference_bytes(oracles[2])


def test_log_keeps_the_toggles_that_were_answered():
    o = Oracle(Hypergraph(4, [(1,)]))
    s = VertexSet._from_runs(4, (0, 1, 1, 1))
    assert o.query(s)
    assert o.transcript[0].query is s
    with pytest.raises(AttributeError):
        s.t = 5
    with pytest.raises(AttributeError):
        s.mask = 0b1110
    assert s.members() == (1,)
    assert o.transcript == (QueryRecord(1, VertexSet(4, [1]), True),)
    assert o.transcript_jsonl() == '{"i": 1, "q": [1], "a": 1}\n'


def test_transcript_over_the_cap_is_refused(monkeypatch):
    monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", 20)
    o = Oracle(Hypergraph(100, [(1,)]))
    o.query(VertexSet(100, range(1, 6)))
    assert o.transcript_jsonl() == '{"i": 1, "q": [1, 2, 3, 4, 5], "a": 1}\n'
    o.query(VertexSet._from_runs(100, (29, 30)))
    with pytest.raises(ValueError, match="decimal text"):
        o.transcript_jsonl()
    # The text of vertices 1..10 (29 bytes) fits; three lists of them do not.
    monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", 40)
    o = Oracle(Hypergraph(10, [(1,)]))
    for _ in range(3):
        o.query(VertexSet(10, range(1, 11)))
    with pytest.raises(ValueError, match="members take 87 bytes"):
        o.transcript_jsonl()


def test_transcript_cap_counts_the_text_not_the_top_vertex(monkeypatch):
    # The text of 1..50 would take 189 bytes, so a lone {50} is refused,
    # although 50 is below the cap and its member takes 2 bytes.
    monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", 100)
    o = Oracle(Hypergraph(100, [(1,)]))
    o.query(VertexSet(100, [50]))
    with pytest.raises(ValueError, match="vertex 50, more than the cap of 100 bytes"):
        o.transcript_jsonl()


def test_transcript_text_cap_counts_only_run_coded_queries(monkeypatch):
    # A mask-coded {50} is listed and reads no text, so only its 2 bytes of
    # members count; the run-coded {50} still needs the 189 bytes of 1..50.
    monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", 100)
    o = Oracle(Hypergraph(100, [(1,)]))
    o.query(VertexSet._from_mask(100, edge_mask([50])))
    assert o.transcript_jsonl() == '{"i": 1, "q": [50], "a": 0}\n'
    o.query(VertexSet(100, [50]))
    with pytest.raises(ValueError, match="vertex 50, more than the cap of 100 bytes"):
        o.transcript_jsonl()


@pytest.mark.parametrize("rounds", [1, 10])
def test_transcript_caps_admit_their_exact_size(monkeypatch, rounds):
    # One round's members take fewer bytes than the text of 1..t, so the
    # text cap binds; ten rounds' take more, so the member cap binds. The
    # records have several runs each but one, which has none, so a count
    # off by the 2 bytes of a separator per record, or by a digit in any
    # digit count, shows at the exact cap or one below it. At t = 10001
    # the records are sliced and their runs straddle 9/10, 99/100,
    # 999/1000 and 9999/10000: a pair across each, and the runs of six
    # between multiples of 7 (8..13, 99..104, 995..1000, 9997..10001).
    for t, records in (
        (100, ([1, 2, 3, 7, 20, 21, 22, 40], [], [5, 9, 11], [64, 65, 99, 100])),
        (10001, ([9, 10, 99, 100, 999, 1000, 9999, 10000], [],
                 [v for v in range(1, 10002) if v % 7])),
    ):
        o = Oracle(Hypergraph(t, [(1,)]))
        for _ in range(rounds):
            for members in records:
                o.query(VertexSet(t, members))
        text = len(", ".join(map(str, range(1, t + 1))))
        members = sum(len(", ".join(map(str, r.query))) for r in o.transcript)
        assert (members < text) == (rounds == 1)
        if rounds == 1:
            cap, message = text, f"vertex {t}, more than the cap of {text - 1} bytes"
        else:
            cap, message = members, f"members take {members} bytes"
        monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", cap)
        assert_reference_bytes(o)
        monkeypatch.setattr(hhl.oracle, "MAX_TRANSCRIPT_BYTES", cap - 1)
        with pytest.raises(ValueError, match=message):
            o.transcript_jsonl()


def test_query_answers_match_plain_set_containment():
    # Vertices 1, t, t//2, t//2 + 1 and 63/64/65 sit on the ends of the
    # universe, its middle and 64-bit word boundaries.
    rng = random.Random(9)
    for t in (1, 2, 3, 5, 63, 64, 65, 130, 4097):
        marks = [v for v in (1, 2, 63, 64, 65, t // 2, t // 2 + 1, t - 1, t) if 1 <= v <= t]
        for _ in range(40):
            edges = {
                tuple(sorted(set(rng.sample(marks, rng.randint(1, min(3, len(marks)))))))
                for _ in range(rng.randint(0, 3))
            }
            h = Hypergraph(t, edges)
            members = {v for v in marks if rng.random() < 0.7}
            members |= {v for v in range(1, t + 1) if rng.random() < 0.3}
            want = any(set(e) <= members for e in edges)
            for s in (VertexSet(t, members), VertexSet._from_mask(t, edge_mask(members))):
                assert Oracle(h).query(s) == want
                assert is_independent(h, s) == (not want)


def test_query_past_budget_records_nothing():
    o = Oracle(Hypergraph(4, [(1,)]), budget=1)
    o.query(VertexSet(4, [1]))
    jsonl = o.transcript_jsonl()
    with pytest.raises(BudgetExceededError):
        o.query(VertexSet(4, [2]))
    assert o.count == len(o.transcript) == 1
    assert o.transcript == (QueryRecord(1, VertexSet(4, [1]), True),)
    assert o.transcript_jsonl() == jsonl
    with pytest.raises(BudgetExceededError):
        Oracle(Hypergraph(4, [(1,)]), budget=0).query(VertexSet(4))


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


# Frames: the queries of index masks m over one vertex set (Oracle.frame),
# bit i for its i-th smallest vertex and the rest bit above them for every
# other vertex, asked as oracle.query((frame, m)).


@st.composite
def frame_cases(draw):
    """(hidden, frame vertices): the vertices may hold 1, 2, t-1, t, word
    boundaries and touching pairs, or nothing, and hidden edges draw members
    from them and from the rest of the universe."""
    t = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 100, 1001]))
    marks = sorted({v for v in (1, 2, 63, 64, 65, 66, t // 2, t // 2 + 1, t - 1, t)
                    if 1 <= v <= t})
    vertex = st.one_of(st.sampled_from(marks), st.integers(1, t))
    vertices = draw(st.sets(vertex, max_size=3))
    vertices |= draw(st.sets(st.sampled_from(sorted({v for v in (1, 2, t - 1, t) if 1 <= v <= t}))))
    for a in draw(st.lists(st.integers(1, t), max_size=1)):
        vertices |= {a, min(a + 1, t)}  # a touching pair
    member = st.one_of(st.sampled_from(sorted(vertices | {1, t})), st.integers(1, t))
    edges = draw(st.lists(st.sets(member, min_size=1, max_size=3), max_size=4))
    return Hypergraph(t, {tuple(sorted(e)) for e in edges}), sorted(vertices)


@settings(max_examples=80, deadline=None)
@given(frame_cases())
@example((Hypergraph(1, [(1,)]), []))
@example((Hypergraph(1, [(1,)]), [1]))
@example((Hypergraph(9), []))
@example((Hypergraph(9, [(3,)]), []))
@example((Hypergraph(9, [(1, 9), (2, 5)]), [1, 2, 8, 9]))
@example((Hypergraph(9, [(3, 4), (1, 6)]), [3, 4, 5]))
def test_frame_queries_match_a_throwaway_oracle_on_the_rebuilt_set(case):
    # Every mask, the rest bit included: the rebuilt set is the one the
    # constructor makes from the members the mask names, toggles and all,
    # and the frame answers as a throwaway oracle on either.
    hidden, vertices = case
    t, n = hidden.t, len(vertices)
    others = [v for v in range(1, t + 1) if v not in vertices]
    for code in (VertexSet(t, vertices), VertexSet._from_mask(t, edge_mask(vertices))):
        o = Oracle(hidden)
        frame = o.frame(code)
        sets = []
        for m in range(2 << n):
            chosen = [v for i, v in enumerate(vertices) if m >> i & 1]
            want = VertexSet(t, chosen + others if m >> n else chosen)
            s = frame.vertex_set(m)
            assert s._runs == want._runs
            assert o.query((frame, m)) == Oracle(hidden).query(s) == Oracle(hidden).query(want)
            sets.append(s)
        assert [r.query for r in o.transcript] == sets
        assert_reference_bytes(o)


def test_frame_refuses_vertices_over_another_universe():
    o = Oracle(Hypergraph(10, [(2, 3)]))
    for vertices in (VertexSet(11, [5]), VertexSet(9), VertexSet._from_mask(11, 0b11)):
        with pytest.raises(ValueError, match=rf"universe mismatch: {vertices.t} != 10"):
            o.frame(vertices)
    assert o.count == 0


def test_query_refuses_a_frame_of_another_oracle():
    # Edgeless oracles read equal (empty) edge tables; their frames are
    # still their own. Two vertices give masks 0..7, the rest bit 0b100.
    for h in (Hypergraph(8, [(1, 2)]), Hypergraph(8)):
        mine, other = Oracle(h), Oracle(h)
        frame = other.frame(VertexSet(8, [1, 2]))
        with pytest.raises(ValueError, match="another oracle"):
            mine.query((frame, 0b11))
        for m in (-1, 0b1000):
            with pytest.raises(ValueError, match=f"index mask {m} outside"):
                other.query((frame, m))
        assert mine.count == other.count == 0
        assert mine.transcript == other.transcript == ()
        assert mine.query((mine.frame(VertexSet(8, [1, 2])), 0b11)) == bool(h.edges)
        assert other.query((frame, 0b111)) == bool(h.edges)


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_budget_stops_frame_queries_at_the_same_index_as_sets(budget):
    h = Hypergraph(16, [(2, 9), (4,)])
    by_frame, by_set = Oracle(h, budget=budget), Oracle(h, budget=budget)
    frame = by_frame.frame(VertexSet(16, [2, 3, 4]))
    masks = [m for k in range(8) for m in (0b1000 | k, k)]  # rest-bit masks first

    def stop(ask) -> tuple[int, str] | None:
        for i, m in enumerate(masks):
            try:
                ask(m)
            except BudgetExceededError as e:
                return i, str(e)
        return None

    got = stop(lambda m: by_frame.query((frame, m)))
    want = stop(lambda m: by_set.query(frame.vertex_set(m)))
    assert got == want == (budget, f"query budget {budget} exhausted")
    assert by_frame.count == by_set.count == budget
    assert by_frame.transcript == by_set.transcript
    assert by_frame.transcript_jsonl() == by_set.transcript_jsonl()


def test_frame_query_records_hold_run_coded_sets(tmp_path):
    o = Oracle(Hypergraph(70, [(3, 64)]))
    frame = o.frame(VertexSet(70, [3, 63, 66]))
    assert o.query((frame, 0b1001))  # vertex 3 and every vertex but 63, 66
    assert not o.query((frame, 0b0110))
    # The log keeps the pair, O(1) ints; a read rebuilds the set.
    assert [q for q, _ in o._log] == [(frame, 0b1001), (frame, 0b0110)]
    rest = [v for v in range(1, 71) if v not in (63, 66)]
    assert o.transcript == (QueryRecord(1, VertexSet(70, rest), True),
                            QueryRecord(2, VertexSet(70, [63, 66]), False))
    assert all(type(r.query) is VertexSet and r.query._runs is not None for r in o.transcript)
    # perfbench/tracing.py sums sys.getsizeof(rec.query.mask) over the records.
    assert [r.query.mask for r in o.transcript] == [edge_mask(rest), edge_mask([63, 66])]
    jsonl = (json.dumps({"i": 1, "q": rest, "a": 1}) + "\n"
             + '{"i": 2, "q": [63, 66], "a": 0}\n')
    assert o.transcript_jsonl() == jsonl
    o.write_transcript(str(tmp_path / "t.jsonl"))
    assert (tmp_path / "t.jsonl").read_text() == jsonl


def test_frame_over_every_vertex_of_a_wide_universe():
    # A frame keeps one index per vertex and shifts only for edge members,
    # so 2^20 vertices fit under a 4 GiB address limit; one int of up to
    # i bits per vertex i would take about 64 GiB.
    code = (
        "from hhl import Hypergraph, Oracle, VertexSet\n"
        "t = 2**20\n"
        "o = Oracle(Hypergraph(t, [(1, t), (5, 6)]))\n"
        "frame = o.frame(VertexSet(t, range(1, t + 1)))\n"
        "print(o.query((frame, 1 | 1 << (t - 1))), o.query((frame, 1 << t | 0b10000)),\n"
        "      [r.query for r in o.transcript] == [VertexSet(t, [1, t]), VertexSet(t, [5])])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False True\n"


# Prefix frames: the queries of ranks r over a base set and a pool
# (Oracle.prefixes), each asking for the base plus the r smallest members of
# the pool, asked as oracle.query((frame, r)).


@st.composite
def prefix_cases(draw):
    """(hidden, base, pool, extra): disjoint sorted base and pool that may
    hold 1, 2, t-1, t, word boundaries, touching pairs and a longer run, or
    nothing; extra lists positions the pool's run code doubles, which makes
    empty runs or splits a run into touching ones. Hidden edges draw
    members from base, pool and the rest of the universe."""
    t = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 100, 1001]))
    marks = sorted({v for v in (1, 2, 63, 64, 65, 66, t // 2, t // 2 + 1, t - 1, t)
                    if 1 <= v <= t})
    vertex = st.one_of(st.sampled_from(marks), st.integers(1, t))
    held = draw(st.sets(vertex, max_size=6))
    for a in draw(st.lists(st.integers(1, t), max_size=2)):
        held |= {a, min(a + 1, t)}  # a touching pair
    for a in draw(st.lists(st.integers(1, t), max_size=1)):
        held |= set(range(a, min(a + draw(st.integers(2, 40)), t + 1)))
    held = sorted(held)
    in_base = draw(st.lists(st.booleans(), min_size=len(held), max_size=len(held)))
    base = [v for v, b in zip(held, in_base) if b]
    pool = [v for v, b in zip(held, in_base) if not b]
    extra = draw(st.lists(st.one_of(st.sampled_from([0, t, *held]), st.integers(0, t)),
                          max_size=3))
    member = st.one_of(st.sampled_from(sorted({*held, 1, t})), st.integers(1, t))
    edges = draw(st.lists(st.sets(member, min_size=1, max_size=3), max_size=4))
    return Hypergraph(t, {tuple(sorted(e)) for e in edges}), base, pool, extra


@settings(max_examples=80, deadline=None)
@given(prefix_cases())
@example((Hypergraph(1, [(1,)]), [], [1], [0, 1]))
@example((Hypergraph(1, [(1,)]), [1], [], []))
@example((Hypergraph(9), [], [], [4]))
@example((Hypergraph(9, [(3,)]), [], [1, 2, 8, 9], [1, 9]))
@example((Hypergraph(9, [(1, 9), (2, 5)]), [2, 9], [1, 3, 4, 5, 8], [3, 4]))
@example((Hypergraph(9, [(3, 4), (1, 6)]), [5, 6], [3, 4, 7], [0, 9]))
def test_prefix_queries_match_a_throwaway_oracle_on_the_rebuilt_set(case):
    # Every rank: the rebuilt set is the one the constructor makes from the
    # base and the pool's r smallest members, toggles and all, the frame
    # answers as a throwaway oracle on either, and rank r names the r-th
    # smallest pool member. The base and pool come run-coded, the pool's
    # code with extra's empty or touching runs, and mask-coded.
    hidden, base, pool, extra = case
    t = hidden.t
    codes = ((VertexSet(t, base), VertexSet._from_runs(t, toggles_of(pool, extra))),
             (VertexSet._from_mask(t, edge_mask(base)), VertexSet._from_mask(t, edge_mask(pool))))
    for base_code, pool_code in codes:
        o = Oracle(hidden)
        frame = o.prefixes(base_code, pool_code)
        assert frame.size == len(pool)
        sets = []
        for r in range(len(pool) + 1):
            want = VertexSet(t, base + pool[:r])
            s = frame.vertex_set(r)
            assert s._runs == want._toggles()
            assert o.query((frame, r)) == Oracle(hidden).query(s) == Oracle(hidden).query(want)
            assert r == 0 or frame.vertex(r) == pool[r - 1]
            sets.append(s)
        assert [rec.query for rec in o.transcript] == sets
        assert_reference_bytes(o)


def test_prefixes_refuse_another_universe_or_a_shared_vertex():
    o = Oracle(Hypergraph(10, [(2, 3)]))
    for base, pool in ((VertexSet(11, [5]), VertexSet(10, [1])),
                       (VertexSet(10), VertexSet(9, [1])),
                       (VertexSet(10), VertexSet._from_mask(11, 0b11))):
        bad = base.t if base.t != 10 else pool.t
        with pytest.raises(ValueError, match=rf"universe mismatch: {bad} != 10"):
            o.prefixes(base, pool)
    for base, pool in ((VertexSet(10, [3, 4]), VertexSet(10, [4, 5])),
                       (VertexSet(10, [1]), VertexSet._from_runs(10, (0, 1, 1, 1))),
                       (VertexSet(10, [10]), VertexSet._from_mask(10, 1 << 9))):
        with pytest.raises(ValueError, match="base and pool share a vertex"):
            o.prefixes(base, pool)
    assert o.count == 0


def test_query_refuses_a_prefix_frame_of_another_oracle_or_a_rank_out_of_range():
    # Edgeless oracles read equal (empty) edge tables; their frames are
    # still their own. A pool of two gives ranks 0..2.
    for h in (Hypergraph(8, [(1, 2)]), Hypergraph(8)):
        mine, other = Oracle(h), Oracle(h)
        frame = other.prefixes(VertexSet(8, [1]), VertexSet(8, [2, 5]))
        with pytest.raises(ValueError, match="another oracle"):
            mine.query((frame, 1))
        for r in (-1, 3):
            with pytest.raises(ValueError, match=rf"rank {r} outside 0\.\.2"):
                other.query((frame, r))
        assert mine.count == other.count == 0
        assert mine.transcript == other.transcript == ()
        mine_frame = mine.prefixes(VertexSet(8, [1]), VertexSet(8, [2, 5]))
        assert mine.query((mine_frame, 1)) == bool(h.edges)
        assert not other.query((frame, 0))
        assert other.query((frame, 2)) == bool(h.edges)


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_budget_stops_prefix_queries_at_the_same_index_as_sets(budget):
    h = Hypergraph(16, [(2, 9), (4, 12)])
    by_frame, by_set = Oracle(h, budget=budget), Oracle(h, budget=budget)
    frame = by_frame.prefixes(VertexSet(16, [2, 3]), VertexSet(16, [4, 9, 10, 12]))
    ranks = [4, 0, 2, 1, 3, 2, 4, 0]

    def stop(ask) -> tuple[int, str] | None:
        for i, r in enumerate(ranks):
            try:
                ask(r)
            except BudgetExceededError as e:
                return i, str(e)
        return None

    got = stop(lambda r: by_frame.query((frame, r)))
    want = stop(lambda r: by_set.query(frame.vertex_set(r)))
    assert got == want == (budget, f"query budget {budget} exhausted")
    assert by_frame.count == by_set.count == budget
    assert by_frame.transcript == by_set.transcript
    assert by_frame.transcript_jsonl() == by_set.transcript_jsonl()


def test_prefix_query_records_hold_run_coded_sets(tmp_path):
    o = Oracle(Hypergraph(70, [(3, 64)]))
    # Base {3}, pool 63..66 with an empty run at 64 and vertex 70.
    pool = VertexSet._from_runs(70, (62, 64, 64, 64, 64, 66, 69, 70))
    frame = o.prefixes(VertexSet(70, [3]), pool)
    assert not o.query((frame, 1))  # 3, 63
    assert o.query((frame, 4))  # 3, 63..66
    # The log keeps the pair, O(1) ints; a read rebuilds the set.
    assert [q for q, _ in o._log] == [(frame, 1), (frame, 4)]
    assert o.transcript == (QueryRecord(1, VertexSet(70, [3, 63]), False),
                            QueryRecord(2, VertexSet(70, [3, 63, 64, 65, 66]), True))
    assert all(type(r.query) is VertexSet and r.query._runs is not None for r in o.transcript)
    assert [frame.vertex(r) for r in range(1, 6)] == [63, 64, 65, 66, 70]
    jsonl = ('{"i": 1, "q": [3, 63], "a": 0}\n'
             '{"i": 2, "q": [3, 63, 64, 65, 66], "a": 1}\n')
    assert o.transcript_jsonl() == jsonl
    o.write_transcript(str(tmp_path / "t.jsonl"))
    assert (tmp_path / "t.jsonl").read_text() == jsonl
