from __future__ import annotations

import dataclasses
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import accumulate

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


IOV_MAX = os.sysconf("SC_IOV_MAX")


def record_writev(monkeypatch, short: random.Random | None = None) -> list[tuple[int, int, int]]:
    """Patch os.writev to record (buffers, bytes asked, bytes written) per
    call. With a Random, a call asked for more than one byte writes only
    part of it, a short write: up to a random buffer's end or a random byte."""
    calls = []
    writev = os.writev

    def spy(fd, bufs):
        asked = sum(map(len, bufs))
        count, keep = len(bufs), asked
        if short is not None and asked > 1:
            ends = [e for e in accumulate(map(len, bufs)) if 0 < e < asked]
            keep = short.choice(ends) if ends and short.random() < 0.5 else short.randrange(1, asked)
        cut = []
        for b in bufs:
            if keep <= 0:
                break
            cut.append(memoryview(b)[:keep])
            keep -= len(cut[-1])
        written = writev(fd, cut)
        calls.append((count, asked, written))
        return written

    monkeypatch.setattr(os, "writev", spy)
    return calls


def test_write_transcript_finishes_short_writes(tmp_path, monkeypatch,
                                                learner_and_two_stage_oracles):
    # Every os.writev call writes only part of its buffers, ending inside a
    # buffer or at one's end; the next call starts where it stopped.
    t = 1000
    o = Oracle(Hypergraph(t, [(1,)]))
    for members in encoder_cases(t):
        o.query(VertexSet(t, members))
        o.query(VertexSet._from_mask(t, edge_mask(members)))
    calls = record_writev(monkeypatch, short=random.Random(7))
    for k, oracle in enumerate([o, *learner_and_two_stage_oracles]):
        assert_encodings_match(oracle, tmp_path / f"{k}.jsonl")
    assert calls and all(written < asked for _, asked, written in calls if asked > 1)


def test_write_transcript_splits_a_line_of_more_runs_than_iov_max(tmp_path, monkeypatch):
    # One run-coded line of IOV_MAX + 4 one-member runs, so IOV_MAX + 6
    # buffers, more than one os.writev call takes; its mask-coded twin is
    # one built line.
    t = 2 * IOV_MAX + 7
    odd = range(1, t + 1, 2)
    o = Oracle(Hypergraph(t, [(1,)]))
    o.query(VertexSet(t, [1, 2, t]))
    o.query(VertexSet(t, odd))
    o.query(VertexSet._from_mask(t, edge_mask(odd)))
    assert [len(line) for line in o._jsonl_lines()] == [4, IOV_MAX + 6, 1]
    calls = record_writev(monkeypatch)
    assert_encodings_match(o, tmp_path / "t.jsonl")
    assert len(calls) >= 2
    assert max(count for count, _, _ in calls) <= IOV_MAX


def test_write_transcript_batches_many_small_lines(tmp_path, monkeypatch):
    # 3 * IOV_MAX sliced lines of three or more buffers each fill several
    # batches by buffer count; 20 mask-coded lines of about 100 KB fill
    # more than one by bytes.
    t = 100
    o = Oracle(Hypergraph(t, [(3, 4)]))
    frame = o.frame(VertexSet(t, [3, 4]))
    for k in range(3 * IOV_MAX):
        o.query(VertexSet(t, [k % t + 1]) if k % 2 else (frame, k % (4 * t - 4)))
    calls = record_writev(monkeypatch)
    assert_encodings_match(o, tmp_path / "sliced.jsonl")
    assert len(calls) >= 3
    assert max(count for count, _, _ in calls) <= IOV_MAX
    t = 2**14
    o = Oracle(Hypergraph(t, [(1,)]))
    for k in range(20):
        o.query(VertexSet._from_mask(t, (1 << t) - 1 >> k))
    calls.clear()
    assert_encodings_match(o, tmp_path / "listed.jsonl")
    assert len(calls) >= 2
    assert sum(asked for _, asked, _ in calls) > hhl.oracle._WRITE_BATCH


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


# Frames: the queries of index masks m over the found vertices F
# (Oracle.frame), asked as oracle.query((frame, m)): with n = |F|, the low n
# bits of m choose members of F and r = m >> n asks for the r smallest
# vertices outside F.


def frame_query_toggles(t: int, vertices: list[int], low: int, r: int) -> tuple[int, ...]:
    """The strictly increasing toggles of the chosen members of sorted
    vertices plus the r smallest vertices outside them, taken gap by gap
    between the members, so at any t; the chosen bits are read from
    bin(low), so in time linear in the vertices."""
    spans = [(v - 1, v) for v, bit in zip(vertices, bin(low)[:1:-1]) if bit == "1"]
    prev = 0
    for v in (*vertices, t + 1):
        take = min(r, v - 1 - prev)
        if take:
            spans.append((prev, prev + take))
        r, prev = r - take, v
    out: list[int] = []
    for a, b in sorted(spans):
        if out and out[-1] == a:
            out[-1] = b
        else:
            out += (a, b)
    return tuple(out)


def frame_ranks(t: int, vertices: list[int]) -> list[int]:
    """Every rank 0..t-n when there are at most 2048 masks, else the ranks
    next to where the run of outside vertices meets a member or an end."""
    n = len(vertices)
    if (t - n + 1) << n <= 2048:
        return list(range(t - n + 1))
    gaps = [v - 1 - i for i, v in enumerate(vertices)]  # outside vertices below each member
    return sorted({x for g in (0, *gaps, t - n) for x in (g - 1, g, g + 1) if 0 <= x <= t - n})


@st.composite
def frame_cases(draw):
    """(hidden, frame vertices): the vertices may hold 1, 2, t-1, t, word
    boundaries and touching pairs, or nothing, and hidden edges draw members
    from them and from the rest of the universe."""
    t = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 100, 1001]))
    marks = sorted({v for v in (1, 2, 63, 64, 65, 66, t // 2, t // 2 + 1, t - 1, t)
                    if 1 <= v <= t})
    vertex = st.one_of(st.sampled_from(marks), st.integers(1, t))
    vertices = draw(st.sets(vertex, max_size=2))
    ends = sorted({v for v in (1, 2, t - 1, t) if 1 <= v <= t})
    vertices |= draw(st.sets(st.sampled_from(ends), max_size=2))
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
@example((Hypergraph(9, [(1, 2, 9), (5,)]), [1, 2, 3, 9]))
@example((Hypergraph(2**60, [(1, 2**60), (2, 2**59, 2**60 - 1), (7,)]),
          [1, 2, 3, 2**59 + 1, 2**60 - 1, 2**60]))
def test_frame_queries_match_a_throwaway_oracle_on_the_rebuilt_set(case):
    # Every (low, r), or every low at the ranks where the set changes
    # shape: the rebuilt set has the toggles of the chosen members plus the
    # r smallest outside vertices, which up to t = 1001 are the
    # constructor's from those members; the frame answers as a throwaway
    # oracle on either set; and rank r names the r-th smallest outside
    # vertex. The vertices come run-coded and mask-coded.
    hidden, vertices = case
    t, n = hidden.t, len(vertices)
    ranks = frame_ranks(t, vertices)
    small = t <= 1001
    others = [v for v in range(1, t + 1) if v not in vertices] if small else None
    codes = [VertexSet(t, vertices)]
    if small:
        codes.append(VertexSet._from_mask(t, edge_mask(vertices)))
    for code in codes:
        o = Oracle(hidden)
        frame = o.frame(code)
        assert frame.vertices == tuple(vertices)
        sets = []
        for r in ranks:
            if r:
                assert frame.vertex(r) == (others[r - 1] if small else
                                           frame_query_toggles(t, vertices, 0, r)[-1])
            for low in range(1 << n):
                want = VertexSet._from_runs(t, frame_query_toggles(t, vertices, low, r))
                if small:
                    chosen = [v for i, v in enumerate(vertices) if low >> i & 1]
                    assert VertexSet(t, chosen + others[:r])._runs == want._runs
                s = frame.vertex_set(r << n | low)
                assert s._runs == want._runs
                assert (o.query((frame, r << n | low)) == Oracle(hidden).query(s)
                        == Oracle(hidden).query(want))
                sets.append(s)
        assert [rec.query for rec in o.transcript] == sets
        if small:
            assert_reference_bytes(o)


def test_frame_refuses_vertices_over_another_universe():
    o = Oracle(Hypergraph(10, [(2, 3)]))
    for vertices in (VertexSet(11, [5]), VertexSet(9), VertexSet._from_mask(11, 0b11)):
        with pytest.raises(ValueError, match=rf"universe mismatch: {vertices.t} != 10"):
            o.frame(vertices)
    assert o.count == 0


def test_query_refuses_a_frame_of_another_oracle():
    # Edgeless oracles read equal (empty) edge tables; their frames are
    # still their own. Two vertices of eight give masks 0..27: the low two
    # bits and ranks 0..6 above them. A mask that is no int is refused
    # like one out of range, before anything is logged.
    for h in (Hypergraph(8, [(1, 2)]), Hypergraph(8)):
        mine, other = Oracle(h), Oracle(h)
        frame = other.frame(VertexSet(8, [1, 2]))
        with pytest.raises(ValueError, match="another oracle"):
            mine.query((frame, 0b11))
        for m in (-1, 28, 1 << 70, 1.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match=rf"index mask {re.escape(repr(m))} outside"):
                other.query((frame, m))
        assert mine.count == other.count == 0
        assert mine.transcript == other.transcript == ()
        assert other.transcript_jsonl() == ""
        assert mine.query((mine.frame(VertexSet(8, [1, 2])), 0b11)) == bool(h.edges)
        assert not other.query((frame, 0b10 | 6 << 2))
        assert other.query((frame, 27)) == bool(h.edges)
        assert [r.query for r in other.transcript] == [VertexSet(8, range(2, 9)),
                                                       VertexSet(8, range(1, 9))]


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_budget_stops_frame_queries_at_the_same_index_as_sets(budget):
    h = Hypergraph(16, [(2, 9), (4,)])
    by_frame, by_set = Oracle(h, budget=budget), Oracle(h, budget=budget)
    frame = by_frame.frame(VertexSet(16, [2, 3, 4]))
    # Every vertex outside first, then ranks 0 and 5 (vertex 9 is rank 6).
    masks = [r << 3 | k for k in range(8) for r in (13, 0, 5)]

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
    # 64 is the 62nd vertex outside {3, 63, 66}, after 1, 2 and 4..62.
    assert [frame.vertex(r) for r in (1, 2, 3, 61, 62, 63, 64, 67)] == [1, 2, 4, 62, 64, 65,
                                                                          67, 70]
    assert o.query((frame, 67 << 3 | 0b001))  # vertex 3 and every vertex but 63, 66
    assert not o.query((frame, 0b110))
    assert not o.query((frame, 61 << 3 | 0b001))  # 1..62
    assert o.query((frame, 62 << 3 | 0b101))  # 1..62, 64 and 66
    # The log keeps the pair, O(1) ints; a read rebuilds the set.
    assert [q for q, _ in o._log] == [(frame, 67 << 3 | 1), (frame, 0b110), (frame, 61 << 3 | 1),
                                      (frame, 62 << 3 | 0b101)]
    rest = [v for v in range(1, 71) if v not in (63, 66)]
    want = [rest, [63, 66], list(range(1, 63)), [*range(1, 63), 64, 66]]
    assert o.transcript == tuple(QueryRecord(i, VertexSet(70, q), a) for i, q, a in
                                 zip(range(1, 5), want, (True, False, False, True)))
    assert all(type(r.query) is VertexSet and r.query._runs is not None for r in o.transcript)
    # perfbench/tracing.py sums sys.getsizeof(rec.query.mask) over the records.
    assert [r.query.mask for r in o.transcript] == list(map(edge_mask, want))
    jsonl = "".join(json.dumps({"i": i, "q": q, "a": a}) + "\n"
                    for i, q, a in zip(range(1, 5), want, (1, 0, 0, 1)))
    assert o.transcript_jsonl() == jsonl
    o.write_transcript(str(tmp_path / "t.jsonl"))
    assert (tmp_path / "t.jsonl").read_text() == jsonl


def test_frame_over_every_vertex_of_a_wide_universe():
    # A frame keeps one index and one gap count per vertex and shifts only
    # for edge members, so 2^20 vertices fit under a 4 GiB address limit;
    # one int of up to i bits per vertex i would take about 64 GiB.
    code = (
        "from hhl import Hypergraph, Oracle, VertexSet\n"
        "t = 2**20\n"
        "o = Oracle(Hypergraph(t, [(1, t), (5, 6)]))\n"
        "frame = o.frame(VertexSet(t, range(1, t + 1)))\n"
        "print(o.query((frame, 1 | 1 << (t - 1))), o.query((frame, 0b10000)),\n"
        "      [r.query for r in o.transcript] == [VertexSet(t, [1, t]), VertexSet(t, [5])])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True False True\n"


def test_toggles_of_a_wide_frame_walk_the_flipped_bits_once():
    # 2^16 members and three vertices outside them, at 2, 2^15 + 1 and t,
    # so the ranks put p at each and the low bits flip none, half or all of
    # the members on either side of it: up to 2^16 toggle pairs, which
    # nearly all merge into runs. A walk linear in |F| takes a few ms a
    # mask; isolating each set bit on the big int (bits & -bits) is
    # quadratic, about a quarter second a mask, so seconds over these.
    n = 2**16
    t = n + 3
    outside = (2, 2**15 + 1, t)
    vertices = [v for v in range(1, t + 1) if v not in outside]
    frame = Oracle(Hypergraph(t, [(1, t)])).frame(VertexSet(t, vertices))
    lows = [0, (1 << n) - 1, int("01" * (n // 2), 2), random.Random(16).getrandbits(n)]
    masks = [r << n | low for r in range(4) for low in lows]
    c0 = time.process_time()
    got = [frame._toggles(m) for m in masks]
    spent = time.process_time() - c0
    for m, toggles in zip(masks, got):
        assert toggles == frame_query_toggles(t, vertices, m & ((1 << n) - 1), m >> n)
    # Rank 3, no member: 2^16 flipped pairs cut the run 1..t down to the
    # three outside vertices.
    assert got[12] == (1, 2, 2**15, 2**15 + 1, t - 1, t)
    assert spent < 1.0, spent


# Prefix queries: with the low bits of m held fixed, choosing a base among
# the members of F, the ranks r = m >> n of a frame ask for that base plus
# the r smallest vertices outside F.


@st.composite
def prefix_cases(draw):
    """(hidden, vertices, low, extra): sorted frame vertices that may hold 1,
    2, t-1, t, word boundaries, touching pairs and a longer run, or nothing;
    low bits choosing the base among them; and extra, positions the
    vertices' run code doubles, which makes empty runs or splits a run into
    touching ones. Hidden edges draw members from the vertices and the rest
    of the universe."""
    t = draw(st.sampled_from([1, 2, 3, 63, 64, 65, 100, 1001]))
    marks = sorted({v for v in (1, 2, 63, 64, 65, 66, t // 2, t // 2 + 1, t - 1, t)
                    if 1 <= v <= t})
    vertex = st.one_of(st.sampled_from(marks), st.integers(1, t))
    held = draw(st.sets(vertex, max_size=4))
    for a in draw(st.lists(st.integers(1, t), max_size=1)):
        held |= {a, min(a + 1, t)}  # a touching pair
    for a in draw(st.lists(st.integers(1, t), max_size=1)):
        held |= set(range(a, min(a + draw(st.integers(2, 6)), t + 1)))
    held = sorted(held)
    low = draw(st.integers(0, (1 << len(held)) - 1))
    extra = draw(st.lists(st.one_of(st.sampled_from([0, t, *held]), st.integers(0, t)),
                          max_size=3))
    member = st.one_of(st.sampled_from(sorted({*held, 1, t})), st.integers(1, t))
    edges = draw(st.lists(st.sets(member, min_size=1, max_size=3), max_size=4))
    return Hypergraph(t, {tuple(sorted(e)) for e in edges}), held, low, extra


@settings(max_examples=80, deadline=None)
@given(prefix_cases())
@example((Hypergraph(1, [(1,)]), [], 0, [0, 1]))
@example((Hypergraph(1, [(1,)]), [1], 1, []))
@example((Hypergraph(9), [], 0, [4]))
@example((Hypergraph(9, [(3,)]), [3], 0, [1, 9]))
@example((Hypergraph(9, [(1, 9), (2, 5)]), [2, 3, 4, 9], 0b1001, [3, 4]))
@example((Hypergraph(9, [(3, 4), (1, 6)]), [5, 6, 7], 0b011, [0, 9]))
def test_prefix_queries_match_a_throwaway_oracle_on_the_rebuilt_set(case):
    # Every rank, or the ranks where the set changes shape: the rebuilt set
    # is the one the constructor makes from the base and the r smallest
    # vertices outside F, toggles and all, the frame answers as a throwaway
    # oracle on either, and rank r names the r-th smallest vertex outside F.
    # The vertices come run-coded, with extra's empty or touching runs, and
    # mask-coded.
    hidden, vertices, low, extra = case
    t, n = hidden.t, len(vertices)
    base = [v for i, v in enumerate(vertices) if low >> i & 1]
    others = [v for v in range(1, t + 1) if v not in vertices]
    ranks = frame_ranks(t, vertices)
    for code in (VertexSet._from_runs(t, toggles_of(vertices, extra)),
                 VertexSet._from_mask(t, edge_mask(vertices))):
        o = Oracle(hidden)
        frame = o.frame(code)
        assert frame.vertices == tuple(vertices)
        sets = []
        for r in ranks:
            want = VertexSet(t, base + others[:r])
            s = frame.vertex_set(r << n | low)
            assert s._runs == want._runs
            assert (o.query((frame, r << n | low)) == Oracle(hidden).query(s)
                    == Oracle(hidden).query(want))
            assert r == 0 or frame.vertex(r) == others[r - 1]
            sets.append(s)
        assert [rec.query for rec in o.transcript] == sets
        assert_reference_bytes(o)


def test_prefixes_refuse_another_universe_or_a_shared_vertex():
    o = Oracle(Hypergraph(10, [(2, 3)]))
    for vertices in (VertexSet(11, [5]), VertexSet(9, [1]), VertexSet._from_mask(11, 0b11)):
        with pytest.raises(ValueError, match=rf"universe mismatch: {vertices.t} != 10"):
            o.frame(vertices)
    # Ranks count only the vertices outside F, so no rank names a member
    # again: with every member chosen, rank r adds r more vertices, and the
    # rank past the last vertex outside F is refused.
    for vertices in (VertexSet(10, [3, 4]), VertexSet._from_runs(10, (0, 1, 1, 1)),
                     VertexSet._from_mask(10, 1 << 9)):
        frame = o.frame(vertices)
        n = len(frame.vertices)
        for r in range(1, 11 - n):
            assert frame.vertex(r) not in frame.vertices
            s = frame.vertex_set(r << n | (1 << n) - 1)
            assert s.members() == tuple(sorted({*frame.vertices,
                                                *map(frame.vertex, range(1, r + 1))}))
            assert len(s.members()) == n + r
        m = (11 - n) << n
        with pytest.raises(ValueError, match=rf"index mask {m} outside the ints 0\.\.{m - 1}"):
            o.query((frame, m))
    assert o.count == 0


def test_query_refuses_a_prefix_frame_of_another_oracle_or_a_rank_out_of_range():
    # Edgeless oracles read equal (empty) edge tables; their frames are
    # still their own. One vertex of eight gives ranks 0..7 above the low
    # bit, masks 0..15.
    for h in (Hypergraph(8, [(1, 2)]), Hypergraph(8)):
        mine, other = Oracle(h), Oracle(h)
        frame = other.frame(VertexSet(8, [1]))
        with pytest.raises(ValueError, match="another oracle"):
            mine.query((frame, 1 << 1 | 1))
        for m in (-1 << 1 | 1, 8 << 1 | 1):  # ranks -1 and 8
            with pytest.raises(ValueError, match=rf"index mask {m} outside the ints 0\.\.15"):
                other.query((frame, m))
        assert mine.count == other.count == 0
        assert mine.transcript == other.transcript == ()
        mine_frame = mine.frame(VertexSet(8, [1]))
        assert mine.query((mine_frame, 1 << 1 | 1)) == bool(h.edges)
        assert not other.query((frame, 1))
        assert other.query((frame, 7 << 1 | 1)) == bool(h.edges)


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_budget_stops_prefix_queries_at_the_same_index_as_sets(budget):
    h = Hypergraph(16, [(2, 9), (4, 12)])
    by_frame, by_set = Oracle(h, budget=budget), Oracle(h, budget=budget)
    # Base {2, 3}; outside F, 4 is rank 2, 9 rank 7 and 12 rank 10.
    frame = by_frame.frame(VertexSet(16, [2, 3]))
    ranks = [10, 0, 7, 2, 14, 7, 10, 0]

    def stop(ask) -> tuple[int, str] | None:
        for i, r in enumerate(ranks):
            try:
                ask(r << 2 | 0b11)
            except BudgetExceededError as e:
                return i, str(e)
        return None

    got = stop(lambda m: by_frame.query((frame, m)))
    want = stop(lambda m: by_set.query(frame.vertex_set(m)))
    assert got == want == (budget, f"query budget {budget} exhausted")
    assert by_frame.count == by_set.count == budget
    assert by_frame.transcript == by_set.transcript
    assert by_frame.transcript_jsonl() == by_set.transcript_jsonl()


def test_prefix_query_records_hold_run_coded_sets(tmp_path):
    o = Oracle(Hypergraph(70, [(3, 64)]))
    # F = {3, 63..66}, run-coded with an empty run at 64; outside F, ranks
    # 1..61 are 1, 2 and 4..62, and ranks 62..65 are 67..70.
    frame = o.frame(VertexSet._from_runs(70, (2, 3, 62, 64, 64, 64, 64, 66)))
    assert frame.vertices == (3, 63, 64, 65, 66)
    assert [frame.vertex(r) for r in (1, 2, 3, 61, 62, 65)] == [1, 2, 4, 62, 67, 70]
    asked = [(0b00011, False),  # 3, 63
             (0b11111, True),  # 3, 63..66
             (2 << 5 | 0b00001, False),  # 1..3
             (62 << 5 | 0b00010, False),  # 1, 2, 4..63, 67
             (65 << 5 | 0b00101, True)]  # 1..62, 64, 67..70
    assert [o.query((frame, m)) for m, _ in asked] == [a for _, a in asked]
    # The log keeps the pair, O(1) ints; a read rebuilds the set.
    assert [q for q, _ in o._log] == [(frame, m) for m, _ in asked]
    want = [[3, 63], [3, 63, 64, 65, 66], [1, 2, 3], [1, 2, *range(4, 64), 67],
            [*range(1, 63), 64, *range(67, 71)]]
    assert o.transcript == tuple(QueryRecord(i, VertexSet(70, q), a) for i, q, (_, a) in
                                 zip(range(1, 6), want, asked))
    assert all(type(r.query) is VertexSet and r.query._runs is not None for r in o.transcript)
    jsonl = "".join(json.dumps({"i": i, "q": q, "a": int(a)}) + "\n"
                    for i, q, (_, a) in zip(range(1, 6), want, asked))
    assert o.transcript_jsonl() == jsonl
    o.write_transcript(str(tmp_path / "t.jsonl"))
    assert (tmp_path / "t.jsonl").read_text() == jsonl
