"""Simulated edge-detecting query oracle with counting and transcripts.

A query on a vertex set answers 1 iff the set contains at least one entire
edge of the hidden hypergraph. The oracle records every answered query; it
never memoizes, so repeated queries are counted separately.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Hypergraph, VertexSet


# Largest transcript, in bytes of member text, that the oracle builds or writes.
MAX_TRANSCRIPT_BYTES = 1 << 30


class BudgetExceededError(RuntimeError):
    """A query was attempted past the oracle's query budget."""


# One edge's member positions v-1, lowest first, as (lowest, the others).
_EdgePositions = tuple[int, tuple[int, ...]]


def _member_positions(h: Hypergraph) -> tuple[_EdgePositions, ...]:
    return tuple((e[0] - 1, tuple(v - 1 for v in e[1:])) for e in h.sorted_edges())


def _runs_contain_edge(edge_positions: Iterable[_EdgePositions], runs: tuple[int, ...]) -> bool:
    """True iff every member of some edge lies in the run-coded set; stops at the first.

    A member at position x is in the set iff an odd number of toggles is
    <= x, one bisect over the toggles, so an edge costs at most l of them
    whatever t is. Equal toggles cancel in the count, so runs need not be
    canonical. Most edges fail on their lowest member, so its test stands
    outside the loop over the others.
    """
    for x, rest in edge_positions:
        if not bisect_right(runs, x) & 1:
            continue
        for x in rest:
            if not bisect_right(runs, x) & 1:
                break
        else:
            return True
    return False


def _mask_contains_edge(edge_positions: Iterable[_EdgePositions], mask: int) -> bool:
    """True iff every member bit of some edge is set in mask; stops at the
    first. The same scan as _runs_contain_edge, with a bit test per member."""
    for x, rest in edge_positions:
        if not mask >> x & 1:
            continue
        for x in rest:
            if not mask >> x & 1:
                break
        else:
            return True
    return False


def _decimal_offset(v: int) -> int:
    """Offset of vertex v >= 1 in ", ".join(map(str, itertools.count(1))).

    Before v come two separator bytes for each of 1..v-1 and their digits:
    one for each of 1..v-1 and one more for each that is at least 10**k,
    for every power 10**k below v. With d such powers that is
    d*v - (1 + 10 + ... + 10**(d-1)) = d*v - 10**d // 9. Taking d as the
    digit count of v-1 gives that count, and at v = 1 adds one term, v-1 = 0.
    """
    d = len(str(v - 1))
    return (d + 2) * v - 2 - 10**d // 9


@dataclass(frozen=True)
class QueryRecord:
    index: int  # 1-based position in the transcript
    query: VertexSet
    answer: bool
    tag: str | None = None


class Oracle:
    """Answers edge-detecting queries over a hidden hypergraph.

    Queries are answered strictly sequentially into an append-only log of
    (query, answer, tag) tuples, one per answered query. The query is the
    VertexSet the caller passed, an immutable value, and the tag is query's
    second argument. Both codes are answered from one table of the hidden
    edges' member positions: a run-coded query with one bisect per tested
    edge member, so a learner run, whose queries are all run-coded, does no
    t-bit work per query; a mask-coded one with one bit test per tested
    member. An optional budget caps the number of answered queries so
    worst-case bounds can be enforced by the oracle itself.
    """

    def __init__(self, hidden: Hypergraph, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.hidden = hidden
        self.budget = budget
        self._edge_positions = _member_positions(hidden)
        self._log: list[tuple[VertexSet, bool, str | None]] = []

    @property
    def count(self) -> int:
        return len(self._log)

    @property
    def transcript(self) -> tuple[QueryRecord, ...]:
        """Every answered query in order, built from the log on each read."""
        return tuple(QueryRecord(i, *entry) for i, entry in enumerate(self._log, 1))

    def query(self, s: VertexSet, tag: str | None = None) -> bool:
        if s._t != self.hidden.t:
            raise ValueError(f"universe mismatch: {s._t} != {self.hidden.t}")
        log = self._log
        if self.budget is not None and len(log) >= self.budget:
            raise BudgetExceededError(f"query budget {self.budget} exhausted")
        runs = s._runs
        if runs is not None:
            answer = _runs_contain_edge(self._edge_positions, runs)
        else:
            answer = _mask_contains_edge(self._edge_positions, s._mask)
        log.append((s, answer, tag))
        return answer

    def _jsonl_lines(self) -> Iterator[str]:
        """The lines of transcript_jsonl, one per query, from a generator.

        The checks run in this call, not in the generator, so they refuse
        before write_transcript creates its file: ValueError when the text
        or the members would take more than MAX_TRANSCRIPT_BYTES. Each
        record's members are copied as slices of one decimal text of 1..top,
        top the largest member of any query, one slice per run of
        consecutive vertices. So the cost is O(top) once, O(runs) per
        run-coded query, O(t/64) per mask-coded one and O(output bytes), and
        the generator holds one line at a time.
        """
        log = self._log
        codes = [query._toggles() for query, _, _ in log]
        top = max((code[-1] for code in codes if code), default=0)
        if _decimal_offset(top + 1) - 2 > MAX_TRANSCRIPT_BYTES:  # the length of text
            raise ValueError(f"transcript lists vertex {top}, more than the cap of "
                             f"{MAX_TRANSCRIPT_BYTES} bytes of decimal text")
        # Run a..b is the text from a's offset to b+1's, less the ", " after b.
        offsets = [[_decimal_offset(x + 1) for x in code] for code in codes]
        size = sum(sum(off[1::2]) - sum(off[0::2]) - 2 for off in offsets if off)
        if size > MAX_TRANSCRIPT_BYTES:
            raise ValueError(f"transcript members take {size} bytes, more than the cap "
                             f"of {MAX_TRANSCRIPT_BYTES}")
        text = ", ".join(map(str, range(1, top + 1)))
        members = (", ".join([text[a : b - 2] for a, b in zip(off[0::2], off[1::2])])
                   for off in offsets)
        return (f'{{"i": {i}, "q": [{q}], "a": {int(answer)}}}\n'
                for i, ((_, answer, _), q) in enumerate(zip(log, members), 1))

    def transcript_jsonl(self) -> str:
        """One JSON object per query: {"i": index, "q": [v,...], "a": 0|1}.

        The bytes are json.dumps' default form, all in one string; see
        _jsonl_lines for the cost and the caps.
        """
        return "".join(self._jsonl_lines())

    def write_transcript(self, path: str) -> None:
        """Write transcript_jsonl's bytes to path a line at a time; the file is
        created only after the caps have passed."""
        lines = self._jsonl_lines()
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines)


def is_independent(h: Hypergraph, s: VertexSet) -> bool:
    """True iff no edge of h is entirely contained in s: a throwaway
    oracle's answer."""
    return not Oracle(h).query(s)
