"""Simulated edge-detecting query oracle with counting and transcripts.

A query on a vertex set answers 1 iff the set contains at least one entire
edge of the hidden hypergraph. The oracle records every answered query; it
never memoizes, so repeated queries are counted separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Hypergraph, VertexSet, _bit_positions


class BudgetExceededError(RuntimeError):
    """A query was attempted past the oracle's query budget."""


# One member's bit test (low, x), and one edge's tests (low, x, rest).
_MemberTest = tuple[bool, int]
_EdgeTest = tuple[bool, int, tuple[_MemberTest, ...]]


def _member_bits(h: Hypergraph) -> tuple[_EdgeTest, ...]:
    """Per edge of h, its members' bit tests, lowest member first, as
    (low, x, rest): the lowest member's test and a tuple of the others'.
    A test (low, x) has x = 1 << (v-1) if v-1 is in the low half of 0..t-1
    (low is True), else x = v-1."""
    half = h.t >> 1

    def test(v: int) -> _MemberTest:
        return (True, 1 << (v - 1)) if v - 1 < half else (False, v - 1)

    return tuple((*test(e[0]), tuple(map(test, e[1:]))) for e in h.sorted_edges())


def _contains_edge(edge_bits: Iterable[_EdgeTest], mask: int) -> bool:
    """True iff every member bit of some edge is set in mask; stops at the first.

    Each edge costs at most l bit tests, lowest member first, and its test
    ends at the first bit that mask lacks. Python ints have no O(1) bit
    test: ANDing with a bit costs the words up to it, shifting it down the
    words above it. So a bit in the low half of the universe is ANDed and
    one in the high half shifted down, and each test costs at most t/2 bits
    of word work, never a compare of whole masks. Most edges fail on their
    lowest member, so its test stands outside the loop over the others.
    """
    for low, x, rest in edge_bits:
        if not (mask & x if low else mask >> x & 1):
            continue
        for low, x in rest:
            if not (mask & x if low else mask >> x & 1):
                break
        else:
            return True
    return False


def is_independent(h: Hypergraph, s: VertexSet) -> bool:
    """True iff no edge of h is entirely contained in s."""
    if s.t != h.t:
        raise ValueError(f"universe mismatch: {s.t} != {h.t}")
    return not _contains_edge(_member_bits(h), s.mask)


def _decimal_offset(v: np.ndarray, t: int) -> np.ndarray:
    """Offset of each vertex v in 1..t+1 in ", ".join(map(str, range(1, t+1))).

    Before v come two separator bytes for each of 1..v-1 and their digits:
    one for each of 1..v-1 and one more for each that is at least 10**k,
    for every power 10**k below v. With d such powers that is
    d*v - (1 + 10 + ... + 10**(d-1)) = d*v - 10**d // 9.
    """
    d = np.searchsorted(10 ** np.arange(len(str(t))), v)
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
    (query mask, answer, tag) tuples, one per answered query. The log keeps
    the int mask, not the caller's VertexSet, whose mask the caller could
    still reassign. An optional budget caps the number of answered queries
    so worst-case bounds can be enforced by the oracle itself.
    """

    def __init__(self, hidden: Hypergraph, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.hidden = hidden
        self.budget = budget
        self.tag: str | None = None
        self._edge_bits = _member_bits(hidden)
        self._log: list[tuple[int, bool, str | None]] = []

    @property
    def count(self) -> int:
        return len(self._log)

    @property
    def transcript(self) -> tuple[QueryRecord, ...]:
        """Every answered query in order, built from the log on each read."""
        t = self.hidden.t
        return tuple(
            QueryRecord(i, VertexSet._from_mask(t, m), a, tag)
            for i, (m, a, tag) in enumerate(self._log, 1)
        )

    def query(self, s: VertexSet) -> bool:
        if s.t != self.hidden.t:
            raise ValueError(f"universe mismatch: {s.t} != {self.hidden.t}")
        log = self._log
        if self.budget is not None and len(log) >= self.budget:
            raise BudgetExceededError(f"query budget {self.budget} exhausted")
        mask = s.mask
        answer = _contains_edge(self._edge_bits, mask)
        log.append((mask, answer, self.tag))
        return answer

    def transcript_jsonl(self) -> str:
        """One JSON object per query: {"i": index, "q": [v,...], "a": 0|1}.

        The bytes are json.dumps' default form. Each record's members are
        copied as slices of one decimal text of 1..t, one slice per run of
        consecutive vertices, so the cost is O(t) once, O(t/64) per query
        and O(output bytes).
        """
        log = self._log
        if not log:
            return ""
        t = self.hidden.t
        text = ", ".join(map(str, range(1, t + 1)))
        # Bit j of m ^ (m << 1) is set iff vertices j and j+1 differ in
        # membership (j in 0..t): one bit where each run starts and one
        # just past where it ends. Records are laid end to end at a stride
        # of whole 64-bit words, so one scan finds every boundary.
        stride = 64 * ((t >> 6) + 1)
        pos = _bit_positions(
            (m ^ (m << 1) for m, _, _ in log), stride
        )
        # ends[i] counts the runs of records 0..i; boundaries come in pairs.
        ends = np.searchsorted(pos, stride * np.arange(1, len(log) + 1)) // 2
        offset = _decimal_offset(pos % stride + 1, t)
        # Run a..b is the slice from a's offset to b+1's, which carries the
        # ", " after b along; the last run of each record drops it.
        lo = offset[0::2]
        hi = offset[1::2]
        hi[ends[np.diff(ends, prepend=0) > 0] - 1] -= 2
        lines = []
        start = 0
        for i, ((_, answer, _), end) in enumerate(zip(log, ends.tolist()), 1):
            runs = map(slice, lo[start:end].tolist(), hi[start:end].tolist())
            lines.append("".join([
                f'{{"i": {i}, "q": [',
                *map(text.__getitem__, runs),
                f'], "a": {int(answer)}}}\n',
            ]))
            start = end
        return "".join(lines)

    def write_transcript(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.transcript_jsonl())
