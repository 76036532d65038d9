"""Simulated edge-detecting query oracle with counting and transcripts.

A query on a vertex set answers 1 iff the set contains at least one entire
edge of the hidden hypergraph. The oracle records every answered query; it
never memoizes, so repeated queries are counted separately. A query is a
VertexSet, or (frame, m) for a frame the oracle made, logged as that pair.
An index frame (Oracle.frame) is over a vertex set: bit i of m asks for
the i-th smallest of its vertices and the rest bit above them for every
other vertex, answered with one word AND per hidden edge. A prefix frame
(Oracle.prefixes) is over a base set and a pool: rank m asks for the base
plus the m smallest pool members, answered with one comparison.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
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


# The numbers P00..P99 for a prefix P, each followed by ", " (_decimal_text).
_HUNDRED = b"".join(b"P%02d, " % k for k in range(100))


def _decimal_text(top: int) -> bytes:
    """", ".join(map(str, range(1, top + 1))) as ASCII: 1..99 and the last
    partial hundred one number at a time, and every whole hundred between
    them as _HUNDRED with its prefix filled in."""
    if top < 100:
        return ", ".join(map(str, range(1, top + 1))).encode()
    low = ", ".join(map(str, range(1, 100))).encode() + b", "
    high = ", ".join(map(str, range(top // 100 * 100, top + 1))).encode()
    hundreds = [_HUNDRED.replace(b"P", b"%d" % p) for p in range(1, top // 100)]
    return b"".join([low, *hundreds, high])


class _Offsets(dict):
    """_decimal_offset(x + 1), the text offset of a run that starts after
    toggle x, computed once per toggle."""

    def __missing__(self, x: int) -> int:
        off = self[x] = _decimal_offset(x + 1)
        return off


def _mask_text_size(mask: int) -> int:
    """Length of ", ".join(map(str, members)) for the members of mask: a
    separator between members, and for each power of ten p one digit per
    member >= p, a popcount of mask >> (p - 1)."""
    if not mask:
        return 0
    size, p = 2 * mask.bit_count() - 2, 1
    while high := mask >> (p - 1):
        size += high.bit_count()
        p *= 10
    return size


class Frame:
    """An index frame: the queries of index masks over one vertex set, made
    and answered by one oracle (Oracle.frame).

    It keeps its oracle's key, so another oracle refuses it; the index mask
    of each hidden edge, so a query holds the edge iff m holds the mask;
    and, to rebuild a query's set, the vertices in increasing order.
    """

    __slots__ = ("_key", "_t", "_vertices", "_edges", "_limit")

    def _toggles(self, m: int) -> tuple[int, ...]:
        """The strictly increasing toggles of query (self, m): the toggle
        pair (v-1, v) of each chosen vertex v; with the rest bit, 0, the
        pair of each unchosen vertex and t. Touching pairs merge, and equal
        toggles at 0 or t cancel. One pass over the bits of m, O(|vertices|)."""
        rest = m >> len(self._vertices)
        if rest:
            m ^= self._limit - 1  # the unchosen vertices
        out = [0] if rest else []
        for v, bit in zip(self._vertices, bin(m)[:1:-1]):
            if bit == "1":
                if out and out[-1] == v - 1:
                    out[-1] = v
                else:
                    out += (v - 1, v)
        if rest:
            out = out[:-1] if out[-1] == self._t else [*out, self._t]
        return tuple(out)

    def vertex_set(self, m: int) -> VertexSet:
        """The run-coded set of query (self, m)."""
        return VertexSet._from_runs(self._t, self._toggles(m))


class Prefixes:
    """A prefix frame: the queries of ranks 0..size over a base set and a
    pool, made and answered by one oracle (Oracle.prefixes). Query (self, r)
    asks for the base plus the r smallest members of the pool.

    It keeps its oracle's key, so another oracle refuses it; the least rank
    that holds a hidden edge, so query r holds one iff r >= first; and, to
    rebuild a query's set, the base's toggles, the toggles of base | pool,
    and the pool's run starts and cumulative sizes.
    """

    __slots__ = ("_key", "_t", "_base", "_union", "_starts", "_ranks", "_first", "_limit")

    @property
    def size(self) -> int:
        """The pool's member count, the largest rank."""
        return self._limit - 1

    def vertex(self, rank: int) -> int:
        """The pool member of rank (from 1): one bisect over the cumulative
        sizes, which skips empty runs."""
        ranks = self._ranks
        i = bisect_left(ranks, rank)
        return self._starts[i] + rank - (ranks[i - 1] if i else 0)

    def _toggles(self, r: int) -> tuple[int, ...]:
        """The strictly increasing toggles of query (self, r): those of
        base | pool up to the position p of pool member r, a toggle closing
        the run at p, and the base's toggles above p. Base runs lie wholly
        below or above p, and one starting at p + 1 merges with the closed
        run. Two bisects and a slice, O(runs)."""
        base = self._base
        if not r:
            return base
        p = self.vertex(r) - 1
        union = self._union
        below, above = union[: bisect_right(union, p)], base[bisect_right(base, p) :]
        if above and above[0] == p + 1:
            return below + above[1:]
        return below + (p + 1,) + above

    def vertex_set(self, r: int) -> VertexSet:
        """The run-coded set of query (self, r)."""
        return VertexSet._from_runs(self._t, self._toggles(r))


@dataclass(frozen=True)
class QueryRecord:
    """One log entry, (query, answer), with its position in the log."""

    index: int  # 1-based position in the transcript
    query: VertexSet
    answer: bool


class Oracle:
    """Answers edge-detecting queries over a hidden hypergraph.

    Queries are answered strictly sequentially into an append-only log of
    (query, answer) pairs: the query the caller passed, an immutable
    VertexSet or a (frame, m) pair of O(1) ints, and its answer. A set over
    another universe, or a frame another oracle made, raises ValueError
    before anything is logged; a frame's universe is checked once, when
    frame() or prefixes() makes it. Sets are answered from one table of the
    hidden edges' member positions: a run-coded query with one bisect per
    tested edge member, a mask-coded one with one bit test per tested
    member. An index-frame query costs one word AND per hidden edge and a
    prefix-frame query one comparison, whatever t is. The learner asks
    only frame queries, through a prefix frame in its vertex search and an
    index frame in each exhaustive search, so a learner run does no t-bit
    work per query.
    An optional budget caps the number of answered queries so worst-case
    bounds are enforced by the oracle itself. transcript rebuilds a frame
    query's run-coded set when it is read, and transcript_jsonl and
    write_transcript read its toggles from the frame. A transcript writes
    each query by one rule per code: a run-coded or frame query as one
    slice per run of a decimal text, a mask-coded one as its member list
    (_jsonl_lines).
    """

    def __init__(self, hidden: Hypergraph, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self._hidden = hidden
        self.budget = budget
        self._edge_positions = _member_positions(hidden)
        self._key = object()  # held by the frames this oracle makes
        self._log: list[tuple[VertexSet | tuple[Frame | Prefixes, int], bool]] = []

    @property
    def hidden(self) -> Hypergraph:
        """Read-only: queries are answered from its edge table, built once."""
        return self._hidden

    @property
    def count(self) -> int:
        return len(self._log)

    @property
    def transcript(self) -> tuple[QueryRecord, ...]:
        """Every answered query in order, built from the log on each read,
        a frame query's set rebuilt."""
        return tuple(QueryRecord(i, q[0].vertex_set(q[1]) if type(q) is tuple else q, a)
                     for i, (q, a) in enumerate(self._log, 1))

    def frame(self, vertices: VertexSet) -> Frame:
        """The index frame of the queries of index masks
        0 <= m < 2**(len(vertices) + 1), asked as oracle.query((frame, m)):
        bit i of m asks for the i-th smallest member of vertices, the rest
        bit 1 << len(vertices) for every vertex outside them.

        ValueError when vertices is over another universe. The hidden edges
        are read once: a query holds an edge iff m holds its index mask, the
        bits of its members plus the rest bit if a member is outside
        vertices. A frame costs O(runs + |vertices| + edges * l) time and
        O(|vertices|) memory, whatever t is.
        """
        t = self._hidden.t
        if vertices._t != t:
            raise ValueError(f"universe mismatch: {vertices._t} != {t}")
        members = vertices.members()
        n = len(members)
        at = {v - 1: i for i, v in enumerate(members)}  # position v-1: index of v
        edges = []
        for x, rest in self._edge_positions:
            em = 0
            for x in (x, *rest):
                em |= 1 << at.get(x, n)
            edges.append(em)
        frame = object.__new__(Frame)
        frame._key, frame._t, frame._vertices = self._key, t, members
        frame._edges, frame._limit = tuple(edges), 2 << n
        return frame

    def prefixes(self, base: VertexSet, pool: VertexSet) -> Prefixes:
        """The queries of ranks 0 <= r <= len(pool), asked as
        oracle.query((frame, r)): base plus the r smallest members of pool.

        ValueError when base or pool is over another universe, or when they
        share a vertex. The pool's run code may hold empty or touching runs.
        The hidden edges are read once: an edge is held by query r iff each
        member is in base or is a pool member of rank at most r, so the
        frame keeps the least such r over all edges and a query costs one
        comparison. A frame costs O((runs + edges * l) * log runs) time and
        O(runs) memory, whatever t is.
        """
        t = self._hidden.t
        for vs in (base, pool):
            if vs._t != t:
                raise ValueError(f"universe mismatch: {vs._t} != {t}")
        btog = base._toggles()
        runs = pool._toggles() if pool._runs is None else pool._runs
        starts = runs[0::2]  # position of each pool run's first member
        ranks = list(accumulate(map(sub, runs[1::2], starts)))
        n = ranks[-1] if ranks else 0  # ranks[i]: pool members in runs 0..i
        # Merged toggles code base ^ pool, which is base | pool iff it has
        # as many members as the two.
        union = VertexSet._from_runs(t, tuple(sorted(btog + runs)))._toggles()
        if sum(union[1::2]) - sum(union[0::2]) != sum(btog[1::2]) - sum(btog[0::2]) + n:
            raise ValueError("base and pool share a vertex")
        first = n + 1  # no query holds an edge
        for x, rest in self._edge_positions:
            need = 0  # the largest pool rank among the edge's members
            for x in (x, *rest):
                if bisect_right(btog, x) & 1:
                    continue
                i = bisect_right(starts, x) - 1
                if i < 0 or x >= runs[2 * i + 1]:
                    break  # x is in neither
                need = max(need, (ranks[i - 1] if i else 0) + x - starts[i] + 1)
            else:
                first = min(first, need)
        frame = object.__new__(Prefixes)
        frame._key, frame._t, frame._base, frame._union = self._key, t, btog, union
        frame._starts, frame._ranks, frame._first, frame._limit = starts, ranks, first, n + 1
        return frame

    def query(self, s: VertexSet | tuple[Frame | Prefixes, int]) -> bool:
        if type(s) is tuple:
            frame, m = s
            if frame._key is not self._key:
                raise ValueError("the frame was made by another oracle")
            if not 0 <= m < frame._limit:
                what = "index mask" if type(frame) is Frame else "rank"
                raise ValueError(f"{what} {m} outside 0..{frame._limit - 1}")
            if type(frame) is Frame:
                answer = False
                for em in frame._edges:
                    if em & m == em:
                        answer = True
                        break
            else:
                answer = m >= frame._first
        elif s._t != self._hidden.t:
            raise ValueError(f"universe mismatch: {s._t} != {self._hidden.t}")
        elif s._runs is not None:
            answer = _runs_contain_edge(self._edge_positions, s._runs)
        else:
            answer = _mask_contains_edge(self._edge_positions, s._mask)
        log = self._log
        if self.budget is not None and len(log) >= self.budget:
            raise BudgetExceededError(f"query budget {self.budget} exhausted")
        log.append((s, answer))
        return answer

    def _jsonl_lines(self) -> Iterator[bytes]:
        """The lines of transcript_jsonl as ASCII bytes, from a generator.

        The checks run in this call, not in the generator, so they refuse
        before write_transcript creates its file: ValueError when the text
        or the members would take more than MAX_TRANSCRIPT_BYTES. Members
        are counted, not listed, by one rule per code: a mask-coded query's
        by _mask_text_size, a run-coded or frame one's from the text offsets
        its runs take as slices.

        A query's code fixes how its line is written; a frame query's
        toggles are read from its frame (Frame._toggles, Prefixes._toggles),
        once. A run-coded or frame query's line joins one memoryview slice
        per run of a decimal text of 1..top, top the largest member of any
        such query (the text cap counts no other). A mask-coded query's line
        holds the repr of its member list. So the cost is O(top) once,
        O(runs) per run-coded or prefix-frame query, O(frame vertices +
        runs) per index-frame query, O(t/64 + |S|) per mask-coded one and
        O(output bytes). The generator holds the text, each query's toggles
        or mask-coded set, a memo of at most one offset per distinct toggle
        and one line.
        """
        log = self._log
        # Run a..b is the text from a's offset to b+1's, the ", " after b
        # included; a line's last run drops it.
        offset = _Offsets()
        codes = []  # per query: the toggles to slice by, or the mask-coded set to list
        top = size = 0
        for query, _ in log:
            if type(query) is tuple:
                frame, m = query
                code = frame._toggles(m)
            elif query._mask is None:
                code = query._toggles()
            else:
                size += _mask_text_size(query._mask)
                codes.append(query)
                continue
            if code:  # the text its runs take, from the offsets its slices reuse
                top = max(top, code[-1])
                size += (sum(map(offset.__getitem__, code[1::2]))
                         - sum(map(offset.__getitem__, code[0::2])) - 2)
            codes.append(code)
        if _decimal_offset(top + 1) - 2 > MAX_TRANSCRIPT_BYTES:  # the length of text
            raise ValueError(f"transcript lists vertex {top}, more than the cap of "
                             f"{MAX_TRANSCRIPT_BYTES} bytes of decimal text")
        if size > MAX_TRANSCRIPT_BYTES:
            raise ValueError(f"transcript members take {size} bytes, more than the cap "
                             f"of {MAX_TRANSCRIPT_BYTES}")
        text = memoryview(_decimal_text(top))

        def lines() -> Iterator[bytes]:
            for i, ((_, answer), code) in enumerate(zip(log, codes), 1):
                if type(code) is not tuple:
                    members = str(list(code)).encode()
                    yield b'{"i": %d, "q": %b, "a": %d}\n' % (i, members, answer)
                    continue
                off = list(map(offset.__getitem__, code))
                if off:
                    off[-1] -= 2
                yield b"".join([b'{"i": %d, "q": [' % i,
                                *[text[a:b] for a, b in zip(off[0::2], off[1::2])],
                                b'], "a": %d}\n' % answer])

        return lines()

    def transcript_jsonl(self) -> str:
        """One JSON object per query: {"i": index, "q": [v,...], "a": 0|1}.

        The bytes are json.dumps' default form, all in one string; see
        _jsonl_lines for the cost and the caps. Each line is decoded as it
        comes, so the most held is the output twice, while the decoded
        lines are joined.
        """
        return "".join([line.decode() for line in self._jsonl_lines()])

    def write_transcript(self, path: str) -> None:
        """Write transcript_jsonl's bytes to path a line at a time through a
        64 KiB buffer; the file is created only after the caps have passed."""
        lines = self._jsonl_lines()
        with open(path, "wb", buffering=1 << 16) as f:
            f.writelines(lines)


def is_independent(h: Hypergraph, s: VertexSet) -> bool:
    """True iff no edge of h is entirely contained in s: a throwaway
    oracle's answer."""
    return not Oracle(h).query(s)
