"""Simulated edge-detecting query oracle with counting and transcripts.

A query on a vertex set answers 1 iff the set contains at least one entire
edge of the hidden hypergraph. The oracle records every answered query; it
never memoizes, so repeated queries are counted separately. A query is a
VertexSet, or (frame, m) for a frame the oracle made, logged as that pair.
A frame (Oracle.frame) is over n vertices F: the low n bits of m choose
members of F and r = m >> n asks for the r smallest vertices outside F,
answered with one word AND and one comparison per hidden edge.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from .core import Hypergraph, VertexSet


# Largest transcript, in bytes of member text, that the oracle builds or writes.
MAX_TRANSCRIPT_BYTES = 1 << 30

# Built bytes that write_transcript gathers before it writes them: the first
# buffer of each line, a listed line whole or a sliced line's prefix. A
# sliced line's runs are views of the text, held anyway, so only SC_IOV_MAX
# bounds a batch of them.
_WRITE_BATCH = 1 << 20


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


def _write_all(fd: int, bufs: list[bytes | memoryview], most: int) -> None:
    """Write the buffers to fd in order by os.writev, at most `most` a
    call, and empty the list. After a short write the next call starts at
    the first byte not written, a view into its buffer."""
    while bufs:
        chunk = bufs[:most]
        ends = list(accumulate(map(len, chunk)))
        n = os.writev(fd, chunk)
        whole = bisect_right(ends, n)  # buffers written to their end
        del bufs[:whole]
        if whole < len(ends):
            bufs[0] = memoryview(bufs[0])[n - (ends[whole - 1] if whole else 0):]


class Frame:
    """The queries of index masks over the found vertices F, made and
    answered by one oracle (Oracle.frame). With n = |F|, query (self, m)
    asks for the members of F that the low n bits of m choose, bit i for
    the i-th smallest, plus the r = m >> n smallest vertices outside F.

    It keeps its oracle's key, so another oracle refuses it; per hidden
    edge, the mask of its members in F and its largest outside rank,
    shifted above the low bits, so a query holds the edge iff m holds the
    mask and is at least the shifted rank; and, to rebuild a query's set,
    F in increasing order and the count of outside vertices below each
    member.
    """

    __slots__ = ("_key", "_t", "_vertices", "_gaps", "_edges", "_limit")

    @property
    def t(self) -> int:
        return self._t

    @property
    def vertices(self) -> tuple[int, ...]:
        """F, the frame's vertices, in increasing order."""
        return self._vertices

    def vertex(self, r: int) -> int:
        """The vertex of rank r >= 1 outside F: r plus the members of F
        below it, those with fewer than r outside vertices below them."""
        return r + bisect_left(self._gaps, r)

    def _toggles(self, m: int) -> tuple[int, ...]:
        """The strictly increasing toggles of query (self, m): the run (0, p)
        of vertices 1..p, p the vertex of rank r = m >> n (p = 0, no run, at
        r = 0), plus the toggle pair (v-1, v) of each member v of F with
        (v < p) != chosen: a set bit of flip, the low bits of m XOR the
        k = p - r members below p. The pairs come in increasing order, p
        placed between those below it and those above, and a pair that
        starts at the last toggle merges into it. One scan of bin(flip) for
        its set bits, O(|F|)."""
        vertices = self._vertices
        n = len(vertices)
        r = m >> n
        p = self.vertex(r) if r else 0
        k = p - r
        bits = bin(m & ((1 << n) - 1) ^ ((1 << k) - 1))[:1:-1]  # bit i of flip at bits[i]
        out = [0] if p else []
        end = p  # the run's end, placed before the first pair above it
        i = bits.find("1")
        while i >= 0:
            v = vertices[i]
            if i >= k and end:
                out.append(end)
                end = 0
            if out and out[-1] == v - 1:
                out[-1] = v
            else:
                out += (v - 1, v)
            i = bits.find("1", i + 1)
        if end:
            out.append(end)
        return tuple(out)

    def vertex_set(self, m: int) -> VertexSet:
        """The run-coded set of query (self, m)."""
        return VertexSet._from_runs(self._t, self._toggles(m))


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
    another universe, or a frame another oracle made or a mask outside its
    range, raises ValueError before anything is logged; a frame's universe
    is checked once, when frame() makes it. Sets are answered from one
    table of the hidden edges' member positions: a run-coded query with one
    bisect per tested edge member, a mask-coded one with one bit test per
    tested member. A frame query costs one word AND and one comparison per
    hidden edge, whatever t is. The learner asks only frame queries, all
    three of its searches through one frame over the vertices found so far,
    so a learner run does no t-bit work per query.
    An optional budget caps the number of answered queries so worst-case
    bounds are enforced by the oracle itself. transcript rebuilds a frame
    query's run-coded set when it is read; transcript_jsonl and
    write_transcript read its toggles from the frame once and keep only
    their text offsets. A transcript writes each query by one rule per
    code: a run-coded or frame query as one slice per run of a decimal
    text, a mask-coded one as its member list (_jsonl_lines).
    write_transcript hands the slices to os.writev without joining them.
    """

    def __init__(self, hidden: Hypergraph, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self._hidden = hidden
        self.budget = budget
        self._edge_positions = _member_positions(hidden)
        self._key = object()  # held by the frames this oracle makes
        self._log: list[tuple[VertexSet | tuple[Frame, int], bool]] = []

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
        """The frame of the queries of index masks 0 <= m < (t - n + 1) << n
        over the n members of vertices, F, asked as oracle.query((frame, m)):
        the low n bits of m choose members of F, and r = m >> n asks for the
        r smallest vertices outside F, so m = (t - n) << n asks for all of
        them.

        ValueError when vertices is over another universe. The hidden edges
        are read once: a query holds an edge iff m holds its members' bits
        in F and r is at least the largest outside rank of its members, v
        minus the members of F below v for an outside member v. A frame
        costs O(runs + |F| + edges * l * log |F|) time and O(|F|) memory,
        whatever t is.
        """
        t = self._hidden.t
        if vertices._t != t:
            raise ValueError(f"universe mismatch: {vertices._t} != {t}")
        members = vertices.members()
        n = len(members)
        at = {v - 1: i for i, v in enumerate(members)}  # position v-1: index of v
        edges = []
        for x, rest in self._edge_positions:
            em = need = 0
            for x in (x, *rest):  # increasing, so the last outside member has the largest rank
                i = at.get(x)
                if i is None:
                    need = x + 1 - bisect_left(members, x + 1)
                else:
                    em |= 1 << i
            edges.append((em, need << n))
        frame = object.__new__(Frame)
        frame._key, frame._t, frame._vertices = self._key, t, members
        frame._gaps = [v - 1 - i for i, v in enumerate(members)]
        frame._edges, frame._limit = tuple(edges), (t - n + 1) << n
        return frame

    def query(self, s: VertexSet | tuple[Frame, int]) -> bool:
        if type(s) is tuple:
            frame, m = s
            if frame._key is not self._key:
                raise ValueError("the frame was made by another oracle")
            if type(m) is not int or not 0 <= m < frame._limit:
                raise ValueError(f"index mask {m!r} outside the ints 0..{frame._limit - 1}")
            answer = False
            for em, need in frame._edges:
                if em & m == em and m >= need:
                    answer = True
                    break
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

    def _jsonl_lines(self) -> Iterator[list[bytes | memoryview]]:
        """The lines of transcript_jsonl as lists of ASCII buffers, from a
        generator.

        The checks run in this call, not in the generator, so they refuse
        before write_transcript creates its file: ValueError when the text
        or the members would take more than MAX_TRANSCRIPT_BYTES. Members
        are counted, not listed, by one rule per code: a mask-coded query's
        by _mask_text_size, a run-coded or frame one's from the text offsets
        its runs take as slices.

        A query's code fixes how its line is written; a frame query's
        toggles are read from its frame (Frame._toggles), once. A run-coded
        or frame query's line is the list of its prefix, one memoryview
        slice per run of a decimal text of 1..top, top the largest member of
        any such query (the text cap counts no other), and its suffix. The
        size check looks up each run's text offsets once and keeps them,
        the last run's ", " already dropped, so a line only slices at them.
        A mask-coded query's line is one bytes object holding the repr of
        its member list. So the cost is O(top) once, O(runs) per run-coded
        query, O(frame vertices) per frame query, O(t/64 + |S|) per
        mask-coded one, and O(output bytes) only for mask-coded lines. The
        generator holds the text, each run-coded or frame query's offsets
        (not its toggles) and each mask-coded set; it joins no sliced line.
        """
        log = self._log
        # Run a..b is the text from a's offset to b+1's, the ", " after b
        # included; a line's last run drops it.
        offset = _Offsets()
        codes = []  # per query: the offsets to slice at, or the mask-coded set to list
        top = size = 0
        for query, _ in log:
            if type(query) is tuple:
                frame, m = query
                toggles = frame._toggles(m)
            elif query._mask is None:
                toggles = query._toggles()
            else:
                size += _mask_text_size(query._mask)
                codes.append(query)
                continue
            off = list(map(offset.__getitem__, toggles))
            if off:
                top = max(top, toggles[-1])
                off[-1] -= 2
                size += sum(off[1::2]) - sum(off[0::2])
            codes.append(off)
        if _decimal_offset(top + 1) - 2 > MAX_TRANSCRIPT_BYTES:  # the length of text
            raise ValueError(f"transcript lists vertex {top}, more than the cap of "
                             f"{MAX_TRANSCRIPT_BYTES} bytes of decimal text")
        if size > MAX_TRANSCRIPT_BYTES:
            raise ValueError(f"transcript members take {size} bytes, more than the cap "
                             f"of {MAX_TRANSCRIPT_BYTES}")
        text = memoryview(_decimal_text(top))
        ends = (b'], "a": 0}\n', b'], "a": 1}\n')  # a sliced line's suffix, by answer

        def lines() -> Iterator[list[bytes | memoryview]]:
            for i, ((_, answer), code) in enumerate(zip(log, codes), 1):
                if type(code) is not list:
                    members = str(list(code)).encode()
                    yield [b'{"i": %d, "q": %b, "a": %d}\n' % (i, members, answer)]
                    continue
                yield [b'{"i": %d, "q": [' % i,
                       *map(text.__getitem__, map(slice, code[0::2], code[1::2])),
                       ends[answer]]

        return lines()

    def transcript_jsonl(self) -> str:
        """One JSON object per query: {"i": index, "q": [v,...], "a": 0|1}.

        The bytes are json.dumps' default form, all in one string; see
        _jsonl_lines for the cost and the caps. Each line is joined and
        decoded as it comes, so the most held is the output twice, while
        the decoded lines are joined.
        """
        return "".join([b"".join(line).decode() for line in self._jsonl_lines()])

    def write_transcript(self, path: str) -> None:
        """Write transcript_jsonl's bytes to path, created only after the
        caps have passed, with no join and no copy in user space.

        The file is unbuffered. The buffers of consecutive lines are
        gathered into a batch of SC_IOV_MAX buffers or about _WRITE_BATCH
        built bytes and handed to os.writev (POSIX only), at most
        SC_IOV_MAX buffers a call, so a line of more runs takes several
        calls. A short write (PEP 475 retries only an EINTR that wrote
        nothing) is finished by the next call, from the first byte it did
        not write. The most held is the text, the offsets and one batch,
        whose slices of the text are views.
        """
        lines = self._jsonl_lines()
        most = os.sysconf("SC_IOV_MAX")
        with open(path, "wb", buffering=0) as f:
            fd, batch, size = f.fileno(), [], 0
            for line in lines:
                batch += line
                size += len(line[0])
                if size >= _WRITE_BATCH or len(batch) >= most:
                    _write_all(fd, batch, most)
                    size = 0
            _write_all(fd, batch, most)


def is_independent(h: Hypergraph, s: VertexSet) -> bool:
    """True iff no edge of h is entirely contained in s: a throwaway
    oracle's answer."""
    return not Oracle(h).query(s)
