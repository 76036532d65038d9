"""Adaptive learner for a hidden hypergraph with at most s edges of size
at most l.

The main loop alternates three searches until no informative query remains:
a binary search for a new active vertex inside a positive query, an
exhaustive search for all minimal edges among the found active vertices,
and an exhaustive search for the next positive query avoiding known edges.
For Sperner (antichain) hidden hypergraphs the result is exact; otherwise
it is the antichain of inclusion-minimal edges, which is all the query
model can distinguish.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Iterable

from .core import Edge, FamilyParams, Hypergraph, VertexSet, edge_count
from .oracle import Oracle, is_independent


class SearchContractError(RuntimeError):
    """A search was invoked with its entry conditions broken."""


@dataclass
class SearchStats:
    """Instrumentation counters shared by the search routines.

    vertex_search_log holds one (pool size |S minus F|, queries used) pair
    per vertex search, for checking the per-invocation bisection bound.
    edge_deletions counts firings of the defensive superset-deletion branch
    in the edge search; size-ordered enumeration makes it provably dead.
    """

    vertex_search_log: list[tuple[int, int]] = field(default_factory=list)
    edge_deletions: int = 0


def edge_search_query_cap(s: int, l: int) -> int:
    """Worst-case queries of one edge search: subsets of size <= l of s*l vertices."""
    return edge_count(s * l, l)


def query_search_query_cap(s: int, l: int) -> int:
    """Worst-case queries of one next-query search: 2**(s*l)."""
    return 2 ** (s * l)


def worst_case_query_budget(params: FamilyParams) -> int:
    """Query budget the learner never exceeds on any family member."""
    t, s, l = params.t, params.s, params.l
    log_t = (t - 1).bit_length()  # ceil(log2 t)
    return s * l * (log_t + edge_search_query_cap(s, l) + query_search_query_cap(s, l) + 1)


def find_active_vertex(
    oracle: Oracle,
    s: VertexSet,
    f: VertexSet,
    *,
    debug_checks: bool = False,
    stats: SearchStats | None = None,
) -> int:
    """Binary-search a positive query s for one active vertex outside f.

    Requires that s contains an edge not already confined to f, which the
    main loop guarantees by only passing positive queries that avoid all
    known edges. Uses at most ceil(log2 |s - f|) queries.

    The search runs on ranks in the pool s - f: the pool left is its members
    lo+1..lo+size, and the kept set is s & f plus members 1..lo. The pool's
    run code is s's toggles merged with a toggle pair (v-1, v) per member v
    of s & f, which takes v out. It is kept as run starts and cumulative
    sizes, so the position p of member lo+k is one bisect. Equal toggles
    stay in: the sorted merge read pairwise already holds s - f, and the
    bisect skips the empty runs they make. upto(p) is s through p plus the
    members of s & f above p: s's toggles up to p, a toggle closing the run
    at p, and a toggle pair per member of s & f above p. At member lo+k it
    is the query; at member lo+size it is the pool left plus the kept set,
    which debug_checks requires to be positive and the kept set (s & f, then
    the last negative query) to be negative. With run-coded s and f, as the
    main loop passes them, a step, checks included, costs O(s*l) whatever t is.
    """
    s._check(f)
    t = s.t
    toggles = s._toggles()
    inside = [v for v in f.members() if bisect_right(toggles, v - 1) & 1]  # s & f
    pairs = tuple(x for v in inside for x in (v - 1, v))
    pool = sorted(toggles + pairs)  # run code of s - f, empty runs left in
    starts = pool[0::2]  # position of each pool run's first member
    ranks = list(accumulate(b - a for a, b in zip(starts, pool[1::2])))
    n = ranks[-1] if ranks else 0  # ranks[i]: pool members in runs 0..i
    if n == 0:
        raise SearchContractError("no candidate vertices: S - F is empty")

    def select(rank: int) -> int:
        # 0-based position of pool member rank (from 1).
        i = bisect_left(ranks, rank)
        return starts[i] + rank - (ranks[i - 1] if i else 0) - 1

    def upto(p: int) -> VertexSet:
        # s through position p, plus the members of s & f above p.
        above = pairs[2 * bisect_right(inside, p + 1) :]
        return VertexSet._from_runs(t, toggles[: bisect_right(toggles, p)] + (p + 1,) + above)

    size, lo, kept = n, 0, VertexSet._from_runs(t, pairs)
    before = oracle.count
    while True:
        if debug_checks:
            # Ground truth from the hidden hypergraph; no counted queries.
            if not is_independent(oracle.hidden, kept):
                raise SearchContractError("bisection invariant broken: kept set is positive")
            if is_independent(oracle.hidden, upto(select(lo + size))):
                raise SearchContractError("bisection invariant broken: pool query is negative")
        if size == 1:
            break
        k = (size + 1) // 2
        query = upto(select(lo + k))
        if oracle.query(query):
            size = k
        else:
            lo, size, kept = lo + k, size - k, query
    if stats is not None:
        stats.vertex_search_log.append((n, oracle.count - before))
    return select(lo + 1) + 1


def find_edges_on(
    oracle: Oracle,
    f: VertexSet,
    max_edge_size: int,
    *,
    stats: SearchStats | None = None,
) -> frozenset[Edge]:
    """Find all inclusion-minimal positive subsets of f with size <= max_edge_size.

    Enumerates subsets by increasing cardinality (lexicographic within each),
    skipping any set that already contains a found edge. For a Sperner hidden
    hypergraph the result is exactly the set of hidden edges inside f.

    Candidates and found edges are masks over the indices of f's members,
    which the main loop keeps to at most s*l, so the skip test costs O(1)
    word work. An issued candidate is run-coded: one toggle pair per member.
    """
    t = f.t
    members = f.members()
    items = [(1 << i, (v - 1, v)) for i, v in enumerate(members)]
    found: list[int] = []
    for size in range(1, min(max_edge_size, len(members)) + 1):
        for cand in combinations(items, size):
            cmask = 0
            for ib, _ in cand:
                cmask |= ib
            for fm in found:
                if fm & cmask == fm:
                    break
            else:
                runs: tuple[int, ...] = ()
                for _, pair in cand:
                    runs += pair
                if oracle.query(VertexSet._from_runs(t, runs)):
                    # Strict supersets of a fresh positive cannot be present
                    # when enumerating smallest-first; the branch stays for
                    # fidelity.
                    for i in range(len(found) - 1, -1, -1):
                        fm = found[i]
                        if cmask != fm and cmask & fm == cmask:
                            del found[i]
                            if stats is not None:
                                stats.edge_deletions += 1
                    found.append(cmask)
    return frozenset(
        tuple(v for i, v in enumerate(members) if fm >> i & 1) for fm in found
    )


class _Gaps(dict):
    """Run toggles of vertices minus the ones whose index bit is set in a
    key: a toggle pair (v-1, v) per vertex v left, between head and tail.
    Built on first use of a key."""

    def __init__(self, vertices: list[int], head: tuple[int, ...], tail: tuple[int, ...]):
        super().__init__()
        self.vertices, self.head, self.tail = vertices, head, tail

    def __missing__(self, bits: int) -> tuple[int, ...]:
        pairs = [x for i, v in enumerate(self.vertices) if not bits >> i & 1 for x in (v - 1, v)]
        runs = self[bits] = (*self.head, *pairs, *self.tail)
        return runs


def find_next_query(
    oracle: Oracle, found_edges: Iterable[Edge], t: int
) -> VertexSet | None:
    """Search for a positive query containing no known edge.

    Candidates are B union D where B is everything outside the known edges'
    vertices and D runs over subsets of those vertices, smallest first.
    Returns the first positive candidate, or None when all answer 0, which
    for a Sperner hidden hypergraph certifies that every edge is known.

    D and the known edges are masks over the indices of the at most s*l
    covered vertices, so enumeration and the skip test cost O(1) word work.
    An issued query is run-coded: V minus the covered vertices outside D,
    that is the toggles 0 and t around a pair (v-1, v) per such vertex. The
    pairs of the lower and the upper half of the covered vertices are looked
    up by D's bits in that half, so a query costs two lookups and, the
    first time a half's bits occur, O(s*l) to build its part.
    """
    edges = list(found_edges)
    covered = sorted({v for e in edges for v in e})
    index_bit = {v: 1 << i for i, v in enumerate(covered)}
    e_masks = [sum(index_bit[v] for v in e) for e in edges]
    half = len(covered) // 2
    low_bits = (1 << half) - 1
    low, high = _Gaps(covered[:half], (0,), ()), _Gaps(covered[half:], (), (t,))
    for size in range(len(covered) + 1):
        for d in combinations(index_bit.values(), size):
            dmask = sum(d)
            # Known edges live inside the covered set, so e <= B|D iff e <= D.
            for em in e_masks:
                if em & dmask == em:
                    break
            else:
                cand = VertexSet._from_runs(t, low[dmask & low_bits] + high[dmask >> half])
                if oracle.query(cand):
                    return cand
    return None


@dataclass
class LearnReport:
    """Outcome of one learning run with per-phase query counts."""

    t: int
    s: int
    l: int
    hypergraph: Hypergraph
    queries_total: int
    queries_vertex_search: int
    queries_edge_search: int
    queries_query_search: int
    iterations: int
    stats: SearchStats

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "s": self.s,
            "l": self.l,
            "queries_total": self.queries_total,
            "queries_vertex_search": self.queries_vertex_search,
            "queries_edge_search": self.queries_edge_search,
            "queries_query_search": self.queries_query_search,
            "result_edges": [list(e) for e in self.hypergraph.sorted_edges()],
        }


def learn_detailed(
    oracle: Oracle, params: FamilyParams, *, debug_checks: bool = False
) -> LearnReport:
    """Run the full adaptive search and return the result with statistics.

    The first next-query search degenerates to the single probe of the whole
    vertex set, so an edgeless hidden hypergraph costs exactly one query.
    """
    t = params.t
    if oracle.hidden.t != t:
        raise ValueError(f"universe mismatch: oracle has t={oracle.hidden.t}")
    stats = SearchStats()
    found: list[int] = []
    found_vertices = VertexSet(t, found)
    found_edges: frozenset[Edge] = frozenset()
    q_vertex = q_edge = q_query = 0
    while True:
        before = oracle.count
        s = find_next_query(oracle, found_edges, t)
        q_query += oracle.count - before
        if s is None:
            break
        if len(found) == params.s * params.l:
            raise SearchContractError(
                "more active vertices than the family permits; hidden hypergraph "
                "violates the (s, l) bounds"
            )
        before = oracle.count
        v = find_active_vertex(oracle, s, found_vertices, debug_checks=debug_checks, stats=stats)
        q_vertex += oracle.count - before
        insort(found, v)
        found_vertices = VertexSet(t, found)

        before = oracle.count
        found_edges = find_edges_on(oracle, found_vertices, params.l, stats=stats)
        q_edge += oracle.count - before

    return LearnReport(
        t=t,
        s=params.s,
        l=params.l,
        hypergraph=Hypergraph(t, found_edges),
        queries_total=q_vertex + q_edge + q_query,
        queries_vertex_search=q_vertex,
        queries_edge_search=q_edge,
        queries_query_search=q_query,
        iterations=len(found),
        stats=stats,
    )


def learn(oracle: Oracle, params: FamilyParams) -> Hypergraph:
    """Identify the hidden hypergraph (its minimal-edge antichain if non-Sperner)."""
    return learn_detailed(oracle, params).hypergraph
