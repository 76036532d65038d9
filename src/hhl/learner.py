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

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .bounds import ceil_log2
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


def worst_case_query_budget(params: FamilyParams) -> int:
    """Query budget the learner never exceeds on any family member.

    Each of the at most s*l iterations pays ceil_log2(t) for its vertex
    search, edge_count(s*l, l) for its edge search and 2**(s*l) for its
    next-query search, one query per subset of the found vertices. The + 1
    pays for the search that ends the run: the k-th next-query search tries
    at most 2**(k-1) subsets, so all s*l + 1 take <= s*l * (2**(s*l) + 1).
    """
    t, s, l = params.t, params.s, params.l
    return s * l * (ceil_log2(t) + edge_count(s * l, l) + 2 ** (s * l) + 1)


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
    lo+1..lo+size, and the kept set is s & f plus members 1..lo. Its queries
    are ranks of one prefix frame (Oracle.prefixes) with base s & f and the
    pool: rank r asks for s & f plus pool members 1..r. The pool's run code
    is s's toggles merged with a toggle pair (v-1, v) per member v of s & f,
    which takes v out; equal toggles stay in, as the frame skips the empty
    runs they make. Rank lo+k is the query; rank lo+size is the pool left
    plus the kept set, which debug_checks requires to be positive, and rank
    lo the kept set, which it requires to be negative, each through a
    throwaway oracle on the frame's rebuilt set. With run-coded s and f, as
    the main loop passes them, the frame costs O(s*l * log(s*l)) whatever t
    is, and a query one comparison; a step with its checks costs O(s*l).
    """
    s._check(f)
    t = s.t
    toggles = s._toggles()
    inside = [v for v in f.members() if bisect_right(toggles, v - 1) & 1]  # s & f
    pairs = tuple(x for v in inside for x in (v - 1, v))
    pool = VertexSet._from_runs(t, tuple(sorted(toggles + pairs)))  # s - f, empty runs left in
    frame = oracle.prefixes(VertexSet._from_runs(t, pairs), pool)
    n = frame.size
    if n == 0:
        raise SearchContractError("no candidate vertices: S - F is empty")
    size, lo = n, 0
    before = oracle.count
    while True:
        if debug_checks:
            # Ground truth from the hidden hypergraph; no counted queries.
            if not is_independent(oracle.hidden, frame.vertex_set(lo)):
                raise SearchContractError("bisection invariant broken: kept set is positive")
            if is_independent(oracle.hidden, frame.vertex_set(lo + size)):
                raise SearchContractError("bisection invariant broken: pool query is negative")
        if size == 1:
            break
        k = (size + 1) // 2
        if oracle.query((frame, lo + k)):
            size = k
        else:
            lo, size = lo + k, size - k
    if stats is not None:
        stats.vertex_search_log.append((n, oracle.count - before))
    return frame.vertex(lo + 1)


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
    word work. A candidate is asked as a query of one frame over f
    (Oracle.frame): its mask, below the frame's rest bit, is the query,
    answered with one word AND per hidden edge.
    """
    members = f.members()
    frame = oracle.frame(f)
    bits = [1 << i for i in range(len(members))]
    found: list[int] = []
    for size in range(1, min(max_edge_size, len(members)) + 1):
        for cand in combinations(bits, size):
            cmask = sum(cand)
            for fm in found:
                if fm & cmask == fm:
                    break
            else:
                if oracle.query((frame, cmask)):
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
    A candidate is asked as a query of one frame over the covered vertices
    (Oracle.frame): D's mask plus the frame's rest bit, which asks for B,
    is the query, answered with one word AND per hidden edge. Only the
    positive candidate returned is built as a run-coded set.
    """
    edges = list(found_edges)
    covered = sorted({v for e in edges for v in e})
    index_bit = {v: 1 << i for i, v in enumerate(covered)}
    e_masks = [sum(index_bit[v] for v in e) for e in edges]
    frame = oracle.frame(VertexSet(t, covered))
    rest = 1 << len(covered)
    for size in range(len(covered) + 1):
        for d in combinations(index_bit.values(), size):
            dmask = sum(d, rest)
            # Known edges live inside the covered set, so e <= B|D iff e <= D.
            for em in e_masks:
                if em & dmask == em:
                    break
            else:
                if oracle.query((frame, dmask)):
                    return frame.vertex_set(dmask)
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
    vertex set, so an edgeless hidden hypergraph costs exactly one query. A
    universe mismatch fails at that probe: the oracle raises ValueError.
    """
    t = params.t
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
