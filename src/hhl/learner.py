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

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable

from .core import Edge, FamilyParams, Hypergraph, VertexSet, _RankTable
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
    return sum(comb(s * l, j) for j in range(1, l + 1))


def query_search_query_cap(s: int, l: int) -> int:
    """Worst-case queries of one next-query search: 2**(s*l)."""
    return 2 ** (s * l)


def worst_case_query_budget(params: FamilyParams) -> int:
    """Query budget the learner never exceeds on any family member."""
    t, s, l = params.t, params.s, params.l
    log_t = (t - 1).bit_length()  # ceil(log2 t)
    return s * l * (log_t + edge_search_query_cap(s, l) + query_search_query_cap(s, l) + 1)


def _assert_bisection_invariant(
    oracle: Oracle, t: int, pool: int, kept: int
) -> None:
    # Ground-truth check against the simulated hidden hypergraph; issues no
    # counted queries.
    if not is_independent(oracle.hidden, VertexSet._from_mask(t, kept)):
        raise SearchContractError("bisection invariant broken: kept set is positive")
    if is_independent(oracle.hidden, VertexSet._from_mask(t, pool | kept)):
        raise SearchContractError("bisection invariant broken: pool query is negative")


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
    lo+1..lo+size, and the kept set is s & f plus members 1..lo. A rank
    table built once per search finds the position p of member lo+k, and
    the query is the kept set plus the pool's members between the last cut
    and p. So no step popcounts or re-splits the pool: a query costs O(t/w)
    big-int work for machine word size w.
    """
    s._check(f)
    t = s.t
    pool_mask = s.mask & ~f.mask
    n = size = pool_mask.bit_count()
    if n == 0:
        raise SearchContractError("no candidate vertices: S - F is empty")
    table = _RankTable(pool_mask)
    # cut is the position of pool member lo, -1 while lo is 0.
    lo, kept, cut = 0, s.mask & f.mask, -1
    before = oracle.count
    while True:
        if debug_checks:
            left = pool_mask & ~kept & ((2 << table.select(lo + size)) - 1)
            _assert_bisection_invariant(oracle, t, left, kept)
        if size == 1:
            break
        k = (size + 1) // 2
        p = table.select(lo + k)
        query = kept | (pool_mask & (((1 << (p - cut)) - 1) << (cut + 1)))
        if oracle.query(VertexSet._from_mask(t, query)):
            size = k
        else:
            lo, size, kept, cut = lo + k, size - k, query, p
    if stats is not None:
        stats.vertex_search_log.append((n, oracle.count - before))
    return table.select(lo + 1) + 1


def _index_bits(vertices: Iterable[int]) -> dict[int, int]:
    """Index bit 1 << i -> vertex bit 1 << (v-1) of the i-th vertex, in index order."""
    return {1 << i: 1 << (v - 1) for i, v in enumerate(vertices)}


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

    Candidates and found edges are also masks over the indices of f's
    members, which the main loop keeps to at most s*l, so the skip test
    costs O(1) word work. A candidate's t-bit mask is ORed in the same pass
    as its index mask: only supersets of found edges are skipped, and one
    pass measured faster than a second one for the issued candidates.
    """
    t = f.t
    members = f.members()
    bits = list(_index_bits(members).items())
    found: list[int] = []
    for size in range(1, min(max_edge_size, len(members)) + 1):
        for cand in combinations(bits, size):
            cmask = qmask = 0
            for ib, vb in cand:
                cmask |= ib
                qmask |= vb
            for fm in found:
                if fm & cmask == fm:
                    break
            else:
                if oracle.query(VertexSet._from_mask(t, qmask)):
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
    covered vertices, so enumeration and the skip test cost O(1) word work;
    only an issued query gets a t-bit mask, B plus D's vertex bits.
    """
    edges = list(found_edges)
    covered = sorted({v for e in edges for v in e})
    index_bit = {v: 1 << i for i, v in enumerate(covered)}
    e_masks = [sum(index_bit[v] for v in e) for e in edges]
    vertex_bit = _index_bits(covered)
    covered_mask = 0
    for b in vertex_bit.values():
        covered_mask |= b
    outside = VertexSet._from_mask(t, covered_mask).complement().mask
    for size in range(len(covered) + 1):
        for d in combinations(vertex_bit, size):
            dmask = sum(d)
            # Known edges live inside the covered set, so e <= B|D iff e <= D.
            for em in e_masks:
                if em & dmask == em:
                    break
            else:
                qmask = outside
                for b in d:
                    qmask |= vertex_bit[b]
                cand = VertexSet._from_mask(t, qmask)
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
    found_vertices = VertexSet.empty(t)
    found_edges: frozenset[Edge] = frozenset()
    q_vertex = q_edge = q_query = 0
    iterations = 0

    before = oracle.count
    s = find_next_query(oracle, found_edges, t)
    q_query += oracle.count - before

    while s is not None:
        iterations += 1
        if iterations > params.s * params.l:
            raise SearchContractError(
                "more active vertices than the family permits; hidden hypergraph "
                "violates the (s, l) bounds"
            )
        before = oracle.count
        v = find_active_vertex(
            oracle, s, found_vertices, debug_checks=debug_checks, stats=stats
        )
        q_vertex += oracle.count - before
        if v in found_vertices:
            raise SearchContractError(f"vertex search returned known vertex {v}")
        found_vertices = found_vertices | VertexSet.singleton(t, v)

        before = oracle.count
        found_edges = find_edges_on(oracle, found_vertices, params.l, stats=stats)
        q_edge += oracle.count - before

        before = oracle.count
        s = find_next_query(oracle, found_edges, t)
        q_query += oracle.count - before

    return LearnReport(
        t=t,
        s=params.s,
        l=params.l,
        hypergraph=Hypergraph(t, found_edges),
        queries_total=q_vertex + q_edge + q_query,
        queries_vertex_search=q_vertex,
        queries_edge_search=q_edge,
        queries_query_search=q_query,
        iterations=iterations,
        stats=stats,
    )


def learn(
    oracle: Oracle, params: FamilyParams, *, debug_checks: bool = False
) -> Hypergraph:
    """Identify the hidden hypergraph (its minimal-edge antichain if non-Sperner)."""
    return learn_detailed(oracle, params, debug_checks=debug_checks).hypergraph
