"""Shared brute-force reference implementations for the test suite.

These are deliberately written with explicit loops over plain Python sets
and lists, independent of the library's bitmask code paths, so they can
serve as ground-truth oracles. The three learner searches at the end are
the exception: they are an earlier version of the library's own code, kept
to pin the order of the queries the searches issue.
"""

from __future__ import annotations

import resource
from itertools import combinations, filterfalse
from typing import Iterable, Iterator

from hhl import (
    Edge,
    Hypergraph,
    Oracle,
    SearchContractError,
    SearchStats,
    VertexSet,
    is_independent,
)
from hhl.core import edge_mask


def limit_address_space():
    # Run in the child: 4 GiB of address space, so a t-sized allocation
    # fails at once whatever the overcommit policy is.
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def all_candidate_edges(t: int, max_size: int) -> list[tuple[int, ...]]:
    """Every nonempty subset of {1..t} with at most max_size vertices."""
    out: list[tuple[int, ...]] = []
    for size in range(1, min(max_size, t) + 1):
        out.extend(combinations(range(1, t + 1), size))
    return out


def toggles_of(members: Iterable[int], extra: Iterable[int] = ()) -> tuple[int, ...]:
    """Run code of a set of vertices: the toggle pair (a-1, b) for each run
    a..b of consecutive members, sorted. Each position in extra is added
    twice; equal toggles cancel, so the code still holds the same set, now
    with empty or touching runs as the learner may produce them."""
    out: list[int] = []
    for v in sorted(members):
        if out and out[-1] == v - 1:
            out[-1] = v
        else:
            out += [v - 1, v]
    return tuple(sorted(out + [x for x in extra for _ in range(2)]))


def is_antichain(edges: Iterable[tuple[int, ...]]) -> bool:
    sets = [set(e) for e in edges]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a < b:
                return False
    return True


def enumerate_family(
    t: int, s: int, max_size: int, sperner_only: bool = False
) -> Iterator[Hypergraph]:
    """All hypergraphs with at most s distinct nonempty edges of size <= max_size."""
    candidates = all_candidate_edges(t, max_size)
    for k in range(0, s + 1):
        for combo in combinations(candidates, k):
            if sperner_only and not is_antichain(combo):
                continue
            yield Hypergraph(t, combo)


def count_family_bruteforce(t: int, s: int, max_size: int) -> int:
    return sum(1 for _ in enumerate_family(t, s, max_size))


def brute_force_cover_free(bits: list[list[int]], s: int, l: int) -> bool:
    """Double-enumeration cover-free check on a plain list-of-lists matrix."""
    n_rows = len(bits)
    t = len(bits[0])
    cols = list(range(t))
    for zero_set in combinations(cols, s):
        others = [c for c in cols if c not in zero_set]
        for one_set in combinations(others, l):
            found = False
            for i in range(n_rows):
                if all(bits[i][c] == 0 for c in zero_set) and all(
                    bits[i][c] == 1 for c in one_set
                ):
                    found = True
                    break
            if not found:
                return False
    return True


def brute_force_first_violation(
    bits: list[list[int]], s: int, l: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """First (zero_cols, one_cols) pair, 1-based and in lexicographic order
    with zero_cols first, that no row of a plain list-of-lists matrix
    separates; None if the matrix is cover-free."""
    t = len(bits[0])
    cols = list(range(1, t + 1))
    for zero_set in combinations(cols, s):
        others = [c for c in cols if c not in zero_set]
        for one_set in combinations(others, l):
            found = False
            for row in bits:
                if all(row[c - 1] == 0 for c in zero_set) and all(
                    row[c - 1] == 1 for c in one_set
                ):
                    found = True
                    break
            if not found:
                return zero_set, one_set
    return None


def minimal_positive_subsets(
    hidden: Hypergraph, pool: Iterable[int], max_size: int
) -> frozenset[tuple[int, ...]]:
    """Inclusion-minimal subsets of the pool (size <= max_size) containing an edge."""
    positives = []
    for size in range(1, max_size + 1):
        for cand in combinations(sorted(pool), size):
            cset = set(cand)
            if any(set(e) <= cset for e in hidden.edges):
                positives.append(cand)
    return frozenset(
        p for p in positives if not any(set(q) < set(p) for q in positives)
    )


# The learner's edge search and next-query search as they were written
# before their candidates were built from precomputed member bits: each
# candidate's mask comes from its vertex tuple through edge_mask. The
# tests check that the library's searches issue the same queries in the
# same order and return the same results.


def reference_find_edges_on(
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
    """
    members = f.members()
    found: list[Edge] = []
    found_masks: list[int] = []
    for size in range(1, min(max_edge_size, len(members)) + 1):
        for cand in combinations(members, size):
            cmask = edge_mask(cand)
            if any(fm & cmask == fm for fm in found_masks):
                continue
            if oracle.query(VertexSet._from_mask(f.t, cmask)):
                # Strict supersets of a fresh positive cannot be present when
                # enumerating smallest-first; the branch stays for fidelity.
                for i in range(len(found) - 1, -1, -1):
                    fm = found_masks[i]
                    if cmask != fm and cmask & fm == cmask:
                        del found[i]
                        del found_masks[i]
                        if stats is not None:
                            stats.edge_deletions += 1
                found.append(cand)
                found_masks.append(cmask)
    return frozenset(found)


def reference_find_next_query(
    oracle: Oracle, found_edges: Iterable[Edge], t: int
) -> VertexSet | None:
    """Search for a positive query containing no known edge.

    Candidates are B union D where B is everything outside the known edges'
    vertices and D runs over subsets of those vertices, smallest first.
    Returns the first positive candidate, or None when all answer 0, which
    for a Sperner hidden hypergraph certifies that every edge is known.
    """
    edges = list(found_edges)
    e_masks = [edge_mask(e) for e in edges]
    covered_mask = 0
    for em in e_masks:
        covered_mask |= em
    outside = ((1 << t) - 1) ^ covered_mask
    # At most s*l vertices: cheaper from the edge tuples than from a t-bit scan.
    members = sorted({v for e in edges for v in e})
    for size in range(len(members) + 1):
        for d in combinations(members, size):
            dmask = edge_mask(d) if d else 0
            # Known edges live inside the covered set, so e <= B|D iff e <= D.
            if any(em & dmask == em for em in e_masks):
                continue
            cand = VertexSet._from_mask(t, outside | dmask)
            if oracle.query(cand):
                return cand
    return None


# The learner's vertex search as it was written before it ran on ranks:
# it re-splits the pool, a sorted member list, at every step, and keeps the
# fixed vertices as an int mask. The tests check that the library's search
# issues the same queries, returns the same vertex and logs the same (pool
# size, queries) pair, and that its debug checks fail with the same
# messages.


def _reference_assert_bisection_invariant(oracle: Oracle, pool: int, fixed: int) -> None:
    # Ground-truth check against the simulated hidden hypergraph; issues no
    # counted queries.
    t = oracle.hidden.t
    if not is_independent(oracle.hidden, VertexSet._from_mask(t, fixed)):
        raise SearchContractError("bisection invariant broken: kept set is positive")
    if is_independent(oracle.hidden, VertexSet._from_mask(t, pool | fixed)):
        raise SearchContractError("bisection invariant broken: pool query is negative")


def reference_find_active_vertex(
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
    """
    s._check(f)
    t, s_mask, f_mask = s.t, s.mask, f.mask
    free = s_mask & ~f_mask  # s - f

    def mask_of(members: list[int]) -> int:
        # members are consecutive members of s - f, lowest first.
        return free & ((1 << members[-1]) - (1 << (members[0] - 1)))

    pool = list(filterfalse(set(f).__contains__, s))
    n = len(pool)
    if n == 0:
        raise SearchContractError("no candidate vertices: S - F is empty")
    fixed = s_mask & f_mask
    before = oracle.count
    while len(pool) > 1:
        if debug_checks:
            _reference_assert_bisection_invariant(oracle, mask_of(pool), fixed)
        k = (len(pool) + 1) // 2
        half = mask_of(pool[:k])
        if oracle.query(VertexSet._from_mask(t, half | fixed)):
            pool = pool[:k]
        else:
            pool = pool[k:]
            fixed |= half
    if debug_checks:
        _reference_assert_bisection_invariant(oracle, mask_of(pool), fixed)
    if stats is not None:
        stats.vertex_search_log.append((n, oracle.count - before))
    return pool[0]
