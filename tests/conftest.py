"""Shared brute-force reference implementations for the test suite.

These are deliberately written with explicit loops over plain Python sets
and lists, independent of the library's bitmask code paths, so they can
serve as ground-truth oracles.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from hhl import Hypergraph


def all_candidate_edges(t: int, max_size: int) -> list[tuple[int, ...]]:
    """Every nonempty subset of {1..t} with at most max_size vertices."""
    out: list[tuple[int, ...]] = []
    for size in range(1, min(max_size, t) + 1):
        out.extend(combinations(range(1, t + 1), size))
    return out


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
