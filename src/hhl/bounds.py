"""Information-theoretic lower bound: exact family counting and rate
computation."""

from __future__ import annotations

import math

from .core import FamilyParams, edge_count


def family_size_exact(params: FamilyParams) -> int:
    """Exact number of hypergraphs with at most s distinct nonempty edges of
    size at most l on t labeled vertices (the empty hypergraph included):
    the sum of C(n, k) over k <= s for n possible edges, each term found
    from the one before as C(n, k) = C(n, k-1) * (n-k+1) / k."""
    n = edge_count(params.t, params.l)
    total = c = 1
    for k in range(1, min(params.s, n) + 1):
        c = c * (n - k + 1) // k
        total += c
    return total


def info_lower_bound(params: FamilyParams) -> int:
    """Minimum worst-case query count of any searching algorithm:
    ceil(log2 of the exact family size)."""
    size = family_size_exact(params)
    return (size - 1).bit_length()


def rate_point(t: int, queries: int) -> float:
    """The rate log2(t) / queries of one finite-t run."""
    if queries < 1:
        raise ValueError("queries must be at least 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    return math.log2(t) / queries
