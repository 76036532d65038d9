"""Information-theoretic lower bound: exact family counting and rate
computation."""

from __future__ import annotations

import math

from .core import FamilyParams, edge_count

# Most work family_size_exact takes on, in bit-by-word products: its
# min(s, n) steps each multiply a number of up to min(s, n) * b bits by
# n - k + 1, b bits or b/64 words for b = n.bit_length().
MAX_FAMILY_COUNT_WORK = 1 << 34


def family_size_exact(params: FamilyParams) -> int:
    """Exact number of hypergraphs with at most s distinct nonempty edges of
    size at most l on t labeled vertices (the empty hypergraph included):
    the sum of C(n, k) over k <= s for n possible edges, each term found
    from the one before as C(n, k) = C(n, k-1) * (n-k+1) / k. Raises
    ValueError, before the count, above MAX_FAMILY_COUNT_WORK."""
    n = edge_count(params.t, params.l)
    terms, b = min(params.s, n), n.bit_length()
    work = terms**2 * b * -(-b // 64)
    if work > MAX_FAMILY_COUNT_WORK:
        raise ValueError(f"counting {terms} terms over a {b}-bit number of candidate "
                         f"edges takes work {work}, more than the cap of "
                         f"{MAX_FAMILY_COUNT_WORK}")
    total = c = 1
    for k in range(1, terms + 1):
        c = c * (n - k + 1) // k
        total += c
    return total


def ceil_log2(size: int) -> int:
    """ceil(log2 size) for a positive int, exactly: the fewest yes/no
    answers that tell size cases apart."""
    return (size - 1).bit_length()


def info_lower_bound(params: FamilyParams) -> int:
    """Minimum worst-case query count of any searching algorithm:
    ceil(log2 of the exact family size)."""
    return ceil_log2(family_size_exact(params))


def rate_point(t: int, queries: int) -> float:
    """The rate log2(t) / queries of one finite-t run."""
    if queries < 1:
        raise ValueError("queries must be at least 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    return math.log2(t) / queries
