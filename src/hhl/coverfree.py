"""Cover-free code verification, randomized code search, and the numeric
rate-bound guides.

A binary N x t code is cover-free for parameters (s, l) when for every pair
of disjoint column sets of sizes s and l some row is all-zero on the first
set and all-one on the second. Verification scans all such pairs on packed
column signatures, so it is meant for desk-scale parameters; a work limit
and a column-set cap refuse oversized inputs up front.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from ._numpy import np

from .bounds import ceil_log2
from .core import _bools_from_masks, edge_count

# Most column sets of size <= l that cover-free checks and stage-two designs
# enumerate: 2**24 sets of size <= 2 take 256 MiB of index arrays alone.
MAX_DESIGN_CANDIDATES = 1 << 24


class WorkLimitExceeded(RuntimeError):
    """Verification would exceed the configured pair-row work limit."""


@dataclass(frozen=True)
class BinaryCode:
    """N x t binary matrix; each row is stored as an int bitmask (bit j-1 =
    column j)."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("code dimensions must be positive")
        if len(self.rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} rows, got {len(self.rows)}")
        limit = 1 << self.n_cols
        if any(not 0 <= r < limit for r in self.rows):
            raise ValueError("row mask outside column range")

    def row_lines(self) -> list[str]:
        """Each row as '0'/'1' characters, column 1 first: its mask's binary
        digits, reversed."""
        return [format(r, f"0{self.n_cols}b")[::-1] for r in self.rows]


def _check_candidates(n_cols: int, max_size: int) -> None:
    """Raise ValueError above MAX_DESIGN_CANDIDATES column sets of size <= max_size."""
    n_cand = edge_count(n_cols, max_size)
    if n_cand > MAX_DESIGN_CANDIDATES:
        raise ValueError(
            f"{n_cand} candidate edges on {n_cols} columns exceed "
            f"{MAX_DESIGN_CANDIDATES}"
        )


# Size k -> read-only (C(n, k), k) array of the k-subsets of range(n) in
# colex order, for the largest n any call has asked for at that size.
_COLEX: dict[int, np.ndarray] = {}


def _grow_colex(n_cols: int, size: int) -> None:
    # The colex list of range(n_cols): for m = size-1, size, ..., each
    # (size-1)-subset of range(m), in colex order, with m appended. So its
    # first C(m, size) rows are the size-subsets of range(m).
    _COLEX.pop(size, None)  # free the shorter array before building its successor
    if size == 1:
        idx = np.arange(n_cols).reshape(-1, 1)
    else:
        idx = np.empty((comb(n_cols, size), size), dtype=np.intp)
        prev, start = _COLEX[size - 1], 0
        for m in range(size - 1, n_cols):
            stop = start + comb(m, size - 1)
            idx[start:stop, :-1] = prev[: stop - start]
            idx[start:stop, -1] = m
            start = stop
    idx.flags.writeable = False
    _COLEX[size] = idx


def _candidate_indices(n_cols: int, max_size: int) -> list[np.ndarray]:
    """0-based column index arrays, one read-only (count, size) array per
    size, each listing the size-subsets of range(n_cols) in colex order
    (largest member first, then the next largest, ...). Raises ValueError,
    before allocating, above MAX_DESIGN_CANDIDATES.

    The arrays are prefix views of one table per size, kept for the
    process and grown only when a call asks for more columns than any call
    before it, so repeated calls allocate nothing."""
    _check_candidates(n_cols, max_size)
    out = []
    for size in range(1, min(max_size, n_cols) + 1):
        rows = comb(n_cols, size)
        if len(_COLEX.get(size, ())) < rows:
            _grow_colex(n_cols, size)
        out.append(_COLEX[size][:rows])
    return out


def _packed_columns(support: np.ndarray) -> np.ndarray:
    """(n_cols, words) uint64 column signatures of an (n_rows, n_cols) bool
    matrix: one zero-padded bit per row, set iff the row holds the column."""
    n_rows, n_cols = support.shape
    words = (n_rows + 63) >> 6
    colsig = np.zeros((n_cols, 8 * words), dtype=np.uint8)
    colsig[:, : (n_rows + 7) >> 3] = np.packbits(support, axis=0).T
    return colsig.view(np.uint64)


def _signatures(colsig: np.ndarray, cand: list[np.ndarray]) -> list[np.ndarray]:
    """One (count, words) uint64 array per index array of cand: the AND of
    the sets' _packed_columns signatures, whose bit is set iff the row
    holds the whole set."""
    ands = []
    for idx in cand:
        sig = colsig[idx[:, 0]]
        for j in range(1, idx.shape[1]):
            sig &= colsig[idx[:, j]]
        ands.append(sig)
    return ands


def _lengths(cap: int) -> list[int]:
    """The code lengths a random search tries, shortest first: the powers
    of two below cap, then cap; none when cap < 1."""
    return [1 << k for k in range(ceil_log2(cap))] + [cap] if cap >= 1 else []


def _check_params(code: BinaryCode, s: int, l: int) -> None:
    if s < 1 or l < 1:
        raise ValueError("s and l must be positive")
    if s + l > code.n_cols:
        raise ValueError(
            f"s + l = {s + l} exceeds the code size {code.n_cols}"
        )


def find_violation(
    code: BinaryCode, s: int, l: int, work_limit: int | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Return disjoint column sets (zero_cols, one_cols) witnessing that the
    code is not cover-free, or None if it is.

    The witness means: no row is all-zero on zero_cols and all-one on
    one_cols; it is the lexicographically first such pair (zero_cols first),
    whatever order the candidate l-sets are scanned in. Raises ValueError,
    before allocating, above MAX_DESIGN_CANDIDATES column sets of size <= l.
    """
    _check_params(code, s, l)
    t = code.n_cols
    if work_limit is not None:
        work = comb(t, s) * comb(t - s, l) * code.n_rows
        if work > work_limit:
            raise WorkLimitExceeded(
                f"{work} pair-row checks exceed the limit {work_limit}"
            )
    cand = _candidate_indices(t, l)
    ones = cand[-1]
    colsig = _packed_columns(_bools_from_masks(code.rows, t))
    (ones_and,) = _signatures(colsig, [ones])
    # A row separates (zero_cols, ones[k]) iff its bit is set in ones_and[k] and
    # clear in zero_or; l-sets that meet zero_cols never are, so they are dropped.
    for zero_cols in combinations(range(t), s):
        zero_or = np.bitwise_or.reduce(colsig[list(zero_cols)])
        hits = np.flatnonzero(~(ones_and & ~zero_or).any(axis=1))
        hits = hits[~(ones[hits, :, None] == zero_cols).any(axis=(1, 2))]
        if len(hits):
            # ones is in colex order; the witness is the lex-first hit.
            found = ones[hits]
            first = found[np.lexsort(found.T[::-1])[0]]
            return tuple(c + 1 for c in zero_cols), tuple((first + 1).tolist())
    return None


def is_cover_free(code: BinaryCode, s: int, l: int) -> bool:
    """True iff every disjoint (s-set, l-set) of columns has a separating row."""
    return find_violation(code, s, l) is None


def cf_rate_bounds(s: int, l: int) -> tuple[float, float]:
    """Numeric values of the known asymptotic rate bounds' main terms.

    These are asymptotic-in-s guides, not finite-s truths: returned as
    (lower, upper) where
      upper = (l+1)^(l+1) / (2 e^(l-1)) * log2(s) / s^(l+1)
      lower = l^l / e^l * log2(e) / s^(l+1)
    """
    if s < 2:
        raise ValueError("s must be at least 2 (log2 s must be positive)")
    if l < 1:
        raise ValueError("l must be positive")
    upper = (l + 1) ** (l + 1) / (2 * math.e ** (l - 1)) * math.log2(s) / s ** (l + 1)
    lower = l**l / math.e**l * math.log2(math.e) / s ** (l + 1)
    return lower, upper


def search_random_cf_code(
    t: int, s: int, l: int, max_n: int, seed: int = 0
) -> BinaryCode | None:
    """Randomized search for a cover-free code of size t.

    Samples i.i.d. Bernoulli(l/(s+l)) codes at the _lengths(max_n) lengths
    and returns the first verified one, or None. Raises ValueError, before
    drawing any code, when verification would exceed MAX_DESIGN_CANDIDATES.
    """
    if s < 1 or l < 1:
        raise ValueError("s and l must be positive")
    if s + l > t:
        raise ValueError(f"s + l = {s + l} exceeds t = {t}")
    _check_candidates(t, l)
    rng = random.Random(seed)
    p = l / (s + l)
    for n in _lengths(max_n):
        # One draw per column, row by row: fixed seeds must give the same codes.
        rows = tuple(
            int("".join("1" if rng.random() < p else "0" for _ in range(t))[::-1], 2)
            for _ in range(n)
        )
        code = BinaryCode(n, t, rows)
        if is_cover_free(code, s, l):
            return code
    return None


def format_code(code: BinaryCode) -> str:
    """Serialize: first line "N t", then N rows of '0'/'1' characters."""
    return "\n".join([f"{code.n_rows} {code.n_cols}"] + code.row_lines()) + "\n"


def parse_code(text: str) -> BinaryCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'N t'")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"bad header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != n_rows:
        raise ValueError(f"expected {n_rows} rows, found {len(body)}")
    rows = []
    for ln in body:
        if len(ln) != n_cols or ln.strip("01"):
            raise ValueError(f"bad row {ln!r}")
        rows.append(int(ln[::-1], 2))
    return BinaryCode(n_rows, n_cols, tuple(rows))


def save_code(path: str, code: BinaryCode) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_code(code))


def load_code(path: str) -> BinaryCode:
    with open(path, "r", encoding="utf-8") as f:
        return parse_code(f.read())
