"""Cover-free code verification, randomized code search, and the numeric
rate-bound guides.

A binary N x t code is cover-free for parameters (s, l) when for every pair
of disjoint column sets of sizes s and l some row is all-zero on the first
set and all-one on the second. Verification is an exhaustive scan over all
such pairs, so it is meant for desk-scale parameters; a work limit can
refuse oversized inputs up front.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import edge_mask


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
        return [
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.n_cols))
            for r in self.rows
        ]


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
    one_cols.
    """
    _check_params(code, s, l)
    t = code.n_cols
    if work_limit is not None:
        work = comb(t, s) * comb(t - s, l) * code.n_rows
        if work > work_limit:
            raise WorkLimitExceeded(
                f"{work} pair-row checks exceed the limit {work_limit}"
            )
    cols = range(1, t + 1)
    for zero_cols in combinations(cols, s):
        zero_mask = edge_mask(zero_cols)
        rest = [c for c in cols if c not in zero_cols]
        for one_cols in combinations(rest, l):
            one_mask = edge_mask(one_cols)
            if not any(
                r & zero_mask == 0 and r & one_mask == one_mask for r in code.rows
            ):
                return zero_cols, one_cols
    return None


def is_cover_free(
    code: BinaryCode, s: int, l: int, work_limit: int | None = None
) -> bool:
    """True iff every disjoint (s-set, l-set) of columns has a separating row."""
    return find_violation(code, s, l, work_limit) is None


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

    Samples i.i.d. Bernoulli(l/(s+l)) codes at doubling lengths up to max_n
    and returns the first verified one, or None.
    """
    if s < 1 or l < 1:
        raise ValueError("s and l must be positive")
    if s + l > t:
        raise ValueError(f"s + l = {s + l} exceeds t = {t}")
    rng = random.Random(seed)
    p = l / (s + l)
    n = 1
    while n <= max_n:
        # One draw per column, row by row: fixed seeds must give the same codes.
        rows = tuple(
            edge_mask(v for v in range(1, t + 1) if rng.random() < p)
            for _ in range(n)
        )
        code = BinaryCode(n, t, rows)
        if is_cover_free(code, s, l):
            return code
        if n == max_n:
            break
        n = min(2 * n, max_n)
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
        if len(ln) != n_cols or any(ch not in "01" for ch in ln):
            raise ValueError(f"bad row {ln!r}")
        rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    return BinaryCode(n_rows, n_cols, tuple(rows))


def save_code(path: str, code: BinaryCode) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_code(code))


def load_code(path: str) -> BinaryCode:
    with open(path, "r", encoding="utf-8") as f:
        return parse_code(f.read())
