from __future__ import annotations

import math
import time
from math import comb

import pytest

import hhl.bounds as bounds

from conftest import count_family_bruteforce
from hhl import (
    FamilyParams,
    family_size_exact,
    info_lower_bound,
    rate_point,
)


def test_family_size_small_cases_against_enumeration():
    # the brute-force enumerator is the ground truth for the closed form
    assert count_family_bruteforce(4, 1, 2) == 11
    assert family_size_exact(FamilyParams(4, 1, 2)) == 11
    assert count_family_bruteforce(5, 2, 1) == 16
    assert family_size_exact(FamilyParams(5, 2, 1)) == 16


def test_family_size_singleton_closed_form():
    for t in (2, 5, 17, 100):
        assert family_size_exact(FamilyParams(t, 1, 1)) == t + 1


def test_family_size_full_grid_against_enumeration():
    for t in range(1, 7):
        for s in range(1, 4):
            for l in range(1, 4):
                expected = count_family_bruteforce(t, s, l)
                assert family_size_exact(FamilyParams(t, s, l)) == expected


def test_family_size_matches_binomial_sum():
    # The ratio recurrence against one comb() per term, on both sides of
    # s = n (s > n: every subset of the n possible edges is counted).
    for t in (1, 2, 3, 7, 30, 200):
        for l in (1, 2, 3):
            n = sum(comb(t, j) for j in range(1, l + 1))
            for s in (1, 2, 3, 5, 8, 40):
                want = sum(comb(n, k) for k in range(s + 1))
                assert family_size_exact(FamilyParams(t, s, l)) == want


def test_family_size_monotone():
    base = family_size_exact(FamilyParams(6, 2, 2))
    assert family_size_exact(FamilyParams(7, 2, 2)) >= base
    assert family_size_exact(FamilyParams(6, 3, 2)) >= base
    assert family_size_exact(FamilyParams(6, 2, 3)) >= base


def test_info_lower_bound():
    assert info_lower_bound(FamilyParams(4, 1, 2)) == 4
    for t in (2, 7, 31, 64):
        assert info_lower_bound(FamilyParams(t, 1, 1)) == math.ceil(math.log2(t + 1))


def test_info_lower_bound_bracketing():
    for t in range(2, 9):
        for s in range(1, 4):
            for l in range(1, 4):
                p = FamilyParams(t, s, l)
                size = family_size_exact(p)
                lb = info_lower_bound(p)
                assert 2**lb >= size
                assert size > 2 ** (lb - 1)


def test_rate_point():
    assert rate_point(1024, 100) == pytest.approx(0.1)
    assert rate_point(2, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rate_point(1024, 0)
    with pytest.raises(ValueError):
        rate_point(1, 5)


def test_oversized_family_count_is_refused_at_once(monkeypatch):
    # Each would take from seconds to minutes of big-int steps; the
    # refusal names the numbers instead.
    for t, s, l, bits in ((10**20, 10**5, 3, 197), (10**20, 10**4, 3, 197),
                          (10**6, 3 * 10**4, 3, 58), (10**1000, 1000, 3, 9964)):
        start = time.process_time()
        with pytest.raises(ValueError, match=f"counting {s} terms over a {bits}-bit number"):
            info_lower_bound(FamilyParams(t, s, l))
        assert time.process_time() - start < 1.0
    # CI's (1000, 16000, 3) has 166,667,500 candidate edges, a 28-bit
    # number that fits one word, so it stays under the cap.
    assert 16000**2 * 28 <= bounds.MAX_FAMILY_COUNT_WORK
    # The cap is inclusive. (10, 3, 1) has 10 candidate edges, 4 bits in
    # one word; (2**70, 2, 1) has 2**70 of them, 71 bits in two words.
    for params, work, size in ((FamilyParams(10, 3, 1), 3**2 * 4, 1 + 10 + 45 + 120),
                               (FamilyParams(2**70, 2, 1), 2**2 * 71 * 2,
                                1 + 2**70 + 2**70 * (2**70 - 1) // 2)):
        monkeypatch.setattr(bounds, "MAX_FAMILY_COUNT_WORK", work)
        assert family_size_exact(params) == size
        monkeypatch.setattr(bounds, "MAX_FAMILY_COUNT_WORK", work - 1)
        with pytest.raises(ValueError, match=f"takes work {work}, more than the cap of {work - 1}"):
            family_size_exact(params)
