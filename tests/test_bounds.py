from __future__ import annotations

import math
from math import comb

import pytest

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
