from __future__ import annotations

import random

import pytest

from conftest import brute_force_cover_free, brute_force_first_violation
from hhl import (
    BinaryCode,
    coverfree,
    WorkLimitExceeded,
    cf_rate_bounds,
    find_violation,
    is_cover_free,
    load_code,
    parse_code,
    save_code,
    search_random_cf_code,
)
from hhl.coverfree import format_code


def identity_code(t: int) -> BinaryCode:
    return BinaryCode(t, t, tuple(1 << j for j in range(t)))


def flip(code: BinaryCode) -> BinaryCode:
    full = (1 << code.n_cols) - 1
    return BinaryCode(code.n_rows, code.n_cols, tuple(full ^ r for r in code.rows))


def code_bits(code: BinaryCode) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(code.n_cols)] for r in code.rows]


def random_code(rng: random.Random, n_rows: int, n_cols: int, p=0.5) -> BinaryCode:
    rows = []
    for _ in range(n_rows):
        rows.append(sum(1 << j for j in range(n_cols) if rng.random() < p))
    return BinaryCode(n_rows, n_cols, tuple(rows))


def test_identity_is_cover_free():
    t = 5
    code = identity_code(t)
    assert is_cover_free(code, t - 1, 1)
    assert brute_force_cover_free(code_bits(code), t - 1, 1)


def test_all_zeros_and_ones_are_not():
    zeros = BinaryCode(3, 4, (0, 0, 0))
    ones = BinaryCode(3, 4, (15, 15, 15))
    assert not is_cover_free(zeros, 1, 1)
    assert not is_cover_free(ones, 1, 1)
    assert not is_cover_free(ones, 2, 1)
    assert not is_cover_free(flip(ones), 1, 2)


def test_matches_bruteforce_on_random_codes():
    rng = random.Random(99)
    for _ in range(80):
        t = rng.randint(3, 10)
        n = rng.randint(1, 10)
        s = rng.randint(1, min(3, t - 1))
        l = rng.randint(1, min(2, t - s))
        code = random_code(rng, n, t, p=rng.choice([0.3, 0.5, 0.7]))
        assert is_cover_free(code, s, l) == brute_force_cover_free(
            code_bits(code), s, l
        )


def test_find_violation_witness():
    zeros = BinaryCode(3, 4, (0, 0, 0))
    witness = find_violation(zeros, 1, 1)
    assert witness is not None
    zero_cols, one_cols = witness
    assert len(zero_cols) == 1 and len(one_cols) == 1
    assert not set(zero_cols) & set(one_cols)

    assert find_violation(identity_code(4), 1, 1) is None


def test_first_witness_matches_reference():
    # Eight random codes for every t in 2..12 and every (s, l) with
    # s + l <= t: 2288 codes of 1..130 rows (one to three signature words)
    # at densities 0.1..0.9, plus the all-zero, all-one and identity codes.
    rng = random.Random(2024)
    checked = 0
    for t in range(2, 13):
        fixed = [BinaryCode(3, t, (0,) * 3), flip(BinaryCode(3, t, (0,) * 3)),
                 identity_code(t)]
        for s in range(1, t):
            for l in range(1, t - s + 1):
                codes = fixed + [
                    random_code(rng, rng.randint(1, 130), t, rng.uniform(0.1, 0.9))
                    for _ in range(8)
                ]
                for code in codes:
                    want = brute_force_first_violation(code_bits(code), s, l)
                    assert find_violation(code, s, l) == want, (code, s, l)
                checked += len(codes) - len(fixed)
    assert checked >= 2000


def test_violation_self_validates():
    rng = random.Random(5)
    seen = 0
    for _ in range(60):
        t = rng.randint(3, 9)
        code = random_code(rng, rng.randint(1, 6), t)
        s = rng.randint(1, min(3, t - 1))
        l = rng.randint(1, min(2, t - s))
        witness = find_violation(code, s, l)
        if witness is None:
            continue
        seen += 1
        zero_cols, one_cols = witness
        bits = code_bits(code)
        for row in bits:
            assert not (
                all(row[c - 1] == 0 for c in zero_cols)
                and all(row[c - 1] == 1 for c in one_cols)
            )
    assert seen > 0


def test_symmetry_duality():
    rng = random.Random(7)
    for _ in range(60):
        t = rng.randint(3, 10)
        code = random_code(rng, rng.randint(1, 8), t)
        s = rng.randint(1, min(3, t - 1))
        l = rng.randint(1, min(3, t - s))
        # Flipping every bit swaps the all-zero and all-one sides.
        assert is_cover_free(flip(code), l, s) == is_cover_free(code, s, l)
    # identity and its complement are both CF(1,1) once t >= 3
    assert is_cover_free(identity_code(4), 1, 1)
    assert is_cover_free(flip(identity_code(4)), 1, 1)


def test_adding_rows_never_destroys():
    rng = random.Random(31)
    code = search_random_cf_code(7, 2, 1, max_n=128, seed=3)
    assert code is not None and is_cover_free(code, 2, 1)
    extra = random_code(rng, 3, 7)
    grown = BinaryCode(code.n_rows + 3, 7, code.rows + extra.rows)
    assert is_cover_free(grown, 2, 1)


def test_deleting_rows_never_repairs():
    rng = random.Random(13)
    for _ in range(40):
        t = rng.randint(4, 8)
        code = random_code(rng, rng.randint(2, 6), t)
        s, l = 2, 1
        if is_cover_free(code, s, l):
            continue
        smaller = BinaryCode(code.n_rows - 1, t, code.rows[:-1])
        assert not is_cover_free(smaller, s, l)


def test_cf_rate_bounds_values():
    lower, upper = cf_rate_bounds(4, 1)
    assert upper == pytest.approx(2 * 2 / 16)  # 2*log2(4)/16
    assert lower == pytest.approx(0.0332, abs=2e-4)
    for l in range(1, 5):
        for s in range(2, 65):
            lo, hi = cf_rate_bounds(s, l)
            assert lo < hi
    with pytest.raises(ValueError):
        cf_rate_bounds(1, 1)


def test_search_random_cf_code():
    code = search_random_cf_code(8, 1, 1, max_n=16, seed=0)
    assert code is not None
    assert is_cover_free(code, 1, 1)

    assert search_random_cf_code(8, 1, 1, max_n=0, seed=0) is None

    # the only CF(7,1) rows of size 8 are the unit vectors, so the search
    # effectively collects all of them
    code = search_random_cf_code(8, 7, 1, max_n=512, seed=1)
    assert code is not None
    assert is_cover_free(code, 7, 1)


def test_parameter_validation():
    code = identity_code(4)
    with pytest.raises(ValueError):
        is_cover_free(code, 4, 1)
    with pytest.raises(ValueError):
        is_cover_free(code, 0, 1)
    with pytest.raises(ValueError):
        search_random_cf_code(3, 3, 1, max_n=4)


def test_work_limit():
    code = random_code(random.Random(0), 10, 12)
    with pytest.raises(WorkLimitExceeded):
        find_violation(code, 3, 2, work_limit=100)


def test_column_set_cap(monkeypatch):
    # The cap counts the column sets of size <= l and is inclusive:
    # 4 + C(4, 2) == 10 pass, 5 + C(5, 2) == 15 do not. It is checked
    # before any signature is built, and a work limit does not lift it.
    monkeypatch.setattr(coverfree, "MAX_DESIGN_CANDIDATES", 10)
    assert find_violation(identity_code(4), 1, 2) is not None
    with pytest.raises(ValueError, match="candidate edges"):
        find_violation(identity_code(5), 1, 2, work_limit=10**18)
    with pytest.raises(ValueError, match="candidate edges"):
        is_cover_free(identity_code(5), 2, 2)
    # The s-sets are walked lazily and do not count: C(10, 9) zero sets
    # with 10 one-sets verify under the same cap.
    assert is_cover_free(identity_code(10), 9, 1)
    assert find_violation(identity_code(10), 8, 1) is None


def test_code_file_round_trip(tmp_path):
    code = random_code(random.Random(1), 4, 6)
    text = format_code(code)
    assert text.splitlines()[0] == "4 6"
    assert parse_code(text) == code
    path = tmp_path / "code.txt"
    save_code(str(path), code)
    assert load_code(str(path)) == code


@pytest.mark.parametrize("width", [1, 63, 64, 65, 2**16])
def test_code_file_rows_match_per_bit_forms(width):
    # Rows empty, full, random and top column only, against the forms that
    # write and read one column at a time.
    rows = (0, (1 << width) - 1, random.Random(width).getrandbits(width), 1 << (width - 1))
    code = BinaryCode(len(rows), width, rows)
    lines = code.row_lines()
    assert lines == [
        "".join("1" if (r >> j) & 1 else "0" for j in range(width)) for r in rows
    ]
    assert [sum(1 << j for j, ch in enumerate(ln) if ch == "1") for ln in lines] == list(rows)
    assert parse_code(format_code(code)) == code


@pytest.mark.parametrize(
    "text",
    ["", "2\n01\n10\n", "2 2\n01\n", "1 2\n0x\n", "1 2\n010\n", "a b\n01\n"],
)
def test_parse_code_rejects(text):
    with pytest.raises(ValueError):
        parse_code(text)


def test_binary_code_validation():
    with pytest.raises(ValueError):
        BinaryCode(2, 2, (0,))
    with pytest.raises(ValueError):
        BinaryCode(1, 2, (4,))
    with pytest.raises(ValueError):
        BinaryCode(0, 2, ())
