from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from conftest import all_candidate_edges

from hhl import (
    BudgetExceededError,
    DecodeError,
    DesignSearchError,
    FamilyParams,
    Hypergraph,
    Oracle,
    VertexSet,
    build_block_design,
    coverfree,
    decode_block,
    find_good_layer,
    is_independent,
    layer_partition,
    layer_success_probability,
    random_disjoint_instance,
    required_layers,
    sample_layer_matrix,
    two_stage_trial,
    twostage,
)
from hhl.core import _bools_from_masks, edge_mask
from hhl.coverfree import BinaryCode
from hhl.twostage import (
    MAX_LAYER_ENTRIES,
    LayerMatrix,
    _candidate_indices,
    _derive_seed,
    _distinct_signatures,
)


def separates(code: BinaryCode, l: int) -> bool:
    """True iff distinct candidate edges of size 1..l give distinct answer
    patterns under the code's rows: the check build_block_design runs."""
    return _distinct_signatures(_bools_from_masks(code.rows, code.n_cols),
                                _candidate_indices(code.n_cols, l))


def complement_of_identity(t: int) -> BinaryCode:
    full = (1 << t) - 1
    return BinaryCode(t, t, tuple(full ^ (1 << j) for j in range(t)))


def test_sample_layer_matrix_singleton_alphabet():
    m = sample_layer_matrix(5, 7, 1, seed=0)
    assert (m.symbols == 1).all()


def test_sample_layer_matrix_deterministic():
    a = sample_layer_matrix(4, 9, 3, seed=123)
    b = sample_layer_matrix(4, 9, 3, seed=123)
    assert (a.symbols == b.symbols).all()
    c = sample_layer_matrix(4, 9, 3, seed=124)
    assert (a.symbols != c.symbols).any()


def test_sample_layer_matrix_symbol_frequencies():
    s = 4
    m = sample_layer_matrix(40, 2500, s, seed=9)
    total = m.symbols.size
    sigma = (total * (1 / s) * (1 - 1 / s)) ** 0.5
    for r in range(1, s + 1):
        count = int((m.symbols == r).sum())
        assert abs(count - total / s) <= 3 * sigma


def test_layer_partition_blocks():
    m = LayerMatrix(2, np.array([[1, 1, 2, 2]]))
    part = layer_partition(m, 0)
    assert part[0] == VertexSet(4, [1, 2])
    assert part[1] == VertexSet(4, [3, 4])


@pytest.mark.parametrize("layer", [-1, 2, 5])
def test_layer_partition_refuses_a_layer_outside_the_matrix(layer):
    # Python indexing would read layer -1 as the last one and fail at 5
    # inside numpy; both are refused up front.
    with pytest.raises(ValueError, match=f"layer {layer} outside 0..1"):
        layer_partition(sample_layer_matrix(2, 4, 2, 0), layer)


@pytest.mark.parametrize("t", [1, 63, 64, 65, 257])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_layer_partition_blocks_are_the_symbol_classes(t, s):
    # Block r-1 is {v : symbol of v is r}, so the blocks are disjoint and
    # cover {1..t}, as a plain-Python scan of each layer says. The last
    # layer never uses symbol s, so its last block is empty when s > 1.
    rng = random.Random(t * 10 + s)
    rows = [[rng.randint(1, s) for _ in range(t)] for _ in range(3)]
    rows.append([rng.randint(1, max(1, s - 1)) for _ in range(t)])
    matrix = LayerMatrix(s, np.array(rows))
    for layer, symbols in enumerate(matrix.symbols.tolist()):
        blocks = layer_partition(matrix, layer)
        assert len(blocks) == s
        assert all(b.t == t for b in blocks)
        assert sum(len(b) for b in blocks) == t
        assert set().union(*(b.members() for b in blocks)) == set(range(1, t + 1))
        for r, block in enumerate(blocks, start=1):
            assert set(block) == {v for v in range(1, t + 1) if symbols[v - 1] == r}
    assert s == 1 or len(layer_partition(matrix, 3)[-1]) == 0
    with pytest.raises(ValueError, match="read-only"):
        matrix.symbols[0, 0] = 1


@pytest.mark.parametrize("t", [1, 63, 64, 65, 257])
@pytest.mark.parametrize("s", [1, 2, 3, 5])
def test_layer_partition_matches_the_per_layer_comparison(t, s):
    # The reference compares one layer's symbols with each of 1..s.
    matrix = sample_layer_matrix(6, t, s, seed=t + s)
    for layer in range(matrix.n_layers):
        flags = matrix.symbols[layer] == np.arange(1, s + 1)[:, None]
        want = tuple(VertexSet(t, (np.flatnonzero(f) + 1).tolist()) for f in flags)
        assert layer_partition(matrix, layer) == want


@pytest.mark.parametrize("call", [
    lambda: sample_layer_matrix(2, 4, 2, -1),
    lambda: build_block_design(4, 1, -1),
], ids=["sample_layer_matrix", "build_block_design"])
def test_negative_seed_is_refused_before_any_draw(monkeypatch, call):
    def no_draw(*args):
        raise AssertionError("drew from a negative seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        call()


def test_find_good_layer_examples():
    hidden = Hypergraph(4, [(1, 2), (3, 4)])
    good = LayerMatrix(2, np.array([[1, 1, 2, 2]]))
    res = find_good_layer(good, Oracle(hidden))
    assert res == layer_partition(good, 0)
    assert res[0] == VertexSet(4, [1, 2])

    bad = LayerMatrix(2, np.array([[1, 2, 1, 2]]))
    assert find_good_layer(bad, Oracle(hidden)) is None


def test_find_good_layer_singleton_alphabet():
    hidden = Hypergraph(6, [(2, 5)])
    m = sample_layer_matrix(3, 6, 1, seed=0)
    res = find_good_layer(m, Oracle(hidden))
    assert res == layer_partition(m, 0)
    assert res == (VertexSet(6, range(1, 7)),)


def test_find_good_layer_full_batch():
    hidden = Hypergraph(4, [(1, 2), (3, 4)])
    # Layer 0 fails on its first block; layers 1 and 2 are both good.
    m = LayerMatrix(2, np.array([[1, 2, 1, 2], [1, 1, 2, 2], [2, 2, 1, 1]]))
    oracle = Oracle(hidden)
    assert find_good_layer(m, oracle) == layer_partition(m, 1)
    # Neither the 0 in layer 0 nor the good layer 1 ends the scan early.
    assert oracle.count == m.s * m.n_layers
    assert [r.query for r in oracle.transcript] == [
        b for i in range(m.n_layers) for b in layer_partition(m, i)
    ]


def test_layer_success_probability():
    assert layer_success_probability(1, 3) == 1.0
    assert layer_success_probability(2, 2) == 0.125


def test_layer_success_probability_empirical():
    hits = 0
    n_layers = 100
    n_instances = 100
    for seed in range(n_instances):
        hidden = random_disjoint_instance(FamilyParams(64, 2, 2), seed=seed)
        m = sample_layer_matrix(n_layers, 64, 2, seed=10_000 + seed)
        o = Oracle(hidden)
        for i in range(m.n_layers):
            part = layer_partition(m, i)
            if all(o.query(b) for b in part):
                hits += 1
    total = n_layers * n_instances
    p = 0.125
    sigma = (p * (1 - p) / total) ** 0.5
    assert abs(hits / total - p) <= 3 * sigma


def test_required_layers():
    assert required_layers(0.5, 1, 2) == 1
    assert required_layers(0.01, 2, 2) == 35
    with pytest.raises(ValueError):
        required_layers(0.0, 2, 2)
    with pytest.raises(ValueError):
        required_layers(1.0, 2, 2)


def test_required_layers_bracketing():
    for eps in (0.3, 0.1, 0.01):
        for s in (2, 3):
            for l in (1, 2):
                n = required_layers(eps, s, l)
                q = 1 - layer_success_probability(s, l)
                assert q**n <= eps
                assert n == 1 or q ** (n - 1) > eps


@pytest.mark.parametrize("s, l", [(8, 3), (20, 20)])
def test_required_layers_below_float_resolution(s, l):
    # 1 - s!/s**(s*l) rounds to 1.0 (at (20, 20) p itself underflows to 0.0).
    with pytest.raises(ValueError, match="float resolution"):
        required_layers(0.05, s, l)


def test_oversized_layer_matrix_refused_before_sampling():
    with pytest.raises(ValueError, match="entries"):
        sample_layer_matrix(MAX_LAYER_ENTRIES // 64 + 1, 64, 2, seed=0)
    # At (6, 3) a layer is good with probability about 7e-12.
    params = FamilyParams(64, 6, 3)
    assert required_layers(0.05, 6, 3) * 64 > MAX_LAYER_ENTRIES
    oracle = Oracle(random_disjoint_instance(params, seed=0))
    with pytest.raises(ValueError, match="entries"):
        two_stage_trial(oracle, params, 0.05, seed=0)
    assert oracle.count == 0


def test_oversized_block_design_refused_before_allocating(monkeypatch):
    # A block of 2**16 columns has about 2**31 candidate pairs; the cap
    # refuses it up front with ValueError, not DesignSearchError, which
    # would be a declared failure and retried.
    with pytest.raises(ValueError, match="candidate edges") as exc:
        build_block_design(2**16, 2, seed=0)
    assert not isinstance(exc.value, DesignSearchError)
    # The cap is inclusive: 4 + C(4, 2) == 10 candidates pass, 15 do not.
    monkeypatch.setattr(coverfree, "MAX_DESIGN_CANDIDATES", 10)
    assert sum(len(idx) for idx in _candidate_indices(4, 2)) == 10
    with pytest.raises(ValueError, match="candidate edges"):
        _candidate_indices(5, 2)
    with pytest.raises(ValueError, match="candidate edges"):
        separates(complement_of_identity(5), 2)


def test_complement_of_identity_separates_singletons():
    design = complement_of_identity(5)
    assert separates(design, 1)
    for v in range(1, 6):
        answers = [(r >> (v - 1)) & 1 == 1 for r in design.rows]
        assert decode_block(design, answers, 1) == (v,)


def test_identity_rows_do_not_separate_pairs():
    identity = BinaryCode(3, 3, (1, 2, 4))
    assert not separates(identity, 2)
    with pytest.raises(ValueError, match="max_edge_size must be positive"):
        build_block_design(3, 0, seed=0)


def separates_by_brute_force(rows: list[int], n_cols: int, l: int) -> bool:
    patterns = set()
    cands = all_candidate_edges(n_cols, l)
    for cand in cands:
        cmask = sum(1 << (c - 1) for c in cand)
        patterns.add(tuple(r & cmask == cmask for r in rows))
    return len(patterns) == len(cands)


# n_rows covers too few rows for the candidates (at l = 3, 13 rows hold
# fewer patterns than the 10700 candidates on 40 columns, 14 rows do not),
# one and two 64-bit words either side of the boundary, and two full words.
@pytest.mark.parametrize("n_rows", [1, 13, 14, 63, 64, 65, 128])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_distinct_signatures_match_brute_force(n_rows, l):
    n_cols = {1: 9, 2: 12, 3: 40}[l]
    rng = np.random.default_rng(1000 * n_rows + l)
    random_support = rng.random((n_rows, n_cols)) < l / (l + 1)
    # Columns 0 and 1 are equal on the first 64 rows only, so candidates
    # that tell them apart differ in a later word, if there is one.
    first_word_tie = random_support.copy()
    first_word_tie[:64, 1] = first_word_tie[:64, 0]
    duplicated = random_support.copy()
    duplicated[:, 1] = duplicated[:, 0]
    # Column 0's rows lie strictly inside column 1's: the last row holds 1
    # but not 0. With n_rows > 64, the columns are equal on the first word.
    contained = random_support.copy()
    contained[:, 1] |= contained[:, 0]
    contained[:64, 1] = contained[:64, 0]
    contained[-1, 0], contained[-1, 1] = False, True
    outcomes = []
    for support in (random_support, first_word_tie, duplicated, contained):
        rows = [sum(1 << int(j) for j in np.flatnonzero(r)) for r in support]
        want = separates_by_brute_force(rows, n_cols, l)
        assert _distinct_signatures(support, _candidate_indices(n_cols, l)) == want
        assert separates(BinaryCode(n_rows, n_cols, tuple(rows)), l) == want
        outcomes.append(want)
    assert not outcomes[2]
    if n_rows == 128:
        assert outcomes[1]  # separated by the second word alone
    if l > 1:
        assert not outcomes[3]  # {0} and {0, 1} answer alike
    elif n_rows >= 13:
        assert outcomes[3]  # singletons only: nested columns still differ


@pytest.mark.parametrize("chunk_words", [1, 5 * 12, 7 * 12 + 3])
@pytest.mark.parametrize("n_rows", [63, 65, 128])
def test_containment_certificate_across_chunks(monkeypatch, chunk_words, n_rows):
    # Chunks of 1, 5 and 7 columns, so pairs within one chunk, pairs across
    # chunks and a short last chunk are all compared.
    monkeypatch.setattr(twostage, "CONTAINMENT_CHUNK_WORDS", chunk_words)
    n_cols = 12
    rng = np.random.default_rng(n_rows + chunk_words)
    support = rng.random((n_rows, n_cols)) < 2 / 3
    cand = _candidate_indices(n_cols, 2)
    colsig = coverfree._packed_columns(support)
    assert not twostage._has_contained_column(colsig)
    for inner, outer in [(0, 11), (11, 0), (4, 5), (5, 4), (6, 7), (10, 11), (3, 10)]:
        nested = support.copy()
        nested[:, outer] |= nested[:, inner]
        nested[-1, inner], nested[-1, outer] = False, True
        assert twostage._has_contained_column(coverfree._packed_columns(nested))
        assert not _distinct_signatures(nested, cand)
        rows = [sum(1 << int(j) for j in np.flatnonzero(r)) for r in nested]
        assert not separates_by_brute_force(rows, n_cols, 2)


def design_by_per_length_draws(n_cols: int, l: int, seed: int) -> BinaryCode:
    """Reference design search: one draw per doubling length, each checked
    for too few answer patterns and then for distinct answer columns of
    every candidate."""
    rng = np.random.default_rng(seed)
    cand = _candidate_indices(n_cols, l)
    n_cand = sum(len(idx) for idx in cand)
    n = 1
    while n <= twostage.MAX_DESIGN_ROWS:
        support = ~(rng.random((n, n_cols)) < 1.0 / (l + 1))
        if 1 << n >= n_cand:
            sigs = np.concatenate(coverfree._signatures(coverfree._packed_columns(support), cand))
            keys = sigs.view(np.dtype((np.void, 8 * sigs.shape[1])))
            if len(np.unique(keys)) == n_cand:
                rows = tuple(sum(1 << int(j) for j in np.flatnonzero(r)) for r in support)
                return BinaryCode(n, n_cols, rows)
        if n == twostage.MAX_DESIGN_ROWS:
            break
        n = min(2 * n, twostage.MAX_DESIGN_ROWS)
    raise DesignSearchError(
        f"no separating design for {n_cols} columns within {twostage.MAX_DESIGN_ROWS} rows"
    )


def design_outcome(build, n_cols, l, seed):
    try:
        return build(n_cols, l, seed)
    except DesignSearchError as exc:
        return str(exc)


# Budgets: none; 5 rows, not a power of two, where the last length is tried
# even with too few rows (40 columns at l = 2); and the default.
@pytest.mark.parametrize("max_rows, n_designs",
                         [(0, 0), (5, 27), (twostage.MAX_DESIGN_ROWS, 90)])
def test_block_design_matches_per_length_draws(monkeypatch, max_rows, n_designs):
    monkeypatch.setattr(twostage, "MAX_DESIGN_ROWS", max_rows)
    designs = 0
    for n_cols in (1, 2, 3, 5, 12, 40, 130):
        for l in range(1, min(3, n_cols) + 1):
            for seed in range(5):
                want = design_outcome(design_by_per_length_draws, n_cols, l, seed)
                assert design_outcome(build_block_design, n_cols, l, seed) == want
                designs += isinstance(want, BinaryCode)
    assert designs == n_designs


@pytest.mark.parametrize("l", [1, 2])
def test_block_design_round_trip(l):
    for t_block in range(l, 9):
        design = build_block_design(t_block, l, seed=42)
        for size in range(1, l + 1):
            for cand in combinations(range(1, t_block + 1), size):
                cmask = sum(1 << (c - 1) for c in cand)
                answers = [(r & cmask) == cmask for r in design.rows]
                assert decode_block(design, answers, l) == cand


def test_block_design_deterministic():
    a = build_block_design(6, 2, seed=5)
    b = build_block_design(6, 2, seed=5)
    assert a == b


def test_block_design_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(twostage, "MAX_DESIGN_ROWS", 0)
    with pytest.raises(DesignSearchError):
        build_block_design(6, 2, seed=0)
    with pytest.raises(ValueError):
        build_block_design(1, 2, seed=0)


def test_decode_block_error_cases():
    design = complement_of_identity(3)
    with pytest.raises(DecodeError):
        decode_block(design, [True, True, True], 1)  # no singleton fits
    wide = BinaryCode(1, 2, (3,))  # one all-ones row cannot tell {1} from {2}
    with pytest.raises(DecodeError):
        decode_block(wide, [True], 1)
    with pytest.raises(ValueError):
        decode_block(design, [True], 1)


def test_decode_block_matches_brute_force_on_unverified_codes():
    # Random codes, most of them not separating, so every outcome occurs:
    # no consistent candidate, exactly one, and several. Half the answer
    # vectors are random bits, half are a random candidate's own pattern.
    rng = random.Random(19)
    outcomes = set()
    for _ in range(3000):
        n_cols, n_rows, l = rng.randint(1, 9), rng.randint(1, 8), rng.randint(1, 3)
        rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
        cands = all_candidate_edges(n_cols, l)
        if rng.random() < 0.5:
            answers = [rng.random() < 0.5 for _ in rows]
        else:
            cmask = edge_mask(rng.choice(cands))
            answers = [r & cmask == cmask for r in rows]
        want = [
            cand for cand in cands
            if all((r & edge_mask(cand) == edge_mask(cand)) == a for r, a in zip(rows, answers))
        ]
        design = BinaryCode(n_rows, n_cols, rows)
        if len(want) == 1:
            assert decode_block(design, answers, l) == want[0]
        else:
            with pytest.raises(DecodeError, match=f"^{len(want)} candidates consistent"):
                decode_block(design, answers, l)
        outcomes.add(min(len(want), 2))
    assert outcomes == {0, 1, 2}


def test_two_stage_trial_success():
    params = FamilyParams(16, 2, 2)
    hidden = random_disjoint_instance(params, seed=4)
    oracle = Oracle(hidden)
    report = two_stage_trial(oracle, params, 0.5, seed=4, n_layers=1)
    assert report.success
    assert report.hypergraph == hidden
    assert report.stage1_queries == 2  # s * n_layers, the full fixed batch
    assert report.stage2_queries > 0
    assert oracle.count == report.stage1_queries + report.stage2_queries


def test_budget_stops_a_trial_one_query_into_stage_two():
    params = FamilyParams(16, 2, 2)
    hidden = random_disjoint_instance(params, seed=4)
    report = two_stage_trial(Oracle(hidden), params, 0.5, seed=4, n_layers=1)
    assert report.success and report.stage2_queries > 1
    n1 = report.stage1_queries
    oracle = Oracle(hidden, budget=n1 + 1)
    with pytest.raises(BudgetExceededError):
        two_stage_trial(oracle, params, 0.5, seed=4, n_layers=1)
    assert oracle.count == n1 + 1
    # Lifting the budget lets the same oracle answer and log the next query.
    oracle.budget = None
    assert oracle.query(VertexSet(16, range(1, 17)))
    assert oracle.count == n1 + 2
    assert oracle.transcript[-1].query == VertexSet(16, range(1, 17))


def stage_two_rows(hidden: Hypergraph, matrix: LayerMatrix, l: int, seed: int) -> list[int]:
    """The masks two_stage_trial queries in stage two, from the hidden
    hypergraph: each design row of each block of the first layer whose
    blocks all hold an edge, mapped from block columns to its vertices."""
    layers = [layer_partition(matrix, i) for i in range(matrix.n_layers)]
    part = next(bs for bs in layers if not any(is_independent(hidden, b) for b in bs))
    want = []
    for bi, block in enumerate(part, start=1):
        verts = block.members()
        design = build_block_design(len(block), l, _derive_seed(seed, bi))
        for row in design.rows:
            local = VertexSet._from_mask(design.n_cols, row)
            want.append(edge_mask(verts[j - 1] for j in local))
    return want


@pytest.mark.parametrize("n_layers", [1, 3, 8])
def test_two_stage_queries_by_position(n_layers):
    # A trial's stage is its place in the log: first every block of every
    # layer in layer order, then the design rows of the good layer's blocks.
    params = FamilyParams(64, 2, 2)
    outcomes = set()
    for seed in range(12):
        hidden = random_disjoint_instance(params, seed=seed)
        oracle = Oracle(hidden)
        report = two_stage_trial(oracle, params, 0.5, seed=seed, n_layers=n_layers)
        n1 = report.stage1_queries
        assert n1 == 2 * n_layers and oracle.count == n1 + report.stage2_queries
        matrix = sample_layer_matrix(n_layers, 64, 2, _derive_seed(seed, 0))
        tr = oracle.transcript
        assert [r.query for r in tr[:n1]] == [
            b for i in range(n_layers) for b in layer_partition(matrix, i)
        ]
        if report.success:
            assert [r.query.mask for r in tr[n1:]] == stage_two_rows(hidden, matrix, 2, seed)
        outcomes.add(report.success)
    assert outcomes == {True, False}


def test_two_stage_trial_declared_failure():
    params = FamilyParams(16, 2, 2)
    hidden = random_disjoint_instance(params, seed=0)
    oracle = Oracle(hidden)
    report = two_stage_trial(oracle, params, 0.5, seed=0, n_layers=1)
    assert not report.success
    assert report.hypergraph is None
    assert report.stage1_queries == 2
    assert report.stage2_queries == 0


def test_two_stage_trial_ambiguous_decode_is_declared_failure():
    # A hidden edge of size 3 matches no candidate of size <= 2.
    params = FamilyParams(16, 1, 2)
    oracle = Oracle(Hypergraph(16, [(2, 7, 11)]))
    report = two_stage_trial(oracle, params, 0.05, seed=0)
    design = build_block_design(16, 2, _derive_seed(0, 1))
    answers = [r.answer for r in oracle.transcript[report.stage1_queries:]]
    with pytest.raises(DecodeError):
        decode_block(design, answers, 2)
    assert not report.success
    assert report.hypergraph is None
    assert report.stage1_queries == report.layers
    assert report.stage2_queries == design.n_rows
    assert oracle.count == report.stage1_queries + report.stage2_queries


@pytest.mark.parametrize("t", [250, 257])
def test_two_stage_queries_remap_design_rows(t):
    params = FamilyParams(t, 2, 2)
    successes = 0
    for seed in range(4):
        hidden = random_disjoint_instance(params, seed=seed)
        oracle = Oracle(hidden)
        report = two_stage_trial(oracle, params, 0.05, seed=seed)
        if not report.success:
            continue
        successes += 1
        matrix = sample_layer_matrix(report.layers, t, 2, _derive_seed(seed, 0))
        got = [r.query.mask for r in oracle.transcript[report.stage1_queries:]]
        assert got == stage_two_rows(hidden, matrix, 2, seed)
    assert successes >= 2


def test_universe_mismatch_fails_at_the_first_query():
    # The oracle's own check refuses the first block, before logging it.
    oracle = Oracle(Hypergraph(9))
    with pytest.raises(ValueError, match=r"universe mismatch: 8 != 9"):
        find_good_layer(sample_layer_matrix(3, 8, 2, 0), oracle)
    assert oracle.count == 0
    oracle = Oracle(random_disjoint_instance(FamilyParams(9, 2, 2), seed=0))
    with pytest.raises(ValueError, match=r"universe mismatch: 8 != 9"):
        two_stage_trial(oracle, FamilyParams(8, 2, 2), 0.05, seed=0)
    assert oracle.count == 0


def test_two_stage_singleton_family_always_succeeds():
    params = FamilyParams(12, 1, 2)
    for seed in range(10):
        hidden = random_disjoint_instance(params, seed=seed)
        report = two_stage_trial(Oracle(hidden), params, 0.2, seed=seed)
        assert report.hypergraph == hidden


def test_two_stage_end_to_end():
    params = FamilyParams(32, 2, 2)
    successes = 0
    for seed in range(15):
        hidden = random_disjoint_instance(params, seed=seed)
        report = two_stage_trial(Oracle(hidden), params, 0.05, seed=seed)
        assert report.layers == required_layers(0.05, 2, 2)
        assert report.stage1_queries == 2 * report.layers
        if report.success:
            successes += 1
            assert report.hypergraph == hidden
    assert successes >= 12  # expected failure rate is below 5 percent


def test_two_stage_tiny_universe():
    # blocks must take sizes (2, 2) for a layer to be good at t=4
    params = FamilyParams(4, 2, 2)
    hidden = Hypergraph(4, [(1, 2), (3, 4)])
    successes = 0
    for seed in range(20):
        report = two_stage_trial(Oracle(hidden), params, 0.05, seed=seed)
        if report.success:
            successes += 1
            assert report.hypergraph == hidden
            assert report.hypergraph.sorted_edges() == [(1, 2), (3, 4)]
    assert successes >= 17


def test_two_stage_validates_epsilon():
    params = FamilyParams(8, 2, 2)
    hidden = random_disjoint_instance(params, seed=1)
    with pytest.raises(ValueError):
        two_stage_trial(Oracle(hidden), params, 1.5, seed=1)


def test_two_stage_refuses_a_negative_seed_before_any_query():
    params = FamilyParams(16, 2, 2)
    oracle = Oracle(random_disjoint_instance(params, seed=1))
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        two_stage_trial(oracle, params, 0.05, seed=-1)
    assert oracle.count == 0


def test_trial_report_dict_shape():
    params = FamilyParams(16, 2, 2)
    hidden = random_disjoint_instance(params, seed=4)
    report = two_stage_trial(Oracle(hidden), params, 0.5, seed=4, n_layers=1)
    d = report.to_dict()
    assert set(d) == {
        "t", "s", "l", "epsilon", "layers",
        "stage1_queries", "stage2_queries", "success", "recovered_edges",
    }
    assert d["recovered_edges"] == [list(e) for e in hidden.sorted_edges()]
