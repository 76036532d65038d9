"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria, tolerances, and workloads are pinned here; they are the exit
bar for the library, not tunables.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from conftest import count_family_bruteforce, enumerate_family
from hhl import (
    FamilyParams,
    Hypergraph,
    Oracle,
    VertexSet,
    build_block_design,
    decode_block,
    family_size_exact,
    layer_partition,
    learn,
    learn_detailed,
    random_disjoint_instance,
    random_family_instance,
    sample_layer_matrix,
    two_stage_trial,
    worst_case_query_budget,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_criterion_1_exhaustive_exact_recovery():
    """Every Sperner family member at four desk-scale parameter points is
    recovered exactly. Tolerance: zero failures."""
    failures = 0
    total = 0
    for (t, s, l) in [(6, 1, 2), (6, 2, 2), (8, 2, 2), (7, 1, 3)]:
        params = FamilyParams(t, s, l)
        budget = worst_case_query_budget(params)
        for hidden in enumerate_family(t, s, l, sperner_only=True):
            total += 1
            oracle = Oracle(hidden, budget=budget)
            if learn(oracle, params) != hidden:
                failures += 1
    _report(
        "1 exhaustive exact recovery",
        failures == 0,
        f"{total} hypergraphs, {failures} failures",
    )


def test_criterion_2_worst_case_query_budget():
    """1000 random Sperner instances at (2^16, 2, 2) and 200 at (2^14, 3, 2)
    all finish within the worst-case budget, enforced by the oracle itself.
    Tolerance: zero violations."""
    violations = 0
    runs = 0
    for (t, s, l, n_runs) in [(2**16, 2, 2, 1000), (2**14, 3, 2, 200)]:
        params = FamilyParams(t, s, l)
        budget = worst_case_query_budget(params)
        for seed in range(n_runs):
            hidden = random_family_instance(params, sperner_only=True, seed=seed)
            oracle = Oracle(hidden, budget=budget)
            report = learn_detailed(oracle, params)
            runs += 1
            if report.queries_total > budget or report.hypergraph != hidden:
                violations += 1
    _report(
        "2 worst-case query budget",
        violations == 0,
        f"{runs} runs, {violations} violations",
    )


def test_criterion_3_rate_ceiling():
    """Exact counting matches brute-force enumeration on the small grid, and
    the normalized query cost queries/(s*l*log2 t) decreases along a sweep
    of t (non-strict, at most one inversion allowed)."""
    for t in range(1, 7):
        for s in range(1, 4):
            for l in range(1, 4):
                expected = count_family_bruteforce(t, s, l)
                got = family_size_exact(FamilyParams(t, s, l))
                if got != expected:
                    _report(
                        "3 rate ceiling",
                        False,
                        f"count mismatch at ({t},{s},{l}): {got} != {expected}",
                    )

    trials = 20
    ratios = []
    for t in [2**k for k in range(10, 21)]:
        params = FamilyParams(t, 2, 2)
        total = 0
        for i in range(trials):
            hidden = random_family_instance(params, sperner_only=True, seed=1000 + i)
            total += learn_detailed(Oracle(hidden), params).queries_total
        ratios.append((total / trials) / (4 * math.log2(t)))
    inversions = sum(1 for a, b in zip(ratios, ratios[1:]) if b > a)
    _report(
        "3 rate ceiling",
        inversions <= 1,
        f"ratios {[round(r, 3) for r in ratios]}, inversions {inversions}",
    )


def test_criterion_4_cover_free_checker_soundness():
    """is_cover_free agrees with an independently written double-enumeration
    checker on 200 random codes plus the edge cases. Zero disagreements."""
    from conftest import brute_force_cover_free
    from hhl import BinaryCode, is_cover_free

    def bits_of(code):
        return [[(r >> j) & 1 for j in range(code.n_cols)] for r in code.rows]

    disagreements = 0
    rng = random.Random(20240810)
    checked = 0
    for _ in range(200):
        t = rng.randint(3, 12)
        n = rng.randint(1, 12)
        s = rng.randint(1, min(3, t - 1))
        l = rng.randint(1, min(2, t - s))
        rows = tuple(
            sum(1 << j for j in range(t) if rng.random() < rng.choice((0.3, 0.5, 0.7)))
            for _ in range(n)
        )
        code = BinaryCode(n, t, rows)
        checked += 1
        if is_cover_free(code, s, l) != brute_force_cover_free(bits_of(code), s, l):
            disagreements += 1

    identity = BinaryCode(6, 6, tuple(1 << j for j in range(6)))
    zeros = BinaryCode(4, 6, (0,) * 4)
    ones = BinaryCode(4, 6, ((1 << 6) - 1,) * 4)
    for code, s, l, expected in [
        (identity, 5, 1, True),
        (zeros, 1, 1, False),
        (ones, 1, 1, False),
    ]:
        checked += 1
        if is_cover_free(code, s, l) != expected or brute_force_cover_free(
            bits_of(code), s, l
        ) != expected:
            disagreements += 1
    _report(
        "4 cover-free checker soundness",
        disagreements == 0,
        f"{checked} codes, {disagreements} disagreements",
    )


def test_criterion_5_layer_probability():
    """Good-layer frequency over 10^4 sampled layers on random disjoint
    instances lies within 3 binomial sigma of s!/s^(s*l) = 0.125."""
    hits = 0
    n_instances, layers_each = 100, 100
    for seed in range(n_instances):
        hidden = random_disjoint_instance(FamilyParams(64, 2, 2), seed=seed)
        matrix = sample_layer_matrix(layers_each, 64, 2, seed=50_000 + seed)
        oracle = Oracle(hidden)
        for i in range(matrix.n_layers):
            part = layer_partition(matrix, i)
            if all(oracle.query(b) for b in part):
                hits += 1
    total = n_instances * layers_each
    freq = hits / total
    p = 0.125
    slack = 3 * math.sqrt(p * (1 - p) / total)
    _report(
        "5 layer probability formula",
        abs(freq - p) <= slack,
        f"freq {freq:.4f} vs {p} +/- {slack:.4f}",
    )


def test_criterion_6_two_stage_success_rate():
    """At (256, 2, 2) with epsilon=0.05 and 35 layers, 500 trials succeed at
    rate >= 1 - eps - 3*sqrt(eps(1-eps)/500); successes recover the hidden
    hypergraph exactly; the stage-one count is identical across t."""
    epsilon, layers, n_trials = 0.05, 35, 500
    params = FamilyParams(256, 2, 2)
    successes = 0
    wrong = 0
    for seed in range(n_trials):
        hidden = random_disjoint_instance(params, seed=seed)
        report = two_stage_trial(
            Oracle(hidden), params, epsilon, seed, n_layers=layers
        )
        if report.success:
            successes += 1
            if report.hypergraph != hidden:
                wrong += 1
    bar = 1 - epsilon - 3 * math.sqrt(epsilon * (1 - epsilon) / n_trials)
    rate = successes / n_trials

    stage1_counts = set()
    for t in (128, 256, 512):
        p = FamilyParams(t, 2, 2)
        for seed in range(10):
            hidden = random_disjoint_instance(p, seed=seed)
            report = two_stage_trial(Oracle(hidden), p, epsilon, seed, n_layers=layers)
            stage1_counts.add(report.stage1_queries)
    _report(
        "6 two-stage success rate",
        rate >= bar and wrong == 0 and stage1_counts == {2 * layers},
        f"rate {rate:.4f} vs bar {bar:.4f}, wrong {wrong}, stage1 {stage1_counts}",
    )


def test_criterion_7_property_suites():
    """Round-trip and structural invariants: oracle monotonicity over 10^4
    random triples, per-invocation bisection query bound, the dead deletion
    branch never firing, and block-design decode round-trips. Zero
    violations."""
    violations = []

    rng = random.Random(777)
    for _ in range(10_000):
        t = rng.randint(2, 24)
        edges = set()
        for _ in range(rng.randint(0, 3)):
            size = rng.randint(1, min(3, t))
            edges.add(tuple(sorted(rng.sample(range(1, t + 1), size))))
        hidden = Hypergraph(t, edges)
        sub = {v for v in range(1, t + 1) if rng.random() < 0.4}
        sup = sub | {v for v in range(1, t + 1) if rng.random() < 0.3}
        oracle = Oracle(hidden)
        if oracle.query(VertexSet(t, sub)) and not oracle.query(VertexSet(t, sup)):
            violations.append(f"monotonicity at t={t}")
            break

    deletions = 0
    vertex_searches = 0
    for (t, s, l, n_runs) in [(512, 2, 2, 200), (64, 3, 2, 100)]:
        params = FamilyParams(t, s, l)
        for seed in range(n_runs):
            hidden = random_family_instance(params, sperner_only=True, seed=seed)
            report = learn_detailed(Oracle(hidden), params, debug_checks=True)
            deletions += report.stats.edge_deletions
            for n, used in report.stats.vertex_search_log:
                vertex_searches += 1
                if used > (n - 1).bit_length():
                    violations.append(f"bisection bound: {used} queries for {n}")
    if deletions:
        violations.append(f"{deletions} dead deletions fired")

    decoded = 0
    for l in (1, 2):
        for t_block in range(l, 9):
            design = build_block_design(t_block, l, seed=42)
            for size in range(1, l + 1):
                for cand in combinations(range(1, t_block + 1), size):
                    cmask = sum(1 << (c - 1) for c in cand)
                    answers = [(r & cmask) == cmask for r in design.rows]
                    decoded += 1
                    if decode_block(design, answers, l) != cand:
                        violations.append(f"decode round-trip {cand} t={t_block}")
    _report(
        "7 property suites",
        not violations,
        f"{vertex_searches} bisections, {decoded} decodes"
        + (f"; violations: {violations[:3]}" if violations else ""),
    )
