from __future__ import annotations

import json
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhl import (
    FamilyParams,
    Hypergraph,
    VertexSet,
    canonical_edge,
    hypergraph_from_dict,
    hypergraph_to_dict,
    is_sperner,
    load_hypergraph,
    member_of_family,
    random_disjoint_instance,
    random_family_instance,
    save_hypergraph,
)

from hhl.core import _bools_from_masks, _masks_from_bools, edge_count, edge_mask

from conftest import all_candidate_edges, limit_address_space, toggles_of


def test_canonical_edge_sorts_and_validates():
    assert canonical_edge([3, 1, 2], 5) == (1, 2, 3)
    with pytest.raises(ValueError):
        canonical_edge([], 5)
    with pytest.raises(ValueError):
        canonical_edge([1, 1, 2], 5)
    with pytest.raises(ValueError):
        canonical_edge([0, 1], 5)
    with pytest.raises(ValueError):
        canonical_edge([1, 6], t=5)


def test_canonical_edge_reads_vertices_as_vertex_set_does():
    # A float is not a vertex, for an edge as for a VertexSet member.
    for bad in ([1.5, 2], [2.0]):
        with pytest.raises(TypeError):
            canonical_edge(bad, 5)
        with pytest.raises(TypeError):
            Hypergraph(5, [bad])
        with pytest.raises(TypeError):
            VertexSet(5, bad)
    # A numpy int is stored as a Python int.
    edge = canonical_edge([np.int64(3), np.uint8(1)], 5)
    assert edge == (1, 3) and all(type(v) is int for v in edge)


def test_numpy_int_edges_round_trip_through_json(tmp_path):
    h = Hypergraph(6, [(np.int64(4), 5), np.array([1, 3])])
    assert all(type(v) is int for e in h.edges for v in e)
    assert json.loads(json.dumps(hypergraph_to_dict(h))) == {"t": 6, "edges": [[1, 3], [4, 5]]}
    path = tmp_path / "h.json"
    save_hypergraph(str(path), h)
    assert load_hypergraph(str(path)) == h == Hypergraph(6, [(1, 3), (4, 5)])


def test_edge_count_counts_candidate_edges():
    for n in range(1, 11):
        for k in range(1, 13):
            assert edge_count(n, k) == len(all_candidate_edges(n, k)), (n, k)


def test_vertex_set_basics():
    s = VertexSet(8, [3, 1, 7])
    assert len(s) == 3
    assert list(s) == [1, 3, 7]
    assert 3 in s and 2 not in s and 9 not in s
    assert s.members() == (1, 3, 7)
    assert VertexSet(4, range(1, 5)).members() == (1, 2, 3, 4)
    assert len(VertexSet(4)) == 0
    with pytest.raises(ValueError):
        VertexSet(4, [5])
    vs = (1, 64, 65, 129)
    assert [VertexSet(129, [v]).members() for v in vs] == [(v,) for v in vs]


def test_vertex_set_constructor_checks_in_order_and_merges_runs():
    # Members are checked in the order given, then sorted, deduplicated and
    # merged into runs; bools count as 0 and 1, as in a mask built from them.
    assert VertexSet(8, [7, 3, 1, 2, 3, 7])._runs == (0, 3, 6, 7)
    assert VertexSet(8, [True, 3, 3, 1]) == VertexSet._from_mask(8, 0b101)
    assert VertexSet(8, [True, 3, 3, 1]).members() == (1, 3)
    assert VertexSet(8, np.array([2, 3, 3]))._runs == (1, 3)
    with pytest.raises(ValueError, match="vertex 9 outside"):
        VertexSet(8, [9, 0])
    with pytest.raises(ValueError, match="vertex 0 outside"):
        VertexSet(8, [False])
    for bad in (1.5, "3"):
        with pytest.raises(TypeError):
            VertexSet(8, [1, bad])
    with pytest.raises(ValueError):
        VertexSet(0)


def test_vertex_set_constructor_at_huge_t():
    # The constructor allocates nothing sized by t, so it builds {1, 2**60}
    # under an address limit far below the 2**57 bytes of its mask.
    code = (
        "from hhl import VertexSet\n"
        "t = 2**60\n"
        "s = VertexSet(t, [t, 1, t])\n"
        "print(s == VertexSet._from_runs(t, (0, 1, t - 1, t)), s._runs, len(s), t in s)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"True (0, 1, {2**60 - 1}, {2**60}) 2 True\n"


def test_vertex_set_operations():
    a = VertexSet(6, [1, 2, 3])
    b = VertexSet(6, [3, 4])
    assert (a | b).members() == (1, 2, 3, 4)
    assert (a & b).members() == (3,)
    assert (a - b).members() == (1, 2)
    assert a.complement().members() == (4, 5, 6)
    with pytest.raises(ValueError):
        a | VertexSet(7, [1])


@given(st.sets(st.integers(min_value=1, max_value=40)), st.data())
def test_vertex_set_split_lowest(members, data):
    s = VertexSet(40, members)
    k = data.draw(st.integers(min_value=0, max_value=len(s)))
    low, high = s.split_lowest(k)
    assert len(low) == k
    assert (low | high) == s
    assert (low & high).members() == ()
    if low.members() and high.members():
        assert max(low.members()) < min(high.members())


# Universe sizes on both sides of byte and 64-bit word boundaries.
BOUNDARY_TS = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 4097, 2**16 + 3)


@st.composite
def boundary_vertex_sets(draw):
    """(t, members) with members biased toward 1, t and multiples of 8 and 64 (+-1)."""
    t = draw(st.sampled_from(BOUNDARY_TS))
    near = st.sampled_from((-1, 0, 1))
    vertex = st.one_of(
        st.sampled_from((1, t)),
        st.builds(lambda j, d: 8 * j + d, st.integers(0, t // 8), near),
        st.builds(lambda j, d: 64 * j + d, st.integers(0, t // 64), near),
        st.integers(1, t),
    ).map(lambda v: min(max(v, 1), t))
    members = draw(st.sets(vertex, max_size=min(t, 60)))
    # A dense run that can span several words (empty when its length is 0).
    start = draw(st.integers(1, t))
    members |= set(range(start, min(t + 1, start + draw(st.integers(0, 300)))))
    return t, members


@given(boundary_vertex_sets(), st.data())
def test_vertex_set_word_boundaries(case, data):
    t, members = case
    ref = sorted(members)
    s = VertexSet._from_mask(t, edge_mask(ref))
    assert s == VertexSet(t, ref)
    assert s.members() == tuple(ref)
    assert list(s) == ref
    k = data.draw(st.integers(min_value=0, max_value=len(ref)))
    assert s.split_lowest(k) == (VertexSet(t, ref[:k]), VertexSet(t, ref[k:]))
    with pytest.raises(ValueError):
        s.split_lowest(len(ref) + 1)


def assert_same_set(got: VertexSet, want: VertexSet) -> None:
    """got, run-coded, holds the set want, mask-coded, for every reader."""
    t, members = want.t, want.members()
    assert got.members() == members and list(got) == list(members)
    assert len(got) == len(members)
    probes = {0, 1, t, t + 1} | {w for v in members for w in (v - 1, v, v + 1)}
    assert [v in got for v in sorted(probes)] == [v in want for v in sorted(probes)]
    assert got == want and want == got and hash(got) == hash(want)
    assert got.mask == want.mask


def run_code_cases() -> list[tuple[int, list[int]]]:
    """(t, members): empty and full sets, runs touching 1 and t, and
    excluded vertices next to each other on a 64-bit word boundary."""
    cases = []
    for t in (1, 2, 63, 64, 65, 4097):
        universe = range(1, t + 1)
        sets = [[], list(universe), [1], [t], [1, t], [v for v in universe if v not in (64, 65)]]
        sets.append([v for v in universe if v <= 3 or v >= t - 2])
        sets.append([v for v in universe if v % 3])
        sets.append([v for v in (63, 64, 65, 66, 128, 129) if v <= t])
        for members in sets:
            if (t, sorted(set(members))) not in cases:
                cases.append((t, sorted(set(members))))
    return cases


@pytest.mark.parametrize("t, members", run_code_cases())
def test_run_code_agrees_with_members(t, members):
    want = VertexSet._from_mask(t, edge_mask(members))
    code = toggles_of(members)
    assert_same_set(VertexSet._from_runs(t, code), want)
    # Empty runs at 0, 64 and t, and runs cut in two where they touch.
    noisy = toggles_of(members, extra=[0, min(64, t), t, *code])
    assert len(noisy) == 3 * len(code) + 6
    assert_same_set(VertexSet._from_runs(t, noisy), want)
    assert VertexSet._from_runs(t, noisy) == VertexSet._from_runs(t, code)
    assert hash(VertexSet._from_runs(t, noisy)) == hash(VertexSet._from_runs(t, code))
    if members:
        fewer = VertexSet._from_runs(t, toggles_of(members[1:], extra=code))
        assert fewer != want and fewer != VertexSet._from_runs(t, code)


@given(boundary_vertex_sets(), st.lists(st.integers(0, 2**17), max_size=6))
def test_run_code_agrees_with_members_random(case, extra):
    t, members = case
    noisy = toggles_of(members, extra=[x % (t + 1) for x in extra])
    assert_same_set(VertexSet._from_runs(t, noisy), VertexSet._from_mask(t, edge_mask(members)))


def test_vertex_set_members_full_large():
    t = 2**18
    full = VertexSet._from_mask(t, (1 << t) - 1)
    assert full.members() == tuple(range(1, t + 1))
    assert VertexSet(t, range(1, t + 1))._runs == (0, t)
    assert full == VertexSet._from_runs(t, (0, t))
    assert hash(full) == hash(VertexSet._from_runs(t, (0, t)))


def test_equality_hash_and_sperner_at_huge_t():
    # Equality and hash compare toggles and is_sperner compares member sets,
    # so nothing here is t bits wide: a mask of 2**60 bits fits in no memory.
    code = (
        "from hhl import Hypergraph, VertexSet, is_sperner\n"
        "t = 2**60\n"
        "top = VertexSet._from_runs(t, (t - 1, t))\n"
        "same = VertexSet._from_runs(t, (0, 0, t - 1, t - 1, t - 1, t))\n"
        "low = VertexSet._from_mask(t, 1)\n"
        "print(top == same, hash(top) == hash(same), top != low, low == VertexSet._from_runs(t, (0, 1)),\n"
        "      hash(low) == hash(VertexSet._from_runs(t, (0, 1))), len({top, same, low}),\n"
        "      is_sperner(Hypergraph(t, [(1, t), (2, t)])), is_sperner(Hypergraph(t, [(t,), (1, t)])))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True True True True True 2 True False\n"


def test_vertex_set_split_bounds():
    s = VertexSet(5, [2, 4])
    with pytest.raises(ValueError):
        s.split_lowest(3)
    with pytest.raises(ValueError):
        s.split_lowest(-1)
    low, high = s.split_lowest(0)
    assert low.members() == () and high == s


def select_cases() -> list[list[int]]:
    """Sorted member lists: random ones of several widths and ones that sit
    on or straddle 64-bit word boundaries."""
    rng = random.Random(17)
    cases = [
        [1], [64], [65], [63, 64, 65], [64, 128, 129], list(range(60, 70)),
        list(range(1, 65)), list(range(1, 130)), [1, 4097], [4096, 4097],
    ]
    for width in (1, 2, 63, 64, 65, 200, 4097):
        for density in (0.02, 0.5, 0.98):
            members = [v for v in range(1, width + 1) if rng.random() < density]
            cases.append(members or [width])
    return cases


@pytest.mark.parametrize("members", select_cases())
def test_select_kernels_match_sorted_members(members):
    s = VertexSet._from_mask(members[-1], edge_mask(members))
    want = 0  # mask of the k lowest members
    for k in range(len(members) + 1):
        low, high = s.split_lowest(k)
        assert (low.mask, high.mask) == (want, s.mask ^ want)
        if k < len(members):
            want |= 1 << (members[k] - 1)
    with pytest.raises(ValueError):
        s.split_lowest(len(members) + 1)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 257])
@pytest.mark.parametrize("n_rows", [0, 1, 5])
def test_masks_from_bools_inverts_bools_from_masks(width, n_rows):
    rng = np.random.default_rng(width * 10 + n_rows)
    flags = rng.random((n_rows, width)) < 0.5
    if n_rows:
        flags[0] = True  # the top bit of a full row sits at the last byte's edge
    masks = _masks_from_bools(flags)
    assert masks == [
        sum(1 << j for j in range(width) if row[j]) for row in flags.tolist()
    ]
    back = _bools_from_masks(masks, width)
    assert back.shape == (n_rows, width) and (back == flags).all()
    assert _masks_from_bools(back) == masks


def test_hypergraph_canonicalization():
    h = Hypergraph(5, [(2, 1), (3,), (1, 2)])
    assert h.sorted_edges() == [(1, 2), (3,)]
    assert h == Hypergraph(5, [(1, 2), (3,)])
    assert h != Hypergraph(6, [(1, 2), (3,)])


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Hypergraph(5, [()])
    with pytest.raises(ValueError):
        Hypergraph(5, [(1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(5, [(6,)])
    with pytest.raises(ValueError):
        Hypergraph(0)


def test_family_params_validation():
    FamilyParams(5, 1, 2)
    with pytest.raises(ValueError):
        FamilyParams(0, 1, 1)
    with pytest.raises(ValueError):
        FamilyParams(5, 0, 1)
    with pytest.raises(ValueError):
        FamilyParams(5, 1, 0)


def test_member_of_family():
    p = FamilyParams(5, 1, 2)
    assert member_of_family(Hypergraph(5, [(1, 2)]), p)
    assert not member_of_family(Hypergraph(5, [(1, 2, 3)]), p)
    assert member_of_family(Hypergraph(5), p)
    assert not member_of_family(Hypergraph(5, [(1,), (2,)]), p)
    with pytest.raises(ValueError):
        member_of_family(Hypergraph(4, [(1, 2)]), p)


def test_is_sperner():
    assert is_sperner(Hypergraph(4, [(1, 2), (2, 3)]))
    assert not is_sperner(Hypergraph(4, [(1,), (1, 2)]))
    assert is_sperner(Hypergraph(4))


def test_random_family_instance_postconditions():
    # 10^4 seeded draws across a few parameter points
    cases = [
        (FamilyParams(10, 2, 2), 4000),
        (FamilyParams(7, 3, 3), 3000),
        (FamilyParams(25, 2, 3), 3000),
    ]
    for p, n_draws in cases:
        for seed in range(n_draws):
            h = random_family_instance(p, sperner_only=True, seed=seed)
            assert member_of_family(h, p)
            assert is_sperner(h)
    # non-Sperner draws allowed when not requested
    p = FamilyParams(10, 2, 2)
    for seed in range(200):
        h = random_family_instance(p, sperner_only=False, seed=seed)
        assert member_of_family(h, p)


def test_random_family_instance_forced_shape():
    p = FamilyParams(10, 1, 1)
    for seed in range(50):
        h = random_family_instance(p, seed=seed)
        assert len(h.edges) <= 1
        assert all(len(e) == 1 for e in h.edges)


def test_random_family_instance_deterministic():
    p = FamilyParams(12, 3, 2)
    assert random_family_instance(p, seed=7) == random_family_instance(p, seed=7)


def test_random_disjoint_instance():
    h = random_disjoint_instance(FamilyParams(6, 2, 2), seed=1)
    edges = h.sorted_edges()
    assert len(edges) == 2
    assert all(len(e) == 2 for e in edges)
    assert not (set(edges[0]) & set(edges[1]))


def test_random_disjoint_instance_tight():
    # s*l == t forces the edges to partition the whole vertex set
    for seed in range(20):
        h = random_disjoint_instance(FamilyParams(4, 2, 2), seed=seed)
        union = set()
        for e in h.edges:
            union |= set(e)
        assert union == {1, 2, 3, 4}


def test_random_disjoint_instance_impossible():
    with pytest.raises(ValueError):
        random_disjoint_instance(FamilyParams(4, 3, 2), seed=0)


def test_random_disjoint_union_size():
    p = FamilyParams(20, 3, 2)
    for seed in range(50):
        h = random_disjoint_instance(p, seed=seed)
        union = set()
        for e in h.edges:
            union |= set(e)
        assert len(union) == p.s * p.l
    assert random_disjoint_instance(p, seed=3) == random_disjoint_instance(p, seed=3)


def test_hypergraph_json_round_trip(tmp_path):
    h = Hypergraph(6, [(4, 5), (1,), (1, 3)])
    d = hypergraph_to_dict(h)
    assert d == {"t": 6, "edges": [[1], [1, 3], [4, 5]]}
    assert hypergraph_from_dict(json.loads(json.dumps(d))) == h
    path = tmp_path / "h.json"
    save_hypergraph(str(path), h)
    assert load_hypergraph(str(path)) == h


@pytest.mark.parametrize(
    "doc",
    [
        {"t": 4},
        {"t": 4, "edges": [[1, 1]]},
        {"t": 4, "edges": [[5]]},
        {"t": 4, "edges": [[]]},
        {"t": 4, "edges": [[1, 2], [2, 1]]},
        {"t": 0, "edges": []},
        {"t": 4, "edges": [["1"]]},
        {"t": 4, "edges": [[1.5]]},
        {"t": 4, "edges": "nope"},
        {"t": True, "edges": []},
    ],
)
def test_hypergraph_json_rejects(doc):
    with pytest.raises(ValueError):
        hypergraph_from_dict(doc)
