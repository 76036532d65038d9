"""Core domain types: vertex sets, edges, hypergraphs, family parameters.

Vertices are 1-based integers in {1..t}. Edges are canonical sorted tuples
of distinct vertices, so hypergraph equality and deduplication are plain
value comparisons.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from math import comb
from operator import index
from typing import Iterable, Iterator, Sequence

from ._numpy import np

Edge = tuple[int, ...]

# Rejection-sampling rounds random_family_instance tries before giving up.
MAX_RETRIES = 10_000


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its retry budget."""


def canonical_edge(vertices: Iterable[int], t: int) -> Edge:
    """Return the sorted tuple form of an edge, validating its contents.

    Vertices are read through operator.index, as VertexSet members are.
    Raises ValueError for empty edges, repeated vertices or vertices outside
    {1..t}.
    """
    vs = tuple(sorted(map(index, vertices)))
    if not vs:
        raise ValueError("edge must be nonempty")
    if any(vs[i] == vs[i + 1] for i in range(len(vs) - 1)):
        raise ValueError(f"edge has repeated vertices: {vs}")
    if vs[0] < 1:
        raise ValueError(f"vertices are 1-based, got {vs[0]}")
    if vs[-1] > t:
        raise ValueError(f"vertex {vs[-1]} outside universe of size {t}")
    return vs


def edge_mask(edge: Iterable[int]) -> int:
    """Bitmask of an edge (bit v-1 set for each vertex v)."""
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def _bit_positions(mask: int) -> np.ndarray:
    """0-based positions of the set bits of mask, in increasing order: one
    scan over its 64-bit words, unpacking only the nonzero ones."""
    n_bytes = 8 * ((mask.bit_length() + 63) >> 6)
    words = np.frombuffer(mask.to_bytes(n_bytes, "little"), dtype="<u8")
    nonzero = np.flatnonzero(words)
    bits = np.flatnonzero(
        np.unpackbits(words[nonzero].view(np.uint8), bitorder="little")
    )
    return nonzero[bits >> 6] * 64 + (bits & 63)


def _masks_from_bools(flags: np.ndarray) -> list[int]:
    """Int masks of the rows of a 2-d bool array, the inverse of
    _bools_from_masks: bit j of mask i is flags[i, j]. One packbits for all."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    data, n = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i : i + n], "little") for i in range(0, len(data), n)]


def _bools_from_masks(masks: Sequence[int], width: int) -> np.ndarray:
    """(len(masks), width) bool array of int masks: [i, j] is bit j of masks[i]."""
    n_bytes = (width + 7) >> 3
    data = b"".join(m.to_bytes(n_bytes, "little") for m in masks)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(masks), n_bytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)


class VertexSet:
    """Immutable subset of {1..t} in one of two codes, fixed at construction.

    Mask-coded: an int bitmask, bit v-1 for vertex v. Run-coded: a tuple of
    sorted toggle positions in 0..t at which membership flips, so bit j is
    in the set iff an odd number of toggles is <= j, and the run of
    vertices a..b is the pair (a-1, b). Equal toggles (an empty run, or two
    runs that touch) cancel; producers may leave them, and _toggles()
    returns the strictly increasing form for either code. The constructor
    and the learner's queries are run-coded; _from_mask makes the two-stage
    blocks and stage-two rows, which have many runs, and set algebra results.

    Operations return new sets and leave their operands alone; t and mask
    are read-only, so a set can be kept as a value (the oracle logs the
    sets it answers). Reading mask on a run-coded set builds the int, in
    O(t/8 + runs) byte operations, on every read.

    On a run-coded set len(), `in` and members() cost O(runs), O(log runs)
    and O(runs + |S|), and == and hash O(runs); union, intersection,
    difference, complement and split_lowest go through the mask. On a
    mask-coded set those cost O(t/w); split_lowest, members() and iteration
    cost O(t/64 + |S|), and == and hash O(t/64 + runs): one numpy scan over
    64-bit words, unpacking only the nonzero ones. Building a set from n
    members costs O(n log n): each is checked in the order given, then they
    are sorted and adjacent ones merged into runs.
    """

    __slots__ = ("_t", "_mask", "_runs")

    def __init__(self, t: int, members: Iterable[int] = ()) -> None:
        if t < 1:
            raise ValueError("universe size must be positive")
        vs: set[int] = set()
        for v in members:
            v = index(v)
            if not 1 <= v <= t:
                raise ValueError(f"vertex {v} outside universe of size {t}")
            vs.add(v)
        runs: list[int] = []
        for v in sorted(vs):
            if runs and runs[-1] == v - 1:
                runs[-1] = v
            else:
                runs += (v - 1, v)
        self._t = t
        self._mask = None
        self._runs = tuple(runs)

    @classmethod
    def _from_mask(cls, t: int, mask: int) -> "VertexSet":
        # Internal fast path: trusts 0 <= mask < 2**t.
        vs = object.__new__(cls)
        vs._t = t
        vs._mask = mask
        vs._runs = None
        return vs

    @classmethod
    def _from_runs(cls, t: int, runs: tuple[int, ...]) -> "VertexSet":
        # Internal fast path: trusts runs to be a tuple of even length,
        # sorted, with every toggle in 0..t.
        vs = object.__new__(cls)
        vs._t = t
        vs._mask = None
        vs._runs = runs
        return vs

    @property
    def t(self) -> int:
        return self._t

    @property
    def mask(self) -> int:
        r = self._runs
        if r is None:
            return self._mask
        # Bits lo..hi-1 of a run, in a little-endian byte buffer: the bytes
        # at its two ends by OR, the whole bytes between them by one slice.
        buf = bytearray((self._t >> 3) + 1)
        for lo, hi in zip(r[0::2], r[1::2]):
            a, b = lo >> 3, hi >> 3
            if a == b:
                buf[a] |= (1 << (hi & 7)) - (1 << (lo & 7))
            else:
                buf[a] |= 256 - (1 << (lo & 7))
                buf[a + 1 : b] = b"\xff" * (b - a - 1)
                buf[b] |= (1 << (hi & 7)) - 1
        return int.from_bytes(buf, "little")

    def _toggles(self) -> tuple[int, ...]:
        """The strictly increasing run code: a run-coded set's own with equal
        toggles cancelled in pairs, else found by one numpy scan of
        mask ^ (mask << 1) in O(t/64)."""
        r = self._runs
        if r is None:
            return tuple(_bit_positions(self._mask ^ (self._mask << 1)).tolist())
        if len(set(r)) == len(r):  # sorted and distinct: already strictly increasing
            return r
        out: list[int] = []
        for x in r:
            if out and out[-1] == x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def __len__(self) -> int:
        """The member count. len() refuses counts above sys.maxsize with
        OverflowError; self.__len__() returns any count, as repr uses it."""
        r = self._runs
        if r is None:
            return self._mask.bit_count()
        return sum(r[1::2]) - sum(r[0::2])

    def __contains__(self, v: int) -> bool:
        if not 1 <= v <= self._t:
            return False
        r = self._runs
        if r is None:
            return (self._mask >> (v - 1)) & 1 == 1
        return bisect_right(r, v - 1) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        """Members in increasing order."""
        r = self._runs
        if r is not None:
            return chain.from_iterable(
                range(lo + 1, hi + 1) for lo, hi in zip(r[0::2], r[1::2])
            )
        return iter((_bit_positions(self._mask) + 1).tolist())

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def _check(self, other: "VertexSet") -> None:
        if self._t != other._t:
            raise ValueError(f"universe mismatch: {self._t} != {other._t}")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet._from_mask(self._t, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet._from_mask(self._t, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet._from_mask(self._t, self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet._from_mask(self._t, self.mask ^ ((1 << self._t) - 1))

    def split_lowest(self, k: int) -> tuple["VertexSet", "VertexSet"]:
        """Split into (k lowest-numbered members, the rest)."""
        if k == 0:
            return VertexSet._from_mask(self._t, 0), self
        if not 0 < k <= len(self):
            raise ValueError(f"cannot take {k} of {len(self)} members")
        mask = self.mask
        low = mask & ((2 << int(_bit_positions(mask)[k - 1])) - 1)
        return VertexSet._from_mask(self._t, low), VertexSet._from_mask(self._t, mask ^ low)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self._t == other._t and self._toggles() == other._toggles()

    def __hash__(self) -> int:
        return hash((self._t, self._toggles()))

    def __repr__(self) -> str:
        n = self.__len__()
        if n > 20:
            return f"VertexSet(t={self._t}, |S|={n})"
        return f"VertexSet(t={self._t}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a set of distinct nonempty edges, given as any
    iterable and kept canonical: an immutable value, equal as (t, edges)."""

    t: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("vertex count must be positive")
        edges = frozenset(canonical_edge(e, self.t) for e in self.edges)
        object.__setattr__(self, "edges", edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(t={self.t}, edges={self.sorted_edges()})"


@dataclass(frozen=True)
class FamilyParams:
    """Instance family bounds: t vertices, at most s edges, each of size at most l."""

    t: int
    s: int
    l: int

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be positive")
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.l < 1:
            raise ValueError("l must be positive")


def member_of_family(h: Hypergraph, params: FamilyParams) -> bool:
    """True iff h has at most s edges, each of cardinality at most l."""
    if h.t != params.t:
        raise ValueError(f"universe mismatch: {h.t} != {params.t}")
    return len(h.edges) <= params.s and all(len(e) <= params.l for e in h.edges)


def is_sperner(h: Hypergraph) -> bool:
    """True iff no edge is a proper subset of another edge."""
    sets = [set(e) for e in h.edges]
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if a <= b or b <= a:
                return False
    return True


def edge_count(n: int, max_size: int) -> int:
    """Number of candidate edges: nonempty subsets of n vertices of size <= max_size."""
    return sum(comb(n, j) for j in range(1, min(max_size, n) + 1))


def _random_edge(rng: random.Random, t: int, max_size: int) -> Edge:
    # Uniform over nonempty subsets of {1..t} of size <= max_size: pick the
    # size with probability proportional to the number of such subsets.
    sizes = list(range(1, min(max_size, t) + 1))
    weights = [comb(t, j) for j in sizes]
    size = rng.choices(sizes, weights=weights)[0]
    return tuple(sorted(rng.sample(range(1, t + 1), size)))


def random_family_instance(
    params: FamilyParams, sperner_only: bool = True, seed: int = 0
) -> Hypergraph:
    """Sample a family member: edge count uniform in {0..s}, then that many
    distinct edges uniform over nonempty subsets of size <= l.

    Not uniform over the family. With ``sperner_only`` non-antichain draws
    are rejected and redrawn; exhausting MAX_RETRIES raises GenerationError.
    """
    rng = random.Random(seed)
    k = rng.randint(0, params.s)
    n_choices = edge_count(params.t, params.l)
    if k > n_choices:
        raise GenerationError(f"cannot draw {k} distinct edges from {n_choices}")
    for _ in range(MAX_RETRIES):
        edges: set[Edge] = set()
        draws = 0
        while len(edges) < k and draws < 100 + 20 * k:
            edges.add(_random_edge(rng, params.t, params.l))
            draws += 1
        if len(edges) < k:
            continue
        h = Hypergraph(params.t, edges)
        if not sperner_only or is_sperner(h):
            return h
    raise GenerationError(f"no instance after {MAX_RETRIES} retries")


def random_disjoint_instance(params: FamilyParams, seed: int = 0) -> Hypergraph:
    """Sample exactly s pairwise disjoint edges of size exactly l."""
    s, l, t = params.s, params.l, params.t
    if s * l > t:
        raise ValueError(f"impossible instance: s*l = {s * l} > t = {t}")
    rng = random.Random(seed)
    verts = rng.sample(range(1, t + 1), s * l)
    edges = [tuple(sorted(verts[i * l : (i + 1) * l])) for i in range(s)]
    return Hypergraph(t, edges)


def hypergraph_to_dict(h: Hypergraph) -> dict:
    """Canonical JSON form: edges sorted ascending, list lexicographic."""
    return {"t": h.t, "edges": [list(e) for e in h.sorted_edges()]}


def hypergraph_from_dict(d: dict) -> Hypergraph:
    """Parse the canonical JSON form, rejecting malformed input."""
    if not isinstance(d, dict) or set(d) != {"t", "edges"}:
        raise ValueError("expected an object with exactly keys 't' and 'edges'")
    t = d["t"]
    if not isinstance(t, int) or isinstance(t, bool) or t < 1:
        raise ValueError("'t' must be a positive integer")
    raw = d["edges"]
    if not isinstance(raw, list):
        raise ValueError("'edges' must be a list")
    edges: list[Edge] = []
    for item in raw:
        if not isinstance(item, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in item
        ):
            raise ValueError(f"edge must be a list of integers: {item!r}")
        edges.append(canonical_edge(item, t))
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edges")
    return Hypergraph(t, edges)


def save_hypergraph(path: str, h: Hypergraph) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(hypergraph_to_dict(h), f)
        f.write("\n")


def load_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as f:
        return hypergraph_from_dict(json.load(f))
