"""Monte-Carlo two-stage strategy for hidden hypergraphs made of s pairwise
disjoint edges of size exactly l.

Stage one queries the blocks of random symbol layers: each layer assigns
every vertex one of s symbols, and the s symbol classes partition the
vertex set. A layer is good when all s block queries answer 1, which for
this instance family means each block contains exactly one edge. Stage two
then runs, per block, a non-adaptive single-edge identification design and
decodes one edge per block.

Both stages are committed before reading any answers within the stage:
stage one is a fixed batch of s*N queries, stage two depends only on
stage-one answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Sequence

from ._numpy import np

from .core import Edge, FamilyParams, Hypergraph, VertexSet, edge_mask
from .core import _bools_from_masks, _masks_from_bools
from .coverfree import BinaryCode, _candidate_indices, _signatures
from .oracle import Oracle


# Largest layer matrix sample_layer_matrix builds: 2**25 int64 symbols, 256 MiB.
MAX_LAYER_ENTRIES = 1 << 25

# Longest design build_block_design tries before a declared failure.
MAX_DESIGN_ROWS = 4096


class DesignSearchError(RuntimeError):
    """No separating block design was found within the row budget."""


class DecodeError(RuntimeError):
    """Block answers are consistent with zero or several candidate edges."""


@dataclass(eq=False)
class LayerMatrix:
    """N x t matrix over symbols {1..s}; each row induces one query layer."""

    s: int
    symbols: np.ndarray  # shape (n_layers, t), entries in 1..s

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.symbols.ndim != 2 or self.symbols.size == 0:
            raise ValueError("symbols must be a nonempty 2-d array")
        if self.symbols.min() < 1 or self.symbols.max() > self.s:
            raise ValueError("symbol entries must lie in {1..s}")

    @property
    def n_layers(self) -> int:
        return int(self.symbols.shape[0])

    @property
    def t(self) -> int:
        return int(self.symbols.shape[1])


def sample_layer_matrix(n_layers: int, t: int, s: int, seed: int) -> LayerMatrix:
    """Sample every entry i.i.d. uniform on {1..s}; deterministic in seed."""
    if n_layers < 1 or t < 1 or s < 1:
        raise ValueError("n_layers, t and s must be positive")
    if n_layers * t > MAX_LAYER_ENTRIES:
        raise ValueError(
            f"{n_layers} layers of {t} symbols exceed {MAX_LAYER_ENTRIES} entries"
        )
    rng = np.random.default_rng(seed)
    symbols = rng.integers(1, s + 1, size=(n_layers, t), dtype=np.int64)
    return LayerMatrix(s, symbols)


def layer_partition(matrix: LayerMatrix, layer: int) -> tuple[VertexSet, ...]:
    """The s symbol classes of one layer: block r-1 holds the vertices whose
    symbol is r. LayerMatrix holds every symbol in 1..s, so the blocks are
    disjoint and cover {1..t}; some may be empty."""
    flags = matrix.symbols[layer] == np.arange(1, matrix.s + 1)[:, None]
    return tuple(VertexSet._from_mask(matrix.t, m) for m in _masks_from_bools(flags))


def find_good_layer(matrix: LayerMatrix, oracle: Oracle) -> tuple[VertexSet, ...] | None:
    """Stage one: query every block of every layer, then return the
    layer_partition blocks of the first layer whose s block queries all
    answered 1, or None if no layer did.

    Every query is issued, and tagged "stage1", whatever the earlier answers
    were, so the batch is fixed in advance and costs exactly s * n_layers.
    """
    if matrix.t != oracle.hidden.t:
        raise ValueError(f"universe mismatch: {matrix.t} != {oracle.hidden.t}")
    good = None
    for i in range(matrix.n_layers):
        blocks = layer_partition(matrix, i)
        answers = [oracle.query(block, "stage1") for block in blocks]
        if good is None and all(answers):
            good = blocks
    return good


def layer_success_probability(s: int, l: int) -> float:
    """Probability that one random layer is good: s! / s**(s*l).

    The int quotient is at most 1 and underflows to 0.0 rather than raising.
    """
    if s < 1 or l < 1:
        raise ValueError("s and l must be positive")
    return factorial(s) / s ** (s * l)


def required_layers(epsilon: float, s: int, l: int) -> int:
    """Smallest N with (1 - s!/s**(s*l))**N <= epsilon.

    Raises ValueError when 1 - p rounds to 1.0, so no float N exists.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    p = layer_success_probability(s, l)
    if p >= 1.0:
        return 1
    q = 1.0 - p
    if q == 1.0:
        raise ValueError(
            f"a layer is good with probability {p:.3g}, below float resolution"
        )
    n = max(1, math.ceil(math.log(epsilon) / math.log(q)))
    while q**n > epsilon:
        n += 1
    while n > 1 and q ** (n - 1) <= epsilon:
        n -= 1
    return n


def _distinct_signatures(support: np.ndarray, cand: list[np.ndarray]) -> bool:
    # support: (n_rows, n_cols) bool. A design separates the candidates iff
    # the per-candidate answer columns are pairwise distinct. A row contains
    # a candidate iff it contains each of its columns, so a candidate's
    # answer column is the AND of its columns' packed row signatures.
    n_cand = sum(len(idx) for idx in cand)
    if (1 << support.shape[0]) < n_cand:
        return False  # fewer answer patterns than candidates
    sigs = np.concatenate(_signatures(support, cand))
    first = np.sort(sigs[:, 0])
    tied = first[1:][first[1:] == first[:-1]]
    if sigs.shape[1] == 1 or len(tied) == 0:
        return len(tied) == 0
    # Only candidates that share their first word with another can collide.
    rest = sigs[np.isin(sigs[:, 0], tied)]
    keys = rest.view(np.dtype((np.void, 8 * sigs.shape[1]))).ravel()
    return len(np.unique(keys)) == len(rest)


def is_separating_design(code: BinaryCode, max_edge_size: int) -> bool:
    """True iff distinct candidate edges (nonempty, size <= max_edge_size)
    always produce distinct answer patterns under the code's rows."""
    if max_edge_size < 1:
        raise ValueError("max_edge_size must be positive")
    support = _bools_from_masks(code.rows, code.n_cols)
    cand = _candidate_indices(code.n_cols, max_edge_size)
    return _distinct_signatures(support, cand)


def build_block_design(n_cols: int, max_edge_size: int, seed: int) -> BinaryCode:
    """Random search for a verified single-edge identification design.

    Samples the bit-complement of i.i.d. Bernoulli(1/(max_edge_size+1))
    codes at doubling lengths and returns the first one that passes the
    exhaustive separation check. Raises DesignSearchError when no design
    of at most MAX_DESIGN_ROWS rows passes.
    """
    if max_edge_size < 1:
        raise ValueError("max_edge_size must be positive")
    if n_cols < max_edge_size:
        raise ValueError(f"block of {n_cols} cannot hold an edge of {max_edge_size}")
    rng = np.random.default_rng(seed)
    cand = _candidate_indices(n_cols, max_edge_size)
    n = 1
    while n <= MAX_DESIGN_ROWS:
        cf_style = rng.random((n, n_cols)) < 1.0 / (max_edge_size + 1)
        support = ~cf_style
        if _distinct_signatures(support, cand):
            return BinaryCode(n, n_cols, tuple(_masks_from_bools(support)))
        if n == MAX_DESIGN_ROWS:
            break
        n = min(2 * n, MAX_DESIGN_ROWS)
    raise DesignSearchError(
        f"no separating design for {n_cols} columns within {MAX_DESIGN_ROWS} rows"
    )


def decode_block(
    design: BinaryCode, answers: Sequence[bool], max_edge_size: int
) -> Edge:
    """Identify the unique candidate edge consistent with the row answers.

    The candidates are the subsets of the hull, the AND of the positive
    rows, so each answers every positive row correctly; one is kept iff no
    negative row contains it. Raises DecodeError unless exactly one is kept.
    """
    if len(answers) != design.n_rows:
        raise ValueError(f"expected {design.n_rows} answers, got {len(answers)}")
    hull = (1 << design.n_cols) - 1
    negatives = []
    for row, ans in zip(design.rows, answers):
        if ans:
            hull &= row
        else:
            negatives.append(row)
    members = [j + 1 for j in range(design.n_cols) if hull >> j & 1]
    matches: list[Edge] = []
    for size in range(1, min(max_edge_size, len(members)) + 1):
        for cand in combinations(members, size):
            cmask = edge_mask(cand)
            if not any(row & cmask == cmask for row in negatives):
                matches.append(cand)
    if len(matches) != 1:
        raise DecodeError(
            f"{len(matches)} candidates consistent with the answers"
        )
    return matches[0]


@dataclass
class TrialReport:
    """Outcome of one two-stage run."""

    t: int
    s: int
    l: int
    epsilon: float
    layers: int
    stage1_queries: int
    stage2_queries: int
    success: bool
    hypergraph: Hypergraph | None

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "s": self.s,
            "l": self.l,
            "epsilon": self.epsilon,
            "layers": self.layers,
            "stage1_queries": self.stage1_queries,
            "stage2_queries": self.stage2_queries,
            "success": self.success,
            "recovered_edges": (
                None
                if self.hypergraph is None
                else [list(e) for e in self.hypergraph.sorted_edges()]
            ),
        }


def _derive_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def two_stage_trial(
    oracle: Oracle,
    params: FamilyParams,
    epsilon: float,
    seed: int,
    *,
    n_layers: int | None = None,
) -> TrialReport:
    """Run both stages against an oracle hiding s disjoint l-edges.

    Stage one always issues the full fixed batch of s*N block queries and
    then picks the first good layer. No good layer, an exhausted design
    search or a block whose answers do not decode to exactly one candidate
    is a declared failure, never a fallback. Each query is tagged as it is
    issued: "stage1" by find_good_layer, "stage2" here.
    """
    t, s, l = params.t, params.s, params.l
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    layers = n_layers if n_layers is not None else required_layers(epsilon, s, l)
    matrix = sample_layer_matrix(layers, t, s, _derive_seed(seed, 0))
    start = oracle.count
    part = find_good_layer(matrix, oracle)
    stage1 = oracle.count - start
    hypergraph = None
    if part is not None:
        # Commit every stage-two query before reading any stage-two answer:
        # designs depend only on the partition (a stage-one outcome) and the
        # seed, so the whole batch is fixed up front.
        try:
            blocks = [
                (block.members(), build_block_design(len(block), l, _derive_seed(seed, bi)))
                for bi, block in enumerate(part, start=1)
            ]
            block_answers: list[list[bool]] = []
            for verts, design in blocks:
                rows = np.zeros((design.n_rows, t), dtype=bool)
                rows[:, np.array(verts) - 1] = _bools_from_masks(design.rows, design.n_cols)
                block_answers.append([
                    oracle.query(VertexSet._from_mask(t, m), "stage2")
                    for m in _masks_from_bools(rows)
                ])
            hypergraph = Hypergraph(t, [
                tuple(verts[j - 1] for j in decode_block(design, answers, l))
                for (verts, design), answers in zip(blocks, block_answers)
            ])
        except (DesignSearchError, DecodeError):
            pass
    stage2 = oracle.count - start - stage1
    return TrialReport(t, s, l, epsilon, layers, stage1, stage2, hypergraph is not None, hypergraph)
