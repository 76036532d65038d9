"""Simulated edge-detecting query oracle with counting and transcripts.

A query on a vertex set answers 1 iff the set contains at least one entire
edge of the hidden hypergraph. The oracle records every answered query; it
never memoizes, so repeated queries are counted separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import Hypergraph, VertexSet


class BudgetExceededError(RuntimeError):
    """A query was attempted past the oracle's query budget."""


def is_independent(h: Hypergraph, s: VertexSet) -> bool:
    """True iff no edge of h is entirely contained in s."""
    if s.t != h.t:
        raise ValueError(f"universe mismatch: {s.t} != {h.t}")
    return not any(m & s.mask == m for m in h.edge_masks())


@dataclass(frozen=True)
class QueryRecord:
    index: int  # 1-based position in the transcript
    query: VertexSet
    answer: bool
    tag: str | None = None


class Oracle:
    """Answers edge-detecting queries over a hidden hypergraph.

    Queries are answered strictly sequentially; the transcript is
    append-only. An optional budget caps the number of answered queries
    so worst-case bounds can be enforced by the oracle itself.
    """

    def __init__(self, hidden: Hypergraph, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.hidden = hidden
        self.budget = budget
        self.transcript: list[QueryRecord] = []
        self.tag: str | None = None
        self._edge_masks = hidden.edge_masks()

    @property
    def count(self) -> int:
        return len(self.transcript)

    def query(self, s: VertexSet) -> bool:
        if s.t != self.hidden.t:
            raise ValueError(f"universe mismatch: {s.t} != {self.hidden.t}")
        if self.budget is not None and self.count >= self.budget:
            raise BudgetExceededError(f"query budget {self.budget} exhausted")
        answer = any(m & s.mask == m for m in self._edge_masks)
        self.transcript.append(QueryRecord(self.count + 1, s, answer, self.tag))
        return answer

    def transcript_jsonl(self) -> str:
        """One JSON object per query: {"i": index, "q": [v,...], "a": 0|1}."""
        lines = [
            json.dumps({"i": r.index, "q": list(r.query), "a": int(r.answer)})
            for r in self.transcript
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_transcript(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.transcript_jsonl())
