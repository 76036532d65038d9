"""Span tracing for the benchmark's traced run.

The tracer wraps each layer's public entry points from outside the package:
module attributes (``hhl.learner.find_next_query``) and class methods
(``Oracle.query``, ``VertexSet.split_lowest``). Every call becomes a span
(id, parent, instance, name, start, end, value) kept in memory; spans use
the thread CPU clock, which is cheaper to read than the process clock and
equal to it for this single-threaded program. A layer's self time is its
spans' time minus the time of their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from hhl import bounds, cli, coverfree, learner, twostage
from hhl.core import VertexSet
from hhl.oracle import Oracle

ERROR = "error"

# Spans whose descendant oracle queries are counted as that layer's queries.
QUERY_LAYERS = (
    "learner.vertex_search",
    "learner.edge_search",
    "learner.query_search",
    "twostage.layer_scan",
)


def _eager_iter(orig):
    # Materialise the members so the span covers the whole iteration.
    def __iter__(self):
        return iter(list(orig(self)))

    return __iter__


def _targets():
    """(owner, attribute, span name, value of a finished call or None)."""
    answer = lambda args, out: bool(out)  # noqa: E731
    rows = lambda args, out: out.n_rows  # noqa: E731
    targets = [
        (VertexSet, "split_lowest", "core.split_lowest", None),
        (VertexSet, "__iter__", "core.members", None),
        (VertexSet, "__or__", "core.setops", None),
        (VertexSet, "__and__", "core.setops", None),
        (VertexSet, "__sub__", "core.setops", None),
        (VertexSet, "complement", "core.setops", None),
        (Oracle, "query", "oracle.query", answer),
        (Oracle, "transcript_jsonl", "oracle.transcript", lambda args, out: len(out)),
        (Oracle, "write_transcript", "oracle.transcript", None),
        (learner, "learn_detailed", "learner.learn", None),
        (cli, "learn_detailed", "learner.learn", None),
        (learner, "find_active_vertex", "learner.vertex_search", None),
        (learner, "find_edges_on", "learner.edge_search", None),
        (learner, "find_next_query", "learner.query_search", None),
        (bounds, "info_lower_bound", "bounds.lower_bound", None),
        (twostage, "two_stage_trial", "twostage.trial", None),
        (twostage, "find_good_layer", "twostage.layer_scan", lambda args, out: out is None),
        (twostage, "layer_partition", "twostage.layer_partition", None),
        (twostage, "build_block_design", "twostage.design", rows),
        (twostage, "decode_block", "twostage.decode", None),
        (coverfree.BinaryCode, "__init__", "coverfree", None),
        (coverfree, "find_violation", "coverfree", None),
        (cli, "main", "cli.main", None),
        (cli, "load_hypergraph", "cli.load", None),
    ]
    # Stage two may adopt the cover-free checker; trace it there too if so.
    if hasattr(twostage, "find_violation"):
        targets.append((twostage, "find_violation", "coverfree", None))
    return targets


class Tracer:
    """Records spans while installed; ``uninstall`` restores every wrapped attribute."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.instance = -1
        self.retained_bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._oracles: list[Oracle] = []

    def wrap(self, owner, attr: str, name: str, value=None, adapt=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        call = adapt(orig) if adapt is not None else orig
        tracer = self
        clock = time.thread_time_ns

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = call(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.instance, name, start, end, ERROR))
                raise
            end = clock()
            stack.pop()
            val = value(args, out) if value is not None else None
            tracer.spans.append((sid, parent, tracer.instance, name, start, end, val))
            return out

        traced.__name__ = getattr(orig, "__name__", attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def install(self) -> None:
        for owner, attr, name, value in _targets():
            self.wrap(owner, attr, name, value, _eager_iter if attr == "__iter__" else None)
        init = Oracle.__dict__["__init__"]
        oracles = self._oracles

        def register(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            oracles.append(oracle)

        self._saved.append((Oracle, "__init__", init))
        Oracle.__init__ = register

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def start_instance(self, index: int) -> None:
        self.instance = index
        self._oracles.clear()

    def end_instance(self) -> None:
        """Record the bytes of query masks the instance's oracle transcripts retain."""
        self.retained_bytes[self.instance] = sum(
            sys.getsizeof(rec.query.mask) for o in self._oracles for rec in o.transcript
        )
        self._oracles.clear()
        self.instance = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tinstance\tname\tstart_ns\tend_ns\tvalue\n")
            for span in self.spans:
                f.write("\t".join(map(str, span)) + "\n")


def self_times(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other and
    lie inside their parent's interval.
    """
    own = {sid: end - start for sid, _, _, _, start, end, _ in spans}
    for sid, parent, _, _, start, end, _ in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_metrics(spans, n_instances: int, retained_bytes: dict, speed: float = 1.0) -> dict:
    """Per-layer metrics: instance spans averaged per instance, set-up spans summed.

    The traced run sets up once. CPU times are multiplied by ``speed``, the
    run's machine speed factor.
    """
    own = self_times(spans)
    names = {sid: (parent, name) for sid, parent, _, name, _, _, _ in spans}
    calls: dict[str, int] = defaultdict(int)
    cpu_ns: dict[str, int] = defaultdict(int)
    setup_cpu_ns: dict[str, int] = defaultdict(int)
    queries: dict[str, int] = defaultdict(int)
    positives: dict[str, int] = defaultdict(int)
    values: dict[str, int] = defaultdict(int)
    for sid, parent, inst, name, _, _, val in spans:
        if inst < 0:
            setup_cpu_ns[name] += own[sid]
            continue
        calls[name] += 1
        cpu_ns[name] += own[sid]
        if name == "oracle.query":
            seen = set()
            up = parent
            while up in names:
                up, layer = names[up]
                if layer in QUERY_LAYERS and layer not in seen:
                    seen.add(layer)
                    queries[layer] += 1
                    positives[layer] += val is True
        elif name == "twostage.layer_scan" and val is True:
            values["twostage.fail.no_good_layer"] += 1
        elif name == "twostage.design":
            if val == ERROR:
                values["twostage.fail.design_search"] += 1
            else:
                values["twostage.design.rows"] += val
        elif name == "oracle.transcript" and isinstance(val, int):
            values["oracle.transcript.jsonl_bytes"] += val

    n = max(n_instances, 1)
    cpu_s = defaultdict(float, {k: v * speed / 1e9 for k, v in cpu_ns.items()})
    setup_cpu_s = defaultdict(float, {k: v * speed / 1e9 for k, v in setup_cpu_ns.items()})

    def per(x):
        return x / n

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "core.split_lowest.calls": (per(calls["core.split_lowest"]), "calls/inst"),
        "core.split_lowest.cpu_s": (per(cpu_s["core.split_lowest"]), "s/inst"),
        "core.members.calls": (per(calls["core.members"]), "calls/inst"),
        "core.members.cpu_s": (per(cpu_s["core.members"]), "s/inst"),
        "core.setops.cpu_s": (per(cpu_s["core.setops"]), "s/inst"),
        "oracle.query.calls": (per(calls["oracle.query"]), "calls/inst"),
        "oracle.query.cpu_s": (per(cpu_s["oracle.query"]), "s/inst"),
        "oracle.transcript.cpu_s": (per(cpu_s["oracle.transcript"]), "s/inst"),
        "oracle.transcript.bytes": (per(sum(retained_bytes.values())), "bytes/inst"),
        "oracle.transcript.jsonl_bytes": (per(values["oracle.transcript.jsonl_bytes"]),
                                          "bytes/inst"),
        "learner.learn.cpu_s": (per(cpu_s["learner.learn"]), "s/inst"),
    }
    for layer in ("learner.vertex_search", "learner.edge_search", "learner.query_search"):
        out[f"{layer}.cpu_s"] = (per(cpu_s[layer]), "s/inst")
        out[f"{layer}.queries"] = (per(queries[layer]), "queries/inst")
    for layer in ("learner.edge_search", "learner.query_search"):
        out[f"{layer}.hit_ratio"] = (ratio(positives[layer], queries[layer]), "ratio")
    out.update({
        "bounds.lower_bound.cpu_s": (setup_cpu_s["bounds.lower_bound"], "s/setup"),
        "twostage.trial.cpu_s": (per(cpu_s["twostage.trial"]), "s/inst"),
        "twostage.layer_scan.cpu_s": (per(cpu_s["twostage.layer_scan"]), "s/inst"),
        "twostage.layer_scan.queries": (per(queries["twostage.layer_scan"]), "queries/inst"),
        "twostage.layer_partition.calls": (per(calls["twostage.layer_partition"]), "calls/inst"),
        "twostage.layer_partition.cpu_s": (per(cpu_s["twostage.layer_partition"]),
                                           "s/inst"),
        "twostage.design.cpu_s": (per(cpu_s["twostage.design"]), "s/inst"),
        "twostage.design.rows": (per(values["twostage.design.rows"]), "rows/inst"),
        "twostage.decode.cpu_s": (per(cpu_s["twostage.decode"]), "s/inst"),
        "twostage.fail.no_good_layer": (per(values["twostage.fail.no_good_layer"]),
                                        "count/inst"),
        "twostage.fail.design_search": (per(values["twostage.fail.design_search"]),
                                        "count/inst"),
        "coverfree.calls": (per(calls["coverfree"]), "calls/inst"),
        "coverfree.cpu_s": (per(cpu_s["coverfree"]), "s/inst"),
        "cli.main.cpu_s": (per(cpu_s["cli.main"]), "s/inst"),
        "cli.load.cpu_s": (per(cpu_s["cli.load"]), "s/inst"),
    })
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [(k, unit) for k, (_, unit) in layer_metrics([], 1, {}).items()]
    return names + [("trace.overhead", "ratio")]

