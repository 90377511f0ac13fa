"""Traced mode: spans around calls into each tncuts layer.

The tracer wraps public functions of the package where they are imported
(every ``tncuts.*`` module attribute bound to the same function object),
plus two methods on classes.  Nothing inside ``src/`` changes; the spans
are taken from the benchmark's side of each call.  A span is recorded only
while an op is open, so checks the benchmark runs between ops never count.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Rank calls whose shorter side is at most this many rows count as "small".
SMALL_RANK_ROWS = 32


class Span:
    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "info")

    def __init__(self, sid, parent, op, name, t0, t1, info):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.info = info

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "info": self.info,
        }


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Open the root span of one benchmark op; layer spans nest under it."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op = op_id
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._op = None
            self.spans[sid] = Span(sid, None, op_id, "op", t0, t1, None)

    def wrap(self, name: str, fn, measure=None):
        """``fn`` with a span named ``name`` around every call made inside an op.

        ``measure(args, kwargs, result)`` may attach a small info value to
        the span; it runs after the span is closed.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1]
            tracer.spans.append(None)
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = Span(sid, parent, tracer._op, name, t0, t1, None)
            if measure is not None:
                tracer.spans[sid].info = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """One JSON object per span, gzip-compressed (a traced run makes ~10^5 spans)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), default=repr, separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span never overlap (one thread), but a child is clipped
    to its parent's interval so a clock oddity cannot make self time negative.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo = max(span.t0, parent.t0)
            hi = min(span.t1, parent.t1)
            if hi > lo:
                covered[span.parent] += hi - lo
    return [max(0.0, span.duration - covered[span.sid]) for span in spans]


# -- what gets wrapped ----------------------------------------------------------


def _rank_info(args, kwargs, result):
    rows, cols = args[0].shape
    return [min(rows, cols), max(rows, cols), int(result)]


def _matmul_info(args, kwargs, result):
    (m, k), (_, n) = args[0].shape, args[1].shape
    return m * k * n


def _residues_info(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["count"])


def _tree_info(args, kwargs, result):
    labels = args[2] if len(args) > 2 else kwargs["leaf_labels"]
    return len(labels)


def _sample_info(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    seed = args[1] if len(args) > 1 else kwargs.get("seed", 0)
    p = args[2] if len(args) > 2 else kwargs.get("p")
    return (model, seed, p)


def _model_key(model) -> tuple:
    return (
        model.tree._split_key,
        frozenset((e.key, v) for e, v in model.f.items()),
        frozenset(model.dims.items()),
    )


def distinct_samples(infos: list) -> int:
    """Distinct (model content, seed, p) triples among sample calls."""
    keys: dict[int, tuple] = {}
    seen = set()
    for model, seed, p in infos:
        if id(model) not in keys:
            keys[id(model)] = _model_key(model)
        seen.add((keys[id(model)], seed, p))
    return len(seen)


def _function_targets(tc):
    """(span name, function, info) for module-level functions."""
    return [
        ("trees.parse", tc.parse_tree, None),
        ("cuts.mono", tc.min_mono_cut, None),
        ("cuts.colour", tc.max_colour_cut, None),
        ("cuts.product", tc.min_product_cut, None),
        ("cuts.verify", tc.verify_mono_cut, None),
        ("cuts.verify", tc.verify_colour_cut, None),
        ("models", tc.predict_rank, None),
        ("models", tc.optimalize, None),
        ("models", tc.compare_models, None),
        ("models", tc.construct_hard_subset, None),
        ("models", tc.model_from_json_dict, None),
        ("models", tc.load_model, None),
        ("hackbusch", tc.tt_exponent, None),
        ("hackbusch", tc.hackbusch_verdict, None),
        ("hackbusch", tc.min_exponent_over_permutations, None),
        ("fieldmath.matmul", tc.fieldmath.matmul_mod, _matmul_info),
        ("fieldmath.rank", tc.rank_mod, _rank_info),
        ("oracle.sample", tc.sample_tns_tensor, _sample_info),
        ("oracle.flatten", tc.flattening_rank, None),
        ("oracle.estimate", tc.estimate_generic_rank, None),
        ("cli.main", tc.cli.main, None),
    ]


def _method_targets(tc):
    return [
        ("trees.build", tc.Tree, "__init__", _tree_info),
        ("rng.residues", tc.CounterRng, "residues", _residues_info),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of the traced functions; restore them on exit."""
    import tncuts as tc
    import tncuts.cli  # noqa: F401  (cli is not imported by the package)

    modules = [m for name, m in sorted(sys.modules.items()) if name == "tncuts" or name.startswith("tncuts.")]
    undo = []
    try:
        for name, fn, measure in _function_targets(tc):
            wrapper = tracer.wrap(name, fn, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        for name, cls, attr, measure in _method_targets(tc):
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original, measure))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, keyed by metric name."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    info: dict[str, list] = defaultdict(list)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        total_s[span.name] += span.duration
        if span.info is not None:
            info[span.name].append(span.info)

    rank_small = rank_large = 0.0
    rank_madds = 0
    for span, own in zip(spans, selfs):
        if span.name == "fieldmath.rank":
            m, k, r = span.info
            if m <= SMALL_RANK_ROWS:
                rank_small += own
            else:
                rank_large += own
            rank_madds += elimination_madds(m, k, r)
    rank_s = rank_small + rank_large
    samples = calls["oracle.sample"]
    cuts_names = ("cuts.mono", "cuts.colour", "cuts.product", "cuts.verify")
    return {
        "trees.build_calls": calls["trees.build"],
        "trees.build_leaves": sum(info["trees.build"]),
        "trees.build_self_s": self_s["trees.build"],
        "trees.parse_self_s": self_s["trees.parse"],
        "cuts.calls": sum(calls[name] for name in cuts_names),
        "cuts.mono_s": self_s["cuts.mono"],
        "cuts.colour_s": self_s["cuts.colour"],
        "cuts.product_s": self_s["cuts.product"],
        "cuts.verify_s": self_s["cuts.verify"],
        "models.calls": calls["models"],
        "models.self_s": self_s["models"],
        "hackbusch.calls": calls["hackbusch"],
        "hackbusch.self_s": self_s["hackbusch"],
        "rng.residues_calls": calls["rng.residues"],
        "rng.residues_entries": sum(info["rng.residues"]),
        "rng.residues_s": self_s["rng.residues"],
        "fieldmath.matmul_calls": calls["fieldmath.matmul"],
        "fieldmath.matmul_s": self_s["fieldmath.matmul"],
        "fieldmath.matmul_madds": sum(info["fieldmath.matmul"]),
        "fieldmath.rank_calls": calls["fieldmath.rank"],
        "fieldmath.rank_small_s": rank_small,
        "fieldmath.rank_large_s": rank_large,
        "fieldmath.rank_madds": rank_madds,
        "fieldmath.rank_madds_per_s": rank_madds / rank_s if rank_s else 0.0,
        "oracle.sample_calls": samples,
        "oracle.sample_self_s": self_s["oracle.sample"],
        "oracle.sample_distinct_ratio": distinct_samples(info["oracle.sample"]) / samples if samples else 0.0,
        "oracle.flatten_calls": calls["oracle.flatten"],
        "oracle.flatten_self_s": self_s["oracle.flatten"],
        "oracle.estimate_calls": calls["oracle.estimate"],
        "cli.handler_s": total_s["cli.main"],
        "trace.op_s": total_s["op"],
        "trace.unattributed_s": self_s["op"],
    }


def elimination_madds(m: int, k: int, rank: int) -> int:
    """Multiply-adds of row elimination on an m x k matrix (m <= k) of given rank.

    Computed from the shape and the result, not counted: pivot step i
    updates the m - 1 - i rows below the pivot across k - i columns.
    """
    return sum((m - 1 - i) * (k - i) for i in range(rank))
