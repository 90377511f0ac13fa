"""Self time over nested spans, and the tracer's patching of tncuts."""

import pytest

import tncuts
import tncuts.oracle
import tracing
from tracing import Span


def _span(sid, parent, name, t0, t1, info=None):
    return Span(sid, parent, 1, name, t0, t1, info)


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, None, "op", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "b", 2.0, 3.0),
        _span(3, 0, "c", 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_a_child_to_its_parent():
    spans = [_span(0, None, "op", 0.0, 2.0), _span(1, 0, "a", 1.0, 3.0)]
    assert tracing.self_times(spans) == pytest.approx([1.0, 2.0])


def test_wrapped_calls_nest_and_only_count_inside_ops():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == []
    with tracer.op(7):
        assert outer(1) == 4
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [("op", None, 7), ("outer", 0, 7), ("inner", 1, 7)]


def test_installed_patches_every_binding_and_restores_it():
    original = tncuts.oracle.rank_mod
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert tncuts.oracle.rank_mod is not original
        assert tncuts.rank_mod is tncuts.fieldmath.rank_mod is not original
        assert tncuts.Tree.__init__.__wrapped__ is not None
    assert tncuts.oracle.rank_mod is original
    assert tncuts.rank_mod is original
    assert not hasattr(tncuts.Tree.__init__, "__wrapped__")


def test_layer_metrics_of_one_estimate():
    tree = tncuts.parse_tree("((1,2),(3,4))")
    model = tncuts.TnsModel.constant(tree, 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.op(1):
            assert tncuts.estimate_generic_rank(model, {1, 3}, trials=3) == 4
    m = tracing.layer_metrics(tracer.spans)
    assert m["oracle.estimate_calls"] == 1
    assert m["oracle.sample_calls"] == 3
    assert m["oracle.sample_distinct_ratio"] == 1.0
    assert m["oracle.flatten_calls"] == 3
    assert m["fieldmath.rank_calls"] == 3
    assert m["fieldmath.rank_large_s"] == 0.0
    assert m["fieldmath.rank_madds"] == 3 * tracing.elimination_madds(4, 4, 4)
    # 2 inner cores of 8 entries and 4 leaf matrices of 4 entries per sample
    assert m["rng.residues_calls"] == 3 * 6
    assert m["rng.residues_entries"] == 3 * (2 * 8 + 4 * 4)
    assert m["trees.build_calls"] == 0
    layers = sum(
        m[k] for k in ("rng.residues_s", "fieldmath.matmul_s", "oracle.sample_self_s",
                       "oracle.flatten_self_s", "fieldmath.rank_small_s")
    )
    assert layers <= m["trace.op_s"]


def test_repeated_samples_lower_the_distinct_ratio():
    model = tncuts.TnsModel.constant(tncuts.parse_tree("((1,2),(3,4))"), 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for op_id, subset in enumerate(({1}, {1, 2}), start=1):
            with tracer.op(op_id):
                tncuts.estimate_generic_rank(model, subset, trials=3)
    assert tracing.layer_metrics(tracer.spans)["oracle.sample_distinct_ratio"] == 0.5


def test_elimination_madds():
    assert tracing.elimination_madds(1, 5, 1) == 0
    assert tracing.elimination_madds(3, 3, 3) == 2 * 3 + 1 * 2
    assert tracing.elimination_madds(3, 3, 1) == 2 * 3
