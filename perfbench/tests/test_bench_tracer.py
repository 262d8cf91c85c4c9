"""Self time, span nesting and absent attributes in the benchmark tracer."""

import types

import pytest

import tracer as tracing


def test_self_time_on_synthetic_tree():
    #  0 root   [0, 10]
    #  1  a     [1, 3]
    #  2  b     [4, 8]
    #  3   c    [5, 6]      child of b
    #  4  d     [7.5, 9]    overlaps b: only the uncovered 1.0 counts
    #  5  e     [9.5, 12]   runs past the root: clipped to 0.5
    start = [0.0, 1.0, 4.0, 5.0, 7.5, 9.5]
    end = [10.0, 3.0, 8.0, 6.0, 9.0, 12.0]
    parent = [-1, 0, 0, 2, 0, 0]
    got = tracing.self_times(start, end, parent)
    want = [10 - (2 + 4 + 1 + 0.5), 2.0, 4 - 1, 1.0, 1.5, 2.5]
    assert got == pytest.approx(want)


def _fake_modules():
    leaf = types.SimpleNamespace()
    leaf.reduce = lambda x: x + 1
    top = types.SimpleNamespace()
    top.run = lambda x: leaf.reduce(x) + leaf.reduce(x)
    return {"top": top, "leaf": leaf}


TARGETS = (("top", "run", "top.run", None, None),
           ("leaf", "reduce", "leaf.reduce", None, None))


def test_spans_nest_and_originals_come_back():
    modules = _fake_modules()
    original = modules["leaf"].reduce
    tr = tracing.Tracer()
    tr.install(modules, TARGETS)
    assert modules["top"].run(1) == 4
    tr.uninstall()
    assert modules["leaf"].reduce is original
    assert tr.names == ["top.run", "leaf.reduce", "leaf.reduce"]
    assert tr.parent == [-1, 0, 0]
    assert all(s <= e for s, e in zip(tr.start, tr.end))
    assert modules["top"].run(1) == 4 and len(tr.names) == 3


def test_absent_attribute_is_reported_not_fatal():
    modules = _fake_modules()
    tr = tracing.Tracer()
    tr.install(modules, TARGETS + (("leaf", "gone", "leaf.gone", None, None),
                                   ("nomodule", "x", "x", None, None)))
    modules["top"].run(0)
    tr.uninstall()
    assert tr.absent == ["leaf.gone", "nomodule.x"]


def test_unreadable_tag_keeps_the_call_and_drops_the_metric():
    modules = {"tangle": types.SimpleNamespace(_pure_m_tangle_amps=lambda amps: 0.5)}
    tr = tracing.Tracer()
    tr.install(modules, (("tangle", "_pure_m_tangle_amps", "tangle.leaf",
                          tracing._leaf_level, None),))
    assert modules["tangle"]._pure_m_tangle_amps([1.0]) == 0.5   # no m argument
    tr.uninstall()
    assert tr.untagged == {"tangle.leaf"}
    metrics = tracing.layer_metrics(tr, items=1)
    assert not any(k.startswith("tangle.leaf") for k in metrics)
    assert "qstate.reduce.calls" in metrics


def test_layer_metrics_leave_out_absent_layers():
    tr = tracing.Tracer()
    tr.absent = ["roof._pair_step"]
    metrics = tracing.layer_metrics(tr, items=1)
    assert "roof.pair_step.calls" not in metrics
    assert "tangle.leaf.calls.m3" in metrics


def test_layer_metrics_count_per_item():
    tr = tracing.Tracer()
    # two pair steps, one of which changed the weights; one level-3 search
    tr.names = ["roof.search", "roof.pair_step", "roof.pair_step"]
    tr.start, tr.end = [0.0, 1.0, 2.0], [4.0, 1.5, 3.0]
    tr.parent = [-1, 0, 0]
    tr.tags = [(3, 2), True, False]
    m = tracing.layer_metrics(tr, items=2)
    assert m["roof.pair_step.calls"] == (1.0, "count")
    assert m["roof.pair_step.useful_frac"] == (0.5, "ratio")
    assert m["roof.pair_step.self_us"][0] == pytest.approx(0.75e6)
    assert m["roof.search.calls.m3"] == (0.5, "count")
    assert m["roof.search.ms.m3"][0] == pytest.approx(4000.0)
    assert m["roof.restarts_used.mean"] == (2.0, "count")
