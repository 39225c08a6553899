"""Span nesting, self-time arithmetic, and clean removal of wrappers."""

import sys

import pytest

from perfbench.layers import SEAMS
from perfbench.tracer import Seam, Span, Tracer, self_times


def test_self_time_is_duration_minus_direct_children():
    #  root 0..10
    #    a 1..4
    #      b 2..3
    #    c 5..9
    spans = [
        Span("root", "driver", 0.0, 10.0, -1, 0),
        Span("a", "x", 1.0, 4.0, 0, 0),
        Span("b", "y", 2.0, 3.0, 1, 0),
        Span("c", "x", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # self times partition the root: nothing counted twice, nothing lost
    assert sum(self_times(spans)) == spans[0].duration


def test_wrappers_nest_and_record_parent_request_and_count():
    tracer = Tracer()
    inner = tracer.wrap(Seam("inner", "low", "m", "f"), lambda x: x + 1)
    outer = tracer.wrap(
        Seam("outer", "high", "m", "g", lambda a, k, r: r * 10),
        lambda x: inner(inner(x)),
    )
    tracer.request = 7
    assert outer(1) == 3
    names = [(s.name, s.parent, s.request, s.count) for s in tracer.spans]
    assert names == [
        ("outer", -1, 7, 30), ("inner", 0, 7, None), ("inner", 0, 7, None)
    ]
    outer_span = tracer.spans[0]
    assert all(
        outer_span.start <= s.start <= s.end <= outer_span.end
        for s in tracer.spans[1:]
    )
    selfs = self_times(tracer.spans)
    assert selfs[0] == pytest.approx(
        outer_span.duration - sum(s.duration for s in tracer.spans[1:])
    )


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(Seam("boom", "x", "m", "f", lambda a, k, r: r), boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.spans[0].count is None
    assert tracer._open == []


def _seam_classes():
    """The class of every method seam, and its descendants."""
    import repro.cli  # noqa: F401 — loads every package a seam lives in
    from perfbench import workloads  # noqa: F401

    classes = []
    for seam in SEAMS:
        owner, _, method = seam.target.partition(".")
        if method:
            classes.append(getattr(sys.modules[seam.module], owner))
    for cls in classes:  # grows while iterating: all descendants
        classes.extend(cls.__subclasses__())
    return list(dict.fromkeys(classes))


def _holders():
    """Every place a seam's original can live: ``repro.*`` module
    namespaces and the dicts of the seam classes and their subclasses."""
    classes = _seam_classes()
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in vars(module).items():
                if callable(value):
                    seen[(name, attr)] = value
    for cls in classes:
        for attr, value in vars(cls).items():
            if callable(value) or isinstance(value, (classmethod, staticmethod)):
                seen[(cls.__qualname__, attr)] = value
    return seen


def _current(key):
    owner, attr = key
    if owner in sys.modules:
        return vars(sys.modules[owner])[attr]
    for cls in _seam_classes():
        if cls.__qualname__ == owner:
            return vars(cls)[attr]
    raise KeyError(key)


def test_install_patches_every_reference_and_uninstall_restores_identity():
    before = _holders()
    tracer = Tracer()
    tracer.install(SEAMS)
    try:
        changed = [k for k, v in before.items() if _current(k) is not v]
        # function seams are imported by name into other modules: the
        # engine's own reference must be patched, not only the definer's
        assert ("repro.engine.concurrent", "classify_window") in changed
        assert ("repro.analysis.classify", "classify_window") in changed
        assert ("StreamingInference", "push") in changed
        # an override in a subclass is wrapped too
        assert ("GCLSTM", "cell_step_rows") in changed
        assert ("WorkloadStats", "analyze") in changed
        assert isinstance(_current(("WorkloadStats", "analyze")), classmethod)
    finally:
        tracer.uninstall()
    assert [k for k, v in before.items() if _current(k) is not v] == []
    assert tracer._patches == []


def test_a_traced_run_leaves_no_wrapper_behind():
    from perfbench.bench import run_workload
    from perfbench.workloads import make_workload

    before = _holders()
    result = run_workload(
        make_workload("stream-lowchurn", smoke=True), 3, 0.0,
        trace=True, smoke=True,
    )
    assert result.spans, "the traced round recorded nothing"
    assert [k for k, v in before.items() if _current(k) is not v] == []


def test_install_twice_is_refused_and_a_bad_seam_rolls_back():
    before = _holders()
    tracer = Tracer()
    tracer.install(SEAMS[:2])
    with pytest.raises(RuntimeError):
        tracer.install(SEAMS[:2])
    tracer.uninstall()
    bad = SEAMS[:3] + (Seam("x", "x", "repro.engine.streaming", "Nope.push"),)
    with pytest.raises(AttributeError):
        tracer.install(bad)
    assert [k for k, v in before.items() if _current(k) is not v] == []


def test_layer_metrics_on_a_synthetic_window():
    from perfbench.layers import PER_LAYER, layer_metrics
    from repro.engine.metrics import ExecutionMetrics

    spans = [
        Span("driver.op", "driver", 0.0, 0.010, -1, 1),
        Span("engine.push", "engine", 0.0, 0.010, 0, 1, 1),
        Span("analysis.classify", "analysis", 0.001, 0.002, 1, 1, 0.5),
        Span("graphs.aggregate", "graphs", 0.002, 0.005, 1, 1),
    ]
    counters = {
        "windows": 1, "snapshots": 4,
        "exec": ExecutionMetrics(
            cells_full=1, cells_delta=1, cells_skipped=2,
            aggregation_macs=40, snapshots_processed=4,
        ),
    }
    got = layer_metrics(spans, counters)
    assert list(got) == [name for name, _, _ in PER_LAYER]
    assert got["engine.window.ms"] == pytest.approx(10.0)
    assert got["engine.self.ms_per_window"] == pytest.approx(6.0)
    assert got["analysis.classify.ms_per_window"] == pytest.approx(1.0)
    assert got["analysis.unaffected_ratio"] == 0.5
    assert got["graphs.aggregate.ms_per_window"] == pytest.approx(3.0)
    assert got["graphs.aggregate.calls_per_window"] == 1
    assert got["skipping.skip_share"] == 0.5
    assert got["engine.macs_per_snapshot"] == 10
    assert got["trace.unattributed_share"] == pytest.approx(0.0)
    # layers that did not run read 0, not missing
    assert got["resilience.checkpoint.save_ms"] == 0
    assert got["adaptive.plan.ms_per_window"] == 0
