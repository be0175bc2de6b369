import importlib

import numpy as np
import pytest

import oscluster.factor
from oscluster.kmeans import KMeansConfig
from tracing import LAYER_METRICS, OpSpans, Span, Target, Tracer, covered_ms, layer_values


def span(id, name, start, end, parent=None, op=0, **attrs):
    return Span(id=id, name=name, op=op, parent=parent, start=start, end=end, attrs=attrs)


def test_self_time_subtracts_only_direct_children():
    spans = OpSpans([
        span(0, "outer", 0.0, 1.0),
        span(1, "mid", 0.1, 0.5, parent=0),
        span(2, "leaf", 0.2, 0.4, parent=1),
        span(3, "mid", 0.6, 0.7, parent=0),
    ])
    assert spans.self_ms("outer") == pytest.approx(1000 - 400 - 100)
    assert spans.self_ms("mid") == pytest.approx(400 - 200 + 100)
    assert spans.self_ms("leaf") == pytest.approx(200)
    assert spans.ms("mid") == pytest.approx(500)
    assert spans.count("mid") == 2
    assert spans.count("mid", parent="outer") == 2
    assert spans.count("leaf", parent="outer") == 0


def test_covered_time_is_the_union_clipped_to_the_parent():
    parent = span(0, "p", 1.0, 2.0)
    children = [span(1, "a", 0.5, 1.2), span(2, "b", 1.1, 1.3), span(3, "c", 1.9, 2.5)]
    assert covered_ms(parent, children) == pytest.approx(300 + 100)
    assert covered_ms(parent, []) == 0.0


# The package attribute oscluster.kmeans is the re-exported function.
KMEANS_MODULE = importlib.import_module("oscluster.kmeans")


def test_recording_wraps_the_names_callers_look_up_and_restores_them():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
    original = KMEANS_MODULE._lloyd
    tracer = Tracer()
    with tracer.recording(op=7):
        assert KMEANS_MODULE._lloyd is not original
        oscluster.factor.kmeans(points, KMeansConfig(k=2, restarts=2))
    assert KMEANS_MODULE._lloyd is original
    assert tracer.absent == {}
    spans = OpSpans(tracer.spans)
    assert spans.count("kmeans.kmeans") == 1
    assert spans.count("kmeans.lloyd", parent="kmeans.kmeans") == 2
    assert spans.count("kmeans.seed", parent="kmeans.kmeans") == 2
    assert all(s.op == 7 for s in tracer.spans)
    assert sum(spans.attrs("kmeans.lloyd", "iters")) >= 2


def test_an_op_that_raises_still_restores_the_originals():
    original = oscluster.factor.fit
    tracer = Tracer()
    with pytest.raises(AttributeError):
        with tracer.recording(op=0):
            oscluster.factor.fit(None, 0.9)
    assert oscluster.factor.fit is original
    assert [s.name for s in tracer.spans] == ["factor.fit"]


def test_memory_probe_records_nested_peaks():
    tracer = Tracer()
    view_rng = np.random.default_rng(1)
    data = oscluster.matrix.validate(view_rng.standard_normal((60, 40)))
    with tracer.recording(op=0, memory=True):
        oscluster.factor.fit(oscluster.factor.standardize(data), 0.9)
    spans = OpSpans(tracer.spans)
    fit_peak = spans.attrs("factor.fit", "peak_mb")[0]
    eigh_peak = spans.attrs("spectral.eigh", "peak_mb")[0]
    assert 0 < eigh_peak <= fit_peak
    assert spans.attrs("matrix.standardize", "peak_mb")[0] > 0


def test_missing_helper_is_absent_with_a_reason_not_zero():
    targets = (
        Target("kmeans.lloyd", "oscluster.kmeans", "_lloyd_renamed_away"),
        Target("kmeans.kmeans", "oscluster.factor", "kmeans"),
        Target("lab.basis", "oscluster.no_such_module", "_top_left_basis"),
    )
    tracer = Tracer(targets)
    points = np.arange(12.0).reshape(6, 2)
    with tracer.recording(op=0):
        oscluster.factor.kmeans(points, KMeansConfig(k=2, restarts=1))
    values = layer_values(tracer, timing_ops=[0], memory_ops=[0])
    for name in ("kmeans.lloyd_ms", "kmeans.lloyd_iters", "kmeans.lloyd_ms_per_iter"):
        assert values[name]["value"] is None
        assert "AttributeError" in values[name]["absent"]
    assert "ModuleNotFoundError" in values["lab.basis_ms"]["absent"]
    assert values["kmeans.kmeans_ms"]["value"] > 0
    assert values["cli.load_ms"] == {"value": 0.0, "unit": "ms", "n": 1}


def test_every_layer_metric_names_known_spans():
    span_names = {t.span for t in Tracer().targets}
    for metric in LAYER_METRICS:
        assert set(metric.spans) <= span_names, metric.name
