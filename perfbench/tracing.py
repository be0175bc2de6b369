"""Layer spans recorded from outside the program.

The tracer replaces the module attributes that oscluster's own callers look
up (``oscluster.factor.standardize``, ``oscluster.experiments.run_osc``, ...)
with wrappers that record a span per call, and restores them afterwards. Spans
carry name, start, end, parent span and op id; they stay in memory and are
written once when the run ends.

A target that cannot be resolved (a helper renamed or removed) is recorded as
absent with the reason; every layer metric that needs it is reported as
``None`` with that reason, never as 0. A layer that a workload simply does not
enter reports 0 calls and 0 ms.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from stats import median


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs}


@dataclass(frozen=True)
class Target:
    """A callable to wrap: `attr` (dotted for class members) on `module`."""

    span: str
    module: str
    attr: str
    extract: Callable | None = None   # (args, kwargs, result) -> dict of span attrs


def _std_attrs(args, kwargs, result):
    n, p = args[0].values.shape
    return {"flops": 2.0 * n * n * p}


def _order_attrs(args, kwargs, result):
    return {"order": int(args[0].shape[0])}


TARGETS = (
    Target("cli.main", "oscluster.cli", "main"),
    Target("cli.load", "oscluster.cli", "load_matrix"),
    Target("cli.load", "oscluster.cli", "load_labels"),
    Target("matrix.validate", "oscluster.cli", "validate"),
    Target("run_osc", "oscluster.cli", "run_osc"),
    Target("run_osc", "oscluster.experiments", "run_osc"),
    Target("matrix.standardize", "oscluster.factor", "standardize", _std_attrs),
    Target("factor.fit", "oscluster.factor", "fit",
           lambda a, k, r: {"m": int(r.m)}),
    Target("spectral.eigh", "oscluster.factor", "eigendecompose_symmetric", _order_attrs),
    Target("spectral.eigh", "oscluster.subspace_lab", "eigendecompose_symmetric",
           _order_attrs),
    Target("spectral.lapack", "numpy.linalg", "eigh"),
    Target("kmeans.kmeans", "oscluster.factor", "kmeans"),
    Target("kmeans.seed", "oscluster.kmeans", "_kmeanspp_init"),
    Target("kmeans.lloyd", "oscluster.kmeans", "_lloyd",
           lambda a, k, r: {"iters": int(r[3])}),
    Target("metrics.evaluate", "oscluster.factor", "evaluate"),
    Target("experiments.sweep", "oscluster.experiments", "sweep_theta"),
    Target("experiments.write", "oscluster.experiments", "ExperimentReport.write"),
    Target("lab.validate", "oscluster.subspace_lab", "validate"),
    Target("lab.generate", "oscluster.subspace_lab", "generate"),
    Target("lab.basis", "oscluster.subspace_lab", "_top_left_basis"),
    Target("lab.separation", "oscluster.subspace_lab", "_projector_separation"),
    Target("lab.verdict", "oscluster.subspace_lab", "_verdict_from_average"),
)


def _resolve(target: Target):
    """(owner, attribute name, original callable); raises if it is gone.

    Modules come from importlib: ``oscluster.kmeans`` as a package attribute
    is the re-exported function, not the module.
    """
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    if not callable(original):
        raise TypeError(f"{target.module}.{target.attr} is not callable")
    return owner, name, original


class Tracer:
    """Records spans while an op is active; wrappers are installed per op."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}
        self._op: int | None = None
        self._stack: list[Span] = []
        self._memory = False
        self._installed: list = []

    @contextmanager
    def recording(self, op: int, memory: bool = False):
        """Trace one op; with `memory`, also track each span's peak heap."""
        self._install()
        self._op, self._memory = op, memory
        if memory:
            tracemalloc.start()
        try:
            yield
        finally:
            if memory:
                tracemalloc.stop()
            self._op, self._memory = None, False
            self._stack.clear()
            self._uninstall()

    def absent_spans(self) -> dict[str, str]:
        """Span names none of whose targets resolved, with the reasons."""
        out = {}
        for name in {t.span for t in self.targets}:
            keys = [f"{t.module}.{t.attr}" for t in self.targets if t.span == name]
            if all(k in self.absent for k in keys):
                out[name] = "; ".join(f"{k}: {self.absent[k]}" for k in keys)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def _install(self) -> None:
        for target in self.targets:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError, TypeError) as exc:
                self.absent[f"{target.module}.{target.attr}"] = f"{type(exc).__name__}: {exc}"
                continue
            setattr(owner, name, self._wrap(target, original))
            self._installed.append((owner, name, original))

    def _uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if target.extract is not None:
                span.attrs.update(target.extract(args, kwargs, result))
            return result
        return traced

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, op=self._op, parent=parent, start=0.0)
        if self._memory:
            # reset_peak is global: fold the peak so far into every open span first.
            current, peak = tracemalloc.get_traced_memory()
            for open_span in self._stack:
                open_span.attrs["peak"] = max(open_span.attrs["peak"], peak)
            tracemalloc.reset_peak()
            span.attrs.update(base=current, peak=current)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._memory:
            _, peak = tracemalloc.get_traced_memory()
            for open_span in self._stack + [span]:
                open_span.attrs["peak"] = max(open_span.attrs["peak"], peak)
            span.attrs["peak_mb"] = (span.attrs.pop("peak") - span.attrs.pop("base")) / 1e6


def covered_ms(span: Span, children) -> float:
    """Milliseconds of `span` covered by the union of the children's intervals."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total * 1e3


class OpSpans:
    """The spans of one op, indexed for the layer metrics."""

    def __init__(self, spans):
        self.spans = list(spans)
        self._by_id = {s.id: s for s in self.spans}
        self._children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                self._children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.id, [])

    def parent_name(self, span: Span) -> str | None:
        parent = self._by_id.get(span.parent)
        return parent.name if parent is not None else None

    def ms(self, name: str) -> float:
        return sum(s.ms for s in self.named(name))

    def self_ms(self, name: str) -> float:
        return sum(s.ms - covered_ms(s, self.children(s)) for s in self.named(name))

    def count(self, name: str, parent: str | None = None) -> int:
        return sum(1 for s in self.named(name) if parent is None or self.parent_name(s) == parent)

    def attrs(self, name: str, key: str, parent: str | None = None) -> list:
        return [s.attrs[key] for s in self.named(name)
                if key in s.attrs and (parent is None or self.parent_name(s) == parent)]

    def coverage(self, name: str) -> list[float]:
        """Share of each `name` span covered by its children."""
        return [covered_ms(s, self.children(s)) / s.ms if s.ms > 0 else 1.0
                for s in self.named(name)]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# Direction of a metric that describes the data or the algorithm (the order of
# the matrix decomposed, the chosen m): a move in it is a change in behaviour,
# not a gain or a loss, so it is printed but left out of BENCHMARK.json.
CONTEXT = "context"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    spans: tuple          # span names the value is computed from
    value: Callable       # OpSpans -> float
    memory: bool = False  # read from memory-probe ops instead of timing ops


LAYER_METRICS = (
    LayerMetric("cli.load_ms", "ms", "lower", ("cli.load",), lambda s: s.ms("cli.load")),
    LayerMetric("cli.self_ms", "ms", "lower", ("cli.main",), lambda s: s.self_ms("cli.main")),
    LayerMetric("matrix.validate_ms", "ms", "lower", ("matrix.validate",),
                lambda s: s.ms("matrix.validate")),
    LayerMetric("matrix.standardize_ms", "ms", "lower", ("matrix.standardize",),
                lambda s: s.ms("matrix.standardize")),
    LayerMetric("matrix.standardize_calls", "count", "lower", ("matrix.standardize",),
                lambda s: s.count("matrix.standardize")),
    LayerMetric("matrix.standardize_gflop_s", "GFLOP/s", "higher", ("matrix.standardize",),
                lambda s: _ratio(sum(s.attrs("matrix.standardize", "flops")),
                                 s.ms("matrix.standardize") * 1e6)),
    LayerMetric("matrix.standardize_peak_mb", "MB", "lower", ("matrix.standardize",),
                lambda s: max(s.attrs("matrix.standardize", "peak_mb"), default=0.0), True),
    LayerMetric("spectral.eigh_ms", "ms", "lower", ("spectral.eigh",),
                lambda s: s.ms("spectral.eigh")),
    LayerMetric("spectral.lapack_ms", "ms", "lower", ("spectral.lapack",),
                lambda s: s.ms("spectral.lapack")),
    LayerMetric("spectral.canon_ms", "ms", "lower", ("spectral.eigh", "spectral.lapack"),
                lambda s: s.self_ms("spectral.eigh")),
    LayerMetric("spectral.calls", "count", "lower", ("spectral.eigh",),
                lambda s: s.count("spectral.eigh")),
    LayerMetric("spectral.order", "count", CONTEXT, ("spectral.eigh",),
                lambda s: max(s.attrs("spectral.eigh", "order"), default=0)),
    LayerMetric("spectral.peak_mb", "MB", "lower", ("spectral.eigh",),
                lambda s: max(s.attrs("spectral.eigh", "peak_mb"), default=0.0), True),
    LayerMetric("factor.fit_ms", "ms", "lower", ("factor.fit",), lambda s: s.ms("factor.fit")),
    LayerMetric("factor.embed_ms", "ms", "lower", ("factor.fit", "spectral.eigh"),
                lambda s: s.self_ms("factor.fit")),
    LayerMetric("factor.m", "count", CONTEXT, ("factor.fit",),
                lambda s: _mean(s.attrs("factor.fit", "m"))),
    LayerMetric("factor.peak_mb", "MB", "lower", ("factor.fit",),
                lambda s: max(s.attrs("factor.fit", "peak_mb"), default=0.0), True),
    LayerMetric("kmeans.kmeans_ms", "ms", "lower", ("kmeans.kmeans",),
                lambda s: s.ms("kmeans.kmeans")),
    LayerMetric("kmeans.seed_ms", "ms", "lower", ("kmeans.seed",),
                lambda s: s.ms("kmeans.seed")),
    LayerMetric("kmeans.lloyd_ms", "ms", "lower", ("kmeans.lloyd",),
                lambda s: s.ms("kmeans.lloyd")),
    LayerMetric("kmeans.lloyd_iters", "count", "lower", ("kmeans.lloyd",),
                lambda s: sum(s.attrs("kmeans.lloyd", "iters"))),
    LayerMetric("kmeans.lloyd_ms_per_iter", "ms", "lower", ("kmeans.lloyd",),
                lambda s: _ratio(s.ms("kmeans.lloyd"), sum(s.attrs("kmeans.lloyd", "iters")))),
    LayerMetric("metrics.evaluate_ms", "ms", "lower", ("metrics.evaluate",),
                lambda s: s.ms("metrics.evaluate")),
    LayerMetric("experiments.sweep_ms", "ms", "lower", ("experiments.sweep",),
                lambda s: s.ms("experiments.sweep")),
    LayerMetric("experiments.run_osc_calls", "count", "lower", ("run_osc",),
                lambda s: s.count("run_osc", parent="experiments.sweep")),
    LayerMetric("experiments.self_ms", "ms", "lower", ("experiments.sweep", "run_osc"),
                lambda s: s.self_ms("experiments.sweep")),
    LayerMetric("experiments.write_ms", "ms", "lower", ("experiments.write",),
                lambda s: s.ms("experiments.write")),
    LayerMetric("lab.generate_ms", "ms", "lower", ("lab.generate",),
                lambda s: s.ms("lab.generate")),
    LayerMetric("lab.basis_ms", "ms", "lower", ("lab.basis",), lambda s: s.ms("lab.basis")),
    LayerMetric("lab.separation_ms", "ms", "lower", ("lab.separation",),
                lambda s: s.ms("lab.separation")),
    LayerMetric("lab.verdict_ms", "ms", "lower", ("lab.verdict",),
                lambda s: s.ms("lab.verdict")),
    LayerMetric("lab.self_ms", "ms", "lower", ("lab.validate",),
                lambda s: s.self_ms("lab.validate")),
    LayerMetric("lab.eigh_order", "count", CONTEXT, ("spectral.eigh", "lab.basis"),
                lambda s: max(s.attrs("spectral.eigh", "order", parent="lab.basis"), default=0)),
)

OVERHEAD = ("trace.overhead_frac", "fraction", "lower")

# Children of each run_osc span must cover this share of it (the harness's
# accounting identity: standardize + factor + kmeans ~ total within 5%).
RUN_OSC_COVERAGE = 0.95


def layer_values(tracer: Tracer, timing_ops, memory_ops) -> dict:
    """Median over ops of each layer metric, or None with the reason if absent."""
    by_op: dict[int, list[Span]] = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    absent = tracer.absent_spans()
    out = {}
    for metric in LAYER_METRICS:
        missing = [absent[name] for name in metric.spans if name in absent]
        if missing:
            out[metric.name] = {"value": None, "unit": metric.unit, "absent": "; ".join(missing)}
            continue
        ops = memory_ops if metric.memory else timing_ops
        values = [float(metric.value(OpSpans(by_op.get(op, [])))) for op in ops]
        out[metric.name] = {"value": median(values) if values else None, "unit": metric.unit,
                            "n": len(values)}
    return out
