"""Reproduction harness: threshold sweep, category-subset robustness,
and runtime benchmarking against two internal baselines.

Every run gets a derived seed (cfg.seed + 100003 * cell_index + repeat_index)
and one RunRecord, whose `to_dict` is the run schema of both per-run.jsonl
lines and the `cluster` subcommand's report.json. `ExperimentReport.write`
writes report.json, per-run.jsonl and table.csv. Aggregate cells are
recomputed from the records, keyed by run id, so a report can always be
re-derived from what was written to disk, whatever the completion order.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import LabelsRequired, NotEnoughCategories
from .factor import OscReport, run_osc
from .kmeans import KMeansConfig, kmeans
from .matrix import DataMatrix, validate as validate_matrix
from .metrics import evaluate

SEED_STRIDE = 100003

BASELINE_NAMES = ("raw-kmeans", "pca-kmeans")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared protocol knobs for the three studies."""

    k: int
    theta0: float = 0.85
    theta_grid: tuple = (0.70, 0.75, 0.80, 0.85, 0.90)
    repeats: int = 20
    subset_category_counts: tuple = (2, 4, 7, 15, 30)
    seed: int = 0
    restarts: int = 10
    max_iter: int = 300
    tol: float = 1e-6
    baselines: tuple = BASELINE_NAMES
    dataset: str = ""

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if any(not (0.0 < t <= 1.0) for t in self.theta_grid):
            raise ValueError("theta_grid values must be in (0, 1]")
        if any(b not in BASELINE_NAMES for b in self.baselines):
            raise ValueError(f"baselines must be among {BASELINE_NAMES}")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("theta_grid", "subset_category_counts", "baselines"):
            d[key] = list(d[key])
        return d


@dataclass(frozen=True)
class RunRecord:
    """One clustering run, OSC or baseline: its result, id and setting.

    Baseline records leave the pipeline-only fields null (see OscReport).
    """

    run_id: str
    setting: dict
    osc: OscReport

    @classmethod
    def from_osc(cls, osc: OscReport, run_id: str, setting: dict) -> RunRecord:
        """The one builder of run records, for pipeline and baseline runs."""
        return cls(run_id=run_id, setting=setting, osc=osc)

    @property
    def metrics(self) -> dict:
        """ACC, NMI and ARI by name; empty when the data has no labels."""
        m = self.osc.metrics
        return {} if m is None else {"acc": m.acc, "nmi": m.nmi, "ari": m.ari}

    @property
    def timings_ms(self) -> dict:
        return self.osc.timings_ms

    @property
    def objective_trace(self) -> np.ndarray:
        return self.osc.clustering.objective_trace

    def to_dict(self) -> dict:
        """The run schema; `metrics` is present only when the data has labels."""
        osc, km = self.osc, self.osc.clustering
        out = {
            "run_id": self.run_id,
            "setting": self.setting,
            "dataset": osc.dataset,
            "N": osc.n,
            "p": osc.p,
            "theta0": osc.theta0,
            "m": osc.m,
            "theta_of_m": osc.theta_of_m,
            "timings_ms": dict(osc.timings_ms),
            "kmeans": {
                "iters": km.iterations,
                "objective_trace": [float(v) for v in km.objective_trace],
                "restart_index": km.restart_index,
                "rng": km.rng_algorithm,
            },
            "seed": osc.seed,
        }
        if osc.metrics is not None:
            out["metrics"] = self.metrics
        return out


@dataclass
class ExperimentReport:
    """Aggregated cells plus the raw per-run records they derive from."""

    kind: str
    config: dict
    environment: dict
    cells: list = field(default_factory=list)
    runs: list = field(default_factory=list)

    def add_cell(self, cell: dict, records: list) -> dict:
        """Keep `records` and append `cell` with the metrics aggregated over them."""
        self.runs.extend(records)
        cell.update(aggregate_metrics(records))
        self.cells.append(cell)
        return cell

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "environment": self.environment,
            "cells": self.cells,
        }

    def write(self, out_dir) -> None:
        """Write report.json, per-run.jsonl and table.csv into `out_dir`."""
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        with open(os.path.join(out_dir, "per-run.jsonl"), "w", encoding="utf-8") as fh:
            for rec in self.runs:
                fh.write(json.dumps(rec.to_dict()) + "\n")
        self._write_table(os.path.join(out_dir, "table.csv"))

    def _write_table(self, path) -> None:
        if not self.cells:
            return
        keys = list(self.cells[0].keys())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(keys) + "\n")
            for cell in self.cells:
                fh.write(",".join(str(cell.get(k, "")) for k in keys) + "\n")


def environment_fingerprint() -> dict:
    try:
        threads = len(os.sched_getaffinity(0))
    except AttributeError:
        threads = os.cpu_count() or 1
    return {
        "threads": threads,
        "build": f"oscluster-{__version__}/numpy-{np.__version__}",
        "python": ".".join(str(v) for v in sys.version_info[:3]),
    }


def sweep_theta(data: DataMatrix, cfg: ExperimentConfig) -> ExperimentReport:
    """Mean/SD of ACC, NMI, ARI and the selected dimension per threshold."""
    _require_labels(data)
    report = _new_report("sweep_theta", cfg)
    for ci, theta0 in enumerate(cfg.theta_grid):
        records = []
        for rep in range(cfg.repeats):
            osc = run_osc(data, theta0, cfg.k, _kmeans_cfg(cfg, ci, rep))
            records.append(RunRecord.from_osc(osc, f"theta{theta0:.2f}-rep{rep:02d}",
                                              {"theta0": theta0, "repeat": rep}))
        report.add_cell({"theta0": theta0, "m": records[0].osc.m}, records)
    return report


def subset_robustness(data: DataMatrix, cfg: ExperimentConfig) -> ExperimentReport:
    """Cluster category subsets of growing size, k = number of categories.

    Each repeat samples that many distinct label classes uniformly (derived
    seed) and keeps every sample of the chosen classes.
    """
    _require_labels(data)
    classes = np.unique(data.labels)
    if classes.size < max(cfg.subset_category_counts):
        raise NotEnoughCategories(
            f"dataset has {classes.size} categories, need {max(cfg.subset_category_counts)}"
        )
    report = _new_report("subset_robustness", cfg)
    for ci, n_cat in enumerate(cfg.subset_category_counts):
        n_cat = int(n_cat)
        records = []
        for rep in range(cfg.repeats):
            picker = np.random.default_rng([cfg.seed, ci, rep])
            chosen = picker.choice(classes, size=n_cat, replace=False)
            mask = np.isin(data.labels, chosen)
            subset = validate_matrix(
                data.values[mask], labels=data.labels[mask],
                name=f"{data.name}-subset{n_cat}",
            )
            osc = run_osc(subset, cfg.theta0, n_cat, _kmeans_cfg(cfg, ci, rep))
            records.append(RunRecord.from_osc(
                osc, f"cats{n_cat:02d}-rep{rep:02d}",
                {"categories": n_cat, "repeat": rep,
                 "classes": [int(c) for c in np.sort(chosen)]},
            ))
        report.add_cell({"categories": n_cat, "k": n_cat}, records)
    return report


def bench_runtime(data: DataMatrix, cfg: ExperimentConfig) -> ExperimentReport:
    """Wall-clock comparison of the pipeline against the enabled baselines.

    raw-kmeans clusters the raw rows; pca-kmeans clusters the top-m
    feature-space principal components with the same m the pipeline selects,
    which the "osc" method, always run first, provides.
    """
    report = _new_report("bench_runtime", cfg)
    for ci, method in enumerate(("osc",) + tuple(cfg.baselines)):
        records = []
        for rep in range(cfg.repeats):
            km_cfg = _kmeans_cfg(cfg, ci, rep)
            if method == "osc":
                osc = run_osc(data, cfg.theta0, cfg.k, km_cfg)
                shared_m = osc.m
            else:
                osc = _run_baseline(data, method, shared_m, km_cfg)
            records.append(RunRecord.from_osc(osc, f"{method}-rep{rep:02d}",
                                              {"method": method, "repeat": rep}))
        cell = report.add_cell({"method": method, "m": records[0].osc.m}, records)
        cell.update(_aggregate_timings(records))
    return report


def aggregate_metrics(records) -> dict:
    """Mean and population SD per metric; recomputable from the records."""
    out = {}
    per_run = [rec.metrics for rec in sorted(records, key=lambda r: r.run_id)]
    for name in sorted({k for metrics in per_run for k in metrics}):
        vals = np.array([metrics[name] for metrics in per_run])
        out[f"{name}_mean"] = float(vals.mean())
        out[f"{name}_sd"] = float(vals.std())
    wall = np.array([rec.timings_ms["total_ms"] for rec in records])
    out["wall_ms_mean"] = float(wall.mean())
    return out


def _aggregate_timings(records) -> dict:
    """Mean of each stage timing; every record of a cell has the same stages."""
    return {f"{key}_mean": float(np.mean([rec.timings_ms[key] for rec in records]))
            for key in sorted(records[0].timings_ms)}


def _run_baseline(data, method, m, km_cfg) -> OscReport:
    """One baseline run, in the pipeline's result shape without its own fields."""
    t_all = time.perf_counter()
    if method == "raw-kmeans":
        points, m = data.values, None
        prep_ms = 0.0
    else:  # pca-kmeans
        t0 = time.perf_counter()
        centered = data.values - data.values.mean(axis=0)[None, :]
        u, s, _ = np.linalg.svd(centered, full_matrices=False)
        points = u[:, :m] * s[:m][None, :]
        prep_ms = (time.perf_counter() - t0) * 1e3
    t0 = time.perf_counter()
    result = kmeans(points, km_cfg)
    km_ms = (time.perf_counter() - t0) * 1e3
    total_ms = (time.perf_counter() - t_all) * 1e3
    return OscReport(
        dataset=data.name,
        n=data.n_samples,
        p=data.n_features,
        theta0=None,
        m=m,
        theta_of_m=None,
        timings_ms={"prep_ms": prep_ms, "kmeans_ms": km_ms, "total_ms": total_ms},
        clustering=result,
        metrics=None if data.labels is None else evaluate(data.labels, result.assignments),
        seed=km_cfg.seed,
    )


def _kmeans_cfg(cfg: ExperimentConfig, cell_index: int, repeat: int) -> KMeansConfig:
    """Clustering knobs of one run, seeded cfg.seed + 100003 * cell + repeat."""
    return KMeansConfig(
        k=cfg.k, max_iter=cfg.max_iter, tol=cfg.tol, restarts=cfg.restarts,
        seed=cfg.seed + SEED_STRIDE * cell_index + repeat,
    )


def _require_labels(data: DataMatrix) -> None:
    if data.labels is None:
        raise LabelsRequired("this study needs ground-truth labels")


def _new_report(kind: str, cfg: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(
        kind=kind, config=cfg.to_dict(), environment=environment_fingerprint()
    )
