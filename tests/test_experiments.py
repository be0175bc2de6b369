import json
import time

import numpy as np
import pytest

from oscluster import LabelsRequired, NotEnoughCategories, validate
from oscluster.experiments import (
    ExperimentConfig,
    aggregate_metrics,
    bench_runtime,
    subset_robustness,
    sweep_theta,
)
from oscluster.subspace_lab import SubspaceModel, generate
from conftest import make_blobs


def separable_data(rng, clusters=3, per_cluster=12, dim=6):
    centers = 10.0 * np.eye(clusters, dim) + 1.0
    points, labels = make_blobs(rng, centers, per_cluster, 0.05)
    return validate(points, labels=labels, name="blobs")


def subspace_data(seed=0, sizes=(40, 40, 40)):
    model = SubspaceModel(p=40, k=3, subspace_dims=(2, 2, 2), cluster_sizes=sizes,
                          noise_sigmas=(0.02, 0.02, 0.02), seed=seed)
    return generate(model).to_data_matrix()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(k=2, repeats=0)
    with pytest.raises(ValueError):
        ExperimentConfig(k=2, theta_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        ExperimentConfig(k=2, baselines=("raw-kmeans", "nope"))


def test_sweep_separable_is_perfect(rng):
    data = separable_data(rng)
    cfg = ExperimentConfig(k=3, theta_grid=(0.7, 0.85), repeats=3, seed=1, restarts=4)
    report = sweep_theta(data, cfg)
    assert len(report.cells) == 2
    for cell in report.cells:
        assert cell["acc_mean"] == 1.0
        assert cell["acc_sd"] == 0.0
    assert len(report.runs) == 6


def test_sweep_m_nondecreasing_in_theta():
    data = subspace_data()
    cfg = ExperimentConfig(k=3, theta_grid=(0.5, 0.7, 0.85, 0.95), repeats=1, seed=0,
                           restarts=3)
    report = sweep_theta(data, cfg)
    ms = [cell["m"] for cell in report.cells]
    assert ms == sorted(ms)


def test_sweep_requires_labels(rng):
    data = validate(rng.normal(size=(10, 5)))
    with pytest.raises(LabelsRequired):
        sweep_theta(data, ExperimentConfig(k=2, repeats=1))


def test_sweep_deterministic(rng):
    data = separable_data(rng)
    cfg = ExperimentConfig(k=3, theta_grid=(0.8,), repeats=2, seed=9, restarts=3)
    r1 = sweep_theta(data, cfg)
    r2 = sweep_theta(data, cfg)

    def metric_cells(report):
        return [
            {k: v for k, v in cell.items() if not k.startswith("wall_")}
            for cell in report.cells
        ]

    assert metric_cells(r1) == metric_cells(r2)


def test_aggregates_recomputable_from_runs(rng):
    data = separable_data(rng)
    cfg = ExperimentConfig(k=3, theta_grid=(0.7, 0.9), repeats=3, seed=2, restarts=3)
    report = sweep_theta(data, cfg)
    for ci, cell in enumerate(report.cells):
        records = [r for r in report.runs if r.setting["theta0"] == cell["theta0"]]
        redo = aggregate_metrics(records)
        for key, value in redo.items():
            assert cell[key] == pytest.approx(value, abs=1e-12)


def test_subset_two_categories_perfect(rng):
    data = separable_data(rng, clusters=4)
    cfg = ExperimentConfig(k=2, subset_category_counts=(2, 3), repeats=3, seed=5,
                           restarts=4)
    report = subset_robustness(data, cfg)
    cell = report.cells[0]
    assert cell["categories"] == 2
    assert cell["acc_mean"] == 1.0 and cell["acc_sd"] == 0.0


def test_subset_single_repeat_sd_zero(rng):
    data = separable_data(rng, clusters=3)
    cfg = ExperimentConfig(k=2, subset_category_counts=(2,), repeats=1, seed=3,
                           restarts=3)
    report = subset_robustness(data, cfg)
    assert report.cells[0]["acc_sd"] == 0.0


def test_subset_not_enough_categories(rng):
    data = separable_data(rng, clusters=3)
    cfg = ExperimentConfig(k=2, subset_category_counts=(2, 8), repeats=1)
    with pytest.raises(NotEnoughCategories):
        subset_robustness(data, cfg)


def test_bench_accounting_identity():
    data = subspace_data(sizes=(50, 50, 50))
    cfg = ExperimentConfig(k=3, repeats=3, seed=4, restarts=3, baselines=())
    report = bench_runtime(data, cfg)
    for rec in report.runs:
        t = rec.timings_ms
        stage_sum = t["standardize_ms"] + t["factor_ms"] + t["kmeans_ms"]
        assert stage_sum == pytest.approx(t["total_ms"], rel=0.05)


def test_bench_baseline_slots():
    data = subspace_data(sizes=(30, 30, 30))
    cfg = ExperimentConfig(k=3, repeats=2, seed=6, restarts=3)
    report = bench_runtime(data, cfg)
    methods = [cell["method"] for cell in report.cells]
    assert methods == ["osc", "raw-kmeans", "pca-kmeans"]
    pca = report.cells[2]
    osc = report.cells[0]
    assert pca["m"] == osc["m"]     # baseline reuses the selected dimension
    for cell in report.cells:
        assert cell["acc_mean"] >= 0.9   # easy data, every method works


def test_bench_mean_is_arithmetic_mean():
    data = subspace_data(sizes=(30, 30, 30))
    cfg = ExperimentConfig(k=3, repeats=3, seed=8, restarts=3, baselines=())
    report = bench_runtime(data, cfg)
    walls = [rec.timings_ms["total_ms"] for rec in report.runs]
    assert report.cells[0]["wall_ms_mean"] == pytest.approx(np.mean(walls), rel=1e-12)


def test_eigen_stage_scales_superlinearly():
    def eig_ms(n):
        a = np.random.default_rng(0).normal(size=(n, n))
        a = (a + a.T) / 2.0
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            np.linalg.eigh(a)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = eig_ms(100), eig_ms(800)
    assert large > 8.0 * small   # superlinear in N (dense N x N decomposition)


def test_report_files(tmp_path, rng):
    data = separable_data(rng)
    cfg = ExperimentConfig(k=3, theta_grid=(0.85,), repeats=2, seed=1, restarts=3)
    report = sweep_theta(data, cfg)
    report.write(tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["kind"] == "sweep_theta"
    assert payload["config"]["seed"] == 1
    assert payload["environment"]["threads"] >= 1
    lines = (tmp_path / "per-run.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert {"run_id", "setting", "seed", "metrics", "m", "timings_ms"} <= set(rec)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "per-run.jsonl", "report.json", "table.csv"]
    table = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert len(table) == 2 and table[0].startswith("theta0,")
