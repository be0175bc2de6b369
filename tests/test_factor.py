import numpy as np
import pytest

from oscluster import (
    AllZero,
    KMeansConfig,
    cumulative_variance,
    fit,
    run_osc,
    select_dimension,
    standardize,
    validate,
)
from oscluster.experiments import RunRecord


def test_cumulative_variance_examples():
    assert np.allclose(cumulative_variance([4, 3, 2, 1]), [0.4, 0.7, 0.9, 1.0])
    assert np.allclose(cumulative_variance([5, 0, 0]), [1.0, 1.0, 1.0])
    with pytest.raises(AllZero):
        cumulative_variance([0.0, 0.0])


def test_cumulative_variance_rejects_bad_input():
    with pytest.raises(ValueError):
        cumulative_variance([1.0, 2.0])
    with pytest.raises(ValueError):
        cumulative_variance([2.0, -1.0])
    with pytest.raises(ValueError):
        cumulative_variance([])


def test_select_dimension_examples():
    curve = [0.4, 0.7, 0.9, 1.0]
    assert select_dimension(curve, 0.7) == 2
    assert select_dimension(curve, 0.85) == 3
    assert select_dimension(curve, 1.0) == 4
    assert select_dimension(curve, 0.1) == 1
    with pytest.raises(ValueError):
        select_dimension(curve, 0.0)
    with pytest.raises(ValueError):
        select_dimension(curve, 1.5)


def test_theta_one_selects_full_rank(rng):
    view = standardize(validate(rng.normal(size=(12, 60))))
    model = fit(view, 1.0)
    assert model.m == 12


def test_rank_two_rows_select_two(rng):
    # rows are combinations of two feature profiles -> standardized rank 2;
    # directions spread over the plane keep both eigenvalues comparable
    u = rng.normal(size=20)
    w = rng.normal(size=20)
    phi = np.linspace(0.1, np.pi - 0.1, 10)
    coef = np.column_stack([np.cos(phi), np.sin(phi)])
    x = coef[:, :1] * u[None, :] + coef[:, 1:] * w[None, :]
    view = standardize(validate(x))
    model = fit(view, 0.85)
    assert model.theta_curve[1] == pytest.approx(1.0, abs=1e-12)
    assert model.m == 2
    assert fit(view, 1.0).m == 2


def test_duplicated_samples_share_embedding(rng):
    x = rng.normal(size=(7, 25))
    x[4] = x[1]
    view = standardize(validate(x))
    model = fit(view, 0.85)
    assert np.allclose(model.embedding[1], model.embedding[4], atol=1e-8)


def test_full_rank_reconstruction(rng):
    view = standardize(validate(rng.normal(size=(30, 200))))
    model = fit(view, 1.0)
    rebuilt = model.loadings @ model.loadings.T
    assert np.linalg.norm(rebuilt - view.r_samples) <= 1e-8


def test_truncated_reconstruction_bound(rng):
    view = standardize(validate(rng.normal(size=(25, 80))))
    dec_lam = np.linalg.eigvalsh(view.r_samples)[::-1]
    for theta0 in (0.5, 0.8, 0.95):
        model = fit(view, theta0)
        err = np.linalg.norm(view.r_samples - model.loadings @ model.loadings.T)
        bound = np.sqrt((dec_lam[model.m:] ** 2).sum()) + 1e-8
        assert err <= bound


def test_theta_curve_and_f_basis_invariants(rng):
    view = standardize(validate(rng.normal(size=(18, 50))))
    model = fit(view, 0.9)
    assert (np.diff(model.theta_curve) >= -1e-15).all()
    assert model.theta_curve[-1] == pytest.approx(1.0, abs=1e-12)
    gram = model.f_basis.T @ model.f_basis
    assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-6
    assert model.f_columns == tuple(range(model.m))
    assert model.embedding.shape == (18, model.m)


def test_monotone_in_theta0(rng):
    view = standardize(validate(rng.normal(size=(15, 40))))
    ms = [fit(view, t).m for t in (0.5, 0.7, 0.85, 0.95, 1.0)]
    assert ms == sorted(ms)


def test_scale_invariance(rng):
    x = rng.normal(size=(20, 30)) + 1.5
    data1 = validate(x, labels=np.arange(20) % 2)
    data2 = validate(2.0 * x, labels=np.arange(20) % 2)  # power of two: exact fp scaling
    r1 = run_osc(data1, 0.85, 2, KMeansConfig(k=2, restarts=4, seed=9))
    r2 = run_osc(data2, 0.85, 2, KMeansConfig(k=2, restarts=4, seed=9))
    assert r1.m == r2.m
    assert np.array_equal(r1.clustering.assignments, r2.clustering.assignments)
    f1 = fit(standardize(data1), 0.85)
    f2 = fit(standardize(data2), 0.85)
    assert np.allclose(2.0 * f1.embedding, f2.embedding, rtol=1e-12)


def test_run_osc_separable_duplicates():
    a = [1.0, 7.0, 3.0, 4.0]
    b = [9.0, 2.0, 8.0, 1.0]
    x = np.array([a] * 5 + [b] * 5)
    labels = np.array([0] * 5 + [1] * 5)
    report = run_osc(validate(x, labels=labels), 0.85, 2, KMeansConfig(k=2, restarts=4, seed=1))
    assert report.metrics.acc == 1.0
    assert report.n == 10 and report.p == 4


def test_run_osc_report_shape(rng):
    x = rng.normal(size=(16, 12))
    report = run_osc(validate(x, name="toy"), 0.8, 2, KMeansConfig(k=2, seed=5))
    d = RunRecord.from_osc(report, "toy", {}).to_dict()
    assert d["dataset"] == "toy"
    assert d["N"] == 16 and d["p"] == 12
    assert d["m"] == report.m
    assert "metrics" not in d  # no labels given
    assert set(d["timings_ms"]) == {
        "standardize_ms", "factor_ms", "kmeans_ms", "total_ms", "metrics_ms"
    }
    assert d["kmeans"]["iters"] == len(d["kmeans"]["objective_trace"])
    assert d["theta_of_m"] >= 0.8 - 1e-12


def test_run_osc_deterministic(rng):
    x = rng.normal(size=(25, 10))
    data = validate(x, labels=rng.integers(0, 3, size=25))
    r1 = run_osc(data, 0.85, 3, KMeansConfig(k=3, seed=77))
    r2 = run_osc(data, 0.85, 3, KMeansConfig(k=3, seed=77))
    assert r1.metrics.acc == r2.metrics.acc
    assert np.array_equal(r1.clustering.assignments, r2.clustering.assignments)
