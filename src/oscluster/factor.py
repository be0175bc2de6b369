"""Cumulative-variance dimension selection, principal-axis loadings, the
orthogonal-subspace embedding, and the end-to-end clustering pipeline.

The embedding of sample k is row k of diag(sigma) @ A_m, where the loading
matrix A_m = U[:, :m] sqrt(diag(lam[:m])) comes from the eigendecomposition
of the sample correlation matrix and m is the smallest dimension whose
cumulative eigenvalue share reaches the threshold theta0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import AllZero
from .kmeans import ClusterResult, KMeansConfig, kmeans
from .matrix import DataMatrix, StandardizedView, standardize
from .metrics import MetricsReport, evaluate
from .spectral import eigendecompose_symmetric

# Absorbs float dust so exact-rank data selects the exact rank at theta0 = 1.
SELECT_SLACK = 1e-12

# Columns whose eigenvalue falls below this fraction of the largest are kept
# in the loadings as zero columns but omitted from the orthonormal basis.
ZERO_LAMBDA_REL = 1e-12


@dataclass(frozen=True)
class FactorModel:
    """Fitted factor structure of a standardized data matrix.

    Attributes
    ----------
    m : int
        Selected subspace dimension.
    theta0 : float
        Cumulative-variance threshold used for selection.
    theta_curve : (N,) ndarray
        Non-decreasing cumulative variance shares; last entry is 1.
    loadings : (N, m) ndarray
        A_m; rows are sample coordinates before rescaling.
    embedding : (N, m) ndarray
        diag(sigma) @ A_m; the rows that get clustered.
    f_basis : (p, r) ndarray
        Orthonormal basis of retained factor directions, r = len(f_columns).
    f_columns : tuple[int, ...]
        Indices (0-based, < m) of loading columns with numerically nonzero
        eigenvalues; columns outside this set are zero in `loadings` and are
        omitted from `f_basis`.
    """

    m: int
    theta0: float
    theta_curve: np.ndarray
    loadings: np.ndarray
    embedding: np.ndarray
    f_basis: np.ndarray
    f_columns: tuple[int, ...]


def cumulative_variance(lam) -> np.ndarray:
    """Cumulative share of total eigenvalue mass, one entry per prefix.

    Raises AllZero when the eigenvalues sum to zero.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("need a non-empty 1-d eigenvalue vector")
    if (lam < 0).any():
        raise ValueError("eigenvalues must be non-negative")
    if (np.diff(lam) > 1e-12 * max(lam[0], 1.0)).any():
        raise ValueError("eigenvalues must be non-increasing")
    total = lam.sum()
    if total <= 0.0:
        raise AllZero("eigenvalue mass is zero")
    return np.cumsum(lam) / total


def select_dimension(theta_curve, theta0: float) -> int:
    """Smallest m (1-based) whose cumulative share reaches theta0.

    Comparison carries a 1e-12 slack so exact-rank spectra select the rank
    even at theta0 = 1. Always succeeds because the curve ends at 1.
    """
    if not (0.0 < theta0 <= 1.0):
        raise ValueError(f"theta0 must be in (0, 1], got {theta0}")
    curve = np.asarray(theta_curve, dtype=float)
    hit = np.flatnonzero(curve >= theta0 - SELECT_SLACK)
    return int(hit[0]) + 1


def fit(view: StandardizedView, theta0: float) -> FactorModel:
    """Estimate loadings and the clustering embedding from a standardized view."""
    dec = eigendecompose_symmetric(view.r_samples)
    theta_curve = cumulative_variance(dec.lam)
    m = select_dimension(theta_curve, theta0)
    lam_m = dec.lam[:m].copy()
    u_m = dec.u[:, :m]

    nonzero = lam_m > ZERO_LAMBDA_REL * max(dec.lam[0], 0.0)
    lam_m[~nonzero] = 0.0
    loadings = u_m * np.sqrt(lam_m)[None, :]
    embedding = view.sigma[:, None] * loadings

    # Orthonormal factor directions for the retained columns. With the unit-
    # diagonal correlation normalization the scores need the extra 1/sqrt(p-1)
    # so that f_basis.T @ f_basis = I.
    p = view.y.shape[0]
    cols = np.flatnonzero(nonzero)
    scale = 1.0 / np.sqrt(lam_m[cols] * (p - 1))
    f_basis = (view.y @ u_m[:, cols]) * scale[None, :]

    for a in (theta_curve, loadings, embedding, f_basis):
        a.setflags(write=False)
    return FactorModel(
        m=m,
        theta0=float(theta0),
        theta_curve=theta_curve,
        loadings=loadings,
        embedding=embedding,
        f_basis=f_basis,
        f_columns=tuple(int(c) for c in cols),
    )


@dataclass(frozen=True)
class OscReport:
    """End-to-end pipeline result with stage timings and optional metrics.

    The experiment baselines fill the same shape: `theta0` and `theta_of_m`
    are None for them, and so is `m` for raw-kmeans.
    """

    dataset: str
    n: int
    p: int
    theta0: float | None
    m: int | None
    theta_of_m: float | None
    timings_ms: dict
    clustering: ClusterResult
    metrics: MetricsReport | None
    seed: int


def run_osc(data: DataMatrix, theta0: float, k: int, kmeans_cfg: KMeansConfig) -> OscReport:
    """Standardize, fit the factor embedding, and cluster its rows.

    `k` is the cluster count and replaces `kmeans_cfg.k`; the config supplies
    every other clustering knob, the seed included. ACC/NMI/ARI are attached
    when the data carries ground-truth labels.
    """
    kmeans_cfg = replace(kmeans_cfg, k=k)
    t_all = time.perf_counter()
    t0 = time.perf_counter()
    view = standardize(data)
    t_std = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = fit(view, theta0)
    t_fit = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = kmeans(model.embedding, kmeans_cfg)
    t_km = time.perf_counter() - t0
    total = time.perf_counter() - t_all

    metrics = None
    t0 = time.perf_counter()
    if data.labels is not None:
        metrics = evaluate(data.labels, result.assignments)
    t_metrics = time.perf_counter() - t0

    timings = {
        "standardize_ms": t_std * 1e3,
        "factor_ms": t_fit * 1e3,
        "kmeans_ms": t_km * 1e3,
        "total_ms": total * 1e3,
        "metrics_ms": t_metrics * 1e3,
    }
    return OscReport(
        dataset=data.name,
        n=data.n_samples,
        p=data.n_features,
        theta0=float(theta0),
        m=model.m,
        theta_of_m=float(model.theta_curve[model.m - 1]),
        timings_ms=timings,
        clustering=result,
        metrics=metrics,
        seed=int(kmeans_cfg.seed),
    )
