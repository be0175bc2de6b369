"""Lloyd's k-means with k-means++ seeding, restarts, and objective tracing.

Determinism: the PCG64 generator seeded with `seed + restart_index` drives
each restart, nearest-centroid ties break toward the lowest centroid index,
and the winning restart is the lowest (objective, restart_index) pair, so
results are identical across runs and would be unchanged by running restarts
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, TooFewPoints

RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class KMeansConfig:
    """Clustering knobs. `tol` is the relative objective-change threshold."""

    k: int
    max_iter: int = 300
    tol: float = 1e-6
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be positive")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of the winning restart.

    objective_trace has one entry per completed iteration and is
    non-increasing; every cluster is non-empty and each centroid is the mean
    of its assigned points.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    restart_index: int
    rng_algorithm: str = RNG_ALGORITHM

    @property
    def objective(self) -> float:
        return float(self.objective_trace[-1])


def kmeans(points, cfg: KMeansConfig) -> ClusterResult:
    """Cluster rows of `points` into cfg.k groups, best of cfg.restarts runs."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    if not np.isfinite(points).all():
        raise NonFinite()
    n = points.shape[0]
    if n < cfg.k:
        raise TooFewPoints(f"{n} points for k={cfg.k}")

    best = None
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        centroids = _kmeanspp_init(points, cfg.k, rng)
        assign, cents, trace, iters = _lloyd(points, cfg.k, centroids, cfg.max_iter, cfg.tol)
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], r, assign, cents, trace, iters)

    _, r, assign, cents, trace, iters = best
    trace = np.asarray(trace)
    for a in (assign, cents, trace):
        a.setflags(write=False)
    return ClusterResult(
        assignments=assign,
        centroids=cents,
        objective_trace=trace,
        iterations=iters,
        restart_index=r,
    )


def write_objective_trace(path, trace) -> None:
    """Write a two-column delimited trace (iteration, objective)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for i, v in enumerate(trace, start=1):
            fh.write(f"{i},{float(v)!r}\n")


def _sq_distances(points, centroids):
    d = (
        (points * points).sum(axis=1)[:, None]
        - 2.0 * (points @ centroids.T)
        + (centroids * centroids).sum(axis=1)[None, :]
    )
    return np.maximum(d, 0.0, out=d)


def _kmeanspp_init(points, k, rng):
    """D^2 seeding: each next centroid is drawn with probability proportional
    to squared distance from the nearest one chosen so far."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d = _sq_distances(points, points[chosen[-1]][None, :])[:, 0]
    for _ in range(1, k):
        total = d.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d / total))
        else:
            # All mass collapsed (duplicates); fall back to an unused index.
            remaining = np.setdiff1d(np.arange(n), np.array(chosen))
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        d = np.minimum(d, _sq_distances(points, points[idx][None, :])[:, 0])
    return points[np.array(chosen)].copy()


def _lloyd(points, k, centroids, max_iter, tol):
    n, m = points.shape
    trace: list[float] = []
    prev = None
    assign = np.zeros(n, dtype=int)
    for it in range(1, max_iter + 1):
        d = _sq_distances(points, centroids)
        assign = np.argmin(d, axis=1)  # ties -> lowest centroid index
        counts = np.bincount(assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            own = d[np.arange(n), assign]
            donors = np.flatnonzero(counts[assign] >= 2)
            far = int(donors[np.argmax(own[donors])])
            counts[assign[far]] -= 1
            assign[far] = empty
            counts[empty] += 1
        centroids = np.empty((k, m))
        for dim in range(m):
            centroids[:, dim] = np.bincount(assign, weights=points[:, dim], minlength=k)
        centroids /= counts[:, None]
        diff = points - centroids[assign]
        obj = float((diff * diff).sum())
        trace.append(obj)
        if prev is not None and prev - obj <= tol * prev:
            break
        prev = obj
    return assign, centroids, trace, it
