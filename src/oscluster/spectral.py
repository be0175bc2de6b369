"""Deterministic symmetric eigendecomposition with descending eigenvalues.

Intended for correlation and Gram matrices, i.e. symmetric inputs that are
positive semi-definite up to roundoff. Negative eigenvalues produced by
roundoff are clamped to zero so square roots downstream are safe.

Determinism contract: identical input bytes give identical output. Each
eigenvector is sign-fixed (the entry of largest magnitude is made positive,
first such entry on magnitude ties), and eigenvalue ties are ordered by
descending lexicographic comparison of the sign-fixed eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotSymmetric

SYMMETRY_TOL = 1e-10
TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigenvectors and non-increasing, non-negative eigenvalues.

    u[:, i] is the eigenvector for lam[i]; u @ diag(lam) @ u.T reconstructs
    the (PSD up to roundoff) input.
    """

    u: np.ndarray
    lam: np.ndarray


def eigendecompose_symmetric(a) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix, canonicalized and clamped.

    Raises
    ------
    NotSymmetric
        If max |a - a.T| exceeds 1e-10.
    NonFinite
        If any entry is NaN or infinite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(float("nan"))
    if not np.isfinite(a).all():
        raise NonFinite()
    asym = float(np.abs(a - a.T).max()) if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(asym)

    w, v = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]

    v = _fix_signs(v)
    w, v = _order_ties(w, v)
    np.maximum(w, 0.0, out=w)
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(u=v, lam=w)


def _fix_signs(v: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    return v * np.where(lead < 0.0, -1.0, 1.0)


def _order_ties(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Groups are chained: adjacent eigenvalues within TIE_REL_TOL * lam_max.
    n = w.shape[0]
    if n == 0:
        return w, v
    tol = TIE_REL_TOL * max(abs(w[0]), abs(w[-1]))
    out_v = v.copy()
    start = 0
    for i in range(1, n + 1):
        if i == n or w[i - 1] - w[i] > tol:
            if i - start > 1:
                cols = sorted(range(start, i), key=lambda j: tuple(v[:, j]), reverse=True)
                out_v[:, start:i] = v[:, cols]
            start = i
    return w, out_v
