"""Dense data-matrix model, per-sample standardization, and the sample
correlation matrix.

Samples are rows. Standardization centers and scales each row across its
features, and the N x N sample correlation matrix holds Pearson correlations
between sample rows. All values are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantRow,
    LabelLengthMismatch,
    MalformedRow,
    NonFinite,
    TooSmall,
    Unreadable,
)


@dataclass(frozen=True)
class DataMatrix:
    """Validated dense real matrix with optional ground-truth labels.

    Attributes
    ----------
    values : (N, p) ndarray
        Rows are samples, columns are features. Always finite, N >= 2, p >= 2.
    labels : (N,) int ndarray or None
        Ground-truth cluster labels, non-negative integers.
    name : str
        Free-text identifier echoed into reports.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StandardizedView:
    """Per-row standardization of a DataMatrix plus its sample correlation.

    Attributes
    ----------
    mu : (N,) ndarray
        Row means over the p features.
    sigma : (N,) ndarray
        Row standard deviations, unbiased (p - 1) divisor. Strictly positive.
    y : (p, N) ndarray
        Standardized matrix; column k is (row_k - mu_k) / sigma_k.
    r_samples : (N, N) ndarray
        Sample correlation matrix with unit diagonal, symmetric and positive
        semi-definite up to roundoff. Equals y.T @ y / (p - 1).
    """

    mu: np.ndarray
    sigma: np.ndarray
    y: np.ndarray
    r_samples: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.r_samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.y.shape[0]


def validate(raw, labels=None, name: str = "") -> DataMatrix:
    """Check a raw matrix (and optional labels) and wrap it as a DataMatrix.

    Raises
    ------
    TooSmall
        If the matrix has fewer than 2 rows or 2 columns.
    NonFinite
        On the first NaN or infinity, with its (row, col) position.
    LabelLengthMismatch
        If labels are present with length != N.
    """
    values = np.array(raw, dtype=float, copy=True)
    if values.ndim != 2:
        raise TooSmall(f"expected a 2-d matrix, got ndim={values.ndim}")
    n, p = values.shape
    if n < 2 or p < 2:
        raise TooSmall(f"need at least 2x2, got {n}x{p}")
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFinite(int(row), int(col))
    lab = None
    if labels is not None:
        lab = np.asarray(labels)
        if lab.ndim != 1 or lab.shape[0] != n:
            raise LabelLengthMismatch(
                f"got {lab.shape[0] if lab.ndim == 1 else lab.shape} labels for {n} samples"
            )
        if not np.issubdtype(lab.dtype, np.integer):
            as_int = lab.astype(int)
            if not np.array_equal(as_int, lab):
                raise LabelLengthMismatch("labels must be integers")
            lab = as_int
        if (lab < 0).any():
            raise LabelLengthMismatch("labels must be non-negative")
        lab = lab.astype(int, copy=True)
        lab.setflags(write=False)
    values.setflags(write=False)
    return DataMatrix(values=values, labels=lab, name=name)


def standardize(data: DataMatrix) -> StandardizedView:
    """Center and scale each sample row, and build the sample correlation.

    Row k gets mean mu_k over its p features and standard deviation sigma_k
    with the unbiased (p - 1) divisor. The correlation matrix is normalized
    by (p - 1) so its diagonal is exactly 1.

    Raises
    ------
    ConstantRow
        Listing every row index with zero variance.
    """
    x = data.values
    n, p = x.shape
    mu = x.mean(axis=1)
    centered = x - mu[:, None]
    var = (centered * centered).sum(axis=1) / (p - 1)
    if (var <= 0.0).any():
        raise ConstantRow(np.flatnonzero(var <= 0.0))
    sigma = np.sqrt(var)
    d_inv = 1.0 / sigma
    z = centered * d_inv[:, None]          # (N, p), standardized rows
    r = (z @ z.T) / (p - 1)
    r = (r + r.T) / 2.0                    # kill gemm roundoff asymmetry
    for a in (mu, sigma, r):
        a.setflags(write=False)
    y = z.T
    y.setflags(write=False)
    return StandardizedView(mu=mu, sigma=sigma, y=y, r_samples=r)


def load_matrix(path, name: str | None = None) -> np.ndarray:
    """Read a comma-separated numeric matrix, one sample per line.

    UTF-8, LF or CRLF line endings. A single leading header line is skipped
    when every one of its fields fails to parse as a number. Returns the raw
    float array; call validate() to obtain a DataMatrix.
    """
    rows: list[list[float]] = []
    lines = [ln for ln in _read_lines(path) if ln.strip() != ""]
    if not lines:
        raise MalformedRow(f"{path}: empty file")
    start = 0
    first = [f.strip() for f in lines[0].split(",")]
    if first and all(not _is_number(f) for f in first):
        start = 1
    for i, ln in enumerate(lines[start:], start=start + 1):
        fields = [f.strip() for f in ln.split(",")]
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise MalformedRow(f"{path}:{i}: unparseable numeric row") from None
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise MalformedRow(
                f"{path}:{i}: expected {len(rows[0])} fields, got {len(rows[-1])}"
            )
    return np.array(rows, dtype=float)


def load_labels(path) -> np.ndarray:
    """Read an integer label file, one label per line."""
    labels: list[int] = []
    for i, ln in enumerate(_read_lines(path), start=1):
        s = ln.strip()
        if not s:
            continue
        try:
            labels.append(int(s))
        except ValueError:
            raise MalformedRow(f"{path}:{i}: expected one integer per line") from None
    return np.array(labels, dtype=int)


def _read_lines(path) -> list[str]:
    """Lines of a UTF-8 text file without their line endings.

    Raises Unreadable when the file cannot be opened or read.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=None) as fh:
            return [ln.rstrip("\r\n") for ln in fh]
    except OSError as exc:
        raise Unreadable(f"{path}: {exc.strerror or exc}") from None


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True
