"""Orthogonal subspace clustering toolkit.

Pipeline: per-sample standardization -> sample correlation matrix ->
eigendecomposition -> cumulative-variance dimension selection -> loading
matrix and low-dimensional embedding -> k-means. Plus cluster-agreement
metrics, a synthetic subspace lab, and an experiment harness; see the CLI
entry point `osc`.
"""

__version__ = "0.1.0"

from .errors import (
    AllZero,
    ConstantRow,
    Empty,
    InfeasibleDims,
    LabelLengthMismatch,
    LabelsRequired,
    LengthMismatch,
    MalformedRow,
    NonFinite,
    NotEnoughCategories,
    NotSymmetric,
    OscError,
    TooFew,
    TooFewPoints,
    TooSmall,
    Unreadable,
)
from .factor import FactorModel, OscReport, cumulative_variance, fit, run_osc, select_dimension
from .kmeans import ClusterResult, KMeansConfig, kmeans, write_objective_trace
from .matrix import (
    DataMatrix,
    StandardizedView,
    load_labels,
    load_matrix,
    standardize,
    validate,
)
from .metrics import (
    ContingencyTable,
    MetricsReport,
    acc,
    ari,
    contingency_table,
    evaluate,
    hungarian,
    nmi,
)
from .spectral import SpectralDecomposition, eigendecompose_symmetric
from .subspace_lab import (
    DecayStudy,
    SubspaceModel,
    SubspaceSample,
    TheoremVerdict,
    error_decay_study,
    generate,
)

__all__ = [
    "__version__",
    "AllZero", "ConstantRow", "Empty", "InfeasibleDims", "LabelLengthMismatch",
    "LabelsRequired", "LengthMismatch", "MalformedRow", "NonFinite",
    "NotEnoughCategories", "NotSymmetric", "OscError", "TooFew", "TooFewPoints",
    "TooSmall", "Unreadable",
    "DataMatrix", "StandardizedView", "validate", "standardize",
    "load_matrix", "load_labels",
    "SpectralDecomposition", "eigendecompose_symmetric",
    "FactorModel", "OscReport", "cumulative_variance", "select_dimension",
    "fit", "run_osc",
    "KMeansConfig", "ClusterResult", "kmeans", "write_objective_trace",
    "ContingencyTable", "MetricsReport", "contingency_table", "hungarian",
    "acc", "nmi", "ari", "evaluate",
    "SubspaceModel", "SubspaceSample", "TheoremVerdict", "DecayStudy",
    "generate", "error_decay_study",
]
