"""recgrow: exact evaluation and certified growth bounds for the quadratic
recursion D(n+1) = a + b*D(n)^2, plus its power-law and matrix relatives."""

from .errors import (
    CapExceededError,
    CertificateError,
    InvalidParamsError,
    NonIntegerParamsError,
    RecgrowError,
    ToleranceUnachievableError,
)
from .recurrence import (
    DEFAULT_CAP,
    Params,
    SequenceTable,
    ValidationReport,
    evaluate,
    is_monotone,
    validate_params,
)
from .bounds import (
    BoundCertificate,
    ConvergenceProfile,
    certify,
    convergence_profile,
    integer_envelope,
    lower_bound,
    q_factor,
    ratio,
    upper_bound,
)
from .growth import (
    BenchmarkRow,
    GrowthEnclosure,
    compare_to_benchmark,
    doubling_benchmark,
    growth_enclosure,
    log_log_index,
)
from .general import (
    EnvelopePair,
    PowerFamily,
    PowerNonlinearity,
    closed_form_lower,
    envelope,
    iterate_family,
    verify_sandwich,
)
from .matrixrec import (
    MATRIX_DEFAULT_CAP,
    MatrixParams,
    evaluate_matrix,
    max_row_sum,
    scalar_envelope,
)
from .nsmodel import (
    CostProjection,
    NsModel,
    cost_projection,
    published_3d_discrepancies,
    summand_budget,
    term_count,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkRow",
    "BoundCertificate",
    "CapExceededError",
    "CertificateError",
    "ConvergenceProfile",
    "CostProjection",
    "DEFAULT_CAP",
    "EnvelopePair",
    "GrowthEnclosure",
    "InvalidParamsError",
    "MATRIX_DEFAULT_CAP",
    "MatrixParams",
    "NonIntegerParamsError",
    "NsModel",
    "Params",
    "PowerFamily",
    "PowerNonlinearity",
    "RecgrowError",
    "SequenceTable",
    "ToleranceUnachievableError",
    "ValidationReport",
    "certify",
    "closed_form_lower",
    "compare_to_benchmark",
    "convergence_profile",
    "cost_projection",
    "doubling_benchmark",
    "envelope",
    "evaluate",
    "evaluate_matrix",
    "growth_enclosure",
    "integer_envelope",
    "is_monotone",
    "iterate_family",
    "log_log_index",
    "lower_bound",
    "max_row_sum",
    "published_3d_discrepancies",
    "q_factor",
    "ratio",
    "scalar_envelope",
    "summand_budget",
    "term_count",
    "upper_bound",
    "validate_params",
    "verify_sandwich",
]
