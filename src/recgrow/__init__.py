"""recgrow: exact evaluation and certified growth bounds for the quadratic
recursion D(n+1) = a + b*D(n)^2, plus its power-law and matrix relatives.

Importing the package loads none of its modules: each public name is imported
from its home module on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

__version__ = "0.1.0"

#: the public names of each home module
_EXPORTS = {
    "errors": "CapExceededError CertificateError InvalidParamsError NonIntegerParamsError RecgrowError "
    "ToleranceUnachievableError",
    "recurrence": "DEFAULT_CAP MATRIX_DEFAULT_CAP Params SequenceTable ValidationReport evaluate is_monotone "
    "q_factor validate_params",
    "bounds": "BenchmarkRow BoundCertificate ConvergenceProfile certify compare_to_benchmark convergence_profile "
    "doubling_benchmark integer_envelope lower_bound ratio upper_bound",
    "growth": "GrowthEnclosure growth_enclosure log_log_index",
    "general": "EnvelopePair PowerFamily PowerNonlinearity closed_form_lower envelope iterate_family verify_sandwich",
    "matrixrec": "MatrixParams evaluate_matrix max_row_sum scalar_envelope",
    "nsmodel": "CostProjection NsModel cost_projection published_3d_discrepancies summand_budget term_count",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
