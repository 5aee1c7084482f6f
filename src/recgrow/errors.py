"""Exception hierarchy shared across the package; each class names its CLI exit code and stderr prefix."""


class RecgrowError(Exception):
    """Base class for all recgrow-specific errors."""

    prefix = "recgrow: "


class _UsageError(RecgrowError):
    """A command line or input document the CLI cannot read: exit code 1, printed as it is."""

    exit_code, prefix = 1, ""


class InvalidParamsError(RecgrowError, ValueError):
    """Raised when the input fails a validity condition: the CLI's exit code 2.

    Built from the failing ``ValidationReport``, kept in ``report``, or from a
    message (``report`` is then None).
    """

    exit_code = 2

    def __init__(self, report):
        if isinstance(report, str):
            self.report = None
            super().__init__(f"invalid parameters: {report}")
            return
        self.report = report
        names = ", ".join(name for name, _ in report.violations)
        super().__init__(f"invalid parameters, failed condition(s): {names}")


class CapExceededError(RecgrowError):
    """Requested index exceeds the configured evaluation cap: exit code 3.

    This is resource protection, not a mathematical failure: term sizes grow
    doubly exponentially, so the cap bounds memory, not validity.
    """

    exit_code = 3


class ToleranceUnachievableError(RecgrowError):
    """The requested tolerance would exceed the working precision budget: exit code 3."""

    exit_code = 3


class NonIntegerParamsError(RecgrowError, ValueError):
    """An operation restricted to integer coefficients got non-integers: exit code 2."""

    exit_code = 2


class CertificateError(RecgrowError):
    """A certified inequality failed its exact check.

    This signals a fault in the library, not bad input, so the CLI reports it
    with its own exit code (4), never as invalid parameters or a cap failure.
    """

    exit_code, prefix = 4, "recgrow: certificate failure: "
