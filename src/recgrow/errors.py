"""Exception hierarchy shared across the package."""


class RecgrowError(Exception):
    """Base class for all recgrow-specific errors."""


class InvalidParamsError(RecgrowError, ValueError):
    """Raised when the input fails a validity condition: the CLI's exit code 2.

    Built from the failing ``ValidationReport``, kept in ``report``, or from a
    message (``report`` is then None).
    """

    def __init__(self, report):
        if isinstance(report, str):
            self.report = None
            super().__init__(f"invalid parameters: {report}")
            return
        self.report = report
        names = ", ".join(name for name, _ in report.violations)
        super().__init__(f"invalid parameters, failed condition(s): {names}")


class CapExceededError(RecgrowError):
    """Requested index exceeds the configured evaluation cap.

    This is resource protection, not a mathematical failure: term sizes grow
    doubly exponentially, so the cap bounds memory, not validity.
    """


class ToleranceUnachievableError(RecgrowError):
    """The requested tolerance would exceed the working precision budget."""


class NonIntegerParamsError(RecgrowError, ValueError):
    """An operation restricted to integer coefficients got non-integers."""


class CertificateError(RecgrowError):
    """A certified inequality failed its exact check.

    This signals a fault in the library, not bad input, so the CLI reports it
    with its own exit code (4), never as invalid parameters or a cap failure.
    """
