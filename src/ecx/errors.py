"""Exception hierarchy and CLI exit-code mapping.

Exit codes: 0 success, 2 bad input data, 3 numerical failure,
4 I/O failure (OSError, mapped by the CLI itself).
"""


class EcxError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class InputDataError(EcxError):
    """Missing, malformed, or semantically invalid input."""

    exit_code = 2


class DegenerateMatrixError(InputDataError):
    """Binarization (or validation) left no usable rows or columns."""


class NumericalError(EcxError):
    """A numerical procedure could not produce a trustworthy result."""

    exit_code = 3


class DegenerateSpectrumError(NumericalError):
    """The second eigenvalue cannot be separated from its neighbours."""


class NonConvergenceError(NumericalError):
    """A solver's result misses its tolerance, e.g. an eigenpair residual."""


class DisconnectedGraphError(NumericalError):
    """The positive-similarity graph does not span all nodes."""
