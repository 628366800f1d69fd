"""Exception hierarchy shared by all ripstone modules.

A value that differs from the paper's is not an error: the report row that
states the claim compares it and fails.  These errors stop a computation
whose input or intermediate data breaks a requirement.
"""

from __future__ import annotations


class RipstoneError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(RipstoneError, ValueError):
    """An argument is outside the supported range or of the wrong shape."""


class StructuralError(RipstoneError):
    """Input data violates a structural requirement (connectivity, closure, maximality)."""


class PreconditionError(RipstoneError):
    """A documented precondition of an operation does not hold."""


class SearchFailure(RipstoneError):
    """A randomized search exhausted its attempt budget.

    Carries the best attempt's leftover cells so callers can inspect how
    close the search came.
    """

    def __init__(self, message: str, surplus=None, attempts: int = 0):
        super().__init__(message)
        self.surplus = list(surplus) if surplus is not None else []
        self.attempts = attempts


class FormatError(RipstoneError):
    """A text file does not conform to the documented grammar."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        detail = message
        if line is not None:
            detail = f"line {line}: {detail}"
        if token is not None:
            detail = f"{detail} (token {token!r})"
        super().__init__(detail)
        self.line = line
        self.token = token
