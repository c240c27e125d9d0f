"""Shared exception base for the package.

Every error raised deliberately by this package derives from DomcertError,
so callers (and the CLI) can catch one type and map it to an exit code.
"""


class DomcertError(Exception):
    pass


class ReasonError(DomcertError):
    """A DomcertError with a reason word, listed by each subclass."""

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)
