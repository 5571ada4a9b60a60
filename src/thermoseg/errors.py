"""The package's only exception classes.

Every module raises ValidationError for a bad input (CLI exit code 2) and
ComputeError for a failure during numeric work (exit code 3); the message
says where, so no module derives a class of its own.
"""


class ThermosegError(Exception):
    pass


class ValidationError(ThermosegError):
    """A bad input, at `line` of the text file being read when known;
    `path` is that file once `keyfile.reading` has named it."""
    path = None

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ComputeError(ThermosegError):
    pass
