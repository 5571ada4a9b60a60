"""The package's only exception classes.

Every module raises ValidationError for a bad input (CLI exit code 2) and
ComputeError for a failure during numeric work (exit code 3); the message
says where, so no module derives a class of its own.
"""


class ThermosegError(Exception):
    pass


class ValidationError(ThermosegError):
    pass


class ComputeError(ThermosegError):
    pass
