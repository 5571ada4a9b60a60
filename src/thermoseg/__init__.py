"""Flash-thermography delamination screening toolkit.

Pipeline: synthetic or recorded frame sequences -> per-pixel log-log
polynomial fits -> feature datasets -> dense-network classifier ->
segmentation maps and confusion metrics. See README.md for the CLI.
"""

from .errors import ComputeError, ThermosegError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "ComputeError",
    "ThermosegError",
    "ValidationError",
    "__version__",
]
