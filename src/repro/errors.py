"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """Raised when an input value fails validation (range, sign, sum, ...)."""


class RegistryError(ReproError, ValueError):
    """Raised for component-registry problems: unknown names or duplicates."""


class ShapeError(ReproError, ValueError):
    """Raised when an array argument has an incompatible shape."""


class FittingError(ReproError, RuntimeError):
    """Raised when a model-fitting procedure cannot produce a valid result."""


class EstimationError(ReproError, RuntimeError):
    """Raised when a traffic-matrix estimation step fails."""


class ExecutorError(ReproError, RuntimeError):
    """Raised when a sweep executor (remote workers, pools) fails as a whole."""


class TopologyError(ReproError, ValueError):
    """Raised for malformed topologies or routing requests."""


class TraceError(ReproError, ValueError):
    """Raised for malformed packet/flow traces or matching failures."""
