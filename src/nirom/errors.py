"""Exception hierarchy shared across the toolkit.

Plain argument errors (bad stride, dimension mismatch, out-of-range rank)
raise the builtin ``ValueError``; the classes below cover everything that
is not a simple bad argument.
"""


class NiromError(Exception):
    """Base class for all toolkit-specific errors."""


class FormatError(NiromError):
    """A file does not parse under its declared format (bad magic, truncated
    payload, fields that build no valid object)."""


class ValidationError(NiromError, ValueError):
    """Loaded or constructed data violates a type invariant (non-finite
    entries, non-monotone time stamps). A ValueError, so callers that
    reject bad arguments catch it too."""


class NumericalError(NiromError):
    """A numerical procedure failed: eigensolver did not converge,
    factorization failed after regularization, non-finite state."""


class FitError(NiromError):
    """Model fitting is impossible for the given data, e.g. duplicate
    interpolation centers."""


class SolverError(NiromError):
    """ODE integration failed: step budget exhausted, or adjoint/forward
    state mismatch."""


class TrainingError(NiromError):
    """Training diverged (non-finite loss)."""


class ScalingError(NiromError):
    """A component has zero range and cannot be mapped to [-1, 1]."""


class ConfigError(NiromError):
    """Pipeline configuration is invalid; message carries the offending
    key path."""
