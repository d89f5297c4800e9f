"""Exception hierarchy shared across the toolkit, one class per CLI exit code:

    2  ConfigError, or a plain ValueError: a bad configuration or argument
    3  NumericalError: a numerical procedure failed
    4  FormatError or ValidationError (or an OSError): a bad file or I/O

Plain argument errors (bad stride, dimension mismatch, out-of-range rank)
raise the builtin ``ValueError``. ``NiromError`` is only the common base;
nothing raises it itself.
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
    """A numerical procedure failed or cannot proceed: a factorization that
    failed after regularization, duplicate interpolation centers, a
    zero-range component that cannot be scaled, an exhausted step budget,
    non-finite state, training loss or parameters."""


class ConfigError(NiromError):
    """Pipeline configuration is invalid; message carries the offending
    key path."""
