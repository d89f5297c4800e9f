"""Numba backend selection for the hot kernels.

The sequential latent-space loops (RBF forecasting, MLP rollouts inside the
neural-ODE trainer) are written once, in numba-compatible vectorized numpy,
and compiled with ``@njit`` when the backend is active. With the backend off
the very same functions run as plain numpy, so both paths share one source
of truth and can be benchmarked against each other (``perfbench/run.py``
under either ``NIROM_NUMBA`` value).

Selection is controlled by the ``NIROM_NUMBA`` environment variable, read
once at import:

* unset      -> use numba if importable, else pure numpy
* 1/true/on  -> require numba (ImportError if missing)
* 0/false/off -> pure numpy
"""

import os

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via NIROM_NUMBA=0 instead
    numba = None
    _HAVE_NUMBA = False

_FLAG = os.environ.get("NIROM_NUMBA", "").strip().lower()

if _FLAG in ("1", "true", "on", "yes"):
    if not _HAVE_NUMBA:
        raise ImportError("NIROM_NUMBA requested but numba is not installed")
    USE_NUMBA = True
elif _FLAG in ("0", "false", "off", "no"):
    USE_NUMBA = False
elif _FLAG == "":
    USE_NUMBA = _HAVE_NUMBA
else:
    raise ValueError(f"unrecognized NIROM_NUMBA value: {_FLAG!r}")


def maybe_njit(fn):
    """Compile ``fn`` with numba when the backend is active, else return it
    unchanged. Kernels must therefore stick to numba-supported numpy."""
    if USE_NUMBA:
        return numba.njit(cache=True)(fn)
    return fn


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
