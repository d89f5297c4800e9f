"""Backend name for the benchmark's report.

The kernels are plain numpy; there is no other backend. ``perfbench`` reads
``USE_NUMBA`` and ``backend_name`` from here, and no module of the package
imports this one.
"""

USE_NUMBA = False


def backend_name() -> str:
    return "numpy"
