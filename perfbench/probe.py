"""Machine-speed probe: a fixed reference load timed between pipeline stages.

On a shared host the speed of one vCPU drifts between about 1x and 2x of
its best, in phases of seconds to minutes, with load from outside the
guest; CPU time drifts with wall time, so this is not scheduling. A stage's
wall time mixes that drift with the program's cost. The probe is a fixed
amount of work of the kinds the pipeline does that calls no nirom code.
Scaling a stage's wall time by the probe's reference time over the probe's
time next to it gives the time at the reference machine speed: a change to
the program moves it, a change of the machine's load mostly does not.

One pass times two kinds of reference load, and each stage of a workload
is scaled by the one that resembles its work (see workloads.py):

- ``scalar``: interpreter bytecode and small numpy calls on one thread, like
  the NODE, RBF marching and report stages of small fields;
- ``full``: the same plus a two-thread BLAS GEMM and a memory stream, like
  the Gram SVD, DMD, reconstruction and I/O stages. A multi-threaded GEMM
  also slows when the other vCPU is loaded, which single-threaded work does
  not feel, so it is kept out of the scalar load.
"""

import time

import numpy as np

#: probe time per kind at the reference speed: the quiet-phase probe time
#: on a 2-vCPU Intel Xeon VM with 2 BLAS threads
REFERENCE_S = {"scalar": 0.016, "full": 0.040}

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 2))
_B = np.zeros(64)
_X = np.ones(2)
_GRAM = _rng.standard_normal((4000, 200))
_STREAM = np.ones(4_000_000)


def _interpreter():
    s = 0
    for i in range(120_000):
        s += i * i
    return s


def _small_numpy():
    # one tanh layer forward and its transpose product, as in a NODE step
    for _ in range(2000):
        np.tanh(_W @ _X + _B) @ _W


def _gemm():
    for _ in range(2):
        _GRAM.T @ _GRAM


def _stream():
    for _ in range(2):
        _STREAM * 1.0001


def probe_seconds() -> dict:
    """Wall time of one pass of each kind of reference load; the full
    load's pass includes the scalar one."""
    started = time.perf_counter()
    _interpreter()
    _small_numpy()
    scalar = time.perf_counter() - started
    _gemm()
    _stream()
    return {"scalar": scalar, "full": time.perf_counter() - started}
