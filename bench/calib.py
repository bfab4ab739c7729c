"""A fixed reference kernel that measures how fast the machine runs right now.

The kernel shares no code with entrokit.  Its mix follows the workloads:
scalars pushed through small numpy arrays with masks and a shift loop,
numpy on medium and long arrays, and rank-one updates of a small matrix.
Timed between ops, it tells how much of a change in op latency came from
the machine rather than from the program.
"""

import math
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_MEDIUM = _RNG.random(2048) + 0.5
_LONG = _RNG.random(200_000) + 0.5
_MATRIX = _RNG.random((128, 128))
_COL = _RNG.random(128)


def _shifted_log_sum(x):
    """A scalar through array code: validate, shift up to 10, sum the logs."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise ValueError(f"bad argument {x}")
    z = a.copy()
    acc = np.zeros_like(z)
    while np.any(z < 10.0):
        mask = z < 10.0
        acc[mask] -= np.log(z[mask])
        z[mask] += 1.0
    return float(((z - 0.5) * np.log(z) - z + acc)[0])


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel (about 4 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30):
        acc += _shifted_log_sum(0.5 + 0.3 * i)
    for _ in range(10):
        acc += float(np.exp(-_MEDIUM).sum())
    acc += float(np.log(_LONG).sum())
    m = _MATRIX.copy()
    for _ in range(10):
        m -= np.outer(_COL, _COL) * 1e-3
    acc += float(m[0, 0])
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return time.perf_counter() - t0
