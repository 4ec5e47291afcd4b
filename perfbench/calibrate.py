"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the same code runs at very different speeds over minutes:
on the 2-vCPU machine the benchmark was defined on, ``reference`` runs took
from 3.0 s to 7.4 s and ``desk_diffusion`` runs from 9.9 s to 24.4 s within
an hour, CPU time tracking wall time and no steal time reported. In 20
minutes of runs of all three workloads in turn, each with this kernel (at
twice its loop counts) timed just before and after it, the IQR/median spread
of medians over four consecutive runs fell from 16.7% to 9.2% on ``reference``, 8.7% to 7.5% on
``desk_select`` and 8.7% to 8.1% on ``desk_diffusion`` when each run time was
divided by the kernel's time.

The kernel does a fixed amount of the three kinds of work the workloads do,
through numpy alone (nothing from stratacast, so a change to the program
cannot change it): interpreted steps on a 32-element state (``reference``
rollout), 1-row products through a 2,049 x 64 and a 64 x 1,024 layer
(``toy_diffusion`` sampling) and one SVD of a 600 x 1,024 matrix (PCA).
"""

from __future__ import annotations

import time

# The kernel's time on the machine the benchmark was defined on (2-vCPU
# x86_64, Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread)
# in its faster stretches. Times scaled by ``REF_S / kernel time`` read as
# seconds on a host where the kernel takes this long.
REF_S = 0.45

_DATA = None


def _data():
    global _DATA
    if _DATA is None:
        import numpy as np

        rng = np.random.default_rng(0)
        _DATA = (
            rng.standard_normal((32, 32)) * 0.1,
            rng.standard_normal((2049, 64)),
            rng.standard_normal((64, 1024)),
            rng.standard_normal((600, 1024)),
        )
    return _DATA


def kernel() -> None:
    import numpy as np

    step, w1, w2, m = _data()
    x = np.zeros(32)
    acc = 0.0
    for _ in range(24_000):
        x = step @ x + 0.1
        acc += float(x[0])
    for i in range(600_000):
        acc += i * i % 7
    v = np.ones(2049)
    for _ in range(3_000):
        np.tanh(v @ w1) @ w2
    np.linalg.svd(m, full_matrices=False)


def timed() -> float:
    """Wall seconds of one kernel call."""
    _data()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
