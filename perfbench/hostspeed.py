"""Host speed probe: a fixed reference kernel timed between preset calls.

The benchmark's host is a shared virtual machine whose per-CPU speed
switches between states about 1.7x apart, for seconds at a time, and in
shares that drift over minutes (see NOTES.md). A 35 s run therefore sees a
different mix of states than the next one, and its raw times swing by more
than any bound worth having. The probe measures the state: it times a
fixed kernel right before and right after each preset call, on the same
CPU, and the call's time is divided by the probe's slowdown against the
kernel's reference time. Calls are kept short (about a second, except
ratio-sweep) so that a state rarely changes during one.

The kernels import only NumPy and SciPy, never the package, so no change
to the package can move them. Each workload uses the kernel whose work is
most like its own, because the host's states slow different kinds of work
by different factors:

- `interp`, for `flows` and `toy`: in about equal time, Python calls into
  SciPy's small-matrix wrappers and tiny NumPy operations, and NumPy
  arithmetic over arrays of 2000 entries.
- `matrix`, for `sweep`: a matrix-vector product and a broadcast product
  over an 800 x 200 matrix, as in the per-sample gradients of `losses`,
  and first touches of freshly mapped pages, which the n x p temporaries
  of `losses` cause.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

REPS = 9
PAGE = mmap.PAGESIZE

_rng = np.random.default_rng(20231017)
_S = _rng.standard_normal((3, 3))
_S = _S @ _S.T + 3.0 * np.eye(3)
_b = _rng.standard_normal(3)
_x = _rng.standard_normal(2000)
_y = _rng.standard_normal(2000)
_M = _rng.standard_normal((800, 200))
_r = _rng.standard_normal(200)
_G = np.empty_like(_M)


def _step(x: float) -> float:
    return 0.5 * x + 1.0


def _interp() -> float:
    s = 0.0
    for _ in range(8):
        c = cho_factor(_S)
        x = cho_solve(c, _b)
        y = np.exp(x - x.max())
        s = _step(s) + float(y.sum() / (1.0 + y @ y))
    for _ in range(20):
        z = np.exp(-np.abs(_x)) * _y + _x * _x
        s += float(z.sum())
    return s


def _matrix() -> float:
    np.multiply(_M, (_M @ _r)[:, None], out=_G)
    s = float(_G.sum())
    with mmap.mmap(-1, 256 * PAGE) as buf:
        for off in range(0, len(buf), PAGE):
            buf[off] = 1
    return s


# Each kernel's median time per repetition on the baseline host (2 vCPUs
# of an Intel Xeon at 2.0 GHz nominal) in its fast state. They only fix
# the scale: adjusted times are seconds at these kernel speeds.
KERNELS = {"interp": (_interp, 5.0e-4), "matrix": (_matrix, 1.0e-3)}


class Probe:
    """Times one kernel; `slowdown` turns two samples into the factor a
    call between them is divided by."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._fn, self.reference_s = KERNELS[kernel]
        for _ in range(20):  # warm caches and lazy imports
            self.sample()

    def sample(self) -> float:
        """Median time of REPS kernel repetitions, in seconds."""
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def slowdown(self, before: float, after: float) -> float:
        return (before + after) / (2 * self.reference_s)
