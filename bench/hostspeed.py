"""Scaling measured times to a reference host speed.

On a shared 2-vCPU cloud host (Xeon) the speed of this code changed by up to
~1.7x over seconds to minutes, as other tenants' load on the shared cores
came and went, which moved raw times between runs by more than the
benchmark's bounds.  So a fixed reference kernel that mirrors the
workload's hot loop (it never calls dqwalk) is timed between the measured
operations, for CAL_SHARE of their time, and each measured time is reported
as

    raw time * CAL_REF_S[kernel] / (mean kernel time within CAL_WINDOW_S of it),

i.e. in seconds at the host speed where the kernel takes CAL_REF_S.  There
are two kernels because the drift does not slow every kind of work alike: in
trials, stretches where small-array numpy and interpreter work ran slow had
the large-array oracle running fast.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

CAL_REF_S = {"small-arrays": 3e-4, "large-arrays": 1.2e-3}
CAL_SHARE = 0.05
CAL_WINDOW_S = 1.0


def _small_arrays_kernel() -> None:
    """Batched 4x4 products on a short momentum axis, plus a Python loop:
    the moment engine's per-step work and the CLI's per-call overhead."""
    mats = np.full((64, 4, 4), 0.25 + 0.0j)
    vecs = np.ones((64, 4), dtype=complex)
    for _ in range(20):
        vecs = np.matmul(mats, vecs[..., None])[..., 0]
    total = 0
    for i in range(1500):
        total += i * i


# Allocated once: allocating per call would time the allocator's state, and
# the 2 MB they hold is part of every oracle-walk run's peak RSS alike.
_RHO = np.ones((128, 2, 128, 2), dtype=complex)
_OUT = np.zeros((130, 2, 130, 2), dtype=complex)


def _large_arrays_kernel() -> None:
    """Shifted slice updates of a (n, 2, n, 2) density matrix: the oracle's
    step."""
    n = _RHO.shape[0]
    for lo in (0, 1, 2):
        _OUT[lo:lo + n, 0, :n, :] += 0.5 * _RHO[:, 1, :, :]
        _OUT[:n, :, lo:lo + n, 1] += 0.5 * _RHO[:, :, :, 0]


_KERNELS = {"small-arrays": _small_arrays_kernel, "large-arrays": _large_arrays_kernel}


class HostSpeed:
    """Samples a reference kernel in proportion to the time measured."""

    def __init__(self, kernel: str) -> None:
        self._kernel = _KERNELS[kernel]
        self._ref = CAL_REF_S[kernel]
        self.stamps: list[float] = []
        self.samples: list[float] = []
        self._owed = 0.0

    def after(self, measured: float) -> None:
        """Call after each measured operation, outside its timed region."""
        self._owed += CAL_SHARE * measured
        while self._owed > 0:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.stamps.append(end)
            self.samples.append(end - start)
            self._owed -= end - start

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to reference speed."""
        lo = bisect.bisect_left(self.stamps, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + CAL_WINDOW_S)
        if hi <= lo:
            # A stall longer than the window pushed the samples taken right
            # after the operation out of it: use the nearest ones instead.
            lo, hi = max(lo - 1, 0), hi + 1
        return self._ref / statistics.fmean(self.samples[lo:hi])
