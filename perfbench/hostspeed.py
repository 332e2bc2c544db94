"""Host-speed probes, and the scaling of wall times by them.

The benchmark runs on a shared host whose speed swings by about a factor
of two within seconds, on both CPUs at once, without steal time: other
tenants slow the cores down, they do not take them away.  Raw wall times
of identical runs then differ by up to 25 % (see README.md).

A :class:`SpeedProbe` times a fixed reference kernel, exact Fraction
elimination written here and independent of quivrep, between the
workload's ops.  An op's wall time is multiplied by ``REFERENCE_S /
local``, where ``local`` is the median kernel time of the probes nearest
in time to the op (see ``SpeedProbe``).  The result reads in seconds on a host on which the
kernel takes ``REFERENCE_S``: the uncontended speed of the 2-vCPU Xeon VM
(Python 3.11) the seed baseline was measured on.  A
change to quivrep cannot change the kernel, so it moves the scaled times
by exactly its own effect.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.2e-3  # the kernel's uncontended time on the reference host
INTERVAL_S = 0.025  # at most one probe per interval


def _matrix(seed: int, n: int) -> list:
    """A fixed n x n integer matrix with entries in [-3, 3]."""
    state, rows = seed, []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(state % 7 - 3)
        rows.append(row)
    return rows


KERNEL_MATRICES = [_matrix(seed, 6) for seed in range(1, 5)]


def _rank(rows: list) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank, cols = 0, len(m[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            if m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def kernel() -> int:
    """The reference work: exact ranks of fixed small integer matrices."""
    return sum(_rank(rows) for rows in KERNEL_MATRICES)


class SpeedProbe:
    """Kernel timings taken during a run, and the scaling they give.

    ``nearest`` is how many probes around an op set its scaling.  Where the
    ops run in this process, few: the host's speed changes within a second.
    Where they run in a child, which may sit on the other CPU, the probe
    tracks only the host's slower swings, so a wider window adds less noise.
    """

    def __init__(self, nearest: int = 5):
        self.nearest = nearest
        self.times: list = []  # midpoints, ascending
        self.seconds: list = []  # kernel durations
        self._last = float("-inf")

    def probe(self) -> None:
        """Time the kernel once, with the cyclic collector off, so that the
        objects the workload keeps alive cannot slow the kernel down."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end

    def maybe(self) -> None:
        """Probe unless the last probe ended less than INTERVAL_S ago."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.probe()

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time of the probes nearest t."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - self.nearest // 2 - 1, len(self.times) - self.nearest))
        window = self.seconds[lo:lo + self.nearest]
        return REFERENCE_S / statistics.median(window)

    def scaled(self, start: float, seconds: float) -> float:
        """A wall time that began at ``start``, scaled to the reference host."""
        return seconds * self.factor(start + seconds / 2)

    def summary(self) -> dict:
        if not self.seconds:
            return {"probes": 0}
        ms = sorted(s * 1e3 for s in self.seconds)
        q1, q2, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"probes": len(ms), "kernel_ms_min": ms[0], "kernel_ms_q1": q1,
                "kernel_ms_median": q2, "kernel_ms_q3": q3, "kernel_ms_max": ms[-1],
                "probe_total_s": sum(self.seconds)}
