"""Machine-speed calibration for timings on a shared, noisy host.

The host this benchmark was built on runs other tenants' work on the same
cores: the speed of pure-Python code drifts by up to a factor of two over
tens of seconds, and a 10-second run cannot average that out. So every
timed interval is paired with runs of a fixed calibration kernel taken
right around it, and reported at reference speed:

    reported = measured * REFERENCE_S / (median nearby kernel time)

REFERENCE_S is a constant: the kernel's time on an uncontended core of the
machine the baselines were recorded on (Intel Xeon, 2 vCPUs). The kernel
does the same kind of interpreter work as polycenter (frozen dataclasses
with a validating ``__post_init__``, float arithmetic, ``math.hypot``) and
imports nothing from it, so no change to the program moves it. Raw
timings are printed next to the reported ones.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.25e-3
# Whole-process timings (cold starts) are scaled the same way by bare
# interpreter starts (``python -c pass``) run between them, which track
# process creation and start-up better than the kernel does; this is their
# reference time.
START_REFERENCE_S = 0.065
# Kernel samples on each side of a timed interval used for its factor.
NEIGHBOURS = 5

_POINTS = tuple((math.cos(0.7 * i) * (1 + 0.01 * i), math.sin(0.7 * i)) for i in range(48))


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


def kernel() -> float:
    pts = [_Point(x, y) for x, y in _POINTS]
    total = 0.0
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            total += math.hypot(a.x - b.x, a.y - b.y)
    return total


def time_kernel(runs: int = 1) -> list[float]:
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def at_reference(measured: float, kernel_times: list[float],
                 reference: float = REFERENCE_S) -> float:
    """A measured interval scaled to reference speed."""
    return measured * reference / statistics.median(kernel_times)


def interleaved(latencies: list[float], kernel_times: list[float]) -> list[float]:
    """Scale each latency by the kernel runs around it.

    kernel_times[k] was taken just before latency k and kernel_times[k+1]
    just after, so there is one more kernel time than latencies.
    """
    n = len(kernel_times)
    return [
        at_reference(lat, kernel_times[max(0, k + 1 - NEIGHBOURS): min(n, k + 1 + NEIGHBOURS)])
        for k, lat in enumerate(latencies)
    ]
