"""A fixed kernel that measures how fast the shared machine runs right now.

On a shared 2-vCPU Xeon VM, throughput drifted by 20-80% over tens of
seconds, because other tenants share the host.  The benchmark therefore
times this kernel between ops and reports every time scaled to the
kernel's reference speed:

    scaled = wall time * REFERENCE_S / (median kernel time in the same pass)

Set-up probes, which run between passes, take the median scale of the run.

The kernel mixes interpreter work with small numpy calls (an outer product,
a scatter-add by xor index, rounding to integer keys), as versorlab's hot
paths do, so a slow phase stretches both alike.  It calls nothing in
versorlab: a change to versorlab moves the scaled times, not the kernel.
The raw wall times stay in the report.
"""

import statistics
import time

import numpy as np

# Median kernel time on a shared 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.005

_D = 64
_IDX = np.arange(_D)
_XOR = (_IDX[:, None] ^ _IDX[None, :]).ravel()
_SIGN = np.where(np.random.default_rng(0).random((_D, _D)) < 0.5, -1.0, 1.0)
_ROWS = np.random.default_rng(1).standard_normal((50, _D))


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    for r in range(200):
        prod = np.multiply.outer(_ROWS[r % 50], _ROWS[(7 * r) % 50]) * _SIGN
        out = np.bincount(_XOR, weights=prod.ravel(), minlength=_D)
        np.round(out / 1e-6).astype(np.int64).tobytes()
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns wall seconds into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Calibrator:
    """Times the kernel three times when at least ``every_s`` has passed
    since the last sample; called between ops, so long ops are bracketed on
    both sides."""

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.samples: list = []
        self._last = float("-inf")

    def __call__(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.every_s:
            self.samples.extend(kernel_s() for _ in range(3))
            self._last = time.perf_counter()
