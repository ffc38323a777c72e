"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the speed available to one process drifts by a fifth
or more over tens of seconds, so the wall time of the same pass differs
from one run to the next by more than the regressions the benchmark must
catch. The drift is common to all code running in the process. A fixed
reference computation, timed right before and after each measured
interval, measures it: it mixes interpreter work with small LAPACK calls,
as the program does, and uses nothing from `acs_verify`, so no change to
the program can change it.

A time metric is reported in seconds at the reference speed: the measured
seconds times REFERENCE_S divided by the mean of the two calibration times
around the interval. REFERENCE_S is the calibration's typical duration on
the machine the bounds were set on (see README.md), so the scaled values
read close to raw seconds there. The raw seconds are kept in the result
file.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# typical wall seconds of one calibration() on the machine the bounds were set on
REFERENCE_S = 0.065

# bound at import, so a tracer that patches numpy.linalg later does not see them
_svd, _qr = np.linalg.svd, np.linalg.qr
_MATRICES = [m + 1j * n for m, n in zip(
    np.random.default_rng(0).standard_normal((40, 8, 8)),
    np.random.default_rng(1).standard_normal((40, 8, 8)))]


def _chunk() -> None:
    for _ in range(15):
        for m in _MATRICES:
            _svd(m)
            _qr(m)
        total = 0
        for i in range(20000):
            total += i * i


def calibration(min_seconds: float = 0.0) -> tuple[float, float]:
    """Run the reference computation at least once and until `min_seconds`
    have passed; returns the mean (wall s, cpu s) of one run of it."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    count = 0
    while True:
        _chunk()
        count += 1
        wall = time.perf_counter() - wall0
        if wall >= min_seconds:
            return wall / count, (time.process_time() - cpu0) / count


def scaled(samples: list[float], cals: list[float]) -> list[float]:
    """Each sample i, taken between calibrations i and i+1, in seconds at
    the reference speed."""
    if len(cals) != len(samples) + 1:
        raise ValueError("need one calibration before and after every sample")
    return [s * REFERENCE_S / ((cals[i] + cals[i + 1]) / 2.0)
            for i, s in enumerate(samples)]


def scaled_median(samples: list[float], cals: list[float]) -> float:
    return statistics.median(scaled(samples, cals))
