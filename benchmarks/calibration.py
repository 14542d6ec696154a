"""Op times calibrated against a fixed kernel, for a machine whose speed drifts.

On a small shared virtual machine the speed of a vCPU changes by up to
1.8x for seconds to minutes at a time.  The guest sees no steal time, and a plain
Python loop slows down together with everything else, so the cause is the
host, not the program.  A run's raw medians then depend on how much of it
fell into a fast spell, and two sets of runs of the same code disagree by
more than any useful bound.

So every op is also compared with a fixed kernel of small numpy calls that
runs right before and right after it::

    calibrated = wall * REF_KERNEL_S / mean(kernel before, kernel after)

which is the op's time on a machine where the kernel takes ``REF_KERNEL_S``.
The kernel is the benchmark's own code and does not change with the
library, so a faster or slower library shows in full, while most of the
machine's drift cancels out (what is left is a few percent from run to
run).  Set-up times are calibrated the same way, against the
median of a few kernel runs right after the set-up.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: About the seconds the kernel takes on its own on the machine the
#: benchmark was tuned on (a 2-vCPU Xeon virtual machine), so calibrated
#: times are of the order of wall times there (between ops the kernel tends
#: to take longer than on its own).  Any fixed value would do; changing
#: it rescales every calibrated metric.
REF_KERNEL_S = 4e-4
#: Loop lengths of the kernel's two halves, which take about the same time:
#: together about 0.4 ms, little next to an op.
MATRIX_STEPS = 20
SAMPLE_STEPS = 6
#: Kernel runs whose median calibrates one set-up.
SETUP_KERNEL_RUNS = 15

_MATRIX = np.random.default_rng(0).normal(size=(16, 16)) * 0.25 + 0j
_AXIS = np.array([0.3, 0.5, 0.81])
_POINTS = np.random.default_rng(1).normal(size=(4, 3))


def kernel() -> float:
    """Seconds one run of the calibration kernel takes.

    Its two halves are the two kinds of work in the library's calls: small
    complex matrix products, and a sampling loop of small random draws,
    phases and normalisations like the detection-window Monte Carlo's.  The
    two slow down by different factors on a slow stretch of the machine; with
    the matrix half alone, window-mc's calibrated medians still spread by
    about 10% from run to run.
    """
    t0 = time.perf_counter()
    x = _MATRIX
    for _ in range(MATRIX_STEPS):
        x = (x @ _MATRIX) * 0.01 + np.abs(x[:1, :1])
    rng = np.random.default_rng(7)
    amps = np.ones(16, dtype=complex)
    for _ in range(SAMPLE_STEPS):
        points = _POINTS + np.outer(rng.normal(0.0, 1.0, size=4), _AXIS)
        phases = np.exp(1j * (points @ (_AXIS * math.cos(rng.uniform(-1.0, 1.0)))))
        amps = (amps.reshape(4, 4) * phases[:, None]).ravel()
        amps = amps / np.linalg.norm(amps)
    return time.perf_counter() - t0


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` seconds measured between kernel runs of ``before`` and ``after`` seconds."""
    return wall * REF_KERNEL_S / (0.5 * (before + after))


def calibrated_setup(wall: float) -> float:
    """``wall`` seconds of set-up, calibrated by kernel runs made right after it."""
    return wall * REF_KERNEL_S / statistics.median(
        kernel() for _ in range(SETUP_KERNEL_RUNS))
