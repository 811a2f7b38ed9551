"""A fixed reference kernel, timed between ops to track the CPU's speed.

The reference machine is a shared VM whose CPU speed swings by up to half,
both from one second to the next and over minutes, and linemend's ops
slow down and speed up with it, so raw wall times of runs differ by more
than any change worth measuring. The kernel does a fixed amount of
interpreted Python and of numpy sorting, copying and arithmetic over
arrays of a few MB. Its inputs come from a fixed seed and it calls no
linemend code, so a change to linemend cannot move it.

Of the kinds of work tried, these two slowed down most nearly in step
with linemend's ops. Random-index gathers, closer to what the engine
does, swung 1.1 to 1.4 times as far as the ops did (as a log of the
time), so they were left out.

run.py times the kernel right before and right after every op and
scales the op's time by ``NOMINAL_S`` over the mean of the kernel times
around it: the time the op would have taken on a machine that runs the
kernel in ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the kernel's median time on the reference machine (2-vCPU KVM
# guest, Intel Xeon), so scaled times there read close to wall times.
NOMINAL_S = 0.013


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(20260101)
        self.sort_input = rng.random(300_000)
        self.volume = rng.random((512, 512, 3))

    def _python(self) -> int:
        total = 0
        for i in range(50_000):
            total += i * i % 7
        return total

    def _numpy(self) -> float:
        np.sort(self.sort_input)
        total = 0.0
        for _ in range(2):
            b = self.volume.copy()
            b *= 1.5
            np.exp(b[:100], out=b[:100])
            total += b[0, 0, 0]
        return total

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        self._python()
        self._numpy()
        return time.perf_counter() - t0
