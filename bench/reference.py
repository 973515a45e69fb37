"""Reference kernels that express op wall times in machine-independent units.

The speed of a shared machine drifts by up to 2x over tens of seconds, which
no run length averages out.  An op's wall time divided by the time of a fixed
kernel measured right before and right after it drifts far less, as long as
the kernel does the same kind of work: both slow down together.  That ratio
is the op's time in "refs".  The kernels use no qfivol code, so no change to
the package can alter a ref.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# fewest kernel calls per reference sample; the sample is their median
REFERENCE_CALLS = 3
# set-up is compared with reference samples this long, one taken just before
# its process starts and one just after set-up ends
SETUP_WINDOW_S = 0.2
# compute_kernel's median time on the machine the benchmark's bounds were set
# on (2-core x86-64, Python 3.11, numpy 2.4 with OpenBLAS); see setup_seconds
NOMINAL_COMPUTE_KERNEL_S = 200e-6

_MATRIX = np.array(
    [[4.0, 1.0, 0.5, 0.0], [1.0, 3.0, 0.25, 0.5], [0.5, 0.25, 2.0, 1.0], [0.0, 0.5, 1.0, 1.0]]
)
# 1 MB of record-like lines
_TEXT = "".join(
    json.dumps({"index": i, "seed": 1, "function": "wy", "gap": i / 7.0, "dependent": False})
    + " " * 330
    + "\n"
    for i in range(2500)
).encode()


def compute_kernel():
    """Work of the kind sweeps and checks do: interpreted Python around small
    numpy and LAPACK calls."""
    total = 0.0
    for _ in range(8):
        _, vectors = np.linalg.eigh(_MATRIX)
        total += float(np.sum(np.abs(vectors @ vectors.T)))
        total += sum(k * 0.5 for k in range(20))
    return total


def parse_kernel():
    """Work of the kind a replay does: decode a megabyte of text, split it
    into lines and parse one."""
    lines = _TEXT.decode().splitlines()
    return json.loads(lines[len(lines) // 2])


def setup_seconds(wall_s, kernel_before_s, kernel_after_s):
    """Set-up wall time scaled to the speed of the nominal machine.

    That is the set-up's length in refs of ``compute_kernel``, times the
    kernel's time on the nominal machine: still seconds, but free of the
    drift of the machine it was measured on.
    """
    return wall_s / ((kernel_before_s + kernel_after_s) / 2.0) * NOMINAL_COMPUTE_KERNEL_S


class Reference:
    """Converts the wall time of an op that just ended into refs.

    An op is compared with the mean of the reference samples taken right
    before and right after it.  For ops much longer than one kernel call,
    a ``window`` makes each sample span enough calls to average over the
    machine's short stalls.
    """

    def __init__(self, kernel, window=0.0):
        self.kernel = kernel
        self.window = window
        self.seconds = []
        self.last = self.sample()

    def _once(self):
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def sample(self):
        """Median kernel time over at least ``window`` seconds."""
        times = []
        stop = time.perf_counter() + self.window
        while len(times) < REFERENCE_CALLS or time.perf_counter() < stop:
            times.append(self._once())
        value = statistics.median(times)
        self.seconds.append(value)
        return value

    def units(self, seconds):
        """``seconds`` of the op that just ended, in refs."""
        after = self.sample()
        value = seconds / ((self.last + after) / 2.0)
        self.last = after
        return value
