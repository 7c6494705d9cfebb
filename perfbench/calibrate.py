"""Cancel host speed drift with a reference kernel timed beside the program.

On a shared 2-core VM the speed of the host drifts by up to 25% over tens of
seconds, for the program and for any other code alike, so a raw wall time
says as much about the neighbours as about krauslab.  The benchmark
therefore interleaves a fixed reference kernel with the ops (about a tenth of
the busy time) and scales every measured duration by ``NOMINAL_S`` over the
reference time measured around it: the result is the duration on a host
where the reference block takes ``NOMINAL_S``.  The kernel is the same kind
of work as the program's (small numpy calls, Python calls, JSON encoding)
but none of its code, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import json
import time

import numpy as np
from numpy.linalg import eigvalsh as _eigvalsh  # bound now: unaffected by tracing

#: Reference block time on the host the bounds were set on (2-core x86_64 VM,
#: Python 3.11, numpy 2.4, quiet).
NOMINAL_S = 0.8e-3

#: Share of the busy time given to the reference kernel.
SHARE = 0.1

_M = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])


def reference_block() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(20):
        h = _M.conj().T
        _eigvalsh(_M)
        float(np.max(np.abs(_M - h)))
        float(np.real(np.trace(_M @ h)))
        json.dumps({"rows": 2, "data": [[float(v.real), float(v.imag)] for v in _M.reshape(-1)]})
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference samples taken between ops, and the speed factors they give."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._spent = 0.0

    def maybe_sample(self, busy: float) -> None:
        """Sample once if the reference has had less than SHARE of ``busy``."""
        if self._spent <= SHARE * busy:
            took = reference_block()
            self.at.append(time.perf_counter())
            self.took.append(took)
            self._spent += took

    def factors(self, starts: list[float]) -> list[float]:
        """NOMINAL_S / local reference time, for ops that started at ``starts``.

        The local reference time of an op is the mean of the last sample
        taken before it started and the first one taken after (only one of
        them at either end of the phase).  The host's speed moves within
        a second, so the nearest samples cancel it best: on ``sweep`` the
        spread of throughput_per_s over six seeds was 0.036 with medians of
        8 consecutive samples and 0.010 with the two nearest ones.
        """
        out = []
        for t in starts:
            j = bisect.bisect_right(self.at, t)
            near = self.took[max(j - 1, 0): j + 1]
            out.append(NOMINAL_S * len(near) / sum(near))
        return out
