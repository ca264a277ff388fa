"""How fast this host runs Python right now, from a fixed stdlib kernel.

On a shared virtual machine the same process can run twice as slowly
from one minute to the next, which moves a raw wall time by far more
than any code change the benchmark should catch.  Every timed region is
therefore bracketed by runs of a fixed kernel that does the same kinds
of work as pathrd: JSON decoding, dict and list building, sorting, a
DP sweep over tuples with a deque window, heap traffic and integer
arithmetic.  Scaling a wall time by
``REFERENCE_S / calibration`` gives seconds at a fixed reference speed.
The kernel uses nothing from pathrd, so a change to pathrd moves the
scaled time exactly as it moves the raw one.
"""

import json
import time
from collections import deque
from heapq import heappop, heappush

# the kernel's time in a quiet period on a 2-core 2.0 GHz Xeon VM with
# Python 3.11.7; only its constancy matters, not its value
REFERENCE_S = 0.0400

_BLOB = json.dumps(
    [{"id": i, "release": (i * 7919) % 10007, "d": (i * 104729) % 1009} for i in range(12000)]
)
_SWEEP_N = 20000
_R = tuple(range(0, 3 * _SWEEP_N, 3))
_TAU = tuple(range(2 * _SWEEP_N, 0, -2))


def _sweep():
    """A 1-D DP pass shaped like the fast solvers: tuple indexing, a
    monotone deque window and a bounded heap."""
    c = [0] * (_SWEEP_N + 1)
    window = deque()
    heap = []
    for i in range(1, _SWEEP_N + 1):
        a = c[i - 1] + 2 * _TAU[i - 1]
        while window and window[-1][0] > a:
            window.pop()
        window.append((a, i))
        best = _R[i - 1] + 2 * _TAU[i - 1]
        if window[0][0] < best:
            best = window[0][0]
        c[i] = best
        heappush(heap, (-best, i))
        if len(heap) > 64:
            heappop(heap)
    return c


def _kernel():
    _sweep()
    items = json.loads(_BLOB)
    by_id = {item["id"]: item for item in items}
    order = sorted(by_id.values(), key=lambda item: (item["release"], -item["d"]))
    heap = []
    window = deque()
    for item in order:
        heappush(heap, (item["release"] - item["d"], item["id"]))
        window.append((item["d"], item["id"]))
        while window and window[0][0] > item["d"] + 500:
            window.popleft()
    acc = 0
    while heap:
        key, ident = heappop(heap)
        acc += key * ident
    return acc


def calibrate(reps=2):
    """Seconds the kernel takes now: the best of ``reps`` runs."""
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def scale(calibration):
    """Factor that turns a wall time measured at this calibration into
    seconds at the reference speed."""
    return REFERENCE_S / calibration
