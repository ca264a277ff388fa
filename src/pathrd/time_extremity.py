"""Minimum completion time on one side of the depot.

c[i] is the earliest time a vehicle can be back at the depot with the
first i canonical customers served.  The last route picks up customers
j+1..i (1-based): it leaves once the vehicle has returned and customer
i is released, and drives to the farthest passenger and back,

    c[i] = min over j < i of  max(c[j], r[i]) + 2 tau[j+1].

Since tau strictly decreases along the canonical order, candidates with
c[j] <= r[i] are dominated by the largest such j; the rest enter a
sliding window whose minimum a monotone deque serves in O(1) amortized.
That replaces the quadratic scan with one linear pass, the kernel
_time_line, which the interior-depot solver runs once per row.  A
depot at an extremity is the interior case with an empty left side:
solve_time_linear and solve_time_quadratic are the one row of
time_general's fast and cubic solvers on GeneralInstance(EMPTY_SIDE,
side), the cubic one scanning every predecessor of every state; both
return the same tables.

While the cursor k holds and its released candidate wins, c[i] =
r[i-1] + 2 tau[k] and pred[i] = k: a run.  It ends where the cursor
moves or the window front wins, two thresholds on the nondecreasing r
that a bisect finds each, or where one of the run's own a_j undercuts,
or the other side's candidate wins in a 2-D row, which numpy finds
over chunks of the run, sliced from the side's arrays, with the same
float operations the scalar loop makes.  A run whose cursor holds past
RUN states is filled by slice, and the window left behind is rebuilt
from the run's suffix minima.
On a one-route side the whole line is one run.
"""

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distance_extremity import RUN
from .instance import EMPTY_SIDE, MAX_MAGNITUDE, GeneralInstance
from .solution import RIGHT, name_side, time_solution

__all__ = ["TimeDpTrace", "solve_time_quadratic", "solve_time_linear"]

# A run is checked in numpy slices of at most this many states, each
# written into c before the next is converted, so a run holds O(1)
# memory; when a run is tried is RUN's business, not this length's.
_CHUNK = 4096


@dataclass(frozen=True)
class TimeDpTrace:
    """c[i]: best completion for the first i customers; pred[i]: the j
    the minimum was taken at, ties to the smallest j, None at 0.  The
    2-D solvers of time_general return this class with [i][j] tables,
    moves written as solution.time_solution reads them; a 1-D trace is
    the one row of such a trace with an empty left side."""

    c: list
    pred: list


# no solver calls this; perfbench/case.py's replay and test_solution.py do
def _build_solution(side, label, c, pred):
    return name_side(label, time_solution(EMPTY_SIDE, side, [c], [pred]))


def _check_line(line, tau, release, k, window):
    """Assert one line's invariants: states 0..k are released, the rest
    are not, and the window front is the smallest (line[w] + 2 tau[w], w)
    over the unreleased states."""
    assert all(v <= release for v in line[: k + 1])
    assert all(v > release for v in line[k + 1 :])
    assert all(w > k for _, w in window)
    front = min(((v + 2 * tau[w], w) for w, v in enumerate(line) if w > k), default=None)
    assert (window[0] if window else None) == front


def _time_line(side, c, pred, merge=False, check=False):
    """Fill c[1..n] and pred[1..n] of side's line from the given c[0],
    n = side.n; pred[i] is the raw j the minimum was taken at.

    With merge, c[i] and pred[i] already hold the other side's
    candidate, which the kernel reads before it overwrites them; the
    candidate wins ties.  c[0] may exceed the first releases, so the
    cursor starts at -1 and state 0 enters the window like any other.
    The first state whose released candidate beats the window with a
    new cursor probes for a run, and _time_run fills it when the cursor
    holds RUN states on.  check=True asserts _check_line at every
    state, the ones a run fills included.
    """
    # cand holds (a_j, j) with a_j = c[j] + 2 tau[j+1] for j in (k, i-1],
    # values nondecreasing front to back; equal values all stay so the
    # front is always the smallest j among minima
    cand = deque()
    k = -1
    tried = -1
    fill = False
    r = side.r
    tau = side.tau
    n = len(r)
    stop = n + 1 - RUN
    i = 1
    while i <= n:
        # the scalar loop; a run fill leaves it, to resume past the run
        for i in range(i, n + 1):
            last = i - 1
            ri = r[last]
            a = c[last] + 2 * tau[last]
            while cand and cand[-1][0] > a:
                cand.pop()
            cand.append((a, last))
            # grow the released region; its best candidate is always j = k
            # because tau strictly decreases
            while k < last and c[k + 1] <= ri:
                k += 1
                if cand[0][1] <= k:
                    cand.popleft()
            if check:
                _check_line(c[:i], tau, ri, k, cand)
            if k >= 0:
                best = ri + 2 * tau[k]
                bj = k
                if cand and cand[0][0] < best:
                    best, bj = cand[0]
                elif k > tried:
                    # the released candidate beats the window, and the
                    # cursor is new
                    tried = k
                    fill = True
            else:
                best, bj = cand[0]
            if merge and c[i] <= best:
                best = c[i]
                bj = pred[i]
            c[i] = best
            pred[i] = bj
            if fill:
                # a run may follow if the cursor holds to state i + RUN;
                # that only gets less likely as i grows, so each cursor
                # is probed once, here where c[k + 1] is known
                fill = False
                if i < stop and r[i + RUN - 1] < c[k + 1]:
                    i = _time_run(side, c, pred, merge, check, i, k, cand) + 1
                    break
        else:
            break


def _time_run(side, c, pred, merge, check, i, k, cand):
    """Fill the run that follows state i, whose released candidate won
    with cursor k, and return the run's last state (i when none).

    Each state m of a run takes c[m] = r[m-1] + 2 tau[k] and pred[m] = k.
    The run ends before the first state where the cursor moves, the
    window front wins, one of the run's own a_j undercuts, or, with
    merge, the other side's candidate wins; the first two are bisects,
    the last two numpy tests, in chunks of _CHUNK states sliced from
    side.arrays and written straight into c.  cand ends as the window
    the scalar loop would hold: its entries up to the run's least a,
    then the run's suffix-minimum a_j, equal values kept.
    """
    r = side.r
    tau = side.tau
    n = len(r)
    p = i + RUN
    two = 2 * tau[k]
    front = cand[0][0] if cand else None
    prev = c[i] + 2 * tau[i]
    # the other O(1) probes at state p, the cursor's passed: a run that
    # fails one ends within RUN states and is left to the scalar loop,
    # and as both thresholds hold up to p, their bisects start there
    top = r[p - 1] + two
    if (front is not None and top > front) or top > prev or (merge and c[p] <= top):
        return i
    # the numpy tests run in float64 unless every number is an int, and
    # float64 adds integers exactly below 2**53; the margin covers the
    # rounding of this bound itself when a float release takes part
    floats = two.__class__ is float
    if not floats and r[-1] + 2 * two > MAX_MAGNITUDE - 4:
        return i
    end = bisect_left(r, c[k + 1], p, n)
    if front is not None:
        # x + two rounds monotonically, so the key keeps r's order
        end = bisect_right(r, front, p, end, key=lambda x: x + two)
    # a float two makes every entry a float, so the chunks convert to
    # float64 as Python's sums would, an object slice of ints past int64
    # included; otherwise they keep the arrays' dtype, int64 exactly
    # when the line holds only ints
    dt = float if floats else None
    rv, tv = side.arrays
    start = deque(cand) if check else None
    low = prev
    lo = i + 1
    while True:
        # states lo..hi-1 take best; state lo pushes prev = a_{lo-1} and
        # the others a_lo..a_{hi-2}; low is the least a pushed before lo
        hi = min(end + 1, lo + _CHUNK)
        best = np.asarray(rv[lo - 1 : hi - 1], dt) + two
        av = best[:-1] + 2 * np.asarray(tv[lo : hi - 1], dt)
        window = np.minimum.accumulate(np.concatenate(((min(low, prev),), av)))
        bad = best > window
        if merge:
            bad |= np.array(c[lo:hi], float) <= best
        (cut,) = bad.nonzero()
        if len(cut):
            hi = lo + int(cut[0])
            if hi == lo:
                break
        if floats or best.dtype.kind == "i":
            c[lo:hi] = best[: hi - lo].tolist()
        else:
            c[lo:hi] = [x + two for x in r[lo - 1 : hi - 1]]
        pred[lo:hi] = [k] * (hi - lo)
        # push prev, then the chunk's a, each popping the larger ones
        # before it: the chunk's own suffix minima stay
        while cand and cand[-1][0] > prev:
            cand.pop()
        cand.append((prev, lo - 1))
        pushed = av[: hi - lo - 1]
        if len(pushed):
            suffix = np.minimum.accumulate(pushed[::-1])[::-1]
            least = suffix[0].item()
            while cand and cand[-1][0] > least:
                cand.pop()
            (keep,) = (pushed[:-1] <= suffix[1:]).nonzero()
            keep = np.append(keep, len(pushed) - 1)
            js = (keep + lo).tolist()
            if floats or pushed.dtype.kind == "i":
                cand.extend(zip(pushed[keep].tolist(), js))
            else:
                cand.extend((c[j] + 2 * tau[j], j) for j in js)
        if len(cut) or hi > end:
            break
        low = window[-1]
        prev = c[hi - 1] + 2 * tau[hi - 1]
        lo = hi
    if check:
        # replay the run state by state: each one's window passes
        # _check_line and loses to the released candidate, and the last
        # one's is the window rebuilt above
        for m in range(i + 1, hi):
            a = c[m - 1] + 2 * tau[m - 1]
            while start and start[-1][0] > a:
                start.pop()
            start.append((a, m - 1))
            _check_line(c[:m], tau, r[m - 1], k, start)
            assert c[m] == r[m - 1] + two and not start[0][0] < c[m]
        assert start == cand
    return hi - 1


def _row(solve, side, label, *args):
    """The one row of solve on GeneralInstance(EMPTY_SIDE, side), on side label."""
    name_side(label)
    trace, solution = solve(GeneralInstance(EMPTY_SIDE, side), *args)
    return TimeDpTrace(trace.c[0], trace.pred[0]), name_side(label, solution)


# the 1-D solvers import time_general on call, as it imports this module
def solve_time_quadratic(side, label=RIGHT):
    """Reference solver: evaluate every predecessor of every state; the
    one row of time_general.solve_time_2d_cubic."""
    from .time_general import solve_time_2d_cubic

    return _row(solve_time_2d_cubic, side, label)


def solve_time_linear(side, label=RIGHT, check=False):
    """One-pass solver, the one row of time_general.solve_time_2d_minqueue;
    output matches solve_time_quadratic exactly, the origin c[0] the
    table dtype's zero included.  check=True asserts _check_line at every
    state."""
    from .time_general import solve_time_2d_minqueue

    return _row(solve_time_2d_minqueue, side, label, check)
