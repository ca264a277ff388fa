"""Minimum completion time, the depot inside the path or at an end.

Each route stays on one side of the depot, so a plan interleaves
routes over the two canonical sides.  c[i][j] is the earliest return
with the first i left and first j right customers served.  The last
route picks up a suffix of one side's served prefix: it leaves once
the vehicle has returned and the suffix's last customer is released,
and drives to the farthest passenger and back,

    c[i][j] = min( min over w < i of  max(c[w][j], rl[i]) + 2 taul[w+1],
                   min over w < j of  max(c[i][w], rr[j]) + 2 taur[w+1] ),

1-based on the right-hand sides, with ties broken toward the left term
and the smallest w; pred[i][j] is w for the right term and (LEFT, w)
for the left.  The cubic baseline scans both terms of every state with
one full line scan, _scan.  A depot at an extremity is the case with an
empty left side: the table is one row, the 1-D table that
time_extremity's views return.

Along one line, tau strictly decreases, so the states released at or
before the line's release r form a prefix whose best candidate is its
last state, the cursor; the rest enter a sliding window of (a, w),
a = c[w] + 2 tau[w+1], kept as a monotone deque, its back popped while
larger than a new entry and its front popped once the cursor passes
it.  Each entry is pushed and popped at most once, so a state costs
O(1) amortized.  The kernel _time_line runs one line that way.  The
fast solver is that kernel plus a column step.  Row by row, the column
step first advances every column's cursor and deque by one row and
writes the left term into the row; then one call of _time_line merges
the row's right term into it in place: O(n_l * n_r) in all.  The
column step advances n_r + 1 lines by one state each, so it is written
inline rather than as a per-state call of the kernel.

While the cursor k holds and its released candidate wins, c[i] =
r[i-1] + 2 tau[k] and pred[i] = k: a run.  It ends where the cursor
moves or the window front wins, two thresholds on the nondecreasing r
that a bisect finds each, or where one of the run's own a_j undercuts,
or, in a merged row, the left term already in the row wins, which numpy
finds over chunks of the run, sliced from the side's arrays, with the
same float operations the scalar loop makes; so the left term keeps its
ties.  A run whose cursor holds past RUN states is filled by slice, and
the window left behind is rebuilt from the run's suffix minima.  On a
one-route line the whole line is one run.  Column steps fill no runs.
"""

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distance_general import RUN
from .instance import MAX_MAGNITUDE, table_dtype
from .solution import LEFT, time_solution

__all__ = ["TimeDpTrace", "solve_time_2d_cubic", "solve_time_2d_minqueue"]

# A run is checked in numpy slices of at most this many states, each
# written into c before the next is converted, so a run holds O(1)
# memory; when a run is tried is RUN's business, not this length's.
_CHUNK = 4096


@dataclass(frozen=True)
class TimeDpTrace:
    """c[i]: best completion for the first i customers; pred[i]: the j
    the minimum was taken at, ties to the smallest j, None at 0.  The
    2-D solvers return this class with [i][j] tables, moves written as
    solution.time_solution reads them; a 1-D trace is the one row of
    such a trace with an empty left side."""

    c: list
    pred: list


def _build_solution(inst, c, pred):
    return time_solution(inst.left, inst.right, c, pred)


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


def _scan(c, r, two_tau):
    """One state's full scan: the minimum of max(c[j], r) + two_tau[j]
    over the given j, and the smallest j it is taken at."""
    cand = np.maximum(c, r) + two_tau
    j = int(cand.argmin())
    return cand[j], j


def solve_time_2d_cubic(inst):
    """Reference solver: full scans of both terms at every state."""
    nl = inst.left.n
    nr = inst.right.n
    dt = table_dtype(inst.left, inst.right)
    rl, taul = inst.left.arrays
    rr, taur = inst.right.arrays
    rl = rl.astype(dt, copy=False)
    twol = 2 * taul.astype(dt, copy=False)
    rr = rr.astype(dt, copy=False)
    twor = 2 * taur.astype(dt, copy=False)
    c = np.zeros((nl + 1, nr + 1), dtype=dt)
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    for i in range(nl + 1):
        for j in range(nr + 1):
            best = None
            if i:
                best, w = _scan(c[:i, j], rl[i - 1], twol[:i])
                take = (LEFT, w)
            if j:
                value, w = _scan(c[i, :j], rr[j - 1], twor[:j])
                if best is None or value < best:
                    best = value
                    take = w
            if best is not None:
                c[i, j] = best
                pred[i][j] = take
    c = c.tolist()
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred)


def solve_time_2d_minqueue(inst, check=False):
    """Window-and-cursor solver; output matches solve_time_2d_cubic.

    check=True re-verifies every cursor and window against its
    definition (the released states really form a prefix of the column
    or row, and the window front is the minimum over the rest), which
    is what the amortized updates silently rely on.
    """
    nl = inst.left.n
    nr = inst.right.n
    rl = inst.left.r
    taul = inst.left.tau
    # shared left moves for the column step; the row kernel's bare w is a right move
    left_of = [(LEFT, w) for w in range(nl + 1)]
    c = [[0] * (nr + 1) for _ in range(nl + 1)]
    # the origin is the table dtype's zero, as in the cubic baseline
    c[0][0] = np.zeros((), table_dtype(inst.left, inst.right)).item()
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    # per column, for the left term: a cursor over the released rows
    # and a window of (a, w), a = c[w][j] + 2 taul[w], kept as in
    # _time_line; an empty left side steps no column
    cols = range(nr + 1) if nl else ()
    kl = [-1 for _ in cols]
    wl = [deque() for _ in cols]
    for i in range(nl + 1):
        ci = c[i]
        pi = pred[i]
        if i:
            # column step: each column's line gains state i - 1 and
            # yields its left term at row i
            last = i - 1
            ri = rl[last]
            up = c[last]
            two = 2 * taul[last]
            for j in range(nr + 1):
                win = wl[j]
                a = up[j] + two
                while win and win[-1][0] > a:
                    win.pop()
                win.append((a, last))
                k = kl[j]
                while k < last and c[k + 1][j] <= ri:
                    k += 1
                    if win[0][1] <= k:
                        win.popleft()
                kl[j] = k
                if check:
                    _check_line([c[w][j] for w in range(i)], taul, ri, k, win)
                if k >= 0:
                    best = ri + 2 * taul[k]
                    w = k
                    if win and win[0][0] < best:
                        best, w = win[0]
                else:
                    best, w = win[0]
                ci[j] = best
                pi[j] = left_of[w]
        if nr:
            # the right term along the row; the left term wins ties
            _time_line(inst.right, ci, pi, i > 0, check)
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred)
