"""Minimum completion time with the depot strictly inside the path.

Each route stays on one side of the depot, so a plan interleaves
routes over the two canonical sides.  c[i][j] is the earliest return
with the first i left and first j right customers served; the last
route covered a suffix of one side's served prefix,

    c[i][j] = min( min over w < i of  max(c[w][j], rl[i]) + 2 taul[w+1],
                   min over w < j of  max(c[i][w], rr[j]) + 2 taur[w+1] ),

1-based on the right-hand sides, with ties broken toward the left term
and the smallest w.  The cubic baseline scans both terms per state.

The fast solver plays the 1-D trick once per line: for the left term a
cursor and a deque of (a, w) per column j (advanced as i grows), for
the right term one per row i.  States released at or before r split off
a prefix whose best candidate is the cursor itself; the deque is a
monotone window over the rest, its back popped while larger than a new
entry and its front popped once the cursor passes it.  Each entry is
pushed and popped at most once, so states cost O(1) amortized and the
whole table O(n_l * n_r).
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .solution import LEFT, RIGHT, TIME, Route, Solution

__all__ = ["TimeDp2Trace", "solve_time_2d_cubic", "solve_time_2d_minqueue"]


@dataclass(frozen=True)
class TimeDp2Trace:
    """c[i][j]: best completion serving i left / j right customers;
    pred[i][j]: (side, w) the minimum was taken at, None at the origin."""

    c: list
    pred: list


def _build_solution(inst, c, pred):
    i = inst.left.n
    j = inst.right.n
    rev = []
    while i or j:
        side_name, w = pred[i][j]
        if side_name == LEFT:
            side = inst.left
            dispatch = max(c[w][j], side.r[i - 1])
            rev.append(
                Route(LEFT, w, i - 1, dispatch, 2 * side.tau[w], side.deliveries(w, i - 1))
            )
            i = w
        else:
            side = inst.right
            dispatch = max(c[i][w], side.r[j - 1])
            rev.append(
                Route(RIGHT, w, j - 1, dispatch, 2 * side.tau[w], side.deliveries(w, j - 1))
            )
            j = w
    value = c[inst.left.n][inst.right.n]
    return Solution(TIME, value, tuple(rev[::-1]))


def solve_time_2d_cubic(inst):
    """Reference solver: full scans of both terms at every state."""
    nl = inst.left.n
    nr = inst.right.n
    if nl == 0 and nr == 0:
        return TimeDp2Trace([[0]], [[None]]), Solution(TIME, 0, ())
    arrays = []
    if nl:
        arrays += [np.asarray(inst.left.r), np.asarray(inst.left.tau)]
    if nr:
        arrays += [np.asarray(inst.right.r), np.asarray(inst.right.tau)]
    dt = np.result_type(*arrays)
    rl = np.asarray(inst.left.r, dtype=dt)
    twol = 2 * np.asarray(inst.left.tau, dtype=dt)
    rr = np.asarray(inst.right.r, dtype=dt)
    twor = 2 * np.asarray(inst.right.tau, dtype=dt)
    c = np.zeros((nl + 1, nr + 1), dtype=dt)
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    for i in range(nl + 1):
        for j in range(nr + 1):
            if i == 0 and j == 0:
                continue
            best = None
            take = None
            if i >= 1:
                cand = np.maximum(c[:i, j], rl[i - 1]) + twol[:i]
                w = int(cand.argmin())
                best = cand[w]
                take = (LEFT, w)
            if j >= 1:
                cand = np.maximum(c[i, :j], rr[j - 1]) + twor[:j]
                w = int(cand.argmin())
                if best is None or cand[w] < best:
                    best = cand[w]
                    take = (RIGHT, w)
            c[i, j] = best
            pred[i][j] = take
    c = [row for row in c.tolist()]
    return TimeDp2Trace(c, pred), _build_solution(inst, c, pred)


def _check_line(line, two_tau, release, k, window):
    """Assert one row's or column's invariants: states 0..k are
    released, the rest are not, and the window front is the smallest
    (line[w] + two_tau[w], w) over the unreleased states."""
    assert all(v <= release for v in line[: k + 1])
    assert all(v > release for v in line[k + 1 :])
    assert all(w > k for _, w in window)
    front = min(((v + two_tau[w], w) for w, v in enumerate(line) if w > k), default=None)
    assert (window[0] if window else None) == front


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
    rr = inst.right.r
    taur = inst.right.tau
    c = [[0] * (nr + 1) for _ in range(nl + 1)]
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    # per column, for the left term: a cursor over the released rows
    # (-1: none yet) and a window of (a, w), a = c[w][j] + 2 taul[w], over
    # rows past the cursor; a is nondecreasing front to back and equal
    # values all stay, so the front is the smallest w among minima
    kl = [-1] * (nr + 1)
    wl = [deque() for _ in range(nr + 1)]
    for i in range(nl + 1):
        # the same per row, for the right term
        kr = -1
        wr = deque()
        ci = c[i]
        for j in range(nr + 1):
            best = None
            take = None
            if i >= 1:
                ri = rl[i - 1]
                win = wl[j]
                k = kl[j]
                while k < i - 1 and c[k + 1][j] <= ri:
                    k += 1
                    if win and win[0][1] <= k:
                        win.popleft()
                kl[j] = k
                if check:
                    _check_line([c[w][j] for w in range(i)], [2 * t for t in taul], ri, k, win)
                if k >= 0:
                    best = ri + 2 * taul[k]
                    take = (LEFT, k)
                if win:
                    a, w = win[0]
                    if best is None or a < best:
                        best = a
                        take = (LEFT, w)
            if j >= 1:
                rj = rr[j - 1]
                while kr < j - 1 and ci[kr + 1] <= rj:
                    kr += 1
                    if wr and wr[0][1] <= kr:
                        wr.popleft()
                if check:
                    _check_line(ci[:j], [2 * t for t in taur], rj, kr, wr)
                if kr >= 0:
                    cand = rj + 2 * taur[kr]
                    if best is None or cand < best:
                        best = cand
                        take = (RIGHT, kr)
                if wr:
                    a, w = wr[0]
                    if best is None or a < best:
                        best = a
                        take = (RIGHT, w)
            if take is not None:
                ci[j] = best
                pred[i][j] = take
            if i < nl:
                a = ci[j] + 2 * taul[i]
                win = wl[j]
                while win and win[-1][0] > a:
                    win.pop()
                win.append((a, i))
            if j < nr:
                a = ci[j] + 2 * taur[j]
                while wr and wr[-1][0] > a:
                    wr.pop()
                wr.append((a, j))
    return TimeDp2Trace(c, pred), _build_solution(inst, c, pred)
