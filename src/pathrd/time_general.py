"""Minimum completion time with the depot strictly inside the path.

Each route stays on one side of the depot, so a plan interleaves
routes over the two canonical sides.  c[i][j] is the earliest return
with the first i left and first j right customers served; the last
route covered a suffix of one side's served prefix,

    c[i][j] = min( min over w < i of  max(c[w][j], rl[i]) + 2 taul[w+1],
                   min over w < j of  max(c[i][w], rr[j]) + 2 taur[w+1] ),

1-based on the right-hand sides, with ties broken toward the left term
and the smallest w; pred[i][j] is w for the right term and (LEFT, w)
for the left.  The cubic baseline scans both terms of every state with
time_extremity's full line scan _scan.  With an empty left side the
table is one row, the 1-D table that time_extremity's solvers return.

The fast solver is a kernel plus a column step.  Row by row, the
column step first advances every column's cursor and deque of (a, w)
by one row and writes the left term into the row; then one call of
the 1-D kernel _time_line merges the row's right term into it in
place.  In both, the states released at or before r form a prefix
whose best candidate is the cursor itself, and the deque is a
monotone window over the rest, its back popped while larger than a
new entry and its front popped once the cursor passes it.  Each entry
is pushed and popped at most once, so states cost O(1) amortized and
the whole table O(n_l * n_r).  The column step advances n_r + 1 lines
by one state each, so it is written inline rather than as a per-state
call of the kernel.

The row kernel fills runs by slice as in 1-D: a stretch of a row
where the right cursor holds and its released candidate beats the
window takes that candidate in one step.  In a merged row the run also
ends where the left term, already in the row, wins, so the left term
keeps its ties.  Column steps fill no runs.
"""

from collections import deque

import numpy as np

from .instance import table_dtype
from .solution import LEFT, RIGHT, time_solution
from .time_extremity import TimeDpTrace, _check_line, _scan, _time_line

__all__ = ["solve_time_2d_cubic", "solve_time_2d_minqueue"]


def _build_solution(inst, c, pred, label=RIGHT):
    return time_solution(inst.left, inst.right, c, pred, label)


def solve_time_2d_cubic(inst, label=RIGHT):
    """Reference solver: full scans of both terms at every state.  Right
    routes are named label, which must be RIGHT beside left routes."""
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
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred, label)


def solve_time_2d_minqueue(inst, label=RIGHT, check=False):
    """Window-and-cursor solver; output matches solve_time_2d_cubic,
    right routes named label as there.

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
    return TimeDpTrace(c, pred), _build_solution(inst, c, pred, label)
