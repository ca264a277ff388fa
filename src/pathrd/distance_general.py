"""Minimum travel distance under a deadline, the depot inside the path
or at an end.

The plan is built backwards from the deadline D.  lam[p][q] is the
latest moment a vehicle may leave so that left customers p.. and right
customers q.. (0-based canonical positions) all get served by D, with
lam[n_l][n_r] = D.  The next route serves a block of one side; cutting
the left at w spends 2 taul[p] on it, and its dispatch must also wait
for the block's latest release rl[w-1]:

    lam[p][q] = max( max over w in (p, n_l] of  lam[w][q] - 2 taul[p]
                         keeping w with lam[w][q] - rl[w-1] >= 2 taul[p],
                     the symmetric right term ),

absent (None) when both terms come up empty.  The instance is
infeasible exactly when lam[0][0] is absent, and otherwise routes pack
gapless so the total distance is D - lam[0][0].  Ties prefer the left
term, then the smallest w; succ[p][q] is w for the right term and
(LEFT, w) for the left.  The cubic baseline scans both terms of every
state with one full line scan, _scan.  A depot at an extremity is the
case with an empty left side: the table is one row, the 1-D table that
distance_extremity's views return.

The fast kernel, _distance_line, serves one line, a row or a column,
written lam[p] over its side's r and tau.  It rests on a lemma: lam is
nondecreasing in p, as dropping a suffix's first customer keeps its
plan's dispatch, so the absent states form a prefix.  The threshold
2 tau[p] only grows as p falls, so a state whose slack lam[q] - r[q-1]
misses it is out for good, and the maximum comes from the largest lam
that still passes, at the smallest index of its group of equal lam:
that one has the most slack.  The kernel keeps that state as one index,
the front f, which only moves down.  A front that misses the threshold
slides to the smallest index of the next group below it, and a new
state whose lam equals lam[f] becomes the front.  Each state is passed
over once: O(n) per line.  The fast solver runs that kernel once per
line: column n_r, which has no right term and so is the left side's
line, then each row, the right side's, from the bottom, in one sweep
per row.  Above the bottom row, each state q < n_r of the row first
moves column q's front down one row, the column's line gaining the
state below, and takes the left term, then takes the right term from
the row's front, which starts at the row's state n_r, the left term
winning ties: O(n_l n_r) in all.  A front's slack stays fixed while it
holds, so the row's front keeps its lam and slack in locals and each
column's in lists beside its index, read once per move.  A left-only
instance is one line, the left side's: one call of the kernel.

While f holds, lam[p] = lam[f] - 2 tau[p] on every state whose
threshold f's slack meets, and as tau grows those states run down to a
bound one bisect finds.  A run longer than RUN is filled by slice
assignment, its values top - 2 tau computed by one int64 operation over
the side's arrays on an all-int line within MAX_MAGNITUDE, and by a
list comprehension elsewhere (_run_values).  Only lines without column
work fill runs: 1-D lines, column n_r and the bottom row.  A row above
takes every state's column step anyway, and a run there would spare
only the right term's slack test; taking a run's left terms first and
merging them by slice made one-route pairs slower than the scalar loop.
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .instance import MAX_MAGNITUDE, table_dtype
from .solution import LEFT, distance_solution

__all__ = ["DistDpTrace", "solve_distance_2d_cubic", "solve_distance_2d_heap"]

# A run is filled by slice only when its front has just changed and the
# state RUN below still meets the front's slack.  Lines cut into many
# routes hold runs of 1-20 states: filling at every front made their
# distance solves 1.5-1.9x slower than the scalar loop alone, RUN = 16
# left a two-sided grid 1.05-1.12x slower, and 32 or 64 no slower.
RUN = 32

# the slack of a column with no front, which meets no threshold
_NO_SLACK = float("-inf")


@dataclass(frozen=True)
class DistDpTrace:
    """lam[p]: latest feasible dispatch for the suffix from p (None when
    absent), lam[n] = deadline; succ[p]: the q the maximum came from.
    The 2-D solvers return this class with [p][q] tables, moves written
    as solution.distance_solution reads them; a 1-D trace is the one row
    of such a trace with an empty left side."""

    lam: list
    succ: list


def _build_solution(inst, lam, succ):
    return distance_solution(inst.left, inst.right, lam, succ)


def _minus_two(t):
    # a bisect key: -2 t >= -slack exactly when slack >= 2 t, the test
    # the scalar loop makes, so a run's bound needs no correcting
    return -2 * t


def _check_top(line, r, tau, p, f):
    """Assert a line's front f at state p against its definition:
    thresholds never decrease along the line, line never decreases along
    its present states past p, and f gives the smallest (-line[w], w)
    over the present states w > p whose slack line[w] - r[w-1] meets
    the threshold 2 tau[p], f = -1 when none does."""
    threshold = 2 * tau[p]
    assert p == len(r) - 1 or threshold >= 2 * tau[p + 1]
    present = [v for v in line[p + 1 :] if v is not None]
    assert all(a <= b for a, b in zip(present, present[1:]))
    best = min(
        (
            (-v, w)
            for w, v in enumerate(line)
            if w > p and v is not None and v - r[w - 1] >= threshold
        ),
        default=None,
    )
    assert (None if f < 0 else (-line[f], f)) == best


def _run_values(top, side, lo, hi):
    """[top - 2 * t for t in side.tau[lo:hi]], over tau nonincreasing.

    An int top over int64 arrays within MAX_MAGNITUDE gives those exact
    values and types by one int64 operation over the side's arrays;
    any other top or arrays take the comprehension.
    """
    tau = side.tau
    tv = side.arrays[1]
    if (
        top.__class__ is int
        and tv.dtype == np.int64
        and max(abs(top), tau[lo], -tau[hi - 1]) <= MAX_MAGNITUDE
    ):
        return (top - 2 * tv[lo:hi]).tolist()
    return [top - 2 * t for t in tau[lo:hi]]


def _distance_line(side, lam, succ, check=False, two=None, cols=None):
    """Fill lam[0..n-1] and succ[0..n-1] of side's line from the given
    lam[n], n = side.n, which may be 0; None marks an absent state, and
    succ[p] is the raw q the maximum came from.  two, when given, is
    [2 * t for t in side.tau], doubled once for the many rows of a 2-D
    solve.

    f is the front, -1 when there is none; top and slack, its lam and
    slack, are read once each time f moves.  With cols, the line is row
    `row` of a 2-D table above its bottom row, cols = (left_side, table,
    row, fronts, tops, slacks, left_of), and lam[n] is column n's entry,
    the left side's line: each state q < n first moves column q's front
    down one row and takes its left term, then takes the right term from
    the row's front, and the left term wins ties.  Column q's front row
    is fronts[q], its lam tops[q], None when there is none, and its
    slack slacks[q], _NO_SLACK when there is none, so its slack test
    reads one list; its moves are left_of[w] = (LEFT, w).  Every line
    starts at state n - 1, its front at n when lam[n] is present.  Only
    lines without cols fill runs.

    check=True fills a line without cols on a copy, taken at entry, as
    above, with no checks; then fills the line itself by the scalar
    loop alone, asserting _check_top at every state and at every
    column's front; and asserts that the two fills are equal, types and
    succ included.
    """
    r = side.r
    tau = side.tau
    n = len(r)
    left = None
    if cols is None:
        if check:
            filled = lam[:], succ[:]
            _distance_line(side, *filled, False, two)
    else:
        left_side, table, row, fronts, tops, slacks, left_of = cols
        rl = left_side.r
        lthreshold = 2 * left_side.tau[row]
        below = table[row + 1]
    p = n - 1
    f = -1 if lam[n] is None else n
    if f > 0:
        top = lam[f]
        slack = top - r[f - 1]
    fresh = True
    while p >= 0:
        # the scalar loop; a run fill leaves it, to resume below the run
        for p in range(p, -1, -1):
            if cols is not None:
                # column p gains state row + 1, which leads its front's
                # group, or starts one, when its lam equals the front's
                v = below[p]
                ctop = tops[p]
                if v is not None and (v == ctop or ctop is None):
                    fronts[p] = row + 1
                    tops[p] = ctop = v
                    slacks[p] = cslack = v - rl[row]
                else:
                    cslack = slacks[p]
                if cslack >= lthreshold:
                    left = ctop - lthreshold
                else:
                    left = None
                    if ctop is not None:
                        cf = fronts[p]
                        while True:
                            # pop: slide to the smallest index of the
                            # next lower group
                            cf -= 1
                            if cf == row:
                                cf = -1
                                ctop = None
                                cslack = _NO_SLACK
                                break
                            ctop = table[cf][p]
                            while cf - 1 > row and table[cf - 1][p] == ctop:
                                cf -= 1
                            cslack = ctop - rl[cf - 1]
                            if cslack >= lthreshold:
                                left = ctop - lthreshold
                                break
                        fronts[p] = cf
                        tops[p] = ctop
                        slacks[p] = cslack
                if check:
                    _check_top([line[p] for line in table], rl, left_side.tau, row, fronts[p])
            value = None
            if f >= 0:
                threshold = 2 * tau[p] if two is None else two[p]
                while slack < threshold:
                    # pop: slide to the smallest index of the next lower group
                    fresh = True
                    f -= 1
                    if f == p:
                        f = -1
                        break
                    top = lam[f]
                    while f - 1 > p and lam[f - 1] == top:
                        f -= 1
                    slack = top - r[f - 1]
                else:
                    value = top - threshold
                    q = f
                    if fresh:
                        fresh = False
                        # a run: every state from p down to the lowest whose
                        # threshold slack meets takes top - 2 tau from f; as
                        # lam[p] < top, none of them joins f's group
                        if (
                            cols is None
                            and not check
                            and p >= RUN
                            and slack >= 2 * tau[p - RUN]
                            and value < top
                        ):
                            a = bisect_left(tau, -slack, 0, p - RUN, key=_minus_two)
                            lam[a : p + 1] = _run_values(top, side, a, p + 1)
                            succ[a : p + 1] = [f] * (p + 1 - a)
                            p = a - 1
                            break
            if check:
                _check_top(lam, r, tau, p, f)
            if left is not None and (value is None or left >= value):
                value = left
                q = left_of[fronts[p]]
            if value is not None:
                lam[p] = value
                succ[p] = q
                # an equal value joins the front's group, which p now leads
                if f < 0 or value == top:
                    f = p
                    top = value
                    if p:
                        slack = value - r[p - 1]
                    fresh = True
        else:
            break
    if check and cols is None:
        assert [(v.__class__, v) for v in lam] == [(v.__class__, v) for v in filled[0]]
        assert succ == filled[1]


def _scan(lam, present, r, threshold):
    """One state's full scan: the maximum of lam[w] - threshold over the
    present w with lam[w] - r[w] >= threshold, and the smallest w it is
    taken at; None when no w qualifies."""
    # the slack comparison is written exactly as the fast kernel tests
    # it, so float rounding cannot split the two
    (ws,) = (present & (lam - r >= threshold)).nonzero()
    if not len(ws):
        return None
    vals = lam[ws] - threshold
    # argmax takes the first maximum, at the smallest w
    k = int(vals.argmax())
    return vals[k], int(ws[k])


def solve_distance_2d_cubic(inst, deadline):
    """Reference solver: scan both successor lines of every state."""
    nl = inst.left.n
    nr = inst.right.n
    dt = table_dtype(inst.left, inst.right, deadline=deadline)
    rl, taul = inst.left.arrays
    rr, taur = inst.right.arrays
    rl = rl.astype(dt, copy=False)
    twol = 2 * taul.astype(dt, copy=False)
    rr = rr.astype(dt, copy=False)
    twor = 2 * taur.astype(dt, copy=False)
    lam = np.zeros((nl + 1, nr + 1), dtype=dt)
    present = np.zeros((nl + 1, nr + 1), dtype=bool)
    lam[nl, nr] = deadline
    present[nl, nr] = True
    succ = [[None] * (nr + 1) for _ in range(nl + 1)]
    for p in range(nl, -1, -1):
        for q in range(nr, -1, -1):
            best = None
            if p < nl:
                hit = _scan(lam[p + 1 :, q], present[p + 1 :, q], rl[p:], twol[p])
                if hit is not None:
                    best, w = hit
                    take = (LEFT, p + 1 + w)
            if q < nr:
                hit = _scan(lam[p, q + 1 :], present[p, q + 1 :], rr[q:], twor[q])
                if hit is not None and (best is None or hit[0] > best):
                    best, w = hit
                    take = q + 1 + w
            if best is not None:
                lam[p, q] = best
                present[p, q] = True
                succ[p][q] = take
    lam = [
        [v if here else None for v, here in zip(vrow, hrow)]
        for vrow, hrow in zip(lam.tolist(), present)
    ]
    trace = DistDpTrace(lam, succ)
    if deadline < 0 or lam[0][0] is None:
        raise Infeasible(f"no plan finishes by {deadline}", trace)
    return trace, _build_solution(inst, lam, succ)


def solve_distance_2d_heap(inst, deadline, check=False):
    """Front-index solver in O(n_l n_r); lam matches
    solve_distance_2d_cubic.  One _distance_line call fills column n_r,
    the left side's line, one the bottom row, and one each row above it,
    with its column steps.  check=True asserts _check_top for every
    column and row front at every state, and the runs of column n_r and
    the bottom row against the scalar loop."""
    left = inst.left
    right = inst.right
    nl = left.n
    nr = right.n
    # column n_r, the left side's line: the whole table when the right
    # side is empty
    line = [None] * nl + [deadline]
    moves = [None] * (nl + 1)
    _distance_line(left, line, moves, check)
    if not nr:
        left_of = {w: None if w is None else (LEFT, w) for w in set(moves)}
        lam = [[v] for v in line]
        succ = [[left_of[w]] for w in moves]
    else:
        # the left moves, shared; the row kernel's bare w is a right move
        left_of = [(LEFT, w) for w in range(nl + 1)]
        lam = [[None] * (nr + 1) for _ in line]
        succ = [[None] * (nr + 1) for _ in line]
        for p, w in enumerate(moves):
            lam[p][nr] = line[p]
            if w is not None:
                succ[p][nr] = left_of[w]
        two = [2 * t for t in right.tau] if nl else None
        _distance_line(right, lam[nl], succ[nl], check, two)
        if nl:
            # column fronts serve the left term and live for the whole sweep
            fronts = [-1] * nr
            tops = [None] * nr
            slacks = [_NO_SLACK] * nr
            for p in range(nl - 1, -1, -1):
                cols = (left, lam, p, fronts, tops, slacks, left_of)
                _distance_line(right, lam[p], succ[p], check, two, cols)
    trace = DistDpTrace(lam, succ)
    if deadline < 0 or lam[0][0] is None:
        raise Infeasible(f"no plan finishes by {deadline}", trace)
    return trace, _build_solution(inst, lam, succ)
