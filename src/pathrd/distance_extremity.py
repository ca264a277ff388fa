"""Minimum travel distance under a deadline, one side of the depot.

The plan is built backwards from the deadline.  lam[p] is the latest
moment a vehicle may leave so that customers p.. (0-based canonical
positions) all get served by time D, with lam[n] = D.  Cutting the next
block at q spends 2 tau[p] on the first route, whose dispatch must also
wait for the block's latest release r[q-1]:

    lam[p] = max over q in (p, n] of  lam[q] - 2 tau[p],
             keeping only q with lam[q] - 2 tau[p] >= r[q-1].

A state with no workable q is absent; the instance is infeasible
exactly when lam[0] is absent, and otherwise routes pack gapless so the
total distance is D - lam[0].

The fast kernel, _distance_line, rests on a lemma: lam is nondecreasing
in p, as dropping a suffix's first customer keeps its plan's dispatch,
so the absent states form a prefix.  The threshold 2 tau[p] only grows
as p falls, so a state whose slack lam[q] - r[q-1] misses it is out for
good, and the maximum comes from the largest lam that still passes, at
the smallest index of its group of equal lam: that one has the most
slack.  The kernel keeps that state as one index, the front f, which
only moves down.  A front that misses the threshold slides to the
smallest index of the next group below it, and a new state whose lam
equals lam[f] becomes the front.  Each state is passed over once: O(n).

While f holds, lam[p] = lam[f] - 2 tau[p] on every state whose
threshold f's slack meets, and as tau grows those states run down to a
bound one bisect finds.  A run longer than RUN is filled by slice
assignment, its values top - 2 tau computed by one int64 operation over
the side's arrays on an all-int line within MAX_MAGNITUDE, and by a
list comprehension elsewhere (_run_values).
The interior-depot solver runs the kernel once per row.  A depot at an
extremity is the interior case with an empty left side:
solve_distance_heap and solve_distance_quadratic are the one row of
distance_general's fast and cubic solvers on
GeneralInstance(EMPTY_SIDE, side).
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .instance import EMPTY_SIDE, MAX_MAGNITUDE, GeneralInstance
from .solution import RIGHT, distance_solution, name_side

__all__ = ["DistDpTrace", "solve_distance_quadratic", "solve_distance_heap"]

# A run is filled by slice only when its front has just changed and the
# state RUN below still meets the front's slack.  Lines cut into many
# routes hold runs of 1-20 states: filling at every front made their
# distance solves 1.5-1.9x slower than the scalar loop alone, RUN = 16
# left a two-sided grid 1.05-1.12x slower, and 32 or 64 no slower.  The
# time kernel's runs, in time_extremity, use the same length.
RUN = 32


@dataclass(frozen=True)
class DistDpTrace:
    """lam[p]: latest feasible dispatch for the suffix from p (None when
    absent), lam[n] = deadline; succ[p]: the q the maximum came from.
    The 2-D solvers of distance_general return this class with [p][q]
    tables, moves written as solution.distance_solution reads them; a 1-D
    trace is the one row of such a trace with an empty left side."""

    lam: list
    succ: list


# no solver calls this; perfbench/case.py's replay and test_solution.py do
def _build_solution(side, label, lam, succ):
    return name_side(label, distance_solution(EMPTY_SIDE, side, [lam], [succ]))


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


def _distance_line(side, lam, succ, merge=False, check=False):
    """Fill lam[0..n-1] and succ[0..n-1] of side's line from the given
    lam[n], n = side.n, which may be 0; None marks an absent state, and
    succ[p] is the raw q the maximum came from.

    f is the front, -1 when there is none.  With merge, lam[p] and
    succ[p] already hold the other side's candidate, None when it is
    absent, which the kernel reads before it overwrites them; the
    candidate wins ties.  check=True asserts _check_top at every state,
    the ones a run fills included.
    """
    r = side.r
    tau = side.tau
    n = len(r)
    f = -1 if lam[n] is None else n
    fresh = True
    p = n - 1
    while p >= 0:
        # the scalar loop; a run fill leaves it, to resume below the run
        for p in range(p, -1, -1):
            threshold = 2 * tau[p]
            value = None
            while f >= 0:
                top = lam[f]
                slack = top - r[f - 1]
                if slack >= threshold:
                    value = top - threshold
                    q = f
                    break
                # pop: slide to the smallest index of the next lower group
                fresh = True
                f -= 1
                if f == p:
                    f = -1
                    break
                low = lam[f]
                while f - 1 > p and lam[f - 1] == low:
                    f -= 1
            if fresh and value is not None:
                fresh = False
                # a run: every state from p down to the lowest whose
                # threshold slack meets takes top - 2 tau from f; as
                # lam[p] < top, none of them joins f's group
                if (
                    p >= RUN
                    and slack >= 2 * tau[p - RUN]
                    and value < top
                    and (not merge or lam[p] is None or lam[p] < top)
                ):
                    a = bisect_left(tau, -slack, 0, p - RUN, key=_minus_two)
                    vals = _run_values(top, side, a, p + 1)
                    if merge:
                        others = lam[a : p + 1]
                        preds = succ[a : p + 1]
                        succ[a : p + 1] = [
                            f if o is None or o < v else w
                            for o, v, w in zip(others, vals, preds)
                        ]
                        lam[a : p + 1] = [
                            v if o is None or o < v else o for o, v in zip(others, vals)
                        ]
                    else:
                        lam[a : p + 1] = vals
                        succ[a : p + 1] = [f] * len(vals)
                    if check:
                        for s in range(p, a - 1, -1):
                            _check_top(lam, r, tau, s, f)
                    p = a - 1
                    break
            if check:
                _check_top(lam, r, tau, p, f)
            if merge:
                other = lam[p]
                if other is not None and (value is None or other >= value):
                    value = other
                    q = succ[p]
            if value is not None:
                lam[p] = value
                succ[p] = q
                # an equal value joins the front's group, which p now leads
                if f < 0 or value == top:
                    f = p
                    fresh = True
        else:
            break


def _row(solve, side, deadline, label, *args):
    """The one row of solve on GeneralInstance(EMPTY_SIDE, side), an
    Infeasible's trace included, its routes on side label."""
    name_side(label)
    try:
        trace, solution = solve(GeneralInstance(EMPTY_SIDE, side), deadline, *args)
    except Infeasible as exc:
        exc.trace = DistDpTrace(exc.trace.lam[0], exc.trace.succ[0])
        raise
    return DistDpTrace(trace.lam[0], trace.succ[0]), name_side(label, solution)


# the 1-D solvers import distance_general on call, as it imports this module
def solve_distance_quadratic(side, deadline, label=RIGHT):
    """Reference solver: scan every successor of every state; the one
    row of distance_general.solve_distance_2d_cubic."""
    from .distance_general import solve_distance_2d_cubic

    return _row(solve_distance_2d_cubic, side, deadline, label)


def solve_distance_heap(side, deadline, label=RIGHT, check=False):
    """Linear-time solver, the one row of
    distance_general.solve_distance_2d_heap; lam matches
    solve_distance_quadratic exactly, the empty side included.
    check=True asserts _check_top at every state."""
    from .distance_general import solve_distance_2d_heap

    return _row(solve_distance_2d_heap, side, deadline, label, check)
