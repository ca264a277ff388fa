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
in p, as dropping a suffix's first customer keeps its plan's dispatch.
So a deque of bare state indices keeps lam strictly decreasing front to
back, a new state replacing the back states of equal lam: the smaller
index has more slack.  The threshold 2 tau[p] only grows as p falls, so
a front whose slack lam[q] - r[q-1] misses it is popped for good, and
the first front that passes is the maximum.  Each state enters and
leaves once: O(n).  solve_distance_heap is one call of it, and the
interior-depot solver runs it once per row.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible
from .instance import EMPTY_SIDE
from .solution import DISTANCE, RIGHT, Solution, distance_solution

__all__ = ["DistDpTrace", "solve_distance_quadratic", "solve_distance_heap"]


@dataclass(frozen=True)
class DistDpTrace:
    """lam[p]: latest feasible dispatch for the suffix from p (None when
    absent), lam[n] = deadline; succ[p]: the q the maximum came from.
    DistDp2Trace is this class, holding distance_general's lam[p][q] and
    succ[p][q] = (side, w)."""

    lam: list
    succ: list


def _build_solution(side, label, lam, succ):
    return distance_solution(EMPTY_SIDE, side, [lam], [succ], label)


def solve_distance_quadratic(side, deadline, label=RIGHT):
    """Reference solver: scan every successor of every state."""
    n = side.n
    if n == 0:
        trace = DistDpTrace([deadline], [None])
        if deadline < 0:
            raise Infeasible(f"deadline {deadline} is before time zero", trace)
        return trace, Solution(DISTANCE, 0, ())
    r = np.asarray(side.r)
    tau = np.asarray(side.tau)
    dt = np.result_type(r, tau, np.asarray(deadline))
    lam = np.zeros(n + 1, dtype=dt)
    present = np.zeros(n + 1, dtype=bool)
    lam[n] = deadline
    present[n] = True
    succ = [None] * (n + 1)
    two_tau = 2 * tau
    for p in range(n - 1, -1, -1):
        # the slack comparison is written exactly as the fast kernel
        # tests it, so float rounding cannot split the two
        ok = present[p + 1 :] & (lam[p + 1 :] - r[p:] >= two_tau[p])
        if ok.any():
            vals = lam[p + 1 :] - two_tau[p]
            best = vals[ok].max()
            succ[p] = p + 1 + int(np.flatnonzero(ok & (vals == best))[0])
            lam[p] = best
            present[p] = True
    lam_list = [v if here else None for v, here in zip(lam.tolist(), present)]
    trace = DistDpTrace(lam_list, succ)
    if not present[0]:
        raise Infeasible(f"no plan finishes by {deadline}", trace)
    return trace, _build_solution(side, label, lam_list, succ)


def _check_top(line, r, tau, p, live):
    """Assert one line's deque of state indices after eviction at state
    p: thresholds never decrease along the line, the deque holds only
    states after p with line strictly decreasing front to back, and its
    front is the smallest (-line[w], w) over the present states w > p
    whose slack line[w] - r[w-1] meets the threshold 2 tau[p]."""
    threshold = 2 * tau[p]
    assert p == len(r) - 1 or threshold >= 2 * tau[p + 1]
    assert all(w > p for w in live)
    assert all(line[a] > line[b] for a, b in zip(live, list(live)[1:]))
    best = min(
        (
            (-v, w)
            for w, v in enumerate(line)
            if w > p and v is not None and v - r[w - 1] >= threshold
        ),
        default=None,
    )
    assert ((-line[live[0]], live[0]) if live else None) == best


def _distance_line(r, tau, lam, succ, ext=None, ext_pred=None, check=False):
    """Fill lam[0..n-1] and succ[0..n-1] of one line from the given
    lam[n], n = len(r), which may be 0; None marks an absent state, and
    succ[p] is the raw q the maximum came from.

    The deque holds bare indices, keyed by lam.  ext[p], when given and
    not None, is the other side's candidate; it wins ties and then
    stores ext_pred[p].  It is read before lam[p] is written, so the
    line itself may serve as ext.  check=True asserts _check_top.
    """
    n = len(r)
    live = deque() if lam[n] is None else deque((n,))
    for p in range(n - 1, -1, -1):
        threshold = 2 * tau[p]
        value = None
        while live:
            q = live[0]
            top = lam[q]
            if top - r[q - 1] >= threshold:
                value = top - threshold
                break
            live.popleft()
        if check:
            _check_top(lam, r, tau, p, live)
        if ext is not None:
            other = ext[p]
            if other is not None and (value is None or other >= value):
                value = other
                q = ext_pred[p]
        if value is not None:
            lam[p] = value
            succ[p] = q
            if p >= 1:
                while live and lam[live[-1]] == value:
                    live.pop()
                live.append(p)


def solve_distance_heap(side, deadline, label=RIGHT, check=False):
    """Linear-time solver; lam matches solve_distance_quadratic exactly,
    the empty side included.  check=True asserts _check_top at every state."""
    lam = [None] * side.n + [deadline]
    succ = [None] * (side.n + 1)
    _distance_line(side.r, side.tau, lam, succ, check=check)
    trace = DistDpTrace(lam, succ)
    if deadline < 0 or lam[0] is None:
        raise Infeasible(f"no plan finishes by {deadline}", trace)
    return trace, _build_solution(side, label, lam, succ)
