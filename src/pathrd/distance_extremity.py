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

The fast solver keeps live states in a max-heap ordered by lam paired
with a min-heap ordered by lam[q] - r[q-1].  While scanning p downward
the release threshold 2 tau[p] only grows, so states failing it now
fail it forever and both heap entries can be dropped for good.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import Infeasible
from .solution import DISTANCE, RIGHT, Route, Solution

__all__ = ["DistDpTrace", "solve_distance_quadratic", "solve_distance_heap"]


@dataclass(frozen=True)
class DistDpTrace:
    """lam[p]: latest feasible dispatch for the suffix from p (None when
    absent), lam[n] = deadline; succ[p]: the q the maximum came from."""

    lam: list
    succ: list


def _build_solution(side, label, lam, succ):
    routes = []
    p = 0
    n = side.n
    while p < n:
        q = succ[p]
        routes.append(
            Route(label, p, q - 1, lam[p], 2 * side.tau[p], side.deliveries(p, q - 1))
        )
        p = q
    # equals deadline - lam[0] exactly on integer data; summing the
    # durations keeps the value consistent with the routes on floats too
    value = sum(route.duration for route in routes)
    return Solution(DISTANCE, value, tuple(routes))


def solve_distance_quadratic(side, deadline, label=RIGHT):
    """Reference solver: scan every successor of every state."""
    n = side.n
    if n == 0:
        if deadline < 0:
            raise Infeasible(f"deadline {deadline} is before time zero")
        return DistDpTrace([deadline], [None]), Solution(DISTANCE, 0, ())
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
        # the slack comparison is written exactly as the heap solver
        # tests it, so float rounding cannot split the two
        ok = present[p + 1 :] & (lam[p + 1 :] - r[p:] >= two_tau[p])
        if ok.any():
            vals = lam[p + 1 :] - two_tau[p]
            best = vals[ok].max()
            succ[p] = p + 1 + int(np.flatnonzero(ok & (vals == best))[0])
            lam[p] = best
            present[p] = True
    if not present[0]:
        raise Infeasible(f"no plan finishes by {deadline}")
    lam_list = [v if here else None for v, here in zip(lam.tolist(), present)]
    trace = DistDpTrace(lam_list, succ)
    return trace, _build_solution(side, label, lam_list, succ)


def solve_distance_heap(side, deadline, label=RIGHT, check=False):
    """Heap solver; lam table matches solve_distance_quadratic exactly.

    The two heaps hold raw (key, state) pairs keyed by the shared state
    index: an eviction pops the slack heap and flags the state dead, and
    the lam heap discards dead tops lazily.  There are no per-entry
    handle objects, which is what keeps million-customer instances
    inside the time budget.

    With check=True every eviction is asserted sound: the dropped state
    really misses the current release threshold, and thresholds never
    decrease, so dropping from both heaps permanently is safe.
    """
    n = side.n
    if n == 0:
        if deadline < 0:
            raise Infeasible(f"deadline {deadline} is before time zero")
        return DistDpTrace([deadline], [None]), Solution(DISTANCE, 0, ())
    r = side.r
    tau = side.tau
    lam = [None] * (n + 1)
    succ = [None] * (n + 1)
    lam[n] = deadline
    by_lam = [(-deadline, n)]
    by_slack = [(deadline - r[n - 1], n)]
    dead = bytearray(n + 1)
    last_threshold = None
    for p in range(n - 1, -1, -1):
        threshold = 2 * tau[p]
        if check:
            assert last_threshold is None or threshold >= last_threshold
            last_threshold = threshold
        while by_slack and by_slack[0][0] < threshold:
            slack, q = heappop(by_slack)
            if check:
                assert q > p and not dead[q] and slack < threshold
            dead[q] = 1
        while by_lam and dead[by_lam[0][1]]:
            heappop(by_lam)
        if by_lam:
            top, q = by_lam[0]
            value = -top - threshold
            lam[p] = value
            succ[p] = q
            if p >= 1:
                heappush(by_lam, (-value, p))
                heappush(by_slack, (value - r[p - 1], p))
    if lam[0] is None:
        raise Infeasible(f"no plan finishes by {deadline}")
    trace = DistDpTrace(lam, succ)
    return trace, _build_solution(side, label, lam, succ)
