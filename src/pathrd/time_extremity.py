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
_time_line: solve_time_linear is one call of it, and the interior-depot
solver runs it once per row.  The quadratic solver is the baseline the
fast one is checked against; both return the same tables.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .instance import EMPTY_SIDE
from .solution import RIGHT, TIME, Solution, time_solution

__all__ = ["TimeDpTrace", "solve_time_quadratic", "solve_time_linear"]


@dataclass(frozen=True)
class TimeDpTrace:
    """c[i]: best completion for the first i customers; pred[i]: the j
    the minimum was taken at, ties to the smallest j.  The 2-D solvers
    of time_general return this class with [i][j] tables: c[i][j] and
    pred[i][j] = (side, w), None at the origin."""

    c: list
    pred: list


def _build_solution(side, label, c, pred):
    return time_solution(EMPTY_SIDE, side, [c], [pred], label)


def solve_time_quadratic(side, label=RIGHT):
    """Reference solver: evaluate every predecessor of every state."""
    n = side.n
    if n == 0:
        return TimeDpTrace([0], [0]), Solution(TIME, 0, ())
    r = np.asarray(side.r)
    two_tau = 2 * np.asarray(side.tau)
    c = np.zeros(n + 1, dtype=np.result_type(r, two_tau))
    pred = [0] * (n + 1)
    for i in range(1, n + 1):
        cand = np.maximum(c[:i], r[i - 1]) + two_tau[:i]
        j = int(cand.argmin())
        c[i] = cand[j]
        pred[i] = j
    c = c.tolist()
    return TimeDpTrace(c, pred), _build_solution(side, label, c, pred)


def _check_line(line, tau, release, k, window):
    """Assert one line's invariants: states 0..k are released, the rest
    are not, and the window front is the smallest (line[w] + 2 tau[w], w)
    over the unreleased states."""
    assert all(v <= release for v in line[: k + 1])
    assert all(v > release for v in line[k + 1 :])
    assert all(w > k for _, w in window)
    front = min(((v + 2 * tau[w], w) for w, v in enumerate(line) if w > k), default=None)
    assert (window[0] if window else None) == front


def _time_line(r, tau, c, pred, merge=False, check=False):
    """Fill c[1..n] and pred[1..n] of one line from the given c[0],
    n = len(r); pred[i] is the raw j the minimum was taken at.

    With merge, c[i] and pred[i] already hold the other side's
    candidate, which the kernel reads before it overwrites them; the
    candidate wins ties.  c[0] may exceed the first releases, so the
    cursor starts at -1 and state 0 enters the window like any other.
    check=True asserts _check_line per state.
    """
    # cand holds (a_j, j) with a_j = c[j] + 2 tau[j+1] for j in (k, i-1],
    # values nondecreasing front to back; equal values all stay so the
    # front is always the smallest j among minima
    cand = deque()
    k = -1
    for i in range(1, len(r) + 1):
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
        else:
            best, bj = cand[0]
        if merge and c[i] <= best:
            best = c[i]
            bj = pred[i]
        c[i] = best
        pred[i] = bj


def solve_time_linear(side, label=RIGHT):
    """One-pass solver; output matches solve_time_quadratic exactly."""
    c = [0] * (side.n + 1)
    pred = [0] * (side.n + 1)
    _time_line(side.r, side.tau, c, pred)
    return TimeDpTrace(c, pred), _build_solution(side, label, c, pred)
