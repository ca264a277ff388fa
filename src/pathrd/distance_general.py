"""Minimum travel distance under a deadline, depot inside the path.

Backwards dynamic program over pairs of side suffixes.  lam[p][q] is
the latest dispatch such that left customers p.. and right customers
q.. can all be served by the deadline, lam[n_l][n_r] = D.  The next
route serves a block of one side; cutting the left at w costs a route
of 2 taul[p] whose dispatch must also cover the block's last release:

    lam[p][q] = max( max over w in (p, n_l] of  lam[w][q] - 2 taul[p]
                         keeping w with lam[w][q] - rl[w-1] >= 2 taul[p],
                     the symmetric right term ),

absent when both terms come up empty; infeasible iff lam[0][0] is
absent.  Ties prefer the left term, then the smallest w.

The fast solver mirrors the 1-D heap solver per line: each column
carries a raw max-heap of (-lam, w) paired with a min-heap of
(lam - release, w) and a dead flag per w, and each row likewise.
Scanning p (and q within a row) downward only raises the release
thresholds 2 taul[p] and 2 taur[q], so an entry that fails one is
popped from the slack heap and flagged dead, which drops it from the
lam heap permanently.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .errors import Infeasible
from .solution import DISTANCE, LEFT, RIGHT, Route, Solution

__all__ = ["DistDp2Trace", "solve_distance_2d_cubic", "solve_distance_2d_heap"]


@dataclass(frozen=True)
class DistDp2Trace:
    """lam[p][q]: latest feasible dispatch for the suffix pair (None when
    absent), lam[n_l][n_r] = deadline; succ[p][q]: (side, w) it came from."""

    lam: list
    succ: list


def _build_solution(inst, lam, succ):
    p = 0
    q = 0
    nl = inst.left.n
    nr = inst.right.n
    routes = []
    while p < nl or q < nr:
        side_name, w = succ[p][q]
        if side_name == LEFT:
            side = inst.left
            routes.append(
                Route(LEFT, p, w - 1, lam[p][q], 2 * side.tau[p], side.deliveries(p, w - 1))
            )
            p = w
        else:
            side = inst.right
            routes.append(
                Route(RIGHT, q, w - 1, lam[p][q], 2 * side.tau[q], side.deliveries(q, w - 1))
            )
            q = w
    value = sum(route.duration for route in routes)
    return Solution(DISTANCE, value, tuple(routes))


def solve_distance_2d_cubic(inst, deadline):
    """Reference solver: scan both successor lines of every state."""
    nl = inst.left.n
    nr = inst.right.n
    if nl == 0 and nr == 0:
        if deadline < 0:
            raise Infeasible(f"deadline {deadline} is before time zero")
        return DistDp2Trace([[deadline]], [[None]]), Solution(DISTANCE, 0, ())
    arrays = [np.asarray(deadline)]
    if nl:
        arrays += [np.asarray(inst.left.r), np.asarray(inst.left.tau)]
    if nr:
        arrays += [np.asarray(inst.right.r), np.asarray(inst.right.tau)]
    dt = np.result_type(*arrays)
    rl = np.asarray(inst.left.r, dtype=dt)
    twol = 2 * np.asarray(inst.left.tau, dtype=dt)
    rr = np.asarray(inst.right.r, dtype=dt)
    twor = 2 * np.asarray(inst.right.tau, dtype=dt)
    lam = np.zeros((nl + 1, nr + 1), dtype=dt)
    present = np.zeros((nl + 1, nr + 1), dtype=bool)
    lam[nl, nr] = deadline
    present[nl, nr] = True
    succ = [[None] * (nr + 1) for _ in range(nl + 1)]
    for p in range(nl, -1, -1):
        for q in range(nr, -1, -1):
            if p == nl and q == nr:
                continue
            best = None
            take = None
            if p < nl:
                col = lam[p + 1 :, q]
                ok = present[p + 1 :, q] & (col - rl[p:] >= twol[p])
                if ok.any():
                    vals = col - twol[p]
                    top = vals[ok].max()
                    w = p + 1 + int(np.flatnonzero(ok & (vals == top))[0])
                    best = top
                    take = (LEFT, w)
            if q < nr:
                row = lam[p, q + 1 :]
                ok = present[p, q + 1 :] & (row - rr[q:] >= twor[q])
                if ok.any():
                    vals = row - twor[q]
                    top = vals[ok].max()
                    if best is None or top > best:
                        best = top
                        take = (RIGHT, q + 1 + int(np.flatnonzero(ok & (vals == top))[0]))
            if take is not None:
                lam[p, q] = best
                present[p, q] = True
                succ[p][q] = take
    if not present[0, 0]:
        raise Infeasible(f"no plan finishes by {deadline}")
    lam_list = [
        [v if here else None for v, here in zip(vrow, hrow)]
        for vrow, hrow in zip(lam.tolist(), present)
    ]
    trace = DistDp2Trace(lam_list, succ)
    return trace, _build_solution(inst, lam_list, succ)


def solve_distance_2d_heap(inst, deadline, check=False):
    """Paired-heap solver; lam table matches solve_distance_2d_cubic.

    Each column and each row keeps raw (-lam, w) and (lam - release, w)
    heaps, as the 1-D heap solver does: an eviction pops the slack heap
    and flags w dead, and the lam heap discards dead tops lazily.  A
    state evicted from its column may still be live in its row, so
    every column and every row has its own dead flags.

    check=True asserts every eviction misses the current threshold,
    thresholds never decrease along a column or row, and heap contents
    only ever reference states computed earlier in the sweep.
    """
    nl = inst.left.n
    nr = inst.right.n
    if nl == 0 and nr == 0:
        if deadline < 0:
            raise Infeasible(f"deadline {deadline} is before time zero")
        return DistDp2Trace([[deadline]], [[None]]), Solution(DISTANCE, 0, ())
    rl = inst.left.r
    taul = inst.left.tau
    rr = inst.right.r
    taur = inst.right.tau
    lam = [[None] * (nr + 1) for _ in range(nl + 1)]
    succ = [[None] * (nr + 1) for _ in range(nl + 1)]
    lam[nl][nr] = deadline
    # column heaps serve the left term and live for the whole sweep
    col_lam = [[] for _ in range(nr + 1)]
    col_slack = [[] for _ in range(nr + 1)]
    col_dead = [bytearray(nl + 1) for _ in range(nr + 1)]
    if nl >= 1:
        col_lam[nr].append((-deadline, nl))
        col_slack[nr].append((deadline - rl[nl - 1], nl))
    col_thr = [None] * (nr + 1) if check else None
    for p in range(nl, -1, -1):
        # row heaps serve the right term and last for this row only
        row_lam = []
        row_slack = []
        row_dead = bytearray(nr + 1)
        if p == nl and nr >= 1:
            row_lam.append((-deadline, nr))
            row_slack.append((deadline - rr[nr - 1], nr))
        row_thr = None
        for q in range(nr, -1, -1):
            if p == nl and q == nr:
                continue
            best = None
            take = None
            if p < nl:
                threshold = 2 * taul[p]
                if check:
                    assert col_thr[q] is None or threshold >= col_thr[q]
                    col_thr[q] = threshold
                by_lam = col_lam[q]
                by_slack = col_slack[q]
                dead = col_dead[q]
                while by_slack and by_slack[0][0] < threshold:
                    slack, w = heappop(by_slack)
                    if check:
                        assert w > p and not dead[w] and slack < threshold
                    dead[w] = 1
                while by_lam and dead[by_lam[0][1]]:
                    heappop(by_lam)
                if by_lam:
                    top, w = by_lam[0]
                    if check:
                        assert w > p
                    best = -top - threshold
                    take = (LEFT, w)
            if q < nr:
                threshold = 2 * taur[q]
                if check:
                    assert row_thr is None or threshold >= row_thr
                    row_thr = threshold
                while row_slack and row_slack[0][0] < threshold:
                    slack, w = heappop(row_slack)
                    if check:
                        assert w > q and not row_dead[w] and slack < threshold
                    row_dead[w] = 1
                while row_lam and row_dead[row_lam[0][1]]:
                    heappop(row_lam)
                if row_lam:
                    top, w = row_lam[0]
                    if check:
                        assert w > q
                    cand = -top - threshold
                    if best is None or cand > best:
                        best = cand
                        take = (RIGHT, w)
            if take is None:
                continue
            lam[p][q] = best
            succ[p][q] = take
            if p >= 1:
                heappush(col_lam[q], (-best, p))
                heappush(col_slack[q], (best - rl[p - 1], p))
            if q >= 1:
                heappush(row_lam, (-best, q))
                heappush(row_slack, (best - rr[q - 1], q))
    if lam[0][0] is None:
        raise Infeasible(f"no plan finishes by {deadline}")
    trace = DistDp2Trace(lam, succ)
    return trace, _build_solution(inst, lam, succ)
