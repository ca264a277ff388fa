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
absent.  Ties prefer the left term, then the smallest w; succ[p][q] is
w for the right term and (LEFT, w) for the left.  The cubic baseline
scans both terms of every state with one full line scan, _scan.  With
an empty left side the table is one row, the 1-D table that
distance_extremity's solvers return.

The fast solver is a kernel plus a column step.  lam is nondecreasing
along rows and columns, so each line is served as in distance_extremity,
by one front index that only moves down.  Row by row from the bottom,
the column step first moves every column's front by one row and writes
the left term into the row; then one call of _distance_line merges the
row's right term into it in place.  Each state is passed over once per
line: O(n_l n_r).  The column step moves n_r + 1 lines by one state
each, so it is written inline.
"""

import numpy as np

from .distance_extremity import DistDpTrace, _check_top, _distance_line
from .errors import Infeasible
from .instance import table_dtype
from .solution import LEFT, distance_solution

__all__ = ["solve_distance_2d_cubic", "solve_distance_2d_heap"]


def _build_solution(inst, lam, succ):
    return distance_solution(inst.left, inst.right, lam, succ)


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
    solve_distance_2d_cubic.  check=True asserts _check_top for every
    column and row front at every state."""
    nl = inst.left.n
    nr = inst.right.n
    rl, taul = inst.left.r, inst.left.tau
    # shared left moves for the column step; the row kernel's bare w is a right move
    left_of = [(LEFT, w) for w in range(nl + 1)]
    lam = [[None] * (nr + 1) for _ in range(nl + 1)]
    succ = [[None] * (nr + 1) for _ in range(nl + 1)]
    lam[nl][nr] = deadline
    # column fronts serve the left term and live for the whole sweep; an
    # empty left side steps no column
    fronts = [-1] * (nr + 1) if nl else []
    for p in range(nl, -1, -1):
        lp = lam[p]
        sp = succ[p]
        if p < nl:
            # column step: each column's line gains state p + 1 and
            # yields its left term at row p
            threshold = 2 * taul[p]
            below = lam[p + 1]
            for q in range(nr + 1):
                f = fronts[q]
                v = below[q]
                if v is not None and (f < 0 or lam[f][q] == v):
                    f = p + 1
                while f >= 0:
                    top = lam[f][q]
                    if top - rl[f - 1] >= threshold:
                        lp[q] = top - threshold
                        sp[q] = left_of[f]
                        break
                    f -= 1
                    if f == p:
                        f = -1
                        break
                    low = lam[f][q]
                    while f - 1 > p and lam[f - 1][q] == low:
                        f -= 1
                fronts[q] = f
                if check:
                    _check_top([row[q] for row in lam], rl, taul, p, f)
        if nr:
            # the right term along the row; the left term wins ties
            _distance_line(inst.right, lp, sp, p < nl, check)
    trace = DistDpTrace(lam, succ)
    if deadline < 0 or lam[0][0] is None:
        raise Infeasible(f"no plan finishes by {deadline}", trace)
    return trace, _build_solution(inst, lam, succ)
